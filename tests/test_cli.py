import importlib
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from shadowlab.cli import emit, main
from shadowlab.expansivity import ExpansivityVerdict
from shadowlab.numerics import from_pairs
from shadowlab.scenarios import REGISTRY, Report, run_scenario
from shadowlab.systems import (
    CantorSystem,
    OdometerSystem,
    PiecewiseLinearMap,
    golden_mean_shift,
    logistic_map,
    tent_map,
)


REQUIRED_SCENARIOS = {
    "cantor-2.8", "tent-ball-2.9", "slimit-3", "iterate-3.8", "hshadow-4.3",
    "pl-region-5.2", "logistic-5.4", "kneading-5.6", "odometer-6.1", "sft-6.4",
}


def test_registry_contains_required_names():
    assert REQUIRED_SCENARIOS <= set(REGISTRY)


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario")


def test_cli_unknown_scenario_is_one_line_error(capsys):
    assert main(["scenario", "run", "no-such-scenario"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "unknown scenario 'no-such-scenario'" in lines[0]
    assert all(name in lines[0] for name in REGISTRY)
    assert captured.out == ""


def make_report():
    report = Report("demo", {"seed": 1})
    report.add("alpha", "1/2", "1/2", "constant")
    report.add("beta", 3, 3, "oracle")
    return report


def test_emit_json_bit_stable(tmp_path):
    r1, r2 = make_report(), make_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit(r1, "json", p1)
    emit(r2, "json", p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["status"] == "pass"
    assert str(p1) in r1.artifacts


def test_emit_csv_matches_json_checks(tmp_path):
    report = make_report()
    pj, pc = tmp_path / "r.json", tmp_path / "r.csv"
    emit(report, "json", pj)
    emit(report, "csv", pc)
    rows = pc.read_text().strip().splitlines()[1:]
    labels_csv = sorted(row.split(",")[0] for row in rows)
    labels_json = sorted(c["label"] for c in json.loads(pj.read_text())["checks"])
    assert labels_csv == labels_json


def test_emit_empty_report(tmp_path):
    report = Report("empty", {})
    path = tmp_path / "e.csv"
    emit(report, "csv", path)
    assert path.read_text().strip() == "label,status,expected,actual,provenance"


def test_report_status_semantics():
    report = make_report()
    assert report.status == "pass"
    report.add("gamma", 1, 2, "oracle")
    assert report.status == "fail"


def test_cli_scenario_list_and_run(tmp_path, capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in REQUIRED_SCENARIOS:
        assert name in out

    target = tmp_path / "slimit.json"
    code = main(["scenario", "run", "slimit-3", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["status"] == "pass"


def test_cli_scenario_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["scenario", "run", "slimit-3", "--out", str(a)]) == 0
    assert main(["scenario", "run", "slimit-3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_shadow_solve_round_trip(tmp_path, capsys):
    system = tent_map(2)
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system.to_json()))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("1/4\n1/2\n1/1\n")
    code = main(["shadow", "oracle", "--system", str(sys_path),
                 "--orbit", str(orbit_path), "--epsilon", "1/8"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is True
    assert data["witness"] == "7/32"


def test_cli_shadow_on_quadratic_writes_verdict_to_out(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(logistic_map(4).to_json()))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("1/2\n1/1\n0/1\n")
    out = tmp_path / "verdict.json"
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/100", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["value"] == "yes"
    # the exact-hit solver does not take quadratic maps: one line, exit code 2
    code = main(["shadow", "solve", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "QuadraticFamilyMap" in captured.err


def test_cli_quadratic_oracle_stops_at_the_exact_iteration_limit(tmp_path):
    # every point traces this 30-point orbit, so its first point is iterated exactly to
    # the end; the bit length doubles per step and, unchecked, grows until memory runs out
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(logistic_map("387/100").to_json()))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("1/2\n" * 30)
    proc = subprocess.run([sys.executable, "-m", "shadowlab.cli", "shadow", "oracle", "--system", str(sys_path),
                           "--orbit", str(orbit_path), "--epsilon", "1/2"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "limited to points of 8388608 bits" in proc.stderr


def test_cli_rejects_false_claimed_delta(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    orbit_path = tmp_path / "orbit.json"
    # the first jump |T(1/3) − 1/10| = 17/30 is far above the claimed 1/1000
    orbit_path.write_text(json.dumps({"points": ["1/3", "1/10", "1/2"], "claimedDelta": "1/1000"}))
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "claimed delta" in captured.err


def test_cli_rejects_a_violated_decay_schedule(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    orbit_path = tmp_path / "orbit.json"
    # the second jump |T(2/3) − 1/3| = 1/3 is above its scheduled bound 0
    orbit_path.write_text(json.dumps({"points": ["1/3", "2/3", "1/3"], "decaySchedule": ["1/2", "0/1"]}))
    code = main(["shadow", "solve", "--system", str(sys_path), "--orbit", str(orbit_path), "--epsilon", "1/8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "shadowlab: error: decay schedule violated at index 1\n"


def test_cli_rejects_system_json_missing_a_field(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps({"kind": "pl"}))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("1/4\n")
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "'breakpoints'" in captured.err


def test_cli_expansivity_check(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    code = main(["expansivity", "check", "--property", "ball", "--system", str(sys_path),
                 "--mu", "2", "--nu", "1/4"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] == "certified"
    code = main(["expansivity", "check", "--property", "expanding", "--system", str(sys_path),
                 "--delta", "1/10", "--mu", "2"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["counterexample"]["inequality"]


def test_cli_falsifies_a_violation_thinner_than_the_nudge(tmp_path, capsys, monkeypatch):
    # every violating pair lies within about 10⁻²¹ of y − x = δ; the check used to
    # answer "certified", exit 0; its pair passes the benchmark's own check
    sys_path = tmp_path / "tent2.json"
    sys_path.write_text('{"kind":"pl","breakpoints":["0/1","1/2","1/1"],"values":["0/1","1/1","0/1"]}')
    mu = "400000000000000000001/300000000000000000000"
    code = main(["expansivity", "check", "--property", "expanding", "--system", str(sys_path),
                 "--region", '[["0","49/100"],["3/5","1"]]', "--delta", "3/25", "--mu", mu])
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] == "falsified" and code == 1  # 1: a verdict other than certified
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    check = importlib.import_module("workloads")._check_expanding(
        tent_map(2), from_pairs([(0, F(49, 100)), (F(3, 5), 1)]), F(3, 25), F(mu), seed=0)
    assert check(ExpansivityVerdict(data["property"], data["holds"], data["constants"], data["counterexample"])) is None


def test_cli_open_check_without_point_is_a_usage_error(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    with pytest.raises(SystemExit) as exc:
        main(["expansivity", "check", "--property", "open", "--system", str(sys_path)])
    assert exc.value.code == 2
    assert "--property open requires --at" in capsys.readouterr().err


def test_cli_open_check_with_a_region_is_a_usage_error(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    with pytest.raises(SystemExit) as exc:
        main(["expansivity", "check", "--property", "open", "--system", str(sys_path), "--at", "1/2",
              "--region", "[[0, 1]]"])
    assert exc.value.code == 2
    assert "--property open reads no --region" in capsys.readouterr().err


@pytest.mark.parametrize("system, code, holds", [
    (PiecewiseLinearMap(("0", "1/2", "1"), ("0", "4/5", "0")), 1, "falsified"),  # the peak 4/5 is no end of [0, 1]
    (tent_map(2), 0, "certified"),
], ids=["peak-4/5", "tent-2"])
def test_cli_open_check_at_the_peak(tmp_path, capsys, system, code, holds):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system.to_json()))
    assert main(["expansivity", "check", "--property", "open", "--system", str(sys_path), "--at", "1/2"]) == code
    assert json.loads(capsys.readouterr().out)["holds"] == holds


@pytest.mark.parametrize("system", [golden_mean_shift(), OdometerSystem(4)])
def test_cli_expanding_check_on_symbolic_system_is_one_line_error(tmp_path, capsys, system):
    # without --region the check reads the whole space after its own class check;
    # the refusal used to name whole_space_region, which the user did not call
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system.to_json()))
    code = main(["expansivity", "check", "--property", "expanding", "--system", str(sys_path),
                 "--delta", "1/4", "--mu", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"shadowlab: error: check_expanding does not support {type(system).__name__}\n"


def test_cli_open_check_on_the_shift_names_check_open_at(tmp_path, capsys):
    # the open check reads no region; it used to ask for the whole space first
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(golden_mean_shift().to_json()))
    code = main(["expansivity", "check", "--property", "open", "--system", str(sys_path), "--at", "0(0)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "shadowlab: error: check_open_at does not support ShiftSystem\n"


@pytest.mark.parametrize("system, prop, region, part", [
    # each of these used to print "holds": "certified" and exit 0
    (tent_map(2), "expanding", [[2, 3]], "[2/1, 3/1]"),
    (tent_map(2), "ball", [[2, 3]], "[2/1, 3/1]"),
    (tent_map(2), "locally-injective", [[0, 1], [2, 3]], "[2/1, 3/1]"),
    (logistic_map(4), "star", [[2, 3]], "[2/1, 3/1]"),  # its minDerivative was taken outside [0, 1]
    (CantorSystem(6), "expanding", [["1/5", "1/4"]], "[1/5, 1/4]"),  # a gap of the depth-6 space
])
def test_cli_rejects_region_outside_the_space(tmp_path, capsys, system, prop, region, part):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system.to_json()))
    code = main(["expansivity", "check", "--property", prop, "--system", str(sys_path),
                 "--region", json.dumps(region)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and f"region part {part} is not in the space" in captured.err


@pytest.mark.parametrize("region, message", [
    # the first two used to certify with exit 0, the third named a part [0/1, 2/1]
    # never written, the fourth printed the JSON error without the flag, and the
    # empty string was read as the whole space and certified
    ('["01"]', "an interval set is a list of [lo, hi] pairs"),
    ("{}", "an interval set is a list of [lo, hi] pairs"),
    ('[["0","1"],"12"]', "an interval set is a list of [lo, hi] pairs"),
    ("0,1", "Extra data: line 1 column 2 (char 1)"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
])
def test_cli_malformed_region_is_a_one_line_error(tmp_path, capsys, region, message):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    code = main(["expansivity", "check", "--property", "ball", "--mu", "2", "--nu", "1/4", "--grid", "3",
                 "--system", str(sys_path), "--region", region])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"shadowlab: error: --region: {message}\n"


def test_cli_empty_region_list_is_the_empty_region(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    code = main(["expansivity", "check", "--property", "ball", "--mu", "2", "--nu", "1/4", "--grid", "3",
                 "--system", str(sys_path), "--region", "[]"])
    assert code == 0 and json.loads(capsys.readouterr().out)["holds"] == "certified"


def test_cli_region_on_symbolic_system_keeps_the_class_error(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(golden_mean_shift().to_json()))
    code = main(["expansivity", "check", "--property", "expanding", "--system", str(sys_path),
                 "--region", "[[0, 1]]"])
    captured = capsys.readouterr()
    assert code == 2 and "check_expanding does not support ShiftSystem" in captured.err


def test_cli_rejects_orbit_point_outside_the_space(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("1/4\n3/2\n")
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "orbit point 1 (3/2)" in captured.err


@pytest.mark.parametrize("word", ["0120", "10", "10000"])
def test_cli_rejects_malformed_odometer_word(tmp_path, capsys, word):
    # 0120 used to be read as the tuple (0, 1, 2, 0) and answered feasible with witness 0000
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps({"kind": "odometer", "depth": 4}))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text(f"{word}\n1000\n")
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and f"'{word}' is not a depth-4 binary word" in captured.err


def test_cli_odometer_oracle_above_search_depth_is_one_line_error(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps({"kind": "odometer", "depth": 40}))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text(f"{'0' * 40}\n{'1' * 40}\n{'0' * 40}\n")
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path),
                 "--epsilon", "1/4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "limited to depth 20, got depth 40" in captured.err


def test_cli_oracle_stops_growing_sets_at_the_stated_limit(tmp_path, capsys):
    # tent(2) about the constant orbit 1/2 at ε = 9/20: T_0 would need about 2·10⁸ parts at
    # 31 points, and the backward sets pass 2^16 parts at T_12 (19 points, 106,572 parts)
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("1/2\n" * 31)
    start = time.perf_counter()
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path), "--epsilon", "9/20"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "shadowlab: error: tracing set T_12 has 106572 parts, past the limit of 65536\n"


@pytest.mark.parametrize("system_text, args, message", [
    # each of these used to end in a traceback with exit code 1
    (None, ["--region", "[[0.1, 1]]"], "not a rational: 0.1"),
    ('{"kind": "pl", "breakpoints": [0, 0.5, 1], "values": [0, 1, 0]}', [], "not a rational: 0.5"),
    ("[1, 2]", [], "system JSON must be an object, not list"),
    (None, ["--mu", "1/0"], "not a rational: '1/0'"),
    ("missing", [], "No such file or directory"),
])
def test_cli_bad_expansivity_input_is_one_line_error(tmp_path, capsys, system_text, args, message):
    sys_path = tmp_path / "system.json"
    if system_text != "missing":
        sys_path.write_text(system_text or json.dumps(tent_map(2).to_json()))
    code = main(["expansivity", "check", "--property", "expanding", "--system", str(sys_path), *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("orbit_name, epsilon, message", [
    ("orbit.csv", "1/0", "not a rational: '1/0'"),
    ("absent.csv", "1/8", "No such file or directory"),
])
def test_cli_bad_shadow_input_is_one_line_error(tmp_path, capsys, orbit_name, epsilon, message):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    (tmp_path / "orbit.csv").write_text("1/4\n1/2\n")
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(tmp_path / orbit_name),
                 "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("orbit_text, message", [
    # a list ended in a TypeError traceback, {} in a KeyError traceback, both with exit code 1
    ('["1/3", "2/3"]', "orbit JSON must be an object, not list"),
    ("{}", "orbit JSON lacks the field 'points'"),
    # a string was read one character at a time: "not a rational: '/'"
    ('{"points": "1/3"}', "orbit JSON field 'points' must be a list, not str"),
    ('{"points": ["1/3", "1/2"], "decaySchedule": "1/4"}', "orbit JSON field 'decaySchedule' must be a list, not str"),
])
def test_cli_malformed_orbit_json_is_one_line_error(tmp_path, capsys, orbit_text, message):
    sys_path = tmp_path / "tent.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    orbit_path = tmp_path / "o.json"
    orbit_path.write_text(orbit_text)
    code = main(["shadow", "solve", "--system", str(sys_path), "--orbit", str(orbit_path), "--epsilon", "1/10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("point", ["0(10))", "0(1", "01(1)0"])
def test_cli_rejects_malformed_symbolic_point(tmp_path, capsys, point):
    # 0(10)) was read as 0(10) and answered feasible; 01(1)0 became the cycle ('1', ')', '0')
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(golden_mean_shift().to_json()))
    orbit_path = tmp_path / "orbit.json"
    orbit_path.write_text(json.dumps({"points": [point, "(10)"]}))
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path), "--epsilon", "1/2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "expected 'preamble(cycle)'" in captured.err and repr(point) in captured.err


@pytest.mark.parametrize("system_text, message", [
    # the first three ended in a TypeError traceback with exit code 1
    ('{"kind": "pl", "breakpoints": 5, "values": [0, 1]}', "field 'breakpoints' must be a list, not 5"),
    ('{"kind": "cantor", "depth": [3]}', "field 'depth' must be an integer, not [3]"),
    ('{"kind": "sft", "alphabet": "01", "forbidden": 5}', "field 'forbidden' must be a list of str, not 5"),
    # these two ran, at depth 2 and depth 1
    ('{"kind": "cantor", "depth": 2.5}', "field 'depth' must be an integer, not 2.5"),
    ('{"kind": "odometer", "depth": true}', "field 'depth' must be an integer, not True"),
], ids=["pl-breakpoints-int", "cantor-depth-list", "sft-forbidden-int", "cantor-depth-float", "odometer-depth-bool"])
def test_cli_system_json_field_of_the_wrong_type_is_one_line_error(tmp_path, capsys, system_text, message):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(system_text)
    orbit_path = tmp_path / "orbit.csv"
    orbit_path.write_text("0/1\n")
    code = main(["shadow", "oracle", "--system", str(sys_path), "--orbit", str(orbit_path), "--epsilon", "1/4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_cli_ball_check_rejects_an_empty_grid(tmp_path, capsys, grid):
    # --grid 0 used to print "holds": "certified" with gridSize 0 and exit 0
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    code = main(["expansivity", "check", "--property", "ball", "--system", str(sys_path), "--grid", grid])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "--grid must be at least 1" in captured.err


@pytest.mark.parametrize("grid", ["10001", "1000000000000"])
def test_cli_ball_check_refuses_a_grid_past_the_limit(tmp_path, capsys, grid):
    # --grid 1000000000000 built every grid point before the check and did not answer within 20 s
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    start = time.perf_counter()
    code = main(["expansivity", "check", "--property", "ball", "--system", str(sys_path), "--grid", grid])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "shadowlab: error: --grid must be at least 1 and at most 10000\n"


def test_cli_ball_check_takes_a_grid_at_the_limit(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(tent_map(2).to_json()))
    code = main(["expansivity", "check", "--property", "ball", "--system", str(sys_path), "--mu", "2", "--nu", "1/4",
                 "--grid", "10000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["holds"] == "certified" and out["constants"]["gridSize"] == "10000"


@pytest.mark.parametrize("args, name", [
    (["logistic-5.4", "--depth", "3", "--trials", "5"], "'depth'"),
    (["nonshadow-5.3", "--seed", "1"], "'seed'"),
    (["cantor-2.8", "--trials", "2"], "'trials'"),
])
def test_cli_scenario_parameter_it_does_not_take_is_one_line_error(capsys, args, name):
    # these runs used to exit 0 with the flag silently ignored
    code = main(["scenario", "run", *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and name in captured.err and args[0] in captured.err


def test_cli_has_no_precision_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "run", "logistic-5.4", "--precision", "7"])
    assert exc.value.code == 2


def test_run_scenario_names_a_parameter_the_scenario_does_not_take():
    with pytest.raises(ValueError, match="scenario slimit-3 takes no parameter 'seed'"):
        run_scenario("slimit-3", seed=3)


def test_cli_kneading_search(capsys):
    code = main(["kneading", "search", "--horizon", "15", "--steps", "40"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["achieved"] == "RLLRRLRRRLRRRRL"


@pytest.mark.parametrize("args, message", [
    (["--horizon", "0"], "horizon must be >= 1"),
    (["--horizon", "-3"], "horizon must be >= 1"),
    (["--steps", "-1"], "bisection_steps must be >= 0"),
])
def test_cli_kneading_search_rejects_out_of_range_inputs(capsys, args, message):
    # horizon 0 used to answer "matched", horizon -3 to complain about a word
    # longer than its horizon, and steps -1 to answer unmatched at 3/2
    code = main(["kneading", "search", *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_cli_kneading_search_stops_at_the_precision_ladder():
    # at mu = 15/8 the word is not certified at 3072 bits; exact iteration past
    # that point doubles its bit length per step and would not return
    proc = subprocess.run([sys.executable, "-m", "shadowlab.cli", "kneading", "search",
                           "--horizon", "6000", "--steps", "4"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "mu = 15/8, horizon 6000 is not certified at 3072 bits" in proc.stderr


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "shadowlab.cli", "scenario", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "kneading-5.6" in proc.stdout
