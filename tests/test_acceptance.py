"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Shared machinery is exercised through the scenario registry wherever a
scenario implements the criterion, and each such report must match its
committed golden in ``perfbench/goldens/`` byte for byte; independent
oracles (the dyadic grid scan, direct symbolic recomputation) live here so
the checked path never validates itself.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from shadowlab.expansivity import schwarzian
from shadowlab.pseudo_orbits import perturbed_orbit
from shadowlab.scenarios import run_scenario
from shadowlab.shadowing import shadow_oracle
from shadowlab.systems import quadratic_map, tent_map


def _finish(tag: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{tag}] {status} ({elapsed:.1f}s of {limit:.0f}s budget){extra}")
    assert ok, f"{tag}: checks failed{extra}"
    assert elapsed < limit, f"{tag}: exceeded the {limit}s budget ({elapsed:.1f}s)"


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


def _scenario_ok(report):
    """Every check passes and the report is byte-identical to its committed golden."""
    failing = [c["label"] for c in report.checks if c["status"] != "pass"]
    golden = GOLDEN_DIR / f"{report.scenario}.json"
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    matches = golden.read_bytes() == text.encode("utf-8")
    if not matches:
        failing.insert(0, f"report differs from {golden.name}")
    return report.status == "pass" and matches, "; ".join(failing[:3])


def test_criterion_01_middle_thirds_example():
    t0 = time.time()
    report = run_scenario("cantor-2.8", depth=6)
    ok, detail = _scenario_ok(report)
    labels = [c["label"] for c in report.checks]
    ok = ok and any("expanding certificate" in l for l in labels)
    ok = ok and any("ball expanding falsified at 0" in l for l in labels)
    ok = ok and sum("punctured ball" in l for l in labels) >= 3
    _finish("criterion 01", ok, time.time() - t0, 10.0, detail)


def test_criterion_02_tent_ball_expanding():
    t0 = time.time()
    report = run_scenario("tent-ball-2.9", grid_size=50)
    ok, detail = _scenario_ok(report)
    _finish("criterion 02", ok, time.time() - t0, 10.0, detail)


def test_criterion_03_exact_hit_property_suite():
    t0 = time.time()
    report = run_scenario("hshadow-4.3", trials=1000, seed=7)
    ok, detail = _scenario_ok(report)
    failures = next(c for c in report.checks if c["label"] == "failures")
    ok = ok and failures["actual"] == "0"
    _finish("criterion 03", ok, time.time() - t0, 120.0, detail)


def test_criterion_04_oracle_grid_cross_validation():
    # independent oracle: exact dyadic iteration of the full tent map in
    # 64-bit integers (all values stay below 2^17), with tube bounds rounded
    # through exact rational arithmetic once per step
    t0 = time.time()
    system = tent_map(2)
    bits = 16
    size = 1 << bits
    half = 1 << (bits - 1)
    top = 1 << (bits + 1)
    rng = random.Random(2024)
    disagreements = 0
    for case in range(200):
        length = rng.randint(2, 12)
        eps = F(rng.randint(8, 40), 320)
        delta = eps * F(rng.randint(1, 4), 4)
        x0 = F(rng.getrandbits(16), size)
        orbit = perturbed_orbit(system, x0, length, delta, seed=5000 + case)
        cert = shadow_oracle(system, orbit, eps)

        j = np.arange(size + 1, dtype=np.int64)
        alive = np.ones(size + 1, dtype=bool)
        for x in orbit.points:
            lo = math.ceil((x - eps) * size)
            hi = math.floor((x + eps) * size)
            alive &= (j >= lo) & (j <= hi)
            j = np.where(j <= half, 2 * j, top - 2 * j)

        member = np.zeros(size + 1, dtype=bool)
        if cert.feasible:
            base = np.arange(size + 1, dtype=np.int64)
            for part in cert.feasible_set.parts:
                lo = math.ceil(part.lo * size)
                hi = math.floor(part.hi * size)
                member |= (base >= lo) & (base <= hi)
        disagreements += int(np.count_nonzero(alive != member))
    _finish("criterion 04", disagreements == 0, time.time() - t0, 120.0,
            f"{disagreements} grid disagreements")


def test_criterion_05_squeeze_to_tail_counterexample():
    t0 = time.time()
    report = run_scenario("slimit-3", epsilon="1/4", deltas=("1/10", "1/100"))
    ok, detail = _scenario_ok(report)
    step0 = [c for c in report.checks if "step-0 deviation" in c["label"]]
    ok = ok and len(step0) == 2 and all(c["status"] == "pass" for c in step0)
    _finish("criterion 05", ok, time.time() - t0, 1.0, detail)


def test_criterion_06_iterate_reduction_agreement():
    t0 = time.time()
    report = run_scenario("iterate-3.8", trials=200, seed=7)
    ok, detail = _scenario_ok(report)
    dis = next(c for c in report.checks if "disagreements" in c["label"])
    ok = ok and dis["actual"] == "0"
    _finish("criterion 06", ok, time.time() - t0, 60.0, detail)


def test_criterion_07_staged_tracing():
    t0 = time.time()
    report = run_scenario("staged-3.6", epsilon="1/8", stages=5)
    ok, detail = _scenario_ok(report)
    _finish("criterion 07", ok, time.time() - t0, 30.0, detail)


def test_criterion_08_region_suite():
    t0 = time.time()
    report = run_scenario("pl-region-5.2", trials=500, seed=12)
    ok, detail = _scenario_ok(report)
    failures = next(c for c in report.checks if c["label"] == "failures")
    ok = ok and failures["actual"] == "0"
    _finish("criterion 08", ok, time.time() - t0, 60.0, detail)


def test_criterion_09_nonshadow_witness():
    t0 = time.time()
    report = run_scenario("nonshadow-5.3", horizon=200)
    ok, detail = _scenario_ok(report)
    _finish("criterion 09", ok, time.time() - t0, 120.0, detail)


def test_criterion_10_kneading():
    t0 = time.time()
    report = run_scenario("kneading-5.6", horizon=15, steps=40, tail=200)
    ok, detail = _scenario_ok(report)
    _finish("criterion 10", ok, time.time() - t0, 120.0, detail)


def test_criterion_11_odometer_and_shift_suites():
    t0 = time.time()
    odo = run_scenario("odometer-6.1", depth=12, pairs=10000, orbits=500, seed=9)
    sft = run_scenario("sft-6.4", instances=500, seed=21)
    ok1, d1 = _scenario_ok(odo)
    ok2, d2 = _scenario_ok(sft)
    _finish("criterion 11", ok1 and ok2, time.time() - t0, 60.0, "; ".join(x for x in (d1, d2) if x))


def test_criterion_12_schwarzian():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    for mu in (F(1), F(11, 10), F(3, 2), F(9, 5), F(2)):
        system = quadratic_map(mu)
        done = 0
        while done < 20:
            x = F(rng.randint(-4000, 4000), 4096)
            if x == 0:
                continue
            done += 1
            if schwarzian(system, x) != F(-3, 2) / (x * x):
                ok = False
    _finish("criterion 12", ok, time.time() - t0, 1.0)
