"""shadowlab benchmark: seeded query workloads timed from outside the package.

    python3 perfbench/run.py --workload pl-trace --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --list-metrics

Single process, single thread, closed loop with one client: each query is
sent only after the previous answer came back.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that gives the
per-layer metrics (calls and self time per traced function, counts read from
the answers, the tracing overhead and the wall time of every golden
scenario).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, and the run record.

``correct`` means: the 12 golden scenario reports match byte for byte, every
pass over the query set reproduced the first pass's output digest, and no
worker crashed.  Answers that fail the independent checks are counted in
``failed`` and in ``correct_frac``; they do not hide the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

WORKLOADS = ("pl-trace", "cantor-expand", "smooth-enclose", "symbolic-trace")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5  # set-up is timed in this many processes around the main run; the median is reported
TRACE_SHARE = 0.3  # share of --seconds given to each half of a traced run
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 170

# Query times are reported in "ref": multiples of the time of the worker's
# reference chunk timed just before each query (see worker.py).  The seconds
# are kept in the run record.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "query_p50_ref": "ref",
    "query_tail_ref": "ref",
    "correct_frac": "1",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict:
    from goldens import SCENARIO_PARAMS
    from layers import COUNT_UNITS, counted_keys, traced_keys

    units = {}
    for key in traced_keys():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    for key in counted_keys():
        units[f"{key}.calls"] = "count"
    units.update(COUNT_UNITS)
    units["trace_overhead_frac"] = "1"
    for name in SCENARIO_PARAMS:
        units[f"scenarios.{name}.wall_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(seed: int) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "loadavg": loadavg,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(workload: str, seed: int, seconds: float, trace: bool = False, setup_only: bool = False) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    t0 = time.monotonic()
    return _child(args + ["--t0", repr(t0)])


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "shadowlab").rglob("*.py"), *(HERE / "goldens").glob("*.json"),
                        HERE / "goldens.py"]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def golden_check(force: bool) -> tuple[bool, dict]:
    """Diff the 12 scenario reports against the goldens.  Without ``force`` a
    pass is remembered per source tree, so the untraced runs of one checkout
    pay for it once; the traced run always re-runs them for their wall times."""
    marker = OUT_DIR / f"goldens-{source_hash()}.ok"
    if not force and marker.is_file():
        return True, {}
    results = _child([str(HERE / "goldens.py"), "--json"])
    ok = all(r["match"] for r in results.values())
    if ok:
        OUT_DIR.mkdir(exist_ok=True)
        marker.write_text("all 12 golden reports matched\n")
    return ok, results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    # spread over the run, so that one fast or slow phase of a shared host does not set the median
    before = (SETUP_SAMPLES - 1) // 2
    setups = [worker(workload, seed, 0, setup_only=True)["setup_s"] for _ in range(before)]
    main_run = worker(workload, seed, seconds)
    setups.append(main_run["setup_s"])
    setups += [worker(workload, seed, 0, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)]
    rel = main_run["query_ref"]
    lat = main_run["query_median_s"]
    p = tail_percentile(len(rel))
    values = {
        "setup_s": statistics.median(setups),
        "wall_ref": sum(rel),
        "query_p50_ref": statistics.median(rel),
        "query_tail_ref": percentile(rel, p),
        "correct_frac": 1 - main_run["failed"] / main_run["attempted"],
        "peak_rss_mib": main_run["peak_rss_mib"],
    }
    notes = {"tail_percentile": p, "latency_samples": len(rel), "setup_samples_s": setups,
             "passes": main_run["passes"], "ref_median_s": main_run["ref_median_s"], "wall_s": sum(lat),
             "query_p50_ms": statistics.median(lat) * 1000, "query_tail_ms": percentile(lat, p) * 1000}
    return values, notes, main_run


def per_layer(workload: str, seed: int, seconds: float, scenario_walls: dict) -> tuple[dict, dict, dict]:
    share = max(seconds * TRACE_SHARE, 0.1)
    plain = worker(workload, seed, share)
    traced = worker(workload, seed, share, trace=True)
    values = {}
    for key, v in traced["layers"].items():
        values[f"{key}.calls"] = v["calls"]
        if "self_s" in v:
            values[f"{key}.self_s"] = v["self_s"]
    values.update(traced["counts"])
    values["trace_overhead_frac"] = sum(traced["query_ref"]) / sum(plain["query_ref"]) - 1
    for name, r in scenario_walls.items():
        values[f"scenarios.{name}.wall_s"] = r["wall_s"]
    notes = {"untraced_passes": plain["passes"], "traced_passes": traced["passes"],
             "digest_traced_equals_untraced": traced["digest"] == plain["digest"]}
    merged = dict(traced)
    merged["digest_stable"] = (plain["digest_stable"] and traced["digest_stable"]
                               and traced["digest"] == plain["digest"])
    return values, notes, merged


def committed_digest(workload: str):
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload) if path.is_file() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shadowlab" / "__init__.py").is_file():
        print(f"error: no shadowlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.list_metrics:
        for name, unit in END_TO_END.items():
            print(f"end_to_end {name:60s} {unit}")
        for name, unit in per_layer_units().items():
            print(f"per_layer  {name:60s} {unit}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = run_record(args.seed)
    golden_ok, scenario_walls = golden_check(force=bool(args.trace))
    if args.trace:
        values, notes, outcome = per_layer(args.workload, args.seed, args.seconds, scenario_walls)
        units = per_layer_units()
    else:
        values, notes, outcome = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")

    record.update(notes)
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "goldens_match": golden_ok,
        "digest": outcome["digest"],
        "digest_stable": outcome["digest_stable"],
        "failures": outcome["failures"],
    })
    expected = committed_digest(args.workload) if args.seed == DEFAULT_SEED else None
    if expected is not None:
        record["digest_matches_committed"] = outcome["digest"] == expected
    result = {
        "correct": golden_ok and outcome["digest_stable"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2, sort_keys=True) + "\n")

    for name in units:
        print(f"{name:60s} {values[name]:>16.6g} {units[name]}")
    if not args.trace:
        print(f"(query_tail_ref is p{notes['tail_percentile']:g} of {notes['latency_samples']} queries; "
              f"the reference chunk took {notes['ref_median_s'] * 1000:.3f} ms at the median here)")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
