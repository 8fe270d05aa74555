"""One measured process: set up a workload, then answer its query set in a
closed loop (one client, the next query only after the previous answer) for
a fixed amount of query time.

    python3 perfbench/worker.py --workload pl-trace --seed 1 --seconds 5 --t0 <monotonic>

``--t0`` is the monotonic clock reading of the parent just before it started
this process, so ``setup_s`` runs from process start to the first timed
query.  The process prints one JSON object.  Each pass's answers are hashed
in order as canonical JSON; the first pass is checked independently with the
tracer paused, and every later pass must reproduce the first pass's digest.
So ``attempted`` and ``failed`` count each query of the set once: they depend
on the seed only, not on how many passes fit into the measured time.

Each query is answered once per pass.  Between queries, after every
REF_EVERY_S of query time, the process also times a fixed chunk of Fraction
arithmetic, the reference chunk.  Each latency is divided by the time of the
reference chunk run just before it, and a query's relative latency is the
median of these ratios over the passes.  A shared host switches between fast
and slow phases every few seconds (the reference chunk takes nearly twice as
long in a slow one); a query and the reference chunk timed a tenth of a
second before it nearly always fall in the same phase, so their ratio
varies between runs several times less than the seconds or a ratio of
whole-run medians do.  The seconds are reported too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


REF_EVERY_S = 0.1  # well below the length of the host's fast and slow phases
REF_ITERATIONS = 1500  # 9 ms (fast phase) to 17 ms (slow phase) on a 2 GHz Xeon
HALF = Fraction(1, 2)


def reference_chunk() -> int:
    """Fixed interpreter work of the same kind as shadowlab's: small
    Fraction products, sums and comparisons.  It never changes with the
    program under test."""
    hits = 0
    for i in range(1, REF_ITERATIONS):
        if Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1) + Fraction(1, i) < HALF:
            hits += 1
    return hits


class Raised:
    """Stands in for the answer of a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def to_json(self) -> dict:
        return {"raised": self.text}


def canonical(result) -> str:
    if hasattr(result, "to_json"):
        data = result.to_json()
    elif isinstance(result, Fraction):
        data = f"{result.numerator}/{result.denominator}"
    elif result is None or isinstance(result, dict):
        data = result
    elif hasattr(result, "symbols"):  # KneadingWord
        data = {"symbols": result.symbols, "horizon": result.horizon}
    else:
        raise TypeError(f"no canonical form for {type(result).__name__}")
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(canonical(r).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--trace", action="store_true", help="trace layers (per-layer numbers only)")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    # exact answers on long quadratic orbits carry rationals of more than
    # the default 4300 digits, which to_json() cannot print otherwise
    sys.set_int_max_str_digits(0)
    import workloads
    from layers import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    queries = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "queries": len(queries)}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    setup_layers = tracer.snapshot()

    clock = time.perf_counter
    latencies: list[list[float]] = [[] for _ in queries]
    relative: list[list[float]] = [[] for _ in queries]
    ref_times: list[float] = []
    pass_walls: list[float] = []
    failures: list[str] = []
    first_digest = None
    stable = True
    while not pass_walls or sum(pass_walls) < args.seconds:
        results = []
        since_ref = REF_EVERY_S
        pass_wall = 0.0
        for i, q in enumerate(queries):
            if since_ref >= REF_EVERY_S:
                t = clock()
                reference_chunk()
                ref_times.append(clock() - t)
                since_ref = 0.0
            t = clock()
            try:
                r = q.call()
            except Exception as exc:  # a query that raises is a failed answer, not a crash
                r = Raised(exc)
            dt = clock() - t
            latencies[i].append(dt)
            relative[i].append(dt / ref_times[-1])
            since_ref += dt
            pass_wall += dt
            results.append(r)
        pass_walls.append(pass_wall)
        tracer.active = False
        d = digest(results)
        if first_digest is None:
            first_digest = d
            for q, r in zip(queries, results):
                reason = r.text if isinstance(r, Raised) else q.check(r)
                if reason is not None:
                    failures.append(f"{q.label}: {reason}")
            out["counts"] = workloads.computed_counts(queries, results)
        stable = stable and d == first_digest
        tracer.active = args.trace

    tracer.active = False
    passes = len(pass_walls)
    out.update({
        "passes": passes,
        "pass_wall_s": pass_walls,
        "query_median_s": [statistics.median(lat) for lat in latencies],
        "query_ref": [statistics.median(rel) for rel in relative],
        "ref_median_s": statistics.median(ref_times),
        "attempted": len(queries),
        "failed": len(failures),
        "failures": failures,
        "digest": first_digest,
        "digest_stable": stable,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if args.trace:
        final = tracer.snapshot()
        layers = {}
        for key, v in final.items():
            s = setup_layers[key]
            entry = {"calls": s["calls"] + (v["calls"] - s["calls"]) / passes}
            if "self_s" in v:
                entry["self_s"] = s["self_s"] + (v["self_s"] - s["self_s"]) / passes
            layers[key] = entry
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
