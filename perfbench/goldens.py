"""Golden scenario reports: the 12 registry scenarios at the parameters the
acceptance gate uses, rendered exactly as ``shadowlab scenario run`` writes
them.  The benchmark diffs fresh reports against the committed files byte for
byte before it times anything.

    python3 perfbench/goldens.py            # diff, print per-scenario wall time
    python3 perfbench/goldens.py --write    # regenerate the committed files
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"

# the parameters of tests/test_acceptance.py; logistic-5.4 takes none there
SCENARIO_PARAMS = {
    "cantor-2.8": {"depth": 6},
    "tent-ball-2.9": {"grid_size": 50},
    "slimit-3": {"epsilon": "1/4", "deltas": ("1/10", "1/100")},
    "iterate-3.8": {"trials": 200, "seed": 7},
    "hshadow-4.3": {"trials": 1000, "seed": 7},
    "pl-region-5.2": {"trials": 500, "seed": 12},
    "staged-3.6": {"epsilon": "1/8", "stages": 5},
    "nonshadow-5.3": {"horizon": 200},
    "logistic-5.4": {},
    "kneading-5.6": {"horizon": 15, "steps": 40, "tail": 200},
    "odometer-6.1": {"depth": 12, "pairs": 10000, "orbits": 500, "seed": 9},
    "sft-6.4": {"instances": 500, "seed": 21},
}


def render(name: str) -> tuple[str, float]:
    """The scenario's JSON report text and the wall time of the run."""
    from shadowlab.scenarios import run_scenario

    t0 = time.perf_counter()
    report = run_scenario(name, **SCENARIO_PARAMS[name])
    elapsed = time.perf_counter() - t0
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n", elapsed


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def check_all() -> dict:
    """Re-run every scenario; returns {name: {"match": bool, "wall_s": float}}."""
    out = {}
    for name in SCENARIO_PARAMS:
        text, elapsed = render(name)
        path = golden_path(name)
        match = path.is_file() and path.read_bytes() == text.encode("utf-8")
        out[name] = {"match": match, "wall_s": elapsed}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden files")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead of a table")
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name in SCENARIO_PARAMS:
            text, elapsed = render(name)
            golden_path(name).write_text(text, encoding="utf-8")
            print(f"{name:15s} {elapsed:8.3f} s  written")
        return 0
    results = check_all()
    if args.json:
        print(json.dumps(results, sort_keys=True))
    else:
        for name, r in results.items():
            print(f"{name:15s} {r['wall_s']:8.3f} s  {'match' if r['match'] else 'DIFFERS'}")
    return 0 if all(r["match"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
