"""Command-line surface: scenario runner, tracing solvers, expansion checks,
and kneading parameter search, with bit-stable JSON/CSV report emission."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .expansivity import (
    RegionSpec,
    check_ball_expanding,
    check_expanding,
    check_locally_injective,
    check_open_at,
    check_star,
)
from .kneading import find_parameter, staircase_word, word
from .numerics import RationalIntervalSet, interior_grid, rat
from .pseudo_orbits import checked_orbit, orbit_from_csv, orbit_from_json
from .scenarios import REGISTRY, Report, run_scenario
from .shadowing import h_shadow_solve, quadratic_shadow_verdict, shadow_oracle
from .systems import QuadraticFamilyMap, system_from_json

GRID_LIMIT = 10_000  # the most ε grid points a ball check takes


def emit(report: Report, fmt: str, path) -> None:
    """Write a report deterministically: sorted keys, canonical rationals."""
    path = Path(path)
    if fmt == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "status", "expected", "actual", "provenance"])
        for check in report.checks:
            writer.writerow([check["label"], check["status"], check["expected"],
                             check["actual"], check["provenance"]])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    path.write_text(text, encoding="utf-8")
    report.artifacts.append(str(path))


def _load_system(path: str):
    return system_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def _load_orbit(system, path: str):
    """Parse an orbit file and verify its claimed jump bounds against the system."""
    text = Path(path).read_text(encoding="utf-8")
    orbit = orbit_from_csv(system, text) if path.endswith(".csv") else orbit_from_json(system, text)
    return checked_orbit(system, orbit.points, orbit.claimed_delta, orbit.decay_schedule)


def _print_json(data: dict, out=None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def _print_report(report: Report) -> int:
    for check in report.checks:
        mark = {"pass": "ok  ", "fail": "FAIL"}[check["status"]]
        print(f"[{mark}] {check['label']}: expected {check['expected']!r}, got {check['actual']!r}")
    print(f"scenario {report.scenario}: {report.status}")
    return 0 if report.status == "pass" else 1


def _scenario_params(args) -> dict:
    params = {}
    for key in ("seed", "depth", "trials"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shadowlab",
                                     description="exact tracing and expansion analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("scenario", help="run or list the named scenarios")
    scen_sub = p_list.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("list")
    p_run = scen_sub.add_parser("run")
    p_run.add_argument("name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--depth", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")

    p_shadow = sub.add_parser("shadow", help="tracing queries on a system/orbit pair")
    p_shadow.add_argument("mode", choices=("oracle", "solve"))
    p_shadow.add_argument("--system", required=True)
    p_shadow.add_argument("--orbit", required=True)
    p_shadow.add_argument("--epsilon", required=True)
    p_shadow.add_argument("--out", type=str, default=None)

    p_exp = sub.add_parser("expansivity", help="expansion-property checks")
    exp_sub = p_exp.add_subparsers(dest="expansivity_command", required=True)
    p_check = exp_sub.add_parser("check")
    p_check.add_argument("--property", required=True, dest="prop",
                         choices=("expanding", "star", "ball", "locally-injective", "open"))
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--region", default=None, help="JSON list of [lo, hi] rational pairs")
    p_check.add_argument("--delta", default="1/10")
    p_check.add_argument("--mu", default="2")
    p_check.add_argument("--nu", default="1/4")
    p_check.add_argument("--grid", type=int, default=12)
    p_check.add_argument("--at", default=None, help="point for the openness check")

    p_knead = sub.add_parser("kneading", help="kneading parameter search")
    p_knead.add_argument("search", choices=("search",))
    p_knead.add_argument("--target", default=None, help="word over {L,C,R}; staircase prefix if omitted")
    p_knead.add_argument("--horizon", type=int, default=15)
    p_knead.add_argument("--steps", type=int, default=40)

    args = parser.parse_args(argv)
    if args.command == "expansivity" and args.prop == "open":
        if args.at is None:
            p_check.error("--property open requires --at")
        if args.region is not None:
            p_check.error("--property open reads no --region")
    try:
        return _run(args)
    except (ValueError, OSError) as exc:  # DomainError included; OSError: a file that cannot be read
        print(f"shadowlab: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "scenario":
        if args.scenario_command == "list":
            for name in sorted(REGISTRY):
                print(f"{name:16s} {REGISTRY[name].description}")
            return 0
        if args.name not in REGISTRY:
            raise ValueError(f"unknown scenario {args.name!r}; known: {', '.join(sorted(REGISTRY))}")
        report = run_scenario(args.name, **_scenario_params(args))
        if args.out:
            emit(report, args.format, args.out)
        return _print_report(report)

    if args.command == "shadow":
        system = _load_system(args.system)
        orbit = _load_orbit(system, args.orbit)
        epsilon = rat(args.epsilon)
        if args.mode == "oracle" and isinstance(system, QuadraticFamilyMap):
            result = quadratic_shadow_verdict(system, orbit, epsilon)
            ok = result.value == "yes"
        else:
            result = (shadow_oracle if args.mode == "oracle" else h_shadow_solve)(system, orbit, epsilon)
            ok = result.feasible
        _print_json(result.to_json(), args.out)
        return 0 if ok else 1

    if args.command == "expansivity":
        system = _load_system(args.system)
        try:  # None is the whole space; each check refuses a region outside the space
            region = None if args.region is None else RegionSpec(RationalIntervalSet.from_json(json.loads(args.region)))
        except ValueError as exc:  # malformed JSON included
            raise ValueError(f"--region: {exc}") from None
        if args.prop == "expanding":
            verdict = check_expanding(system, region, rat(args.delta), rat(args.mu))
        elif args.prop == "star":
            verdict = check_star(system, region, rat(args.delta), rat(args.mu))
        elif args.prop == "ball":
            if not 1 <= args.grid <= GRID_LIMIT:  # interior_grid builds every point before the check starts
                raise ValueError(f"--grid must be at least 1 and at most {GRID_LIMIT}")
            nu = rat(args.nu)
            verdict = check_ball_expanding(system, region, rat(args.mu), nu, interior_grid(nu, args.grid))
        elif args.prop == "locally-injective":
            verdict = check_locally_injective(system, region)
        else:
            verdict = check_open_at(system, args.at)  # the point is read after the class check
        _print_json(verdict.to_json())
        return 0 if verdict.holds == "certified" else 1

    if args.command == "kneading":
        target = word(args.target) if args.target else staircase_word(args.horizon)
        result = find_parameter(target, args.horizon, args.steps)
        _print_json(result.to_json())
        return 0 if result.matched else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
