"""Named, reproducible analysis scenarios and their machine-readable reports.

Each scenario bundles one coherent piece of the library's behaviour: a
certificate, a counterexample construction, or a randomized property suite.
Runs are deterministic given their parameter record (seeds included) and
every numeric check carries a provenance tag saying how its expected value
was obtained: ``constant`` (a pinned rational), ``construction`` (derived
from the object's definition), ``oracle`` (an independent computation), or
``property`` (a bulk pass/fail count).
"""

from __future__ import annotations

import inspect
import math as _math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .expansivity import (
    RegionSpec,
    check_ball_expanding,
    check_expanding,
    check_locally_injective,
    crosscheck_expanding_characterizations,
    region_of,
)
from .kneading import (
    critical_orbit_separation,
    find_parameter,
    is_recurrent_prefix,
    staircase_word,
)
from .numerics import (
    ClosedInterval,
    RationalIntervalSet,
    from_pairs,
    interior_grid,
    normalize,
    point_set,
    rat,
    rat_str,
)
from .pseudo_orbits import PseudoOrbit, deviation, perturbed_orbit, traces, verify_jumps
from .shadowing import (
    asymptotic_shadow,
    ball_expanding_delta,
    h_shadow_solve,
    h_shadow_via_iterate,
    make_decaying_orbit,
    nonshadow_witness_tent,
    quadratic_shadow_verdict,
    shadow_oracle,
    slimit_counterexample_check,
    slimit_minimal_tail_index,
    tent_critical_orbit_gap,
)
from .systems import (
    CantorSystem,
    OdometerSystem,
    SLimitSystem,
    SymbolicPoint,
    golden_mean_shift,
    logistic_map,
    random_zigzag_map,
    tent_map,
)
from .systems import orbit as true_orbit

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass
class Report:
    scenario: str
    params: dict
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def add(self, label: str, expected, actual, provenance: str):
        status = "pass" if expected == actual else "fail"
        self.checks.append(
            {"label": label, "expected": str(expected), "actual": str(actual),
             "status": status, "provenance": provenance}
        )

    @property
    def status(self) -> str:
        return "fail" if any(c["status"] == "fail" for c in self.checks) else "pass"

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "status": self.status,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "checks": self.checks,
            "artifacts": list(self.artifacts),
        }


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    run: Callable[..., Report]


# ---------------------------------------------------------------------------
# middle-thirds expanding map
# ---------------------------------------------------------------------------


def _expected_ball_image(system: CantorSystem, first: int) -> RationalIntervalSet:
    """Image of the pieces of index |m| ≥ first+2 about 0, built from the
    piece geometry alone: they land on pieces first … depth−2.  Those are
    the pieces strictly inside radius 2/3^(first+1) and within closed radius
    1/3^(first+1), whose image is the slice of [0, 1/3^(first−1)]."""
    parts = [ClosedInterval(ZERO, ZERO)]
    for k in range(first, system.depth - 1):
        parts.extend(system.piece_set(k, resolution=system.depth - 1).parts)
    return normalize(parts)


def run_cantor_example(depth: int = 6) -> Report:
    report = Report("cantor-2.8", {"depth": depth})
    mirror = CantorSystem(depth, "mirror")
    fold = CantorSystem(depth, "fold")

    verdict = check_expanding(mirror, None, Fraction(1, 9), Fraction(3))
    report.add("expanding certificate, delta=1/9 mu=3 (mirror convention)",
               "certified", verdict.holds, "constant")

    verdict_fold = check_expanding(fold, None, Fraction(1, 9), Fraction(3))
    report.add("expanding fails under the one-sided image convention (fold)",
               "falsified", verdict_fold.holds, "oracle")
    if verdict_fold.counterexample:
        report.add("fold counterexample re-validates",
                   True, "inequality" in verdict_fold.counterexample, "oracle")

    for n in (4, 5, 6):
        lhs = fold.ball_image(Fraction(2, 3**n), closed=False)
        rhs = _expected_ball_image(fold, n - 1)
        report.add(f"one-sided image of the punctured ball of radius 2/3^{n} (fold)",
                   rhs.to_json(), lhs.to_json(), "construction")
        lhs_c = fold.ball_image(Fraction(1, 3 ** (n - 1)), closed=True)
        rhs_c = _expected_ball_image(fold, n - 2)
        report.add(
            f"image of the closed ball of radius 1/3^{n - 1} fills the [0, 1/3^{n - 3}] slice (fold)",
            rhs_c.to_json(), lhs_c.to_json(), "construction")
        if rhs_c.parts:
            report.add(f"that slice tops out at 1/3^{n - 3}",
                       rat_str(Fraction(1, 3 ** (n - 3))), rat_str(rhs_c.hull().hi), "constant")

    # deeper space so the radius-2/3^6 ball actually contains pieces
    deep = CantorSystem(8, "fold")
    lhs = deep.ball_image(Fraction(2, 3**6), closed=False)
    rhs = _expected_ball_image(deep, 5)
    report.add("one-sided image of the punctured ball of radius 2/3^6 (fold, depth 8)",
               rhs.to_json(), lhs.to_json(), "construction")

    grid = [Fraction(1, 81), Fraction(1, 243)]
    for mode, system in (("fold", fold), ("mirror", mirror)):
        verdict = check_ball_expanding(system, RegionSpec(point_set(ZERO)), Fraction(3),
                                       Fraction(1, 27), grid)
        report.add(f"ball expanding falsified at 0 ({mode})", "falsified", verdict.holds, "oracle")

    cross = crosscheck_expanding_characterizations(fold, RegionSpec(point_set(ZERO)))
    report.add("characterization crosscheck at 0 stays consistent", True, cross["consistent"], "oracle")
    report.add("not open at 0", "falsified", cross["open"], "oracle")
    return report


# ---------------------------------------------------------------------------
# full tent map
# ---------------------------------------------------------------------------


def run_tent_ball_example(grid_size: int = 50) -> Report:
    report = Report("tent-ball-2.9", {"grid_size": grid_size})
    system = tent_map(2)
    nu = Fraction(1, 4)
    grid = interior_grid(nu, grid_size)
    verdict = check_ball_expanding(system, None, Fraction(2), nu, grid)
    report.add("ball expanding certified on [0,1], mu=2 nu=1/4", "certified", verdict.holds, "constant")

    exp = check_expanding(system, None, Fraction(1, 10), Fraction(2))
    report.add("expanding falsified on [0,1]", "falsified", exp.holds, "oracle")
    if exp.counterexample:
        x, y = rat(exp.counterexample["x"]), rat(exp.counterexample["y"])
        report.add("counterexample pair is symmetric about the kink",
                   rat_str(ONE), rat_str(x + y), "oracle")

    inj = check_locally_injective(system, None)
    report.add("locally one-to-one falsified on [0,1]", "falsified", inj.holds, "oracle")
    report.add("falsification point is the kink", "1/2",
               inj.counterexample["criticalPoint"], "construction")

    away = check_expanding(system, region_of(("0", "2/5")), Fraction(1, 10), Fraction(2))
    report.add("expanding certified on [0, 2/5]", "certified", away.holds, "oracle")

    cross = crosscheck_expanding_characterizations(system, region_of(("1/10", "2/5")))
    report.add("characterization crosscheck on [1/10, 2/5]", True,
               cross["consistent"] and cross["side2"] == "certified", "oracle")
    return report


# ---------------------------------------------------------------------------
# interval-plus-tail homeomorphism
# ---------------------------------------------------------------------------


def run_slimit_example(epsilon="1/4", deltas=("1/10", "1/100")) -> Report:
    epsilon = rat(epsilon)
    report = Report("slimit-3", {"epsilon": rat_str(epsilon), "deltas": ",".join(str(d) for d in deltas)})
    system = SLimitSystem(tail_depth=12)
    for delta in deltas:
        delta = rat(delta)
        n = slimit_minimal_tail_index(delta)
        result = slimit_counterexample_check(system, n, epsilon, delta)
        tag = f"delta={rat_str(delta)}"
        report.add(f"{tag}: jump bound holds", True, result["isDeltaPseudoOrbit"], "construction")
        report.add(f"{tag}: only the tail point converges to the tail", True,
                   result["uniqueTailConverger"], "construction")
        report.add(f"{tag}: step-0 deviation is 1/2 + 2^-{n} exactly",
                   rat_str(result["step0Expected"]), rat_str(result["step0Deviation"]), "construction")
        report.add(f"{tag}: deviation exceeds epsilon", True,
                   result["maxDeviation"] > epsilon, "constant")
        report.add(f"{tag}: overall", True, result["passed"], "construction")
    return report


# ---------------------------------------------------------------------------
# iterate reduction
# ---------------------------------------------------------------------------


def run_iterate_reduction(trials: int = 200, seed: int = 7) -> Report:
    report = Report("iterate-3.8", {"trials": trials, "seed": seed})
    system = tent_map(2)
    epsilon = Fraction(1, 10)
    delta = epsilon / 8
    region = from_pairs([(0, 1)])
    support = from_pairs([("1/10", "9/10")])
    rng = random.Random(seed)

    disagreements = 0
    exact_hits = 0
    done = 0
    while done < trials:
        length = rng.randint(4, 24)
        x0 = Fraction(1, 10) + Fraction(8, 10) * Fraction(rng.getrandbits(24), 1 << 24)
        orbit = perturbed_orbit(system, x0, length, delta, seed=seed * 1_000_003 + done,
                                region=support)
        if len(orbit) < 3:
            continue
        done += 1
        direct = h_shadow_solve(system, orbit, epsilon)
        routed = h_shadow_via_iterate(system, 2, region, orbit, epsilon)
        if direct.feasible != routed.feasible:
            disagreements += 1
        if routed.feasible and routed.report.exact_hit and routed.report.max_deviation <= epsilon:
            exact_hits += 1
    report.add("feasibility disagreements between the two routes", 0, disagreements, "oracle")
    report.add("iterate-route traces land exactly on the final point", trials, exact_hits, "property")

    # degenerate reduction and crafted infeasible agreement
    orbit = perturbed_orbit(system, Fraction(1, 3), 8, delta, seed=seed, region=support)
    same = h_shadow_via_iterate(system, 1, region, orbit, epsilon)
    direct = h_shadow_solve(system, orbit, epsilon)
    report.add("n=1 reduction matches the direct solver",
               (direct.feasible, rat_str(direct.witness)), (same.feasible, rat_str(same.witness)),
               "oracle")

    bad = PseudoOrbit((Fraction(1, 5), Fraction(9, 10), Fraction(1, 5), Fraction(9, 10)))
    tiny = Fraction(1, 200)
    direct_bad = h_shadow_solve(system, bad, tiny)
    report.add("crafted far-jump orbit is infeasible directly", False, direct_bad.feasible, "oracle")
    return report


# ---------------------------------------------------------------------------
# exact-hit tracing property suite
# ---------------------------------------------------------------------------


def run_exact_hit_suite(trials: int = 1000, seed: int = 7, epsilon="1/10") -> Report:
    epsilon = rat(epsilon)
    report = Report("hshadow-4.3", {"trials": trials, "seed": seed, "epsilon": rat_str(epsilon)})
    nu = Fraction(1, 4)
    cases = [("tent slope 2", tent_map(2), trials - 10 * (trials // 20))]
    for k in range(10):
        zig = random_zigzag_map(seed * 37 + k)
        cases.append((f"zigzag #{k}", zig, trials // 20))

    grid = interior_grid(nu, 10)
    failures = 0
    ran = 0
    rng = random.Random(seed)
    for label, system, count in cases:
        mu = system.min_slope_modulus()
        verdict = check_ball_expanding(system, None, mu, nu, grid)
        report.add(f"{label}: ball expanding certified (mu={rat_str(mu)})",
                   "certified", verdict.holds, "oracle")
        eps_prime, delta = ball_expanding_delta(mu, nu, epsilon)
        for i in range(count):
            length = rng.randint(2, 50)
            x0 = Fraction(rng.getrandbits(24), 1 << 24)
            orbit = perturbed_orbit(system, x0, length, delta, seed=seed + 7919 * (ran + 1))
            cert = h_shadow_solve(system, orbit, eps_prime)
            ran += 1
            ok = (cert.feasible and cert.report.exact_hit
                  and cert.report.max_deviation <= eps_prime)
            if not ok:
                failures += 1
    report.add("pseudo-orbits traced with exact terminal hit", trials, ran - failures, "property")
    report.add("failures", 0, failures, "property")
    return report


# ---------------------------------------------------------------------------
# tracing away from the kink in a short tent map
# ---------------------------------------------------------------------------


def run_region_suite(trials: int = 500, seed: int = 12) -> Report:
    report = Report("pl-region-5.2", {"trials": trials, "seed": seed})
    system = tent_map(Fraction(9, 5))
    region = from_pairs([("1/20", "9/20"), ("11/20", "19/20")])
    mu, nu = Fraction(9, 5), Fraction(1, 20)
    grid = interior_grid(nu, 12)
    verdict = check_ball_expanding(system, RegionSpec(region, margin=Fraction(1, 20)), mu, nu, grid)
    report.add("ball expanding certified on the two-band region", "certified", verdict.holds, "oracle")

    epsilon = Fraction(1, 25)
    eps_prime, delta = ball_expanding_delta(mu, nu, epsilon)
    rng = random.Random(seed)
    failures = 0
    ran = 0
    attempts = 0
    while ran < trials and attempts < trials * 20:
        attempts += 1
        part = region.parts[rng.randrange(len(region.parts))]
        x0 = part.lo + part.width * Fraction(rng.getrandbits(20), 1 << 20)
        orbit = perturbed_orbit(system, x0, rng.randint(2, 50), delta,
                                seed=seed * 65537 + attempts, region=region)
        if len(orbit) < 2:
            continue
        ran += 1
        cert = h_shadow_solve(system, orbit, eps_prime)
        if not (cert.feasible and cert.report.exact_hit and cert.report.max_deviation <= eps_prime):
            failures += 1
    report.add("orbits drawn from the region", trials, ran, "property")
    report.add("failures", 0, failures, "property")
    return report


# ---------------------------------------------------------------------------
# staged tracing of a decaying pseudo-orbit
# ---------------------------------------------------------------------------


def run_staged_tracing(epsilon="1/8", stages: int = 5, block: int = 12, seed: int = 3) -> Report:
    epsilon = rat(epsilon)
    report = Report("staged-3.6", {"epsilon": rat_str(epsilon), "stages": stages,
                                   "block": block, "seed": seed})
    system = tent_map(2)
    orbit = make_decaying_orbit(system, Fraction(2, 7), epsilon, stages, block, seed)
    region = from_pairs([(0, 1)])
    log = asymptotic_shadow(system, orbit, region, epsilon, stages=stages)
    report.add("construction completed all stages", True, log.completed, "construction")
    report.add("stage count", stages + 1, len(log.stage_points), "construction")
    report.add("conditions (a)-(d) hold at every stage", True, log.all_conditions_hold(), "construction")
    if log.completed:
        z_last = log.stage_points[-1]
        k_lo, k_hi = log.stage_horizons[-2], log.stage_horizons[-1]
        w = z_last
        worst = ZERO
        for j in range(k_hi + 1):
            if j > k_lo:
                d = abs(w - orbit.points[j])
                worst = max(worst, d)
            if j < k_hi:
                w = system.evaluate(w)
        report.add(f"terminal-stage deviation within eps/2^{stages + 1}",
                   True, worst <= epsilon / 2 ** (stages + 1), "construction")
    return report


# ---------------------------------------------------------------------------
# failure of tracing for a deflected kink orbit
# ---------------------------------------------------------------------------


def run_nonshadow_search(horizon: int = 200) -> Report:
    report = Report("nonshadow-5.3", {"horizon": horizon})
    lam = Fraction(_math.isqrt(2 * 4**40), 1 << 40)
    report.add("slope is within 2^-40 of sqrt(2)", True,
               abs(lam * lam - 2) < Fraction(1, 2**38), "construction")

    found = None
    for eps_exp in (11, 12, 13):
        epsilon = Fraction(1, 2**eps_exp)
        gap = tent_critical_orbit_gap(lam, horizon)
        if gap <= 2 * epsilon:
            continue
        for delta_div in (4, 8):
            delta = epsilon / delta_div
            orbit, cert = nonshadow_witness_tent(lam, epsilon, delta, horizon=horizon)
            if not cert.feasible:
                found = (epsilon, delta, orbit, cert)
                break
        if found:
            break
    report.add("search found an (epsilon, delta) pair with empty feasible set",
               True, found is not None, "oracle")
    if found:
        epsilon, delta, orbit, cert = found
        report.params["epsilon"] = rat_str(epsilon)
        report.params["delta"] = rat_str(delta)
        report.add("oracle feasible set is empty", True, cert.feasible_set.is_empty, "oracle")
        report.add("deflected orbit keeps its jump bound", True,
                   verify_jumps(tent_map(lam), orbit) < delta, "construction")

        # independent cross-check: dyadic grid over the starting tube
        system = tent_map(lam)
        step = Fraction(1, 1 << 16)
        lo = orbit.points[0] - epsilon
        hi = orbit.points[0] + epsilon
        start = _math.ceil(lo / step)
        stop = _math.floor(hi / step)
        traced = 0
        for j in range(start, stop + 1):
            y = j * step
            if y < 0 or y > 1:
                continue
            if traces(system, y, orbit, epsilon) is not None:
                traced += 1
        report.add("no dyadic grid point in the starting tube traces the orbit",
                   0, traced, "oracle")
        zero_defl = nonshadow_witness_tent(lam, epsilon, ZERO)
        report.add("zero deflection control stays feasible", True, zero_defl[1].feasible, "oracle")
    return report


# ---------------------------------------------------------------------------
# smooth family spot checks
# ---------------------------------------------------------------------------


def run_logistic_spot_checks() -> Report:
    report = Report("logistic-5.4", {})
    system = logistic_map(4)
    report.add("map value at the critical point", "1/1", rat_str(system.evaluate(HALF)), "constant")

    exact = PseudoOrbit(tuple(true_orbit(system, Fraction(1, 3), 7)))
    verdict = quadratic_shadow_verdict(system, exact, Fraction(1, 10))
    report.add("true orbit verdict", "yes", verdict.value, "oracle")
    report.add("true orbit witness traces exactly", True,
               verdict.report is not None and verdict.report.max_deviation == 0, "oracle")

    rng = random.Random(41)
    pts = [Fraction(1, 3)]
    for i in range(6):
        jump = Fraction(rng.randint(-99, 99), 100 * 100)
        nxt = system.evaluate(pts[-1]) + jump
        pts.append(min(max(nxt, ZERO), ONE))
    noisy = PseudoOrbit(tuple(pts), claimed_delta=Fraction(1, 100))
    verdict = quadratic_shadow_verdict(system, noisy, Fraction(1, 10))
    report.add("noisy orbit verdict", "yes", verdict.value, "oracle")
    if verdict.value == "yes":
        report.add("noisy witness stays within the tubes", True,
                   verdict.report.max_deviation <= Fraction(1, 10), "oracle")

    far = PseudoOrbit((Fraction(1, 3), Fraction(19, 20), Fraction(1, 3), Fraction(19, 20)))
    verdict = quadratic_shadow_verdict(system, far, Fraction(1, 50))
    report.add("far-jump orbit verdict", "no", verdict.value, "oracle")
    return report


# ---------------------------------------------------------------------------
# kneading target search
# ---------------------------------------------------------------------------


def run_kneading_search(horizon: int = 15, steps: int = 40, tail: int = 200) -> Report:
    report = Report("kneading-5.6", {"horizon": horizon, "steps": steps, "tail": tail})
    target = staircase_word(500)
    report.add("staircase prefix", "RLLRRLRRRLRRRRL", target.symbols[:15], "constant")
    report.add("length-3 prefix never recurs in 500 symbols", False,
               is_recurrent_prefix(target, 3), "oracle")
    runs_ok = True
    run_len, expect = 0, 2
    for s in target.symbols[3:]:
        if s == "R":
            run_len += 1
        else:
            if run_len != expect:
                runs_ok = False
            run_len, expect = 0, expect + 1
    report.add("R-runs between L's grow by exactly one (generator-defined beyond position 14)",
               True, runs_ok, "construction")

    result = find_parameter(target, horizon, steps)
    report.add("parameter search matched the prefix", True, result.matched, "oracle")
    report.add("achieved word", target.symbols[:horizon], result.achieved.symbols, "oracle")
    width = result.bracket[1] - result.bracket[0]
    report.add("bracket width at most 2^-30", True, width <= Fraction(1, 2**30), "construction")
    report.params["parameter"] = rat_str(result.parameter)

    separation = critical_orbit_separation(result.parameter, 2, tail)
    report.add(f"critical orbit stays off 0 through step {tail}", True,
               separation is not None and separation > 0, "oracle")
    if separation is not None:
        report.params["separation"] = rat_str(separation)
    return report


# ---------------------------------------------------------------------------
# odometer
# ---------------------------------------------------------------------------


def run_odometer_suite(depth: int = 12, pairs: int = 10000, orbits: int = 500, seed: int = 9) -> Report:
    report = Report("odometer-6.1", {"depth": depth, "pairs": pairs, "orbits": orbits, "seed": seed})
    system = OdometerSystem(depth)
    rng = random.Random(seed)
    size = 1 << depth

    bad = 0
    for _ in range(pairs):
        a = rng.randrange(size)
        b = rng.randrange(size)
        wa, wb = system.int_to_word(a), system.int_to_word(b)
        if system.distance(wa, wb) != system.distance(system.evaluate(wa), system.evaluate(wb)):
            bad += 1
    report.add("isometry violations over random pairs", 0, bad, "property")

    delta = Fraction(1, 2**5)
    failures = 0
    for i in range(orbits):
        x0 = system.int_to_word(rng.randrange(size))
        orbit = perturbed_orbit(system, x0, rng.randint(2, 40), delta, seed=seed * 911 + i)
        m = orbit.last_index
        y = system.iterate_inverse(orbit.points[-1], m)
        rep = deviation(system, y, orbit)
        if not (rep.exact_hit and rep.max_deviation < delta):
            failures += 1
        cert = h_shadow_solve(system, orbit, delta)
        if not (cert.feasible and cert.witness == y):
            failures += 1
    report.add("inverse-image tracing failures", 0, failures, "property")
    return report


# ---------------------------------------------------------------------------
# golden-mean shift
# ---------------------------------------------------------------------------


def _random_golden_point(system, rng: random.Random) -> SymbolicPoint:
    word = system.follower_continuation(("0",), rng, 10)
    cycle = system.admissible_cycle_from(["0"] + word)
    return SymbolicPoint(("0",) + tuple(word), cycle)


def run_sft_suite(instances: int = 500, seed: int = 21) -> Report:
    report = Report("sft-6.4", {"instances": instances, "seed": seed})
    system = golden_mean_shift()
    rng = random.Random(seed)
    delta = Fraction(1, 2**6)

    disagreements = 0
    infeasible_seen = 0
    feasible_seen = 0
    for i in range(instances):
        x0 = _random_golden_point(system, rng)
        length = rng.randint(2, 30)
        if i % 5 == 0:
            # adversarial instance: points drawn independently, jumps unbounded
            pts = [x0]
            for _ in range(length - 1):
                pts.append(_random_golden_point(system, rng))
            orbit = PseudoOrbit(tuple(pts))
        else:
            orbit = perturbed_orbit(system, x0, length, delta, seed=seed * 2029 + i)
        epsilon = Fraction(1, 2 ** rng.choice((3, 4, 5)))
        oracle = shadow_oracle(system, orbit, epsilon)
        solver = h_shadow_solve(system, orbit, epsilon)
        if oracle.feasible != solver.feasible:
            disagreements += 1
        if oracle.feasible:
            feasible_seen += 1
            if not (solver.report.exact_hit and solver.report.max_deviation <= epsilon):
                disagreements += 1
        else:
            infeasible_seen += 1
    report.add("tracing and exact-hit feasibility disagreements", 0, disagreements, "property")
    report.add("both outcomes exercised", True,
               feasible_seen > 0 and infeasible_seen > 0, "property")
    return report


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("cantor-2.8",
                 "Middle-thirds expanding map: expansion certificate, one-sided ball-image identities, "
                 "and failure of ball expansion at the fixed point", run_cantor_example),
        Scenario("tent-ball-2.9",
                 "Full tent map: ball expanding on [0,1] yet neither expanding nor locally one-to-one",
                 run_tent_ball_example),
        Scenario("slimit-3",
                 "Interval-plus-isolated-tail homeomorphism: tail convergence forces a unique candidate "
                 "that fails epsilon-tracing", run_slimit_example),
        Scenario("iterate-3.8",
                 "Exact-hit tracing through the second iterate agrees with the direct solver",
                 run_iterate_reduction),
        Scenario("hshadow-4.3",
                 "Jump bound (mu-1)*min(eps,nu) yields exact-hit tracing on seeded pseudo-orbits",
                 run_exact_hit_suite),
        Scenario("pl-region-5.2",
                 "Tent map with slope 9/5: exact-hit tracing on a region away from the kink",
                 run_region_suite),
        Scenario("staged-3.6",
                 "Staged tracing of a decaying pseudo-orbit with halving accuracy and exact stage hits",
                 run_staged_tracing),
        Scenario("nonshadow-5.3",
                 "Tent map with slope near sqrt(2): a deflected kink orbit that no point traces",
                 run_nonshadow_search),
        Scenario("logistic-5.4",
                 "Logistic map at parameter 4: three-valued tracing verdicts on spot instances",
                 run_logistic_spot_checks),
        Scenario("kneading-5.6",
                 "Staircase kneading target: parameter search and certified critical-orbit separation",
                 run_kneading_search),
        Scenario("odometer-6.1",
                 "Binary odometer: exact isometry and inverse-image exact-hit tracing",
                 run_odometer_suite),
        Scenario("sft-6.4",
                 "Golden-mean shift: tracing and exact-hit tracing feasibility coincide",
                 run_sft_suite),
    )
}


def run_scenario(name: str, **params) -> Report:
    """Run a registry scenario; a parameter it does not take is a ValueError naming it."""
    if name not in REGISTRY:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(REGISTRY))}")
    run = REGISTRY[name].run
    accepted = inspect.signature(run).parameters
    for key in params:
        if key not in accepted:
            raise ValueError(f"scenario {name} takes no parameter {key!r}")
    return run(**params)
