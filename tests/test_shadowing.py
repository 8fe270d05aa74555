import math
import random
from fractions import Fraction as F
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.numerics import from_int_set, from_pairs, interior_grid
from shadowlab.pseudo_orbits import PseudoOrbit, deviation, perturbed_orbit, traces, verify_jumps
from shadowlab.shadowing import (
    QuadraticShadowVerdict,
    _backward_tube_sets,
    _chain_back,
    _forward_sets,
    _quadratic_witness_search,
    _witness_candidates,
    asymptotic_shadow,
    ball_expanding_delta,
    finite_horizon_delta,
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
from shadowlab.systems import (
    DomainError,
    OdometerSystem,
    SLimitSystem,
    SymbolicPoint,
    dyadic_ball,
    golden_mean_shift,
    iterate,
    logistic_map,
    quadratic_map,
    random_zigzag_map,
    tent_map,
)

T2 = tent_map(2)


def true_orbit(system, x0, length):
    pts = [x0]
    for _ in range(length - 1):
        pts.append(system.evaluate(pts[-1]))
    return PseudoOrbit(tuple(pts))


# -- constants --------------------------------------------------------------


def test_ball_expanding_delta_values():
    assert ball_expanding_delta(2, 1, F(1, 10)) == (F(1, 10), F(1, 10))
    assert ball_expanding_delta(3, F(1, 9), 1) == (F(1, 9), F(2, 9))
    with pytest.raises(ValueError):
        ball_expanding_delta(1, 1, 1)


def test_finite_horizon_delta_values():
    assert finite_horizon_delta(2, 3, 1) == F(1, 15)
    assert finite_horizon_delta(1, 3, 1) == F(1, 4)


def test_finite_horizon_delta_simulation_oracle():
    # random piecewise-linear maps never exceed eps at the horizon when the
    # start point and every jump stay within the returned bound
    rng = random.Random(8)
    for seed in range(12):
        system = random_zigzag_map(seed)
        n = rng.choice((2, 3, 4))
        eps = F(1, rng.choice((8, 16)))
        delta = finite_horizon_delta(system.lipschitz(), n, eps)
        orbit = perturbed_orbit(system, F(1, 3), n + 1, delta, seed=seed)
        shifted = F(1, 3) + delta * F(1023, 1024)
        if shifted > 1:
            shifted = F(1, 3) - delta * F(1023, 1024)
        rep = deviation(system, shifted, orbit)
        assert rep.max_deviation < eps


# -- exact oracle -----------------------------------------------------------


def test_true_orbit_traces_itself():
    orbit = true_orbit(T2, F(2, 7), 9)
    cert = shadow_oracle(T2, orbit, F(1, 100))
    assert cert.feasible and cert.feasible_set.contains(F(2, 7))
    assert cert.report.max_deviation <= F(1, 100)


def test_oracle_feasible_set_matches_grid_search():
    orbit = PseudoOrbit((F(1, 4), F(1, 2), F(1)))
    eps = F(1, 8)
    cert = shadow_oracle(T2, orbit, eps)
    assert cert.feasible
    assert cert.feasible_set.subset_of(from_pairs([("1/8", "3/8")]))
    # brute-force dyadic scan agrees with oracle membership exactly
    step = F(1, 1 << 12)
    for j in range(0, (1 << 12) + 1):
        y = j * step
        traced = deviation(T2, y, orbit).max_deviation <= eps
        assert traced == cert.feasible_set.contains(y)


def test_oracle_monotone_in_epsilon():
    orbit = perturbed_orbit(T2, F(1, 3), 10, F(1, 64), seed=6)
    small = shadow_oracle(T2, orbit, F(1, 20)).feasible_set
    large = shadow_oracle(T2, orbit, F(1, 10)).feasible_set
    assert small.subset_of(large)


def test_oracle_soundness_at_set_points():
    rng = random.Random(10)
    for seed in range(10):
        orbit = perturbed_orbit(T2, F(2, 5), 12, F(1, 40), seed=seed)
        eps = F(1, 12)
        cert = shadow_oracle(T2, orbit, eps)
        if not cert.feasible:
            continue
        probes = []
        for part in cert.feasible_set.parts:
            probes.extend([part.lo, part.hi, part.lo + part.width * F(rng.getrandbits(8), 256)])
        for y in probes:
            assert deviation(T2, y, orbit).max_deviation <= eps


def test_oracle_witness_is_leftmost():
    orbit = PseudoOrbit((F(1, 4), F(1, 2), F(1)))
    cert = shadow_oracle(T2, orbit, F(1, 8))
    assert cert.witness == cert.feasible_set.leftmost()


def test_oracle_rejects_quadratic_systems():
    with pytest.raises(DomainError):
        shadow_oracle(logistic_map(4), PseudoOrbit((F(1, 3),)), F(1, 10))


# -- exact-hit solver --------------------------------------------------------


def test_exact_hit_on_true_orbit():
    orbit = true_orbit(T2, F(2, 7), 8)
    cert = h_shadow_solve(T2, orbit, F(1, 50))
    assert cert.feasible and cert.witness == F(2, 7)
    assert cert.report.exact_hit and cert.report.max_deviation == 0


def test_exact_hit_infeasible_while_tubes_nonempty():
    orbit = PseudoOrbit((F(1, 10), F(3, 10)))
    eps = F(1, 25)
    oracle = shadow_oracle(T2, orbit, eps)
    solver = h_shadow_solve(T2, orbit, eps)
    assert oracle.feasible
    assert not solver.feasible
    assert solver.infeasible_reason is not None
    assert not oracle.feasible_set.is_empty


def test_exact_hit_witnesses_lie_in_oracle_set():
    for seed in range(15):
        orbit = perturbed_orbit(T2, F(1, 3), 20, F(1, 20), seed=seed)
        eps = F(1, 10)
        solver = h_shadow_solve(T2, orbit, eps)
        oracle = shadow_oracle(T2, orbit, eps)
        if solver.feasible:
            assert oracle.feasible_set.contains(solver.witness)
            assert solver.report.exact_hit
            assert iterate(T2, solver.witness, orbit.last_index) == orbit.points[-1]


def test_exact_hit_property_with_derived_delta():
    # the jump bound derived from the expansion constants always admits an
    # exact-hit trace within the tube radius
    for seed in range(8):
        system = random_zigzag_map(seed)
        mu = system.min_slope_modulus()
        eps_prime, delta = ball_expanding_delta(mu, F(1, 4), F(1, 12))
        orbit = perturbed_orbit(system, F(2, 5), 35, delta, seed=seed + 100)
        cert = h_shadow_solve(system, orbit, eps_prime)
        assert cert.feasible and cert.report.exact_hit
        assert cert.report.max_deviation <= eps_prime


# -- symbolic solvers ---------------------------------------------------------


def test_shift_solver_traces_and_hits():
    gm = golden_mean_shift()
    x0 = SymbolicPoint(("0", "1"), ("0",))
    orbit = perturbed_orbit(gm, x0, 14, F(1, 64), seed=2)
    eps = F(1, 16)
    cert = h_shadow_solve(gm, orbit, eps)
    assert cert.feasible and cert.report.exact_hit
    assert cert.report.max_deviation <= eps
    assert shadow_oracle(gm, orbit, eps).feasible


def test_shift_solver_detects_conflicts():
    gm = golden_mean_shift()
    a = SymbolicPoint(("0", "0", "0", "0"), ("0",))
    b = SymbolicPoint(("1", "0", "1", "0"), ("0",))
    orbit = PseudoOrbit((a, b, a))
    eps = F(1, 8)
    oracle = shadow_oracle(gm, orbit, eps)
    solver = h_shadow_solve(gm, orbit, eps)
    assert not oracle.feasible and not solver.feasible


def test_shift_cylinder_length_is_exact_below_two_to_the_minus_256():
    gm = golden_mean_shift()
    x0 = SymbolicPoint(("0", "1"), ("0",))
    orbit = PseudoOrbit((x0, gm.evaluate(x0)))
    cert = shadow_oracle(gm, orbit, F(1, 2**300))
    assert cert.feasible and cert.constants["cylinder"] == 300
    assert len(cert.cylinder) == 301
    assert cert.to_json()["witness"] == "01(0)"


def test_odometer_inverse_image_construction():
    od = OdometerSystem(10)
    orbit = perturbed_orbit(od, (0,) * 10, 25, F(1, 32), seed=5)
    cert = h_shadow_solve(od, orbit, F(1, 32))
    assert cert.feasible and cert.report.exact_hit
    m = orbit.last_index
    assert cert.witness == od.iterate_inverse(orbit.points[-1], m)
    # ultrametric bound: tracing error never exceeds the worst jump
    assert cert.report.max_deviation <= verify_jumps(od, orbit)


@st.composite
def odometer_queries(draw):
    depth = draw(st.integers(1, 8))
    od = OdometerSystem(depth)
    word = st.lists(st.integers(0, 1), min_size=depth, max_size=depth).map(tuple)
    pts = [draw(word)]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            # a perturbed step: flip the bits of f(x) from some position on
            start = draw(st.integers(0, depth))
            nxt = od.evaluate(pts[-1])
            flips = draw(st.lists(st.integers(0, 1), min_size=depth - start, max_size=depth - start))
            pts.append(nxt[:start] + tuple(b ^ f for b, f in zip(nxt[start:], flips)))
        else:
            pts.append(draw(word))
    epsilon = F(1, 2 ** draw(st.integers(0, 9)))
    return od, PseudoOrbit(tuple(pts)), epsilon


@settings(max_examples=200, deadline=None)
@given(odometer_queries())
def test_odometer_solvers_agree_with_brute_force(query):
    od, orbit, epsilon = query
    m = orbit.last_index
    words = [od.int_to_word(v) for v in range(1 << od.depth)]
    tracing = [w for w in words if deviation(od, w, orbit).max_deviation <= epsilon]
    hitting = [w for w in tracing if iterate(od, w, m) == orbit.points[-1]]
    exact = h_shadow_solve(od, orbit, epsilon)
    assert exact.feasible == bool(hitting)
    if exact.feasible:
        assert exact.witness == od.iterate_inverse(orbit.points[-1], m)
    plain = shadow_oracle(od, orbit, epsilon)
    assert plain.feasible == bool(tracing)
    if plain.feasible:
        assert plain.witness in tracing


def test_odometer_exact_hit_decides_from_its_one_candidate(monkeypatch):
    od = OdometerSystem(16)
    orbit = PseudoOrbit(((0,) * 16, (1,) * 16, (0,) * 16))
    calls = 0
    evaluate = OdometerSystem.evaluate

    def counting(self, w):
        nonlocal calls
        calls += 1
        return evaluate(self, w)

    monkeypatch.setattr(OdometerSystem, "evaluate", counting)
    cert = h_shadow_solve(od, orbit, F(1, 4))
    assert not cert.feasible
    assert cert.infeasible_reason == "no word traces the orbit at this radius"
    assert calls <= orbit.last_index


def test_odometer_oracle_search_stops_above_depth_twenty():
    od = OdometerSystem(40)
    bad = PseudoOrbit(((0,) * 40, (1,) * 40, (0,) * 40))
    with pytest.raises(DomainError, match="limited to depth 20, got depth 40"):
        shadow_oracle(od, bad, F(1, 4))
    # the exact-hit route decides the same orbit without a search
    assert not h_shadow_solve(od, bad, F(1, 4)).feasible
    # an orbit whose canonical point traces is answered at any depth
    good = perturbed_orbit(od, (0,) * 40, 12, F(1, 64), seed=3)
    cert = shadow_oracle(od, good, F(1, 64))
    assert cert.feasible and cert.witness == od.iterate_inverse(good.points[-1], good.last_index)


# -- iterate reduction --------------------------------------------------------


def test_iterate_route_degenerate_matches_direct():
    region = from_pairs([(0, 1)])
    orbit = perturbed_orbit(T2, F(1, 3), 9, F(1, 80), seed=1)
    direct = h_shadow_solve(T2, orbit, F(1, 10))
    routed = h_shadow_via_iterate(T2, 1, region, orbit, F(1, 10))
    assert direct.feasible == routed.feasible
    assert direct.witness == routed.witness


def test_iterate_route_exact_terminal_identity():
    region = from_pairs([(0, 1)])
    support = from_pairs([("1/10", "9/10")])
    for seed in range(25):
        length = 4 + seed % 9  # exercises both residues of the division
        orbit = perturbed_orbit(T2, F(1, 3), length, F(1, 80), seed=seed, region=support)
        if len(orbit) < 3:
            continue
        routed = h_shadow_via_iterate(T2, 2, region, orbit, F(1, 10))
        assert routed.feasible
        assert routed.report.exact_hit
        assert iterate(T2, routed.witness, orbit.last_index) == orbit.points[-1]
        assert routed.report.max_deviation <= F(1, 10)


def test_iterate_route_rejects_unsuitable_region():
    # the two-band region is not covered by its own image
    region = from_pairs([("1/10", "2/10")])
    orbit = PseudoOrbit((F(3, 20), F(3, 10)))
    with pytest.raises(DomainError):
        h_shadow_via_iterate(T2, 2, region, orbit, F(1, 10))


def test_iterate_route_refuses_a_region_its_image_does_not_cover():
    # f(region) = [4/25, 33/100] ∪ [17/50, 1] misses the gap (33/100, 17/50),
    # too narrow for a few sampled region points to land in
    region = from_pairs([("27/100", "83/100"), ("167/200", "23/25")])
    orbit = PseudoOrbit((F(3, 10), F(3, 5), F(4, 5)))
    with pytest.raises(DomainError, match="does not cover"):
        h_shadow_via_iterate(T2, 2, region, orbit, F(1, 10))


def _depth_first_chain(system, target, steps, region):
    """Reference backward extension: z, …, f^steps(z) = target with every point
    but the target in the region, by recursive depth-first search over point
    preimages, leftmost first."""
    if steps == 0:
        return [target]
    for cand in system.point_preimages(target):
        if region.contains(cand):
            rest = _depth_first_chain(system, cand, steps - 1, region)
            if rest is not None:
                return rest + [target]
    return None


def _forward_set_chain(system, target, steps, region):
    """The iterate route's backward extension: the forward sets of
    [region]·steps + [{target}], walked back from the target."""
    t = (target.numerator, target.denominator)
    forward = _forward_sets(system, [region.int_parts] * steps + [[(*t, *t)]])
    return [F(*w) for w in _chain_back(system, forward, t)] if forward[-1] else None


def test_backward_extension_matches_depth_first_reference():
    rng = random.Random(14)
    chains = misses = 0
    for case in range(400):
        system = random_zigzag_map(case) if case % 2 else tent_map(F(rng.randint(11, 20), 10))
        ends = sorted(F(k, 200) for k in rng.sample(range(201), 2 * rng.randint(1, 3)))
        region = from_pairs(zip(ends[::2], ends[1::2]))
        steps = rng.randint(1, 4)
        if rng.random() < 0.5:
            target = F(rng.randint(0, 200), 200)
        else:  # the image of a region point, which more often has a chain
            target = iterate(system, ends[0] + (ends[1] - ends[0]) * F(rng.randint(0, 64), 64), steps)
        got = _forward_set_chain(system, target, steps, region)
        assert got == _depth_first_chain(system, target, steps, region)
        chains += got is not None
        misses += got is None
    assert chains >= 100 and misses >= 100


def _covered_region(system, data):
    """A region with f(region) ⊇ region: a lap that maps onto [0,1] plus up to
    two more parts, or, when no lap does (a tent map below slope 2), the core
    [f²(c), f(c)], which f maps onto itself, plus [0, a] below it."""
    full = [(lo, hi) for lo, hi in zip(system.breakpoints, system.breakpoints[1:])
            if {system.evaluate(lo), system.evaluate(hi)} == {0, 1}]
    if not full:
        top = system.evaluate(F(1, 2))
        core = (system.evaluate(top), top)
        a = core[0] * F(data.draw(st.integers(1, 9)), 10)
        return from_pairs([(0, a), core])
    ends = sorted(F(k, 64) for k in data.draw(st.sets(st.integers(0, 64), max_size=4)))
    return from_pairs([data.draw(st.sampled_from(full)), *zip(ends[::2], ends[1::2])])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_iterate_route_feasible_answers_are_exact_hits_the_direct_solver_finds(data):
    system = data.draw(st.one_of(st.integers(11, 20).map(lambda k: tent_map(F(k, 10))),
                                 st.integers(0, 40).map(random_zigzag_map)))
    region = _covered_region(system, data)
    n = data.draw(st.integers(2, 3))
    eps = data.draw(st.sampled_from([F(1, 5), F(1, 10), F(1, 20)]))
    part = data.draw(st.sampled_from(region.parts))
    x0 = part.lo + part.width * F(data.draw(st.integers(0, 16)), 16)
    delta = eps / (8 * system.lipschitz() ** n)
    orbit = perturbed_orbit(system, x0, data.draw(st.integers(2, 10)), delta,
                            seed=data.draw(st.integers(0, 99)), region=region)
    try:
        routed = h_shadow_via_iterate(system, n, region, orbit, eps)
    except DomainError as exc:  # the region is covered, so only the jump bound can refuse
        assert "downsampled jumps" in str(exc)
        return
    if routed.feasible:
        report = deviation(system, routed.witness, orbit)
        assert report.exact_hit and report.max_deviation <= eps
        assert h_shadow_solve(system, orbit, eps).feasible


# -- staged construction -------------------------------------------------------


def test_staged_tracing_true_orbit_is_single_stage():
    region = from_pairs([(0, 1)])
    orbit = PseudoOrbit(true_orbit(T2, F(2, 7), 30).points,
                        decay_schedule=tuple(F(1, 8) for _ in range(29)))
    log = asymptotic_shadow(T2, orbit, region, F(1, 8))
    assert log.completed
    assert log.stage_points == (F(2, 7),)
    assert log.all_conditions_hold()


def test_staged_tracing_conditions_and_terminal_bound():
    eps = F(1, 8)
    stages = 5
    orbit = make_decaying_orbit(T2, F(2, 7), eps, stages, 12, seed=3)
    region = from_pairs([(0, 1)])
    log = asymptotic_shadow(T2, orbit, region, eps, stages=stages)
    assert log.completed and log.all_conditions_hold()
    assert len(log.stage_points) == stages + 1
    assert all(a < b for a, b in zip(log.stage_horizons, log.stage_horizons[1:]))
    # stage bound (b): deviations on the fresh tail of the final stage
    z = log.stage_points[-1]
    k_lo, k_hi = log.stage_horizons[-2], log.stage_horizons[-1]
    w = z
    for j in range(k_hi + 1):
        if j > k_lo:
            assert abs(w - orbit.points[j]) < eps * F(1, 2 ** (stages + 1))
        if j < k_hi:
            w = T2.evaluate(w)
    # exact hit at every stage horizon (condition c re-checked here)
    for i, z in enumerate(log.stage_points):
        k = log.stage_horizons[i + 1]
        assert iterate(T2, z, k) == orbit.points[k]


def test_staged_tracing_requires_schedule():
    orbit = PseudoOrbit((F(1, 3), F(2, 3)))
    with pytest.raises(ValueError):
        asymptotic_shadow(T2, orbit, from_pairs([(0, 1)]), F(1, 8))


# -- tracing-failure witness ---------------------------------------------------


def _near_root_two():
    return F(math.isqrt(2 * 4**40), 1 << 40)


def test_nonshadow_witness_produces_empty_oracle():
    lam = _near_root_two()
    eps = F(1, 2**11)
    orbit, cert = nonshadow_witness_tent(lam, eps, eps / 4)
    assert not cert.feasible
    assert cert.feasible_set.is_empty
    assert verify_jumps(tent_map(lam), orbit) < eps / 4
    # grid cross-check over the starting tube
    system = tent_map(lam)
    step = F(1, 1 << 14)
    lo, hi = orbit.points[0] - eps, orbit.points[0] + eps
    j = math.ceil(lo / step)
    while j * step <= hi:
        assert deviation(system, j * step, orbit).max_deviation > eps
        j += 1


def test_nonshadow_witness_rejects_full_tent():
    with pytest.raises(ValueError):
        nonshadow_witness_tent(2, F(1, 100), F(1, 400))


def test_nonshadow_witness_rejects_recurrent_scale():
    lam = _near_root_two()
    # 2*eps above the observed orbit gap trips the precondition
    gap = tent_critical_orbit_gap(lam, 200)
    with pytest.raises(DomainError):
        nonshadow_witness_tent(lam, gap, gap / 4)


def test_nonshadow_zero_deflection_control():
    lam = _near_root_two()
    orbit, cert = nonshadow_witness_tent(lam, F(1, 2**11), 0)
    assert cert.feasible
    assert verify_jumps(tent_map(lam), orbit) == 0


# -- squeeze-to-tail counterexample ---------------------------------------------


def test_slimit_counterexample_standard_constants():
    system = SLimitSystem(12)
    for delta in (F(1, 10), F(1, 100)):
        n = slimit_minimal_tail_index(delta)
        result = slimit_counterexample_check(system, n, F(1, 4), delta)
        assert result["passed"]
        assert result["step0Deviation"] == F(1, 2) + F(1, 2**n)


def test_slimit_minimal_index_values():
    assert slimit_minimal_tail_index(F(1, 10)) == 4
    assert slimit_minimal_tail_index(F(1, 100)) == 7
    # a generous bound is limited by the metric tail condition only
    assert slimit_minimal_tail_index(F(2, 3)) == 1


def test_slimit_preconditions_enforced():
    system = SLimitSystem(12)
    with pytest.raises(ValueError):
        slimit_counterexample_check(system, 2, F(1, 4), F(1, 10))  # 2^-2 not < 1/10


def test_slimit_oracle_forward_feasibility():
    system = SLimitSystem(8)
    pts = [F(1, 2)]
    for _ in range(4):
        pts.append(system.evaluate(pts[-1]))
    orbit = PseudoOrbit(tuple(pts))
    cert = shadow_oracle(system, orbit, F(1, 20))
    assert cert.feasible
    tail = PseudoOrbit((F(1, 2), F(-1, 4)))
    assert not shadow_oracle(system, tail, F(1, 16)).feasible


# -- three-valued quadratic oracle ----------------------------------------------


def test_quadratic_verdict_yes_on_true_orbit():
    g4 = logistic_map(4)
    orbit = true_orbit(g4, F(1, 3), 8)
    verdict = quadratic_shadow_verdict(g4, orbit, F(1, 10))
    assert verdict.value == "yes"
    assert verdict.report.max_deviation == 0


def test_quadratic_verdict_no_on_far_jump():
    g4 = logistic_map(4)
    orbit = PseudoOrbit((F(1, 3), F(19, 20), F(1, 3), F(19, 20)))
    verdict = quadratic_shadow_verdict(g4, orbit, F(1, 50))
    assert verdict.value == "no"


def test_quadratic_verdict_yes_on_noisy_orbit():
    g4 = logistic_map(4)
    rng = random.Random(17)
    pts = [F(1, 3)]
    for _ in range(6):
        jump = F(rng.randint(-80, 80), 10000)
        pts.append(min(max(g4.evaluate(pts[-1]) + jump, F(0)), F(1)))
    orbit = PseudoOrbit(tuple(pts))
    verdict = quadratic_shadow_verdict(g4, orbit, F(1, 10))
    assert verdict.value == "yes"
    assert verdict.report.max_deviation <= F(1, 10)


def test_quadratic_yes_carries_the_witness_deviation():
    # the report of a "yes" comes from the early-stopping check of the witness
    # search; it must equal the full exact iteration of the witness
    yes = no = 0
    for lam in (F(4), F(7, 2), F(19, 5)):
        system = logistic_map(lam)
        for seed in range(6):
            x0 = F(seed + 1, 11)
            orbits = [true_orbit(system, x0, 3 + seed)]
            orbits += [perturbed_orbit(system, x0, 3 + seed, delta, seed=seed) for delta in (F(1, 100), F(1, 8))]
            for orbit in orbits:
                for eps in (F(1, 10), F(1, 40)):
                    verdict = quadratic_shadow_verdict(system, orbit, eps)
                    if verdict.value == "yes":
                        yes += 1
                        assert verdict.report == deviation(system, verdict.witness, orbit)
                        assert verdict.report.max_deviation <= eps
                    else:
                        no += 1
    assert yes >= 20 and no >= 1


def eager_witness_search(system, orbit, epsilon, outer0, grid):
    """The witness search as first written: every candidate listed before the first is tried."""
    tube0 = system.tube(orbit.points[0], epsilon)
    candidates = [orbit.points[0]]
    for part in outer0.parts:
        candidates.extend([part.lo, part.hi, (part.lo + part.hi) / 2])
        candidates.extend(part.lo + t for t in interior_grid(part.width, grid - 1))
    seen = set()
    for cand in candidates:
        if cand in seen or not tube0.contains(cand):
            continue
        seen.add(cand)
        rep = traces(system, cand, orbit, epsilon)
        if rep is not None:
            return cand, rep
    return None


def _outer0(system, orbit, epsilon, bits):
    return from_int_set(_backward_tube_sets(system, orbit, epsilon, partial(system._int_preimage_outer, bits=bits))[0])


def exact_candidate_verdict(system, orbit, epsilon):
    """The verdict as first written: each precision builds the outer enclosure
    first, and its search tries x₀ and then every candidate by exact iteration."""
    bits, grid = 64, 32
    while True:
        outer0 = _outer0(system, orbit, epsilon, bits)
        if outer0.is_empty:
            return QuadraticShadowVerdict("no", None, None, bits)
        found = eager_witness_search(system, orbit, epsilon, outer0, grid)
        if found is not None:
            return QuadraticShadowVerdict("yes", *found, bits)
        if bits >= 512:
            return QuadraticShadowVerdict("unknown", None, None, bits)
        bits *= 2
        grid *= 4


def test_lazy_witness_candidates_match_the_eager_list():
    found = missed = 0
    for system in (logistic_map(4), logistic_map(F(37, 10)), quadratic_map(2), quadratic_map(F(9, 5))):
        for seed in range(5):
            x0 = F(2 * seed + 1, 13) - (0 if system.family == "logistic" else F(1, 2))
            orbits = [true_orbit(system, x0, 3 + seed)]
            orbits += [perturbed_orbit(system, x0, 3 + seed, delta, seed=seed) for delta in (F(1, 100), F(1, 6))]
            for orbit in orbits:
                for eps in (F(1, 10), F(1, 40)):
                    outer0 = _outer0(system, orbit, eps, 64)
                    got = _quadratic_witness_search(system, orbit, eps,
                                                    _witness_candidates(orbit.points[0], outer0, 32, set()), 64)
                    assert got == eager_witness_search(system, orbit, eps, outer0, 32)
                    found += got is not None and got[0] != orbit.points[0]
                    missed += got is None
    assert found >= 5 and missed >= 1, (found, missed)


QUADRATIC_SYSTEMS = [logistic_map(4), logistic_map(F(37, 10)), logistic_map(F(387, 100)), quadratic_map(2),
                     quadratic_map(F(9, 5))]


def far_orbit(system, x0, length):
    """Each point half the space away from the image of the one before, on the 2^−10 grid."""
    hull = system.space().hull()
    half = (hull.hi - hull.lo) / 2
    pts = [x0]
    for _ in range(length - 1):
        fx = system.evaluate(pts[-1])
        pts.append(F(round((fx + half if fx < hull.lo + half else fx - half) * 1024), 1024))
    return PseudoOrbit(tuple(pts))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quadratic_verdict_matches_the_exact_candidate_search(data):
    # x₀ tried before any enclosure, and candidates rejected off their enclosures,
    # give the same verdict, witness, report and precision as exact iteration of
    # every candidate: a rejection of an enclosure that only touches its tube, or
    # of one rounded inward, would change a witness here
    system = data.draw(st.sampled_from(QUADRATIC_SYSTEMS))
    hull = system.space().hull()
    x0 = hull.lo + (hull.hi - hull.lo) * F(data.draw(st.integers(1, 1023)), 1024)
    length = data.draw(st.integers(1, 12))
    eps = data.draw(st.sampled_from([F(1, 10), F(1, 40), F(1, 200)]))
    kind = data.draw(st.sampled_from(["true", "perturbed", "far"]))
    if kind == "true":
        orbit = true_orbit(system, x0, length)
    elif kind == "perturbed":
        delta = data.draw(st.sampled_from([F(1, 1000), F(1, 100), F(1, 20), F(1, 6)]))
        orbit = perturbed_orbit(system, x0, length, delta, seed=data.draw(st.integers(0, 2**16)))
    else:
        orbit = far_orbit(system, x0, length)
    assert quadratic_shadow_verdict(system, orbit, eps) == exact_candidate_verdict(system, orbit, eps)


def jump_orbit(system, x0, s, signs):
    pts = [x0]
    hull = system.space().hull()
    for sign in signs:
        pts.append(min(max(system.evaluate(pts[-1]) + sign * s, hull.lo), hull.hi))
    return PseudoOrbit(tuple(pts))


def test_quadratic_verdict_matches_the_exact_candidate_search_near_the_tracing_threshold():
    # jumps of size s: bisect s to where the 1024-bit outer enclosure becomes empty.
    # Within 2^−k of that point the tracing set is tiny or the enclosures barely
    # empty, so the verdict escalates to 128, 256 and 512 bits and ends unknown
    seen = set()
    for system, x0, signs, eps in ((quadratic_map(2), F(1, 8), (1, 1), F(1, 10)),
                                   (logistic_map(F(37, 10)), F(19, 32), (1, -1, -1, 1), F(1, 10))):
        lo, hi = F(0), F(1)
        for _ in range(800):
            s = (lo + hi) / 2
            lo, hi = (lo, s) if _outer0(system, jump_orbit(system, x0, s, signs), eps, 1024).is_empty else (s, hi)
        for k in (8, 100, 200, 400, 600):
            for s in (lo - F(1, 2**k), hi + F(1, 2**k)):
                orbit = jump_orbit(system, x0, s, signs)
                verdict = quadratic_shadow_verdict(system, orbit, eps)
                assert verdict == exact_candidate_verdict(system, orbit, eps)
                seen.add((verdict.value, verdict.bits_used))
    assert seen >= {("yes", 64), ("no", 64), ("unknown", 512)} | {(v, b) for v in ("yes", "no") for b in (128, 256, 512)}


def precise_stretch_then_jump(system, x0, length):
    """``length`` points of the true orbit of x₀ on the 2^−200 grid, then a jump of 1."""
    pts = [x0]
    for _ in range(length - 1):
        pts.append(F(round(system.evaluate(pts[-1]) * 2**200), 2**200))
    fx = system.evaluate(pts[-1])
    return PseudoOrbit((*pts, fx - 1 if fx > 0 else fx + 1))


@pytest.mark.parametrize("system, orbit, value", [
    # f(1/2) = 1/2 lies on the 64-bit grid, 2^−70 outside the second tube: its exact enclosure
    # ends on the grid point of the tube's end rounded outward, so only tubes rounded inward
    # keep x₀ from being taken as a witness without exact iteration
    (quadratic_map(2), PseudoOrbit((F(1, 2), F(6, 10) + F(1, 2**70))), "yes"),
    (quadratic_map(2), PseudoOrbit((F(1, 2), F(4, 10) - F(1, 2**70))), "yes"),
    # the enclosures of −1/1000 lie in both tubes, but the map is not defined there
    (logistic_map(F(387, 100)), PseudoOrbit((F(-1, 1000), F(0))), "yes"),
    # x₀'s 64-bit enclosure covers the space long before the jump, so it is neither surely in
    # every tube nor surely out of one: the empty outer enclosure answers no, where exact
    # iteration of x₀ would reach the exact iteration limit near step 21 and raise
    (quadratic_map(2), precise_stretch_then_jump(quadratic_map(2), F(1, 3), 70), "no"),
], ids=["above-tube", "below-tube", "outside-space", "precise-then-jump"])
def test_quadratic_verdict_takes_x0_early_only_when_its_enclosures_lie_in_every_tube(system, orbit, value):
    verdict = quadratic_shadow_verdict(system, orbit, F(1, 10))
    assert verdict == exact_candidate_verdict(system, orbit, F(1, 10)) and verdict.value == value
    assert verdict.witness != orbit.points[0] and verdict.bits_used == 64


# -- certificates -----------------------------------------------------------------


def test_certificate_serialization():
    orbit = perturbed_orbit(T2, F(1, 3), 6, F(1, 50), seed=3)
    cert = h_shadow_solve(T2, orbit, F(1, 10))
    data = cert.to_json()
    assert data["feasible"] is True
    assert data["report"]["exactHit"] is True
    assert len(data["transcript"]) == len(orbit)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_and_exact_hit_agree_in_opposite_directions(data):
    # f^m(T₀) = F_m: the oracle's feasible set T₀, found backwards by preimages,
    # mapped forward m times is exact hit's last forward set F_m, found by images.
    # Jumps of two and four times ε make about one case in six empty on both sides
    system = data.draw(st.one_of(st.integers(11, 20).map(lambda k: tent_map(F(k, 10))),
                                 st.integers(0, 10**6).map(random_zigzag_map)))
    eps = data.draw(st.sampled_from([F(1, 5), F(1, 10), F(1, 40)]))
    x0 = F(data.draw(st.integers(0, 256)), 256)
    orbit = perturbed_orbit(system, x0, data.draw(st.integers(1, 6)), eps * data.draw(st.sampled_from([F(1, 8), 2, 4])),
                            seed=data.draw(st.integers(0, 99)))
    image = shadow_oracle(system, orbit, eps).feasible_set
    for _ in range(orbit.last_index):
        image = system.forward_image(image)
    assert image == h_shadow_solve(system, orbit, eps).transcript[-1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_hit_is_feasible_exactly_when_the_point_walk_through_the_oracle_sets_survives(data):
    # exact hit runs forward with images, the oracle backward with preimages: the points of T_i
    # whose orbit reaches x_m inside T_{i+1}, …, T_m, walked back from x_m ∈ T_m by point
    # preimages, are nonempty at T_0 exactly when exact hit is feasible, and hold its witness
    system = data.draw(st.one_of(st.integers(11, 20).map(lambda k: tent_map(F(k, 10))),
                                 st.integers(0, 10**6).map(random_zigzag_map)))
    eps = data.draw(st.sampled_from([F(1, 5), F(1, 10), F(1, 40)]))
    x0 = F(data.draw(st.integers(0, 256)), 256)
    orbit = perturbed_orbit(system, x0, data.draw(st.integers(1, 6)), eps * data.draw(st.sampled_from([F(1, 8), 2, 4])),
                            seed=data.draw(st.integers(0, 99)))
    sets = shadow_oracle(system, orbit, eps).transcript
    xm = orbit.points[-1]
    walk = {xm} if sets[-1].contains(xm) else set()
    for t in reversed(sets[:-1]):
        walk = {w for y in walk for w in system.point_preimages(y) if t.contains(w)}
    solved = h_shadow_solve(system, orbit, eps)
    assert solved.feasible == bool(walk)
    if walk:
        assert solved.witness in walk


@lru_cache(maxsize=1)
def _long_orbit_points():
    """The true logistic(387/100) orbit of 1/3 up to its first point of more than 250,000 bits."""
    pts = [F(1, 3)]
    while pts[-1].denominator.bit_length() <= 250_000:
        pts.append(logistic_map(F(387, 100)).evaluate(pts[-1]))
    return pts


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dyadic_ball_matches_ceiling_and_floor(data):
    # the inward-rounded tube ends read off x's and ε's fractional parts on the grid, against
    # math.ceil and math.floor on Fractions; ends that fall on the grid test the strict and
    # non-strict comparisons, and points of a long true orbit the orbit-sized integers
    bits = data.draw(st.sampled_from([1, 8, 64, 192, 512]))
    scale = 1 << bits
    eps = data.draw(st.one_of(st.just(F(0)), st.fractions(F(1, 10**6), 2, max_denominator=10**12),
                              st.integers(1, 4 * scale).map(lambda k: F(k, scale))))
    on_grid = st.integers(-2 * scale, 2 * scale).map(lambda k: F(k, scale))
    points = data.draw(st.lists(st.one_of(
        st.fractions(-2, 2, max_denominator=10**30),
        on_grid,
        on_grid.map(lambda g: g + eps),
        on_grid.map(lambda g: g - eps),
        st.sampled_from(_long_orbit_points())), min_size=1, max_size=4))
    want = [(math.ceil((x - eps) * scale), math.floor((x + eps) * scale)) for x in points]
    assert [dyadic_ball(x, eps, bits) for x in points] == want
