"""The tube loops of shadowing run on integer interval sets.  These tests pin
them, and the integer steps of every system they serve, to the loops as they
were first written on Fraction interval sets: the reference below keeps those
loops and each system's Fraction forward image, preimage and point preimages,
with s·x + c arithmetic on the laps and piece maps.  The Cantor references scan
the public piece geometry (``piece_set``, ``piece_affine``), not the cell
table the integer steps read."""

import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.numerics import (
    ClosedInterval,
    RationalIntervalSet,
    from_int_set,
    intersect,
    normalize,
)
from shadowlab.pseudo_orbits import DeviationReport, PseudoOrbit, _sample_in_set, perturbed_orbit
from shadowlab.shadowing import (
    _backward_tube_sets,
    _forward_tube_sets,
    h_shadow_solve,
    shadow_oracle,
)
from shadowlab.systems import (
    CantorSystem,
    SLimitSystem,
    logistic_map,
    quadratic_map,
    random_zigzag_map,
    tent_map,
)

ZERO = F(0)

# -- the Fraction reference ------------------------------------------------------


def ref_tube(system, x, r):
    return intersect(RationalIntervalSet((ClosedInterval(x - r, x + r),)), system.space())


def ref_affine(s, slope, offset):
    images = [(slope * p.lo + offset, slope * p.hi + offset) for p in s.parts]
    return normalize([ClosedInterval(min(a, b), max(a, b)) for a, b in images])


def pl_evaluate(f, x):
    idx = max(i for i in range(len(f.breakpoints) - 1) if f.breakpoints[i] <= x)
    _, s, c = f.laps()[idx]
    return s * x + c


def pl_forward(f, s):
    out = []
    for p in s.parts:
        vals = [pl_evaluate(f, p.lo), pl_evaluate(f, p.hi)]
        vals += [pl_evaluate(f, b) for b in f.breakpoints if p.lo < b < p.hi]
        out.append(ClosedInterval(min(vals), max(vals)))
    return normalize(out)


def pl_preimage(f, target):
    out = []
    for (_, s, c), v0, v1 in zip(f.laps(), f.values, f.values[1:]):
        rng = ClosedInterval(v0, v1) if s > 0 else ClosedInterval(v1, v0)
        out.extend(ref_affine(intersect(target, RationalIntervalSet((rng,))), 1 / s, -c / s).parts)
    return normalize(out)


def pl_point_preimages(f, y):
    return sorted({(y - c) / s for dom, s, c in f.laps() if dom.lo <= (y - c) / s <= dom.hi})


def cantor_pieces(system):
    """(piece set, slope, offset) of pieces ±1 … ±depth, from the public piece geometry."""
    return [(system.piece_set(signed), *system.piece_affine(signed))
            for n in range(1, system.depth + 1) for signed in (n, -n)]


def cantor_evaluate(system, x):
    if x == 0:
        return ZERO
    for piece, s, c in cantor_pieces(system):
        if piece.contains(x):
            return s * x + c
    raise AssertionError(f"{x} outside the space")


def cantor_forward(system, sset):
    out = [ClosedInterval(ZERO, ZERO)] if sset.contains(ZERO) else []
    for piece, s, c in cantor_pieces(system):
        out.extend(ref_affine(intersect(sset, piece), s, c).parts)
    return normalize(out)


def cantor_preimage(system, target):
    out = [ClosedInterval(ZERO, ZERO)] if target.contains(ZERO) else []
    for piece, s, c in cantor_pieces(system):
        out.extend(intersect(ref_affine(target, 1 / s, -c / s), piece).parts)
    return normalize(out)


def cantor_point_preimages(system, y):
    out = {ZERO} if y == 0 else set()
    for piece, s, c in cantor_pieces(system):
        if piece.contains((y - c) / s):
            out.add((y - c) / s)
    return sorted(out)


@pytest.mark.parametrize("depth", [5, 6, 7])
@pytest.mark.parametrize("mode", ["fold", "mirror"])
def test_cantor_map_queries_match_a_piece_scan(depth, mode):
    # the cell-table queries against the piece scan above, at every component
    # end and midpoint of the space, with balls inside one component and
    # balls spanning several
    system = CantorSystem(depth, mode)
    for part in system.space().parts:
        for x in (part.lo, part.hi, (part.lo + part.hi) / 2):
            y = system.evaluate(x)
            assert y == cantor_evaluate(system, x)
            assert x in system.point_preimages(y)
            assert system.point_preimages(x) == cantor_point_preimages(system, x)
            for radius in (F(1, 3 ** (depth + 1)), F(1, 3 ** (depth - 2))):
                ball = ref_tube(system, x, radius)
                assert system.forward_image(ball) == cantor_forward(system, ball)
                assert system.preimage(ball) == cantor_preimage(system, ball)


def slimit_forward(system, sset):
    out = []
    for part in sset.parts:
        if part.hi <= 0:
            out.append(part)
        else:
            lo = max(part.lo, ZERO)
            out.append(ClosedInterval(lo * lo, part.hi * part.hi))
            if part.lo < 0:
                out.append(ClosedInterval(part.lo, part.lo))
    return intersect(normalize(out), system.space())


def ref_sqrt_enclosure(q, bits):
    """(lo, hi) on the 2^-bits grid with lo² ≤ q ≤ hi², the root found by bisection."""
    if q == 0:
        return ZERO, ZERO
    scale = 1 << bits
    lo, hi = 0, scale * (q.numerator // q.denominator + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if F(mid, scale) ** 2 <= q:
            lo = mid
        else:
            hi = mid - 1
    return F(lo, scale), F(lo + 1, scale)


def quadratic_preimage_outer(system, target, bits):
    c, p = system.critical_point(), system.parameter
    top = p / 4 if system.family == "logistic" else F(1)
    out = []
    for part in target.parts:
        hi2 = (top - part.lo) / p
        if hi2 < 0:
            continue
        rlo = ref_sqrt_enclosure(max((top - part.hi) / p, ZERO), bits)[0]
        rhi = ref_sqrt_enclosure(hi2, bits)[1]
        out += [ClosedInterval(c - rhi, c - rlo), ClosedInterval(c + rlo, c + rhi)]
    return intersect(normalize(out), system.space())


def ref_forward_sets(system, orbit, eps, forward):
    sets = [ref_tube(system, orbit.points[0], eps)]
    for x in orbit.points[1:]:
        sets.append(intersect(forward(system, sets[-1]), ref_tube(system, x, eps))
                    if not sets[-1].is_empty else sets[-1])
    return sets


def ref_backward_sets(system, orbit, eps, preimage):
    sets = [ref_tube(system, orbit.points[-1], eps)]
    for x in reversed(orbit.points[:-1]):
        sets.append(intersect(ref_tube(system, x, eps), preimage(system, sets[-1]))
                    if not sets[-1].is_empty else sets[-1])
    return sets[::-1]


def ref_report(evaluate, system, y, orbit):
    per, z = [], y
    for i, x in enumerate(orbit.points):
        if i:
            z = evaluate(system, z)
        per.append(abs(z - x))
    return DeviationReport(max(per), tuple(per), z == orbit.points[-1])


def ref_exact_hit(system, orbit, eps, ops):
    """(forward sets, witness or None, report or None), as first written."""
    forward = ref_forward_sets(system, orbit, eps, ops["forward"])
    if forward[-1].is_empty or not forward[-1].contains(orbit.points[-1]):
        return forward, None, None
    w = orbit.points[-1]
    for i in range(len(orbit.points) - 2, -1, -1):
        w = [c for c in ops["point_preimages"](system, w) if forward[i].contains(c)][0]
    return forward, w, ref_report(ops["evaluate"], system, w, orbit)


PL_OPS = {"forward": pl_forward, "preimage": pl_preimage, "point_preimages": pl_point_preimages,
          "evaluate": pl_evaluate}
CANTOR_OPS = {"forward": cantor_forward, "preimage": cantor_preimage,
              "point_preimages": cantor_point_preimages, "evaluate": cantor_evaluate}

# -- generated systems and orbits ---------------------------------------------------

# ε ≥ 1 covers the whole space; 2^-40 keeps almost nothing but the orbit's own points
EPSILONS = (F(1), F(3, 2), F(1, 2), F(1, 10), F(1, 27), F(1, 100), F(1, 2**40))


def orbits_of(system, rng, length):
    """A perturbed orbit from a sampled start, one that jumps anywhere in the
    space, and one pushed to the space's ends, whose tubes leave it."""
    space = system.space()
    x0 = _sample_in_set(space, rng)
    delta = rng.choice((F(1, 1000), F(1, 30), F(1, 4)))
    yield perturbed_orbit(system, x0, length, delta, seed=rng.getrandbits(32))
    yield PseudoOrbit(tuple(_sample_in_set(space, rng) for _ in range(length)))
    ends = (space.parts[0].lo, space.parts[-1].hi)
    yield PseudoOrbit(tuple(rng.choice(ends) if rng.random() < 0.5 else _sample_in_set(space, rng)
                            for _ in range(length)))


def check_piecewise_affine(system, ops, rng, length):
    for orbit in orbits_of(system, rng, length):
        eps = rng.choice(EPSILONS)
        forward = [from_int_set(s) for s in _forward_tube_sets(system, orbit, eps)]
        backward = [from_int_set(s) for s in _backward_tube_sets(system, orbit, eps, system._int_preimage)]
        assert backward == ref_backward_sets(system, orbit, eps, ops["preimage"])
        ref_forward, ref_witness, ref_rep = ref_exact_hit(system, orbit, eps, ops)
        assert forward == ref_forward
        cert = h_shadow_solve(system, orbit, eps)
        assert list(cert.transcript) == ref_forward
        assert (cert.witness, cert.report) == (ref_witness, ref_rep)
        assert cert.feasible == (ref_witness is not None)
        oracle = shadow_oracle(system, orbit, eps)
        assert oracle.feasible_set == backward[0] and list(oracle.transcript) == backward
        if oracle.feasible:
            assert oracle.report == ref_report(ops["evaluate"], system, backward[0].leftmost(), orbit)


@given(st.integers(0, 10**6), st.sampled_from(["zigzag", "tent"]), st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_pl_tube_loops_match_the_fraction_loops(seed, family, length):
    rng = random.Random(seed)
    if family == "zigzag":
        system = random_zigzag_map(rng.getrandbits(32), 2, 4)
    else:
        system = tent_map(rng.choice((F(2), F(9, 5), F(3, 2), F(1), F(7, 4))))
    check_piecewise_affine(system, PL_OPS, rng, length)


@given(st.integers(0, 10**6), st.integers(3, 5), st.sampled_from(["fold", "mirror"]), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_cantor_tube_loops_match_the_fraction_loops(seed, depth, mode, length):
    check_piecewise_affine(CantorSystem(depth, mode), CANTOR_OPS, random.Random(seed), length)


@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_slimit_forward_loop_matches_the_fraction_loop(seed, tail_depth, length):
    system, rng = SLimitSystem(tail_depth), random.Random(seed)
    for orbit in orbits_of(system, rng, length):
        eps = rng.choice(EPSILONS)
        forward = [from_int_set(s) for s in _forward_tube_sets(system, orbit, eps)]
        assert forward == ref_forward_sets(system, orbit, eps, slimit_forward)
        assert list(shadow_oracle(system, orbit, eps).transcript) == forward
    # the public image also takes a part straddling 0, which no tube set has
    straddle = normalize([ClosedInterval(-_sample_in_set(system.space(), rng) - 1, _sample_in_set(system.space(), rng))])
    assert system.forward_image(straddle) == slimit_forward(system, straddle)


@given(st.integers(0, 10**6), st.sampled_from(["logistic", "quadratic"]), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_quadratic_outer_loop_matches_the_fraction_loop(seed, family, length):
    rng = random.Random(seed)
    system = (logistic_map(F(rng.randint(300, 400), 100)) if family == "logistic"
              else quadratic_map(F(rng.randint(100, 200), 100)))
    for orbit in orbits_of(system, rng, length):
        eps = rng.choice(EPSILONS)
        outer = [from_int_set(s) for s in _backward_tube_sets(system, orbit, eps,
                                                              partial(system._int_preimage_outer, bits=64))]
        ref = ref_backward_sets(system, orbit, eps, partial(quadratic_preimage_outer, bits=64))
        assert outer == ref
        assert system.preimage_outer(outer[-1], 64) == quadratic_preimage_outer(system, outer[-1], 64)


def test_generated_cases_reach_every_branch():
    """The orbit mix gives feasible and infeasible exact hits, tubes cut by the
    space's ends and an unreachable final point, on both piecewise-affine classes."""
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        for system in (random_zigzag_map(seed, 2, 4), CantorSystem(3 + seed % 3, ("fold", "mirror")[seed % 2])):
            for orbit in orbits_of(system, rng, 1 + seed % 7):
                eps = EPSILONS[seed % len(EPSILONS)]
                cert = h_shadow_solve(system, orbit, eps)
                seen.add((type(system).__name__, cert.infeasible_reason))
                hull = system.space().hull()
                if any(x - eps < hull.lo or x + eps > hull.hi for x in orbit.points):
                    seen.add((type(system).__name__, "tube leaves the space"))
    for name in ("PiecewiseLinearMap", "CantorSystem"):
        assert {(name, None), (name, "no point stays inside every closed tube"),
                (name, "tube leaves the space")} <= seen, seen
    assert any(reason == "final orbit point unreachable inside the tubes" for _, reason in seen)


# -- the exact-hit self-check -------------------------------------------------------


@pytest.mark.parametrize("system", [tent_map(2), random_zigzag_map(3), CantorSystem(4, "mirror")],
                         ids=["tent", "zigzag", "cantor"])
def test_a_corrupted_backward_chain_trips_the_self_check(monkeypatch, system):
    orbit = perturbed_orbit(system, _sample_in_set(system.space(), random.Random(5)), 6, F(1, 1000), seed=5)
    eps = F(1, 20)
    assert h_shadow_solve(system, orbit, eps).feasible
    honest = type(system)._int_leftmost_preimage

    def nudged(self, yn, yd, within):
        # the leftmost preimage moved by 2^-200: no longer a preimage of the next chain point
        n, d = honest(self, yn, yd, within)
        return n * 2**200 + 1, d * 2**200

    monkeypatch.setattr(type(system), "_int_leftmost_preimage", nudged)
    with pytest.raises(AssertionError, match="reconstructed witness misses the terminal point"):
        h_shadow_solve(system, orbit, eps)
