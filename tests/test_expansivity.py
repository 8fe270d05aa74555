import random
import re
from bisect import bisect_right
from fractions import Fraction as F
from itertools import takewhile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowlab import expansivity
from shadowlab.expansivity import (
    ExpansivityVerdict,
    RegionSpec,
    _affine_cells,
    _ball_falsified,
    _expanding_violation,
    _first_uncovered,
    _int_meets,
    _pair_bound_clears,
    _pair_violation,
    _pl_ball_expanding,
    _pl_ball_failure,
    _pl_ball_run_clear,
    _pl_ball_step,
    _pl_ball_table,
    _run_ends,
    _search_ball_constants,
    check_ball_expanding,
    check_expanding,
    check_locally_injective,
    check_open_at,
    check_star,
    crosscheck_expanding_characterizations,
    region_of,
    schwarzian,
)
from shadowlab.numerics import (
    ClosedInterval,
    RationalIntervalSet,
    closed_ball,
    from_pairs,
    interior_grid,
    intersect,
    normalize,
    point_set,
)
from shadowlab.systems import (
    CantorSystem,
    DomainError,
    PiecewiseLinearMap,
    logistic_map,
    quadratic_map,
    random_zigzag_map,
    tent_map,
)

from reference import (
    ref_cantor_ball_hit,
    ref_expanding_violation,
    ref_pair_violation,
    ref_pl_ball_expanding_once,
    ref_star_hit,
    ref_uncovered_point,
    ref_vertex_candidates,
)

T2 = tent_map(2)


# -- expanding ----------------------------------------------------------------


def test_cantor_expanding_certified_with_printed_constants():
    system = CantorSystem(6, "mirror")
    verdict = check_expanding(system, None, F(1, 9), F(3))
    assert verdict.certified


def test_cantor_fold_convention_contracts_across_zero():
    system = CantorSystem(6, "fold")
    verdict = check_expanding(system, None, F(1, 9), F(3))
    assert verdict.falsified
    x, y = F(verdict.counterexample["x"]), F(verdict.counterexample["y"])
    lhs = system.distance(system.evaluate(x), system.evaluate(y))
    assert lhs < 3 * system.distance(x, y)


def test_tent_not_expanding_symmetric_pair():
    verdict = check_expanding(T2, None, F(1, 10), F(2))
    assert verdict.falsified
    x, y = F(verdict.counterexample["x"]), F(verdict.counterexample["y"])
    assert x + y == 1  # symmetric about the kink


def test_tent_expanding_on_left_band():
    verdict = check_expanding(T2, region_of((0, "2/5")), F(1, 10), F(2))
    assert verdict.certified


def _int_cell(lo, hi, slope, offset):
    """A pair-engine cell, (part, a, b, q) with f(x) = (a·x + b)/q, from its Fraction view."""
    sd, od = slope.denominator, offset.denominator
    return (lo.numerator, lo.denominator, hi.numerator, hi.denominator), slope.numerator * od, offset.numerator * sd, sd * od


def _view(cell):
    """The Fraction view of a pair-engine cell: (domain, slope, offset)."""
    (ln, ld, hn, hd), a, b, q = cell
    return ClosedInterval(F(ln, ld), F(hn, hd)), F(a, q), F(b, q)


def _random_cell(rng, lo):
    return _int_cell(lo, lo + F(rng.randint(1, 20), 100), F(rng.choice((-5, -3, -2, 2, 3, 4)), rng.choice((1, 2))),
                     F(rng.randint(-200, 200), 100))


def test_pair_engine_against_dense_sampling():
    # the vertex analysis over one cell pair agrees with dense rational
    # sampling of the two affine graphs, including straddle configurations
    rng = random.Random(44)
    for trial in range(120):
        a1 = F(rng.randint(0, 60), 100)
        cell_x = _random_cell(rng, a1)
        cell_y = _random_cell(rng, a1 + F(rng.randint(0, 25), 100))
        delta = F(rng.randint(2, 15), 100)
        mu = F(rng.choice((3, 2, 5)), 2)
        hit = _pair_violation(cell_x, cell_y, delta, mu)
        (ix, sx, ox), (iy, sy, oy) = _view(cell_x), _view(cell_y)
        if hit is not None:
            x, y = hit
            assert ix.lo <= x <= ix.hi and iy.lo <= y <= iy.hi
            assert 0 < y - x < delta
            assert abs((sx * x + ox) - (sy * y + oy)) < mu * (y - x)
        else:
            for _ in range(300):
                x = ix.lo + ix.width * F(rng.getrandbits(10), 1 << 10)
                y = iy.lo + iy.width * F(rng.getrandbits(10), 1 << 10)
                if 0 < y - x < delta:
                    assert abs((sx * x + ox) - (sy * y + oy)) >= mu * (y - x)


def _bound_test_cases():
    """(cells, delta, mu) from the middle-thirds systems, zigzag maps and random cells."""
    for depth in range(3, 8):
        for mode in ("fold", "mirror"):
            system = CantorSystem(depth, mode)
            cells = _affine_cells(system, system.space())
            for mu in (F(3), F(4)):  # slope 3: bound (a) applies at μ = 3, only (b) at μ = 4
                yield cells, F(1, 3 ** (depth - 3)), mu
    rng = random.Random(7)
    for seed in range(8):
        system = random_zigzag_map(seed)
        lo = F(rng.randint(0, 50), 100)
        carrier = from_pairs([(0, lo), (lo + F(rng.randint(1, 10), 100), 1)])
        cells = _affine_cells(system, carrier)
        for delta, mu in ((F(1, 10), F(2)), (F(1, 4), system.min_slope_modulus()), (F(1, 20), F(5))):
            yield cells, delta, mu
    for _ in range(150):
        a1 = F(rng.randint(0, 60), 100)
        cells = [_random_cell(rng, a1), _random_cell(rng, a1 + F(rng.randint(0, 25), 100))]
        yield cells, F(rng.randint(2, 15), 100), F(rng.choice((3, 2, 5)), 2)


def test_pair_bounds_skip_only_violation_free_pairs():
    # every cell pair the two bounds skip is checked on the full vertex
    # arrangement: no vertex with |F(x) − G(y)| < μ(y − x), and no point of
    # the image-collision line F(x) = G(y) with 0 < y − x < δ (the collision
    # segment's end points are arrangement vertices and y − x is affine on it,
    # so it suffices that every collision vertex has y = x)
    skipped = {"same map": 0, "images apart": 0}
    for cells, delta, mu in _bound_test_cases():
        views = [_view(c) for c in cells]  # built once per case: the pair loop reads them n² times
        reach = [(ix.lo, ix.hi + delta) for ix, _, _ in views]
        for cx, vx, (lx, rx) in zip(cells, views, reach):
            ix, sx, ox = vx
            for cy, vy, (ly, ry) in zip(cells, views, reach):
                iy, sy, oy = vy
                if cy is cx or ly >= rx or lx >= ry:  # the cells lie δ or more apart
                    continue
                if not _pair_bound_clears(cx, cy, delta, mu):
                    continue
                same = sx == sy and ox == oy and abs(sx) >= mu
                skipped["same map" if same else "images apart"] += 1
                for x, y in ref_vertex_candidates(vx, vy, delta):
                    fx, gy = sx * x + ox, sy * y + oy
                    assert abs(fx - gy) >= mu * (y - x), (cx, cy, delta, mu, x, y)
                    if fx == gy:
                        assert y == x, (cx, cy, delta, mu, x, y)
                assert _pair_violation(cx, cy, delta, mu) is None
    assert skipped["same map"] > 100 and skipped["images apart"] > 100, skipped


def test_a_violation_thinner_than_the_nudge_is_falsified():
    # tent(2) on [0, 49/100] ∪ [3/5, 1], δ = 3/25, μ = 4/3 + 1/(3·10²⁰): the pair
    # x = 12/25 + 10⁻²², y = 3/5 violates, but every violating pair lies within
    # about 10⁻²¹ of y − x = δ, thinner than the 64 axis halvings that used to
    # move the best vertex off that edge; they gave up, and the check certified
    delta, mu = F(3, 25), F(4, 3) + F(1, 3 * 10**20)
    x, y = F(12, 25) + F(1, 10**22), F(3, 5)
    assert 0 < y - x < delta and abs(T2.evaluate(x) - T2.evaluate(y)) < mu * (y - x)
    region = region_of((0, "49/100"), ("3/5", 1))
    cx, cy = _affine_cells(T2, region.carrier)
    assert ref_pair_violation(cx, cy, delta, mu) is None  # the Fraction engine's give-up
    hx, hy = _pair_violation(cx, cy, delta, mu)
    (ix, sx, ox), (iy, sy, oy) = _view(cx), _view(cy)
    assert ix.lo <= hx <= ix.hi and iy.lo <= hy <= iy.hi and 0 < hy - hx < delta
    assert abs((sx * hx + ox) - (sy * hy + oy)) < mu * (hy - hx)
    verdict = check_expanding(T2, region, delta, mu)  # the verdict re-validates its pair
    assert verdict.falsified and (F(verdict.counterexample["x"]), F(verdict.counterexample["y"])) == (hx, hy)


slopes = st.sampled_from([F(n, d) for n in (-9, -3, -2, -1, 1, 2, 3, 5) for d in (1, 2, 3)])


@st.composite
def cell_pairs(draw):
    """(cx, cy, δ, μ): two pair-engine cells on a grid of 1/g, single points
    among them, cy starting up to half a unit before or after cx's end, and μ
    on the grid or just above 4/3 or 2; in the continuous half cy starts where
    cx ends and G(cy.lo) = F(cx.hi), as two laps of a continuous map meet."""
    g = draw(st.sampled_from((3, 4, 12, 40)))

    def grid(lo, hi):
        return F(draw(st.integers(lo, hi)), g)

    xlo, sx, sy = grid(0, g), draw(slopes), draw(slopes)
    xhi, ox = xlo + grid(0, g // 2), grid(-2 * g, 2 * g)
    if draw(st.booleans()):
        ylo, oy = xhi, (sx - sy) * xhi + ox
    else:
        ylo, oy = xhi + grid(-g // 2, g // 2), grid(-2 * g, 2 * g)
    yhi, delta = ylo + grid(0, g // 2), grid(1, g // 2)
    mu = draw(st.one_of(st.integers(g + 1, 6 * g).map(lambda n: F(n, g)),
                        st.sampled_from((F(4, 3) + F(1, 3 * 10**20), F(2) + F(1, 10**9)))))
    return _int_cell(xlo, xhi, sx, ox), _int_cell(ylo, yhi, sy, oy), delta, mu


@settings(max_examples=400, deadline=None)
@given(cell_pairs())
def test_pair_engine_matches_the_fraction_engine(case):
    # the integer engine against the Fraction one it replaced: every hit
    # re-validates; a reference hit implies an engine hit, so an engine None
    # implies a reference None (the reference may give up where the engine
    # does not); and the points are equal unless the reference nudged or chose
    # among tied least-h vertices, whose order was its set's hash order
    cx, cy, delta, mu = case
    hit, ref = _pair_violation(cx, cy, delta, mu), ref_pair_violation(cx, cy, delta, mu)
    (ix, sx, ox), (iy, sy, oy) = _view(cx), _view(cy)
    if hit is not None:
        x, y = hit
        assert ix.lo <= x <= ix.hi and iy.lo <= y <= iy.hi and 0 < y - x < delta
        assert abs((sx * x + ox) - (sy * y + oy)) < mu * (y - x)
    assert ref is None or hit is not None
    if ref is None and hit is None:
        return
    # the reference's path: the collision segment's middle when the segment has two
    # ends (one when F(x) = G(y) is parallel to y = x) strictly inside the strip, else
    # the least-h vertex, nudged when it lies on y − x = δ
    vertices = ref_vertex_candidates(_view(cx), _view(cy), delta)
    ends = [(x, y) for x, y in vertices if sx * x + ox == sy * y + oy]
    collision = len(ends) > 1 if sx != sy else bool(ends) and 0 < ends[0][1] - ends[0][0] < delta
    h = {(x, y): abs((sx * x + ox) - (sy * y + oy)) - mu * (y - x) for x, y in vertices}
    least = [v for v in vertices if h[v] == min(h.values())]
    if collision or len(least) == 1 and least[0][1] - least[0][0] < delta:
        assert hit == ref, (cx, cy, delta, mu)


def test_affine_cells_on_a_128_part_cantor_carrier():
    # _affine_cells against the public piece geometry: every component of every
    # piece set met with every carrier part, and the fixed point 0 with the
    # identity, in ascending order; then zigzag maps on two-part carriers
    # (ends on breakpoints among them) against the public laps met with them
    for mode in ("fold", "mirror"):
        system = CantorSystem(7, mode)
        space = system.space()
        every_other = RationalIntervalSet(space.parts[::2])
        assert len(every_other.parts) == 128
        for carrier in (space, every_other):
            expected = [(ClosedInterval(F(0), F(0)), F(1), F(0))] if carrier.contains(F(0)) else []
            for n in (*range(1, 8), *range(-7, 0)):
                s, c = system.piece_affine(n)
                for dom in system.piece_set(n).parts:
                    met = [ClosedInterval(max(dom.lo, q.lo), min(dom.hi, q.hi)) for q in carrier.parts
                           if max(dom.lo, q.lo) <= min(dom.hi, q.hi)]
                    expected.extend((part, s, c) for part in normalize(met).parts)
            assert [_view(cell) for cell in _affine_cells(system, carrier)] == sorted(expected)
    rng = random.Random(13)
    for seed in range(40):
        system = random_zigzag_map(seed, 2, 8)
        cuts = sorted(rng.sample([*system.breakpoints, *(F(rng.randint(0, 64), 64) for _ in range(6))], 4))
        carrier = normalize([ClosedInterval(cuts[0], cuts[1]), ClosedInterval(cuts[2], cuts[3])])
        expected = [(part, s, c) for dom, s, c in system.laps()
                    for part in intersect(RationalIntervalSet((dom,)), carrier).parts]
        assert [_view(cell) for cell in _affine_cells(system, carrier)] == expected, (system, carrier)


def test_expanding_brute_force_cross_validation():
    # dense pair sampling agrees with the exact verdict on random maps/regions
    rng = random.Random(31)
    for seed in range(6):
        system = random_zigzag_map(seed)
        lo = F(rng.randint(0, 40), 100)
        hi = lo + F(rng.randint(5, 30), 100)
        region = region_of((lo, min(hi, F(1))))
        delta, mu = F(1, 10), F(2)
        verdict = check_expanding(system, region, delta, mu)
        carrier = region.carrier
        violations = []
        for _ in range(400):
            part = carrier.parts[rng.randrange(len(carrier.parts))]
            x = part.lo + part.width * F(rng.getrandbits(12), 1 << 12)
            y = part.lo + part.width * F(rng.getrandbits(12), 1 << 12)
            if x != y and abs(x - y) < delta:
                if abs(system.evaluate(x) - system.evaluate(y)) < mu * abs(x - y):
                    violations.append((x, y))
        if violations:
            assert verdict.falsified
        # certified verdicts must never coexist with sampled violations
        if verdict.certified:
            assert not violations


# -- one-sided variant ----------------------------------------------------------


def test_star_certified_at_noncritical_point():
    x = F(1, 5)
    verdict = check_star(T2, RegionSpec(point_set(x)), F(1, 10), F(2))
    assert verdict.certified


def test_star_at_kink_matches_slope_bound():
    # pairs anchored at the kink stretch by exactly the slope modulus, so the
    # one-sided property holds at mu=2 and fails just above it
    at_kink = RegionSpec(point_set(F(1, 2)))
    assert check_star(T2, at_kink, F(1, 10), F(2)).certified
    verdict = check_star(T2, at_kink, F(1, 10), F(5, 2))
    assert verdict.falsified
    assert F(verdict.counterexample["x"]) == F(1, 2)


def test_star_implies_expanding_on_same_region():
    rng = random.Random(12)
    for seed in range(8):
        system = random_zigzag_map(seed)
        lo = F(rng.randint(0, 50), 100)
        region = region_of((lo, min(lo + F(1, 5), F(1))))
        delta, mu = F(1, 20), F(2)
        star = check_star(system, region, delta, mu)
        if star.certified:
            assert check_expanding(system, region, delta, mu).certified


# -- the smooth family's pair checks ------------------------------------------------

L4 = logistic_map(4)


def test_smooth_pair_checks_probe_only_pairs_closer_than_delta():
    # 7/16 and 9/16 are exactly δ = 1/8 apart; the first probe pair used to be
    # that pair, so both checks answered "falsified" with d(x, y) = δ
    two_points = region_of(("7/16", "7/16"), ("9/16", "9/16"))
    assert check_expanding(L4, two_points, F(1, 8), 2).holds == "undetermined"
    assert check_expanding(T2, two_points, F(1, 8), 2).certified
    assert check_star(L4, region_of(("7/16", "7/16")), F(1, 8), 2).holds == "undetermined"


@pytest.mark.parametrize("check", [check_expanding, check_star])
def test_smooth_falsified_pairs_lie_strictly_within_delta(check):
    falsified = 0
    for system in (L4, logistic_map(F(7, 2)), quadratic_map(2), quadratic_map(F(3, 2))):
        c = system.critical_point()
        for delta in (F(1, 8), F(1, 5), F(1, 64)):
            for lo, hi in ((c - delta, c + delta), (c - delta / 2, c), (c, c), (c - 2 * delta, c + delta / 4)):
                verdict = check(system, region_of((lo, hi)), delta, 2)
                if verdict.falsified:
                    falsified += 1
                    assert 0 < F(verdict.counterexample["d(x,y)"]) < delta
    assert falsified > 10


def _pair(verdict):
    return verdict.counterexample["x"], verdict.counterexample["y"]


def test_smooth_pair_check_answers_on_logistic_4():
    delta = F(1, 8)
    for check in (check_expanding, check_star):
        assert _pair(check(L4, region_of(("1/4", "3/4")), delta, 2)) == ("15/32", "17/32")
    expanding = check_expanding(L4, region_of((0, "1/8")), delta, 2)
    star = check_star(L4, region_of((0, "1/8")), delta, 2)
    assert expanding.certified and expanding.constants["minDerivative"] == "3/1"
    assert star.certified and star.constants["minDerivative"] == "2/1"
    assert check_expanding(L4, region_of(("1/4", "1/2")), delta, 2).holds == "undetermined"
    assert _pair(check_star(L4, region_of(("1/4", "1/2")), delta, 2)) == ("15/32", "17/32")


# -- ball expanding ---------------------------------------------------------------


def test_tent_ball_expanding_certified():
    grid = [F(1, 4) * F(j, 51) for j in range(1, 51)]
    verdict = check_ball_expanding(T2, None, F(2), F(1, 4), grid)
    assert verdict.certified


def test_tent_kink_ball_containment_exact():
    # at the kink the image of the ε-ball is [1−2ε, 1], which covers the
    # clipped 2ε-ball around the image point
    eps = F(1, 20)
    img = T2.forward_image(intersect(closed_ball(F(1, 2), eps), from_pairs([(0, 1)])))
    assert img == from_pairs([(1 - 2 * eps, 1)])
    target = intersect(closed_ball(F(1), 2 * eps), from_pairs([(0, 1)]))
    assert target.subset_of(img)


def test_cantor_ball_expanding_fails_at_zero():
    for mode in ("fold", "mirror"):
        system = CantorSystem(6, mode)
        verdict = check_ball_expanding(system, RegionSpec(point_set(F(0))), F(3), F(1, 27),
                                       [F(1, 81), F(1, 243)])
        assert verdict.falsified
        missing = F(verdict.counterexample["missingPoint"])
        eps = F(verdict.counterexample["epsilon"])
        image = system.ball_image(eps, closed=True)
        assert not image.contains(missing)


def test_ball_expanding_falsifier_on_interior_peak():
    # an interior local max with value 1/2 breaks the covering immediately
    peak = PiecewiseLinearMap((F(0), F(1, 4), F(1)), (F(0), F(1, 2), F(0)))
    grid = [F(1, 40), F(1, 50)]
    verdict = check_ball_expanding(peak, None, F(3, 2), F(1, 10), grid)
    assert verdict.falsified


def test_ball_expanding_rejects_mu_one():
    with pytest.raises(ValueError):
        check_ball_expanding(T2, None, 1, F(1, 4), [F(1, 8)])


@pytest.mark.parametrize("system", [T2, CantorSystem(6)])
def test_ball_expanding_rejects_an_empty_grid(system):
    # an empty grid used to certify vacuously, with gridSize 0
    with pytest.raises(ValueError, match="empty epsilon grid"):
        check_ball_expanding(system, RegionSpec(point_set(F(0))), F(3), F(1, 27), [])


@pytest.mark.parametrize("system, pair", [(T2, ("-1", "2")), (CantorSystem(6), ("1/3", "2/3"))])
def test_ball_expanding_refuses_a_region_outside_the_space(system, pair):
    # the tent map's [−1, 2], half outside [0, 1], used to certify
    with pytest.raises(DomainError, match="not in the space"):
        check_ball_expanding(system, region_of(pair), 2, F(1, 4), [F(1, 8)])


@pytest.mark.parametrize("check, part", [
    # each of these used to answer "certified" (the crosscheck: every side, and consistent)
    (lambda: check_expanding(T2, region_of(("3/2", "2")), F(1, 8), F(3, 2)), "[3/2, 2/1]"),
    (lambda: check_star(T2, region_of(("3/2", "2")), F(1, 8), F(3, 2)), "[3/2, 2/1]"),
    (lambda: check_expanding(logistic_map(4), region_of(("-1", "-1/2")), F(1, 8), 2), "[-1/1, -1/2]"),
    (lambda: check_expanding(CantorSystem(6), region_of(("1/5", "1/4")), F(1, 9), 3), "[1/5, 1/4]"),  # a gap
    (lambda: crosscheck_expanding_characterizations(T2, region_of(("3/2", "2"))), "[3/2, 2/1]"),
    (lambda: check_locally_injective(T2, region_of((0, 1), (2, 3))), "[2/1, 3/1]"),
], ids=["expanding", "star", "logistic", "cantor-gap", "crosscheck", "locally-injective"])
def test_every_region_check_refuses_a_region_outside_the_space(check, part):
    with pytest.raises(DomainError, match=rf"^region part {re.escape(part)} is not in the space$"):
        check()


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("mode", ["fold", "mirror"])
def test_crosscheck_below_depth_four_leaves_ball_side_undetermined(depth, mode):
    # the Cantor ε grid 3^-4 .. 3^-min(6, depth) is empty below depth 4; it used to certify vacuously
    out = crosscheck_expanding_characterizations(CantorSystem(depth, mode), RegionSpec(point_set(F(0))))
    assert out["ballExpanding"] == "undetermined" and out["side2"] == "undetermined"


def random_lap_map(rng):
    """2–5 laps, breakpoints and values on grids of 1/6 to 1/24: seldom onto
    [0, 1], so the window's extrema are often interior breakpoint values
    strictly inside it, unlike a zigzag's 0 and 1."""
    laps, m, g = rng.randint(2, 5), rng.randint(6, 24), rng.randint(6, 24)
    breakpoints = (F(0), *sorted(F(j, m) for j in rng.sample(range(1, m), laps - 1)), F(1))
    values = [F(rng.randint(0, g), g)]
    while len(values) <= laps:
        v = F(rng.randint(0, g), g)
        if v != values[-1]:
            values.append(v)
    return PiecewiseLinearMap(breakpoints, tuple(values))


def test_pl_ball_route_matches_the_fraction_reference():
    # the integer route returns exactly the reference's (x, missing point), so a
    # change of candidate, crossing or lap (one lap off moves only the points,
    # not the verdicts) shows.  ε on the tent-ball-2.9 and pl-region-5.2 grids;
    # μ = min slope and 5/4 certify most zigzag cases (every cell swept), μ
    # just above the min slope falsifies them inside the flattest lap.  One table
    # per map and carrier serves every μ and ε, as in a check
    rng = random.Random(29)
    carriers = (from_pairs([(0, 1)]), from_pairs([("1/20", "9/20"), ("11/20", "19/20")]))
    grid = interior_grid(F(1, 4), 50) + interior_grid(F(1, 20), 12)
    maps = [tent_map(lam) for lam in (F(2), F(19, 10), F(9, 5), F(3, 2))]
    maps += [random_zigzag_map(rng.getrandbits(32), laps, laps) for laps in range(3, 9) for _ in range(6)]
    cases = falsified = 0
    for system in maps:
        slope = system.min_slope_modulus()
        for carrier in carriers:
            table = _pl_ball_table(system, carrier)
            for mu, count in ((slope, 4), (F(5, 4), 4), (slope * F(9, 8), 30)):
                for eps in rng.sample(grid, count):
                    got = _pl_ball_step(table, mu, eps)
                    assert got == ref_pl_ball_expanding_once(system, carrier, mu, eps), (system, carrier, mu, eps)
                    cases += 1
                    falsified += got is not None
    assert cases >= 3000 and falsified >= 500, (cases, falsified)
    # non-surjective maps on sub-interval carriers, one with a point part and one
    # ending exactly on a cut b ± ε: dropping the crossings of f(x) ± μ·ε with the
    # interior breakpoint values moves a returned point here, not on the zigzags
    verdicts = {"certified": 0, "falsified": 0}
    for _ in range(1200):
        system, eps = random_lap_map(rng), rng.choice(grid)
        lo, hi, p = sorted(F(rng.randint(0, 24), 24) for _ in range(2)) + [F(rng.randint(0, 24), 24)]
        cut = min(max(rng.choice(system.breakpoints) + rng.choice((-eps, eps)), F(0)), F(1))
        for carrier in (from_pairs([(lo, hi)]), from_pairs([(lo, hi), (p, p)]), from_pairs([(min(lo, cut), cut)])):
            mu = rng.choice((max(system.min_slope_modulus(), F(9, 8)), F(5, 4), F(3, 2)))
            got = _pl_ball_step(_pl_ball_table(system, carrier), mu, eps)
            assert got == ref_pl_ball_expanding_once(system, carrier, mu, eps), (system, carrier, mu, eps)
            verdicts["certified" if got is None else "falsified"] += 1
    assert min(verdicts.values()) >= 200, verdicts


_sixths = st.integers(-12, 12).map(lambda k: F(k, 6))


@st.composite
def half_line_cases(draw):
    """A closed part, often a point, in unreduced integers, and half-lines α·x + β > 0, or ≥ 0 where
    closed, with α = 0 allowed and every root on a grid that holds the part's ends: bounds land on a
    part end, on each other, or both, open against closed."""
    lo, hi = sorted((draw(_sixths), draw(_sixths)))
    if draw(st.booleans()):
        lo = hi
    k = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        alpha = draw(st.integers(-3, 3))
        root = draw(st.one_of(st.sampled_from((lo, hi)), _sixths))
        a, b = (alpha * root.denominator, -alpha * root.numerator) if alpha else (0, draw(st.integers(-2, 2)))
        rows.append((a, b, draw(st.booleans())))
    return rows, (k * lo.numerator, k * lo.denominator, k * hi.numerator, k * hi.denominator)


def _brute_meets(rows, lo, hi):
    # the set is an interval whose ends are part ends or roots: test those points and the midpoints between them
    points = sorted({lo, hi} | {F(-b, a) for a, b, _ in rows if a and lo < F(-b, a) < hi})
    points += [(u + v) / 2 for u, v in zip(points, points[1:])]
    return any(all(a * x + b > 0 or closed and a * x + b == 0 for a, b, closed in rows) for x in points)


@settings(max_examples=400, deadline=None)
@given(half_line_cases())
@example(([(1, -1, False)], (1, 1, 1, 1)))  # x > 1 on the point part [1, 1]: open at the point, empty
@example(([(1, -1, True)], (1, 1, 1, 1)))  # x ≥ 1 on the point part [1, 1]: the point
@example(([(1, -1, False)], (0, 1, 1, 1)))  # x > 1 on [0, 1]: the bound is the part's closed end, empty
@example(([(-1, 1, False)], (1, 1, 2, 1)))  # x < 1 on [1, 2]
@example(([(1, -1, False), (-1, 1, False)], (0, 1, 2, 1)))  # x > 1 and x < 1: equal open bounds, empty
@example(([(1, -1, True), (-1, 1, True)], (0, 1, 2, 1)))  # x ≥ 1 and x ≤ 1: the point 1
@example(([(1, -1, False), (1, -1, True)], (0, 1, 2, 1)))  # x > 1, then x ≥ 1 on the same root: stays open
@example(([(1, -1, True), (1, -1, False), (-1, 1, True)], (0, 1, 2, 1)))  # x ≥ 1, then x > 1: turns open, empty
@example(([(0, 0, False)], (0, 1, 1, 1)))  # α = 0, β = 0: 0 > 0 nowhere
@example(([(0, 0, True)], (0, 1, 1, 1)))  # α = 0, β = 0 closed: 0 ≥ 0 everywhere
@example(([(0, 1, False), (2, -1, False)], (1, 2, 1, 2)))  # α = 0, β > 0 holds; 2x − 1 > 0 fails at the point 1/2
def test_half_line_pass_matches_brute_force_over_ends_and_roots(case):
    rows, (ln, ld, hn, hd) = case
    assert _int_meets(rows, ln, ld, hn, hd) == _brute_meets(rows, F(ln, ld), F(hn, hd))


def _critical_radii(system):
    # where two cuts b ± ε meet: every bⱼ − bᵢ and (bⱼ − bᵢ)/2, in Fractions
    bps = system.breakpoints
    return sorted({(v - u) * k for u in bps for v in bps if u < v for k in (1, F(1, 2))})


_BALL_MAPS = st.one_of(
    st.sampled_from((F(2), F(19, 10), F(9, 5), F(8, 5), F(3, 2))).map(tent_map),
    st.integers(0, 2 ** 32 - 1).map(lambda seed: random_zigzag_map(seed, 2, 5)),
    st.integers(0, 2 ** 32 - 1).map(lambda seed: random_lap_map(random.Random(seed))),
)
_24ths = st.integers(0, 24).map(lambda k: F(k, 24))


@st.composite
def ball_run_cases(draw):
    """A lap map, zigzag or tent; an ε grid below ν, where ν is twice or 3/2 times a critical radius (the
    grid straddles it, and holds it when its size allows), the radius itself, or 1/20; a carrier that is
    the space, a part, a part plus a point, or a part or point ending on a cut b ± ε of a grid ε; and μ
    at, above or below the least slope."""
    system = draw(_BALL_MAPS)
    c = draw(st.sampled_from(_critical_radii(system)))
    nu = draw(st.sampled_from((2 * c, c * F(3, 2), c, F(1, 20))))
    grid = interior_grid(nu, draw(st.integers(2, 12)))
    lo, hi = sorted((draw(_24ths), draw(_24ths)))
    eps = draw(st.sampled_from(grid))
    cut = min(max(draw(st.sampled_from(system.breakpoints)) + draw(st.sampled_from((-eps, eps))), F(0)), F(1))
    carrier = draw(st.sampled_from((
        from_pairs([(0, 1)]), from_pairs([(lo, hi)]), normalize([ClosedInterval(lo, hi), ClosedInterval(*[draw(_24ths)] * 2)]),
        from_pairs([(min(lo, cut), cut)]), point_set(cut))))
    mu = system.min_slope_modulus() * draw(st.sampled_from((1, F(9, 8), F(7, 8))))
    return system, carrier, mu, grid


@settings(max_examples=500, deadline=None)
@given(ball_run_cases())
def test_cleared_ball_runs_hold_no_failing_eps(case):
    # a run the (x, ε) face test clears must hold no failing ε, on the grid or between its points, and the
    # grid route must answer what the plain per-ε loop answers; tent(2) at μ = 2 fails nowhere (its margins
    # touch 0 along whole edges), so there every run of two or more must clear
    system, carrier, mu, grid = case
    table = _pl_ball_table(system, carrier)
    plain = next(((eps, *hit) for eps in grid if (hit := _pl_ball_step(table, mu, eps)) is not None), None)
    assert _pl_ball_failure(table, mu, grid) == plain
    constants = {"gridSize": len(grid)}
    expected = (ExpansivityVerdict("ballExpanding", "certified", constants) if plain is None
                else _ball_falsified(system, plain[1], plain[0], mu, plain[2], constants))
    assert _pl_ball_expanding(system, carrier, mu, grid, constants).to_json() == expected.to_json()
    crit, runs = _critical_radii(system), {}
    for eps in grid:
        if eps not in crit:
            runs.setdefault(bisect_right(crit, eps), []).append(eps)
    for run in (sorted(run) for run in runs.values() if len(run) > 1):
        lo, hi = run[0], run[-1]
        if _pl_ball_run_clear(table, mu, (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)):
            probes = run + [(u + v) / 2 for u, v in zip(run, run[1:])]
            assert all(_pl_ball_step(table, mu, eps) is None for eps in probes), (system, carrier, mu, run)
        else:
            assert not (system == T2 and mu == 2), (carrier, run)


@pytest.mark.parametrize("lam, mu, carrier, nu, size, lo, hi", [
    (F(9, 5), F(9, 5), ("2/3", "2/3"), F(1, 2), 5, F(1, 12), F(1, 6)),
    (F(2), F(9, 4), ("7/24", "7/24"), F(1, 2), 11, F(7, 24), F(11, 24)),
    (F(3, 2), F(3, 2), ("1/24", "1/6"), F(3, 8), 8, F(7, 24), F(1, 3)),
])
def test_ball_run_whose_failing_set_only_touches_the_face_is_cleared(lam, mu, carrier, nu, size, lo, hi):
    # the closure of a failing set meets these faces, the set itself does not: only a strict pair of a strict
    # and a closed bound (a bound of the face) keeps the elimination exact here and clears the run
    system, carrier = tent_map(lam), from_pairs([carrier])
    table = _pl_ball_table(system, carrier)
    run = [eps for eps in interior_grid(nu, size) if lo <= eps <= hi]
    assert len(run) > 1 and not any(c in run for c in _critical_radii(system))
    assert _pl_ball_run_clear(table, mu, (lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
    assert all(_pl_ball_step(table, mu, eps) is None for eps in run)


@pytest.mark.parametrize("grid, cleared, verdict", [
    (10, True, {"property": "ballExpanding", "holds": "certified",
                "constants": {"gridSize": "10", "mu": "77/50", "nu": "1/8"}, "counterexample": None}),
    (24, False, {"property": "ballExpanding", "holds": "falsified",
                 "constants": {"gridSize": "24", "mu": "77/50", "nu": "1/8"},
                 "counterexample": {"x": "39/100", "epsilon": "23/200", "missingPoint": "8011/10000",
                                    "statement": "point 8011/10000 lies within 1771/10000 of f(x)=78/125 "
                                                 "but outside the image of the ε-ball"}}),
])
def test_peak_four_fifths_tent_run_is_cleared_only_below_its_failure(grid, cleared, verdict):
    # the tent with peak 4/5 on [33/100, 39/100] at μ = 77/50 fails only for ε > 0.1143; both grids below
    # ν = 1/8 lie in one run (the least critical radius is 1/4).  The grid-10 run ends at 10ν/11 ≈ 0.1136,
    # so its face test clears it; the grid-24 run reaches 23/200, is stepped, and keeps the per-ε answer
    system, region, mu, nu = tent_map(F(8, 5)), region_of(("33/100", "39/100")), F(77, 50), F(1, 8)
    eps = interior_grid(nu, grid)
    lo, hi = (eps[0].numerator, eps[0].denominator), (eps[-1].numerator, eps[-1].denominator)
    assert _pl_ball_run_clear(_pl_ball_table(system, region.carrier), mu, lo, hi) is cleared
    assert check_ball_expanding(system, region, mu, nu, eps).to_json() == verdict


def test_constant_search_finds_tent_constants():
    found = _search_ball_constants(T2, T2.space())
    assert found is not None
    mu, nu = found
    assert mu == 2


# -- openness -------------------------------------------------------------------


def test_tent_open_at_kink_and_endpoints():
    assert check_open_at(T2, F(1, 2)).certified
    assert check_open_at(T2, F(0)).certified
    assert check_open_at(T2, F(1)).certified
    assert check_open_at(T2, F(1, 3)).certified


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.integers(1, 2**40))
def test_zigzag_open_at_and_beside_every_breakpoint(seed, offset):
    # every lap of a zigzag is onto [0,1], so the map is open everywhere: at a
    # breakpoint, and just left or right of one, where the two slopes read differ
    system = random_zigzag_map(seed)
    bps = system.breakpoints
    tiny = min(b - a for a, b in zip(bps, bps[1:])) / (4 + offset)
    for b in bps:
        for x in (b - tiny, b, b + tiny):
            if 0 <= x <= 1:
                assert check_open_at(system, x).certified, (bps, x)


def test_interior_peak_not_open():
    peak = PiecewiseLinearMap((F(0), F(1, 4), F(1)), (F(0), F(1, 2), F(0)))
    verdict = check_open_at(peak, F(1, 4))
    assert verdict.falsified


def test_shifted_endpoint_map_not_open_at_zero():
    # value 1/2 at the left endpoint with positive slope: the image misses a
    # half-neighbourhood below 1/2
    m = PiecewiseLinearMap((F(0), F(1, 8), F(1)), (F(1, 2), F(11, 16), F(0)))
    assert m.slopes[0] == F(3, 2)
    verdict = check_open_at(m, F(0))
    assert verdict.falsified


def test_cantor_not_open_at_zero_only():
    system = CantorSystem(6)
    assert check_open_at(system, F(0)).falsified
    assert check_open_at(system, F(2, 27)).certified


def test_quadratic_openness():
    assert check_open_at(logistic_map(4), F(1, 2)).certified  # peak maps to 1
    assert check_open_at(logistic_map(3), F(1, 2)).falsified  # peak maps to 3/4
    assert check_open_at(quadratic_map(F(3, 2)), F(0)).certified


# -- local injectivity ------------------------------------------------------------


def test_locally_injective_verdicts():
    assert check_locally_injective(T2, None).falsified
    assert check_locally_injective(T2, region_of((0, "2/5"))).certified
    assert check_locally_injective(T2, RegionSpec(from_pairs([]))).certified


# -- Schwarzian ---------------------------------------------------------------------


def test_schwarzian_closed_form():
    rng = random.Random(23)
    for _ in range(100):
        x = F(rng.randint(-999, 999), 1000)
        if x == 0:
            continue
        for mu_num in (10, 12, 15, 17, 20):
            system = quadratic_map(F(mu_num, 10))
            assert schwarzian(system, x) == F(-3, 2) / (x * x)


def test_schwarzian_at_half():
    assert schwarzian(quadratic_map(F(3, 2)), F(1, 2)) == -6


def test_schwarzian_rejects_critical_point():
    with pytest.raises(ValueError):
        schwarzian(quadratic_map(F(3, 2)), 0)


def test_logistic_schwarzian_negative():
    rng = random.Random(3)
    g4 = logistic_map(4)
    for _ in range(40):
        x = F(rng.randint(1, 999), 1000)
        if x == F(1, 2):
            continue
        assert schwarzian(g4, x) == F(-6) / (1 - 2 * x) ** 2
        assert schwarzian(g4, x) < 0


# -- characterization crosscheck -----------------------------------------------------


def test_crosscheck_consistent_on_tent_band():
    out = crosscheck_expanding_characterizations(T2, region_of(("1/10", "2/5")))
    assert out["consistent"]
    assert out["side1"] == "certified"
    assert out["side2"] == "certified"


def test_crosscheck_consistent_on_whole_tent():
    out = crosscheck_expanding_characterizations(T2, None)
    assert out["consistent"]
    assert out["expanding"] == "falsified"
    assert out["locallyInjective"] == "falsified"


def test_crosscheck_consistent_at_cantor_fixed_point():
    out = crosscheck_expanding_characterizations(CantorSystem(6), RegionSpec(point_set(F(0))))
    assert out["consistent"]
    assert out["open"] == "falsified"
    assert out["ballExpanding"] == "falsified"


@pytest.mark.parametrize("system", [PiecewiseLinearMap((0, F(1, 2), 1), (0, F(4, 5), 0)), logistic_map(F(39, 10))],
                         ids=["tent-peak-4/5", "logistic-39/10"])
def test_crosscheck_probes_openness_at_the_critical_point(system):
    # the fold at 1/2 closes the map there; probing only the region's ends and
    # midpoint (3/10, 3/5, 9/20) used to answer "open: certified"
    assert check_open_at(system, F(1, 2)).falsified
    out = crosscheck_expanding_characterizations(system, region_of(("3/10", "3/5")))
    assert out["open"] == "falsified" and out["side1"] == "falsified" and out["consistent"]


def test_hierarchy_implapplication_on_random_maps():
    # certified expanding + open on a band implies ball-expanding constants
    # can be found by search; a failure here would be a hard error
    rng = random.Random(14)
    for seed in range(6):
        system = random_zigzag_map(seed)
        crit = system.critical_points()
        lo = F(rng.randint(2, 30), 100)
        region = region_of((lo, lo + F(1, 10)))
        carrier = region.carrier
        if any(carrier.distance_to(c) < F(1, 50) for c in crit):
            continue
        margin = min(carrier.distance_to(c) for c in crit) / 2 if crit else F(1, 20)
        exp = check_expanding(system, region, margin, system.min_slope_modulus())
        opens = all(check_open_at(system, p).certified
                    for part in carrier.parts for p in (part.lo, part.hi))
        if exp.certified and opens:
            assert _search_ball_constants(system, carrier) is not None


# -- the run skip, the star window and the integer Cantor probe route ----------------
# Each new loop against a copy of the loop it replaced: the same verdicts and the
# same counterexample points.


def split_lap_case(rng):
    """A PL map and a carrier that splits one of its laps into several
    components, some of them single points, so that runs of cells sharing one
    map occur, plus a point of each neighbouring lap close to it; μ at, below
    or above that lap's slope modulus."""
    system = rng.choice([random_zigzag_map(rng.getrandbits(32), 2, 6), tent_map(rng.choice((F(2), F(9, 5), F(3, 2))))])
    k = rng.randrange(len(system.breakpoints) - 1)
    lo, hi = system.breakpoints[k], system.breakpoints[k + 1]
    ends = [lo + (hi - lo) * F(c, 64) for c in sorted(rng.sample(range(65), rng.randint(3, 10)))]
    pairs = [(a, a) if rng.random() < 0.5 else (a, (a + b) / 2) for a, b in zip(ends, ends[1:])]
    pairs += [(a, b) for a, b in rng.sample([(0, F(1, 8)), (F(7, 8), 1), (F(1, 3), F(1, 2))], rng.randint(0, 2))
              if b < lo or a > hi]  # parts off the split lap, which would swallow its components
    # isolated points of the neighbouring laps just outside the split one: a point whose image falls
    # between those of two members, at μ·reach from each, clears each member and fails at the run's hull
    pairs += [(p, p) for p in (lo - (hi - lo) * F(rng.randint(1, 8), 1024), hi + (hi - lo) * F(rng.randint(1, 8), 1024))
              if 0 <= p <= 1]
    slope = abs(system.slopes[k])
    mu = rng.choice((slope, slope * F(9, 8), (1 + slope) / 2, F(3, 2)))
    return system, from_pairs(pairs), rng.choice((F(1, 50), F(1, 10), F(1, 3))), mu


def cantor_case(rng):
    """A middle-thirds system of depth 3–7 in either mode, a window of its
    space, and μ below, at or above the piece slopes 3 and 9."""
    system = CantorSystem(rng.randint(3, 7), rng.choice(("fold", "mirror")))
    lo = rng.choice((F(-1), F(-1, 3), F(0), F(2, 9), F(2, 3)))
    carrier = intersect(system.space(), from_pairs([(lo, lo + rng.choice((F(1, 3), F(2, 3), F(2))))]))
    return system, carrier, rng.choice((F(1, 9), F(1, 27), F(1, 81))), rng.choice((F(2), F(3), F(4), F(9), F(10)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([split_lap_case, cantor_case]), st.integers(0, 2**32 - 1))
def test_run_skip_matches_the_all_pairs_loop(make, seed):
    # a run skip that ignores |slope| < μ misses the violations between
    # isolated points of one lap, which no golden report has
    system, carrier, delta, mu = make(random.Random(seed))
    cells = _affine_cells(system, carrier)
    assert _expanding_violation(cells, delta, mu) == ref_expanding_violation(cells, delta, mu)


def test_split_lap_cases_have_runs_of_point_cells():
    # every generated PL carrier has a run of cells with one map, and many
    # have a run of single points with μ above its slope, which the skip must not take
    point_runs = 0
    for seed in range(200):
        system, carrier, delta, mu = split_lap_case(random.Random(seed))
        cells = _affine_cells(system, carrier)
        ends = _run_ends(cells)
        assert any(e > i + 1 for i, e in enumerate(ends)), (system, carrier)
        point_runs += any(ends[i] > i + 1 and ln * hd == hn * ld and abs(F(a, q)) < mu
                          for i, ((ln, ld, hn, hd), a, _, q) in enumerate(cells))
    assert point_runs > 30, point_runs


def test_run_hulls_clear_whole_runs_and_fail_back_to_their_cells():
    # for every run of two or more cells with one map (from each of its cells on)
    # wholly right or wholly left of a cell cx and within δ of it, the pair in the
    # order of positions: a hull that clears clears every member, and both cases
    # occur on the generators above, a run cleared at its hull and a hull that
    # fails while every member clears (the walk checks those cell by cell)
    cases = {"hull clears": 0, "hull fails, members clear": 0}
    for seed in range(100):
        for make in (split_lap_case, cantor_case):
            system, carrier, delta, mu = make(random.Random(seed))
            cells = _affine_cells(system, carrier)
            ends = _run_ends(cells)
            views = [_view(cell)[0] for cell in cells]
            for i, cx in enumerate(cells):
                ix = views[i]
                # cells ascend and meet at most at an end: a run from j > i lies right of cx, one ending at i or before left of it
                near = [*takewhile(lambda j: views[j].lo - ix.hi < delta, range(i + 1, len(cells))),
                        *takewhile(lambda j: ix.lo - views[j].hi < delta, range(i - 1, -1, -1))]
                for j in near:
                    run = cells[j:ends[j]]
                    if len(run) < 2 or i in range(j, ends[j]):
                        continue
                    hull = ((*run[0][0][:2], *run[-1][0][2:]), *run[0][1:])
                    order = (lambda cy: (cx, cy)) if j > i else (lambda cy: (cy, cx))
                    members = [_pair_bound_clears(*order(cy), delta, mu) for cy in run]
                    if _pair_bound_clears(*order(hull), delta, mu):
                        assert all(members), (system, carrier, delta, mu, cx, run)
                        cases["hull clears"] += 1
                    elif all(members):
                        cases["hull fails, members clear"] += 1
    assert min(cases.values()) > 30, cases


def test_the_reversed_order_holds_no_pair_on_the_cells_the_pair_loop_meets(monkeypatch):
    # each cell the pair loop meets starts where cx ends or later, so y − x > 0 has
    # no pair with x in it and y in cx: the loop calls the order (cx, cy) alone
    met = []

    def recording(cx, cy, delta, mu):
        met.append((cx, cy, delta, mu))
        return _pair_violation(cx, cy, delta, mu)

    monkeypatch.setattr(expansivity, "_pair_violation", recording)
    for seed in range(200):
        for make in (split_lap_case, cantor_case):
            system, carrier, delta, mu = make(random.Random(seed))
            _expanding_violation(_affine_cells(system, carrier), delta, mu)
    monkeypatch.undo()
    assert len(met) > 200, len(met)
    for cx, cy, delta, mu in met:
        assert _pair_violation(cy, cx, delta, mu) is None, (cx, cy, delta, mu)


def test_star_window_matches_the_all_cells_loop():
    # the same first pair in the same order; a window that starts one space
    # cell late, or a run skip that ignores |slope| < μ, moves or loses it,
    # and no golden report runs the star check
    outcomes = {"certified": 0, "falsified": 0}
    for seed in range(240):
        rng = random.Random(seed)
        system, carrier, delta, mu = (split_lap_case if seed % 2 else cantor_case)(rng)
        if seed % 3 == 0:  # a few isolated points of the carrier alone
            carrier = RationalIntervalSet(tuple(ClosedInterval(p.lo, p.lo) for p in carrier.parts[::2]))
        verdict = check_star(system, RegionSpec(carrier), delta, mu)
        hit = ref_star_hit(system, carrier, delta, mu)
        if hit is None:
            assert verdict.certified, (system, carrier, delta, mu)
        else:
            cx = verdict.counterexample
            assert (F(cx["x"]), F(cx["y"])) == hit, (system, carrier, delta, mu)
        outcomes[verdict.holds] += 1
    assert min(outcomes.values()) > 40, outcomes


def test_cantor_ball_route_matches_the_fraction_probe_route():
    # the same verdict and counterexample: carriers of one or several space
    # components, points at component ends, windows, and μ and grids that
    # falsify as well as ones that pass every probe
    outcomes = {"certified": 0, "falsified": 0, "undetermined": 0}
    grids = ([F(1, 81), F(1, 243)], [F(1, 27)], [F(1, 50), F(1, 100)], [F(1, 9), F(1, 30)], [F(1, 729)])
    for seed in range(300):
        rng = random.Random(seed)
        system = CantorSystem(rng.randint(3, 7), rng.choice(("fold", "mirror")))
        parts = system.space().parts
        kind = seed % 4
        if kind == 0:
            carrier = RationalIntervalSet((rng.choice(parts),))
        elif kind == 1:
            p = rng.choice(parts)
            carrier = point_set(rng.choice((p.lo, p.hi, F(0))))
        elif kind == 2:
            carrier = RationalIntervalSet(tuple(sorted(rng.sample(parts, 3))))
        else:  # two hulls across gaps of the space, each from one component's left end to another's
            ks = sorted(rng.sample(range(len(parts)), 4))
            carrier = from_pairs([(parts[ks[0]].lo, parts[ks[1]].lo), (parts[ks[2]].lo, parts[ks[3]].lo)])
        mu = rng.choice((F(2), F(3), F(3), F(9, 2), F(9), F(10)))
        grid = rng.choice(grids)
        if kind == 3:  # such a region is not in the space
            with pytest.raises(DomainError, match="not in the space"):
                check_ball_expanding(system, RegionSpec(carrier), mu, 2 * grid[0], grid)
            continue
        verdict = check_ball_expanding(system, RegionSpec(carrier), mu, 2 * grid[0], grid)
        hit = ref_cantor_ball_hit(system, carrier, mu, grid)
        if hit is None:
            assert not verdict.falsified, (system, carrier, mu, grid)
        else:
            cx = verdict.counterexample
            assert (F(cx["x"]), F(cx["epsilon"]), F(cx["missingPoint"])) == hit, (system, carrier, mu, grid)
        outcomes[verdict.holds] += 1
    assert min(outcomes.values()) > 30, outcomes


def test_first_uncovered_point_matches_the_fraction_scan():
    # balls of several parts against images whose cover of one part has gaps:
    # the integer scan returns the same point, a gap's midpoint included
    rng = random.Random(41)
    branches = set()
    for _ in range(400):
        def random_set(count):
            ends = sorted(rng.sample(range(200), 2 * count))
            return from_pairs([(F(a, 199), F(b + rng.randint(0, 1), 199)) for a, b in zip(ends[::2], ends[1::2])])
        ball, image = random_set(rng.randint(1, 3)), random_set(rng.randint(0, 6))
        got = _first_uncovered(list(ball.int_parts), list(image.int_parts))
        assert got == ref_uncovered_point(ball, image), (ball, image)
        if got is not None:
            branches.add("left end" if any(got == p.lo for p in ball.parts) else
                         "right end" if any(got == p.hi for p in ball.parts) else "gap")
    assert branches == {"left end", "right end", "gap"}
