"""The interval core and the PL laps compare by integer cross-multiplication.
These tests pin every such kernel to a plain-Fraction reference written with
ordinary Fraction comparisons and arithmetic, on endpoints that touch, on
single points, and on denominators of 2^200 and more."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowlab.numerics import (
    ClosedInterval,
    RationalIntervalSet,
    _reduced,
    affine_image,
    closed_ball,
    from_int_set,
    from_pairs,
    int_contains,
    int_intersect,
    int_normalize,
    int_tube,
    intersect,
    normalize,
)
from shadowlab.systems import CantorSystem, DomainError, PiecewiseLinearMap, random_zigzag_map, tent_map
from test_expansivity import random_lap_map  # seeded maps whose laps are seldom onto [0, 1]

from reference import (
    ref_evaluate,
    ref_image_bounds,
    ref_int_forward,
    ref_intersect,
    ref_normalize,
    ref_point_preimages,
    ref_preimage,
)

# -- endpoint strategies ------------------------------------------------------

coarse = st.integers(min_value=-8, max_value=8).map(lambda k: F(k, 4))  # parts often touch
dyadic = st.builds(lambda k, n: F(n, 2**k), st.integers(200, 260), st.integers(-(2**262), 2**262))
nudged = st.builds(lambda q, s: q + F(s, 3**140), coarse, st.sampled_from([-1, 1]))  # just off the grid
endpoints = st.one_of(coarse, dyadic, nudged).filter(lambda q: -2 <= q <= 2)


@st.composite
def raw_parts(draw, max_parts=6):
    parts = []
    for _ in range(draw(st.integers(0, max_parts))):
        a = draw(endpoints)
        b = draw(st.one_of(st.just(a), endpoints))  # point parts too
        parts.append(ClosedInterval(min(a, b), max(a, b)))
    return parts


interval_sets = raw_parts().map(normalize)


def pairs(s):
    """A set's parts as (lo, hi) pairs, after checking every endpoint is a Fraction."""
    assert all(type(p.lo) is F and type(p.hi) is F for p in s.parts)
    return [(p.lo, p.hi) for p in s.parts]


# -- interval layer -------------------------------------------------------------


@given(raw_parts(8))
@settings(max_examples=150)
def test_normalize_matches_reference(parts):
    assert pairs(normalize(parts)) == ref_normalize(parts)


@given(interval_sets, interval_sets)
@settings(max_examples=150)
def test_intersect_matches_reference(a, b):
    assert pairs(intersect(a, b)) == ref_intersect(a, b)


@given(interval_sets, st.one_of(endpoints, st.integers(-2, 2)))
@settings(max_examples=150)
def test_contains_matches_reference(s, x):
    for p in s.parts:
        assert p.contains(x) == (p.lo <= x <= p.hi)
        assert p.contains(p.lo) and p.contains(p.hi)
    assert s.contains(x) == any(p.lo <= x <= p.hi for p in s.parts)


@given(endpoints, st.one_of(st.just(F(0)), endpoints.map(abs)))
@settings(max_examples=100)
def test_closed_ball_matches_reference(c, r):
    assert pairs(closed_ball(c, r)) == [(c - r, c + r)]


@given(interval_sets, endpoints.filter(lambda q: q != 0), endpoints)
@settings(max_examples=100)
def test_affine_image_matches_reference(s, slope, offset):
    images = [(slope * p.lo + offset, slope * p.hi + offset) for p in s.parts]
    assert pairs(affine_image(s, slope, offset)) == ref_normalize([ClosedInterval(min(a, b), max(a, b))
                                                                   for a, b in images])


def test_int_arguments_and_huge_denominators():
    unit = normalize([ClosedInterval(0, 1)])
    assert unit.contains(1) and unit.contains(0) and not unit.contains(2)
    assert unit.parts[0].contains(1) and not unit.parts[0].contains(-1)
    tiny = F(1, 2**300)
    assert not unit.contains(1 + tiny) and unit.contains(1 - tiny) and not unit.contains(-tiny)
    touching = normalize([ClosedInterval(0, tiny), ClosedInterval(tiny, tiny), ClosedInterval(tiny, 1)])
    assert pairs(touching) == [(0, 1)]
    apart = normalize([ClosedInterval(0, tiny), ClosedInterval(2 * tiny, 1)])
    assert pairs(apart) == [(0, tiny), (2 * tiny, 1)]
    assert pairs(intersect(apart, normalize([ClosedInterval(tiny, 2 * tiny)]))) == [(tiny, tiny), (2 * tiny, 2 * tiny)]
    assert pairs(closed_ball(1, 0)) == [(1, 1)]


def test_public_interval_still_checks_and_coerces():
    with pytest.raises(ValueError, match="out of order"):
        ClosedInterval(1, 0)
    with pytest.raises(ValueError, match="out of order"):
        ClosedInterval(F(1, 2**200) + F(1, 3**140), F(1, 2**200))
    with pytest.raises(ValueError, match="not canonical"):
        RationalIntervalSet((ClosedInterval(0, F(1, 2**200)), ClosedInterval(F(1, 2**200), 1)))
    iv = ClosedInterval("1/3", 2)
    assert (iv.lo, iv.hi) == (F(1, 3), F(2)) and type(iv.lo) is F and type(iv.hi) is F
    with pytest.raises(ValueError):
        closed_ball(0, F(-1, 2**200))


# -- PL layer -------------------------------------------------------------------

unit_points = st.one_of(
    st.integers(0, 8).map(lambda k: F(k, 8)),
    st.builds(lambda k, n: F(n % (2**k + 1), 2**k), st.integers(200, 230), st.integers(0, 2**231)),
    st.builds(lambda k, n: F(n % (3**k + 1), 3**k), st.integers(1, 130), st.integers(0, 3**131)),
)


@st.composite
def pl_maps(draw):
    inner = sorted(set(draw(st.lists(unit_points, max_size=4))) - {F(0), F(1)})
    bps = [F(0), *inner, F(1)]
    vals = draw(st.lists(unit_points, min_size=len(bps), max_size=len(bps)))
    assume(all(v != w for v, w in zip(vals, vals[1:])))
    return PiecewiseLinearMap(tuple(bps), tuple(vals))


seeded_maps = st.one_of(
    st.integers(0, 200).map(random_zigzag_map),
    st.sampled_from([F(2), F(3, 2), F(1), F(1, 3)]).map(tent_map),
    pl_maps(),
)


@given(seeded_maps, st.data())
@settings(max_examples=150)
def test_pl_point_queries_match_reference(f, data):
    points = data.draw(st.lists(st.one_of(unit_points, st.sampled_from(f.breakpoints)), min_size=1, max_size=4))
    for x in points:
        y = f.evaluate(x)
        assert y == ref_evaluate(f, x) and type(y) is F
        for target in (y, x, *f.values):
            got = f.point_preimages(target)
            assert got == ref_point_preimages(f, target) and all(type(p) is F for p in got)
    a, b = min(points), max(points)
    assert pairs(f.forward_image(normalize([ClosedInterval(a, b)]))) == [ref_image_bounds(f, a, b)]


def test_seeded_maps_have_negative_slopes():
    assert all(any(s < 0 for s in random_zigzag_map(seed).slopes) for seed in range(50))
    assert tent_map(2).slopes == (F(2), F(-2))


@given(seeded_maps, interval_sets)
@settings(max_examples=150)
def test_pl_preimage_matches_reference(f, target):
    assert pairs(f.preimage(target)) == ref_preimage(f, target)


def test_pl_int_arguments_and_domain():
    for f in (tent_map(2), random_zigzag_map(7)):
        assert f.evaluate(0) == ref_evaluate(f, F(0)) and type(f.evaluate(0)) is F
        assert f.evaluate(1) == ref_evaluate(f, F(1)) and type(f.evaluate(1)) is F
        assert f.point_preimages(0) == ref_point_preimages(f, F(0))
        assert f.point_preimages(1) == ref_point_preimages(f, F(1))
        assert f.contains_point(1) and not f.contains_point(F(-1, 2**200))
        for bad in (F(-1, 2**200), 1 + F(1, 2**200), 2):
            with pytest.raises(DomainError):
                f.evaluate(bad)
    # a shared breakpoint is one preimage, not two
    assert tent_map(2).point_preimages(1) == [F(1, 2)]


@pytest.mark.parametrize("mode", ["fold", "mirror"])
@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_cantor_point_preimages_at_shared_ends(depth, mode):
    # every cell end and its image: several cells map an end to one point (the
    # ends of the first and last pieces, the fixed point 0), each preimage listed once
    system = CantorSystem(depth, mode)
    ends = {end for dom, _, _ in system.affine_cells() for end in (dom.lo, dom.hi)}
    for y in sorted(ends | {system.evaluate(x) for x in ends}):
        got = system.point_preimages(y)
        assert got == ref_point_preimages(system, y) and all(type(p) is F for p in got)
    assert system.point_preimages(F(0)) == [F(-2, 3), F(0), F(2, 3)]


# -- the exact-hit walk's leftmost preimage ----------------------------------------


def list_and_filter_leftmost(system, yn, yd, within):
    """The walk step as first written on the cell table: every preimage, ascending and
    listed once as unreduced pairs, then the first of them in ``within``."""
    out = []
    for parts, a, b, q in system._int_cells:
        n, d = q * yn - b * yd, a * yd
        if d < 0:
            n, d = -n, -d
        if int_contains(parts, n, d) and not (out and out[-1][0] * d == n * out[-1][1]):
            out.append((n, d))
    return next((c for c in out if int_contains(within, *c)), None)


def cell_ends(system):
    return sorted({end for dom, _, _ in system.affine_cells() for end in (dom.lo, dom.hi)})


def leftmost_cases(system, rng):
    """Targets at cell ends, inside cells and outside the space, each reduced and
    unreduced, against ``within`` sets of one part and of several."""
    ends = cell_ends(system)
    inside = [dom.lo + (dom.hi - dom.lo) * F(rng.randint(1, 15), 16) for dom, _, _ in system.affine_cells()]
    targets = {system.evaluate(x) for x in ends + inside} | {F(-3, 2), F(5, 4), F(7, 3)}
    lo, hi = ends[0], ends[-1]
    cuts = sorted({lo + (hi - lo) * F(rng.randint(0, 60), 60) for _ in range(6)})
    withins = [system.space(), from_pairs([(lo, hi)]), from_pairs([(cuts[0], cuts[-1])]),
               from_pairs(list(zip(cuts[::2], cuts[1::2]))), from_pairs([(x, x) for x in ends[::3]])]
    for y in sorted(targets):
        k = rng.randint(2, 9)
        for yn, yd in ((y.numerator, y.denominator), (k * y.numerator, k * y.denominator)):
            for w in withins:
                yield yn, yd, w.int_parts


@pytest.mark.parametrize("family", ["lap", "zigzag", "cantor"])
def test_leftmost_preimage_matches_the_list_and_filter_walk(family):
    rng = random.Random(26)
    if family == "lap":
        systems = [random_lap_map(rng) for _ in range(40)] + [tent_map(2), tent_map(F(9, 5))]
    elif family == "zigzag":
        systems = [random_zigzag_map(seed) for seed in range(20)]
    else:
        systems = [CantorSystem(depth, mode) for depth in (3, 4, 5, 6) for mode in ("fold", "mirror")]
    found = missed = 0
    for system in systems:
        for yn, yd, within in leftmost_cases(system, rng):
            got = system._int_leftmost_preimage(yn, yd, within)
            assert got == list_and_filter_leftmost(system, yn, yd, within), (system, yn, yd, within)
            found, missed = found + (got is not None), missed + (got is None)
    assert found >= 100 and missed >= 100, (found, missed)


# -- the cell-table forward step ---------------------------------------------------

forward_systems = st.one_of(
    st.sampled_from([F(2), F(9, 5), F(1), F(1, 3)]).map(tent_map),
    st.integers(0, 200).map(random_zigzag_map),
    st.builds(CantorSystem, st.integers(2, 7), st.sampled_from(["fold", "mirror"])),
)


@st.composite
def sets_in_the_space(draw, system):
    """Canonical integer sets inside the space, as a list or a tuple: pieces of the
    space's parts cut at cell ends and grid points (on a PL map they straddle the
    shared lap ends), point parts on cell ends (the shared ends and the cell {0}),
    and tubes about cell ends and grid points; some ends unreduced."""
    space, ends = system.space().parts, cell_ends(system)
    raw = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["piece", "point", "tube"]))
        if kind == "point":
            x = draw(st.sampled_from(ends))
            raw.append(ClosedInterval(x, x))
            continue
        part = draw(st.sampled_from(space))
        cuts = [part.lo + (part.hi - part.lo) * F(k, 8) for k in range(9)] + [e for e in ends if part.contains(e)]
        if kind == "piece":
            lo, hi = sorted(draw(st.lists(st.sampled_from(cuts), min_size=2, max_size=2)))
            raw.append(ClosedInterval(lo, hi))
        else:
            c, r = draw(st.sampled_from(cuts)), draw(st.sampled_from([F(0), F(1, 3**8), F(1, 40), F(1, 9), F(1, 3)]))
            raw += from_int_set(int_tube(system._int_space, c.numerator, c.denominator, r.numerator, r.denominator)).parts
    k = draw(st.integers(1, 3))
    s = [(k * ln, k * ld, k * hn, k * hd) for ln, ld, hn, hd in normalize(raw).int_parts]
    return tuple(s) if draw(st.booleans()) else s


def assert_forward_matches(system, s):
    assert _reduced(system._int_forward(s)) == _reduced(ref_int_forward(system, s)), (system, s)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_forward_walk_matches_the_per_cell_sweep(data):
    system = data.draw(forward_systems)
    assert_forward_matches(system, data.draw(sets_in_the_space(system)))


@pytest.mark.parametrize("system", [tent_map(2), tent_map(F(9, 5)), random_zigzag_map(0), random_zigzag_map(6),
                                    CantorSystem(2), CantorSystem(5, "mirror")],
                         ids=["tent2", "tent9/5", "zigzag0", "zigzag6", "cantor2fold", "cantor5mirror"])
def test_forward_walk_at_cell_ends(system):
    # every cell end as a point, and parts that reach it from the left, from the
    # right and across it, alone and next to a part in the cell beyond
    space = system._int_space
    for x in cell_ends(system):
        w = F(1, 3**9)
        near = int_tube(space, x.numerator, x.denominator, w.numerator, w.denominator)
        lo, hi = x - w, x + 2 * w
        wide = int_intersect(space, [(lo.numerator, lo.denominator, hi.numerator, hi.denominator)])
        for s in ([(x.numerator, x.denominator) * 2], near, near[:1], near[-1:], wide,
                  int_normalize(near + [space[-1][2:] * 2]), int_intersect(space, [(-1, 1, x.numerator, x.denominator)])):
            assert_forward_matches(system, s)
            assert_forward_matches(system, tuple(s))


@pytest.mark.parametrize("mode", ["fold", "mirror"])
def test_public_forward_image_meets_the_space_first(mode):
    # a set with gap points: the walk alone assumes a set inside the space, so the
    # public step meets the set with the space before it walks
    system = CantorSystem(4, mode)
    for s in (from_pairs([(-1, 1)]), from_pairs([("1/2", "1/2"), ("2/3", "2/3")]),
              from_pairs([("-1/2", "-1/4"), ("1/9", "1/2"), ("5/6", "8/9")])):
        image = system.forward_image(s)
        assert image == system.forward_image(intersect(s, system.space()))
        assert image == from_int_set(ref_int_forward(system, s.int_parts))
    assert system.forward_image(from_pairs([("1/2", "1/2")])).is_empty
