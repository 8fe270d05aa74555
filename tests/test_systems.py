import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.expansivity import (
    RegionSpec,
    check_ball_expanding,
    check_expanding,
    check_locally_injective,
    check_open_at,
    check_star,
    crosscheck_expanding_characterizations,
)
from shadowlab.kneading import itinerary
from shadowlab.numerics import ClosedInterval, from_pairs, intersect, normalize, point_set
from shadowlab.pseudo_orbits import PseudoOrbit, perturbed_orbit
from shadowlab.shadowing import h_shadow_solve, shadow_oracle
from shadowlab import systems as systems_module
from shadowlab.systems import (
    CantorSystem,
    DomainError,
    OdometerSystem,
    PiecewiseLinearMap,
    ShiftSystem,
    SLimitSystem,
    SymbolicPoint,
    _cantor_cells,
    _cantor_space,
    _int_affine_form,
    _piece_set,
    common_prefix_length,
    compose_pl,
    golden_mean_shift,
    iterate_pl,
    logistic_map,
    quadratic_map,
    random_zigzag_map,
    sqrt_enclosure,
    system_from_json,
    tent_map,
)


def sample_rationals(rng, k, lo=F(0), hi=F(1)):
    return [lo + (hi - lo) * F(rng.getrandbits(20), 1 << 20) for _ in range(k)]


# -- evaluation -------------------------------------------------------------


def test_tent_critical_value():
    assert tent_map(2).evaluate(F(1, 2)) == 1


def test_logistic_critical_value():
    assert logistic_map(4).evaluate(F(1, 2)) == 1


@pytest.mark.parametrize("make, lo, params", [
    (logistic_map, F(0), [F(387, 100), F(4), F(2109490101787, 1 << 40), F(11, 3)]),
    (quadratic_map, F(-1), [F(3, 2), F(2), F(2109490101787, 1 << 40), F(17, 9)]),
])
def test_quadratic_family_orbits_match_the_textbook_formula(make, lo, params):
    rng = random.Random(5)
    for p in params:
        system = make(p)
        step = (lambda x: p * x * (1 - x)) if system.family == "logistic" else (lambda x: 1 - p * x * x)
        starts = sample_rationals(rng, 3, lo) + [lo + F(rng.randrange(1, 3 ** 9), 3 ** 9), F(1, 2), lo]
        for x in starts:
            y = x
            for _ in range(7):
                x, y = system.evaluate(x), step(y)
                assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
                assert math.gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("system, x", [(quadratic_map(2), F(3, 2)), (quadratic_map(2), F(-1, 1 << 200) - 1),
                                       (logistic_map(4), F(-1, 3)), (logistic_map(F(387, 100)), F(7, 6))])
def test_enclosures_refuse_a_start_outside_the_space(system, x):
    # from 3/2 under quadratic_map(2) the ends double their bit length per step: 2.9 million bits after 22 steps
    with pytest.raises(DomainError, match=f"^{x} outside the domain$"):
        next(system.enclosures(x, 64))
    assert next(system.enclosures(system.critical_point(), 64)) == (system.critical_point() * 2**64,) * 2


def test_cantor_slope_nine_piece():
    assert CantorSystem(6).evaluate(F(2, 27)) == F(2, 3)


def test_eval_outside_domain():
    with pytest.raises(DomainError):
        tent_map(2).evaluate(F(3, 2))
    with pytest.raises(DomainError):
        CantorSystem(4).evaluate(F(1, 2))  # inside a removed gap


# -- affine cells -----------------------------------------------------------


def test_tent_branches():
    got = tent_map(2).affine_cells()
    assert [(b.lo, b.hi, s, c) for b, s, c in got] == [
        (F(0), F(1, 2), F(2), F(0)),
        (F(1, 2), F(1), F(-2), F(2)),
    ]


def test_cantor_branch_on_one_piece():
    # piece 2 is one affine branch: every component cell on it carries (3, 0)
    system = CantorSystem(5)
    piece = system.piece_interval(2)
    assert (piece.lo, piece.hi, *system.piece_affine(2)) == (F(2, 9), F(1, 3), F(3), F(0))
    cells = [(dom, s, c) for dom, s, c in system.affine_cells() if piece.lo <= dom.lo <= piece.hi]
    assert normalize([dom for dom, _, _ in cells]) == system.piece_set(2)
    assert {(s, c) for _, s, c in cells} == {(F(3), F(0))}


def pl_maps():
    """Hand-made, tent, seeded zigzag and composed maps."""
    maps = [PiecewiseLinearMap((F(0), F(1, 2), F(1)), (F(1, 2), F(1), F(0)))]
    maps += [tent_map(lam) for lam in (F(1, 2), F(3, 2), F(9, 5), 2)]
    maps += [random_zigzag_map(seed) for seed in range(12)]
    maps += [compose_pl(random_zigzag_map(3), tent_map(F(9, 5))), iterate_pl(tent_map(2), 3),
             iterate_pl(random_zigzag_map(7), 2)]
    return maps


def test_pl_slopes_from_difference_quotients():
    m = PiecewiseLinearMap((F(0), F(1, 2), F(1)), (F(1, 2), F(1), F(0)))
    assert m.slopes == (F(1), F(-2))
    # the laps and slopes built at construction agree with a recomputation
    for m in pl_maps():
        bps, vals = m.breakpoints, m.values
        slopes = [(vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i]) for i in range(len(bps) - 1)]
        laps = [((bps[i], bps[i + 1]), s, vals[i] - s * bps[i]) for i, s in enumerate(slopes)]
        assert list(m.slopes) == slopes
        assert [((d.lo, d.hi), s, c) for d, s, c in m.laps()] == laps


def test_lap_lookup_matches_a_linear_scan():
    # evaluate (on a reduced point) and the PL ball route (on an unreduced
    # integer pair) share one cell lookup; a lookup one lap off changes
    # evaluate's answer inside a lap
    rng = random.Random(31)
    for m in pl_maps():
        laps = m.laps()
        points = list(m.breakpoints) + sample_rationals(rng, 40)
        near = [b + side * F(1, 2**40) for b in m.breakpoints for side in (-1, 1)]
        points += [x for x in near if 0 <= x <= 1]
        for x in points:
            by_scan = max(i for i, (dom, _, _) in enumerate(laps) if dom.lo <= x)
            xn, xd = x.numerator, x.denominator
            assert m.cell_index(xn, xd) == by_scan == m.cell_index(3 * xn, 3 * xd)
            dom, s, c = laps[by_scan]
            assert dom.lo <= x <= dom.hi and m.evaluate(x) == s * x + c


def test_branches_unsupported_kinds():
    window = RegionSpec(from_pairs([(0, 1)]))
    with pytest.raises(DomainError):
        check_ball_expanding(logistic_map(4), window, 2, F(1, 4), [F(1, 8)])  # nonlinear laps, no affine branches
    with pytest.raises(DomainError):
        check_expanding(SLimitSystem(4), window, F(1, 8), 2)  # the squaring piece is not affine


def test_critical_set_needs_interval_map():
    with pytest.raises(DomainError):
        check_locally_injective(CantorSystem(4), RegionSpec(CantorSystem(4).space()))
    with pytest.raises(DomainError):
        check_locally_injective(golden_mean_shift(), RegionSpec(from_pairs([])))


def test_branches_agree_with_eval():
    rng = random.Random(4)
    for seed in range(6):
        m = random_zigzag_map(seed)
        for part, s, c in m.affine_cells():
            for x in sample_rationals(rng, 4, part.lo, part.hi):
                assert m.evaluate(x) == s * x + c


# -- preimages --------------------------------------------------------------


def test_pl_breakpoint_hit_is_listed_once():
    # a value taken at a breakpoint is hit by both laps that share it
    assert tent_map(2).point_preimages(F(1)) == [F(1, 2)]
    for m in pl_maps():
        for b, v in zip(m.breakpoints, m.values):
            hits = m.point_preimages(v)
            assert hits.count(b) == 1 and hits == sorted(set(hits))


def test_tent_preimage_upper_half():
    assert tent_map(2).preimage(from_pairs([("1/2", 1)])) == from_pairs([("1/4", "3/4")])


def test_tent_preimage_of_maximum():
    assert tent_map(2).preimage(from_pairs([(1, 1)])) == from_pairs([("1/2", "1/2")])


def test_cantor_preimage_of_first_piece():
    system = CantorSystem(5)
    got = system.preimage(from_pairs([("2/3", 1)]))
    expected = normalize(
        list(system.piece_set(2).parts)
        + list(system.piece_set(-2).parts)
        + list(system.piece_set(3).parts)
        + list(system.piece_set(-3).parts)
        + list(intersect(system.piece_set(1), from_pairs([("8/9", 1)])).parts)
    )
    assert got == expected


def test_forward_image_containment():
    rng = random.Random(9)
    t = from_pairs([("1/5", "2/5"), ("3/5", "7/10")])
    for system in (tent_map(2), tent_map(F(9, 5)), random_zigzag_map(3), CantorSystem(5)):
        pre = system.preimage(t)
        for part in pre.parts:
            for x in {part.lo, part.hi, (part.lo + part.hi) / 2}:
                if system.contains_point(x):
                    assert t.contains(system.evaluate(x))


# -- critical sets ----------------------------------------------------------


def test_critical_sets():
    assert tent_map(2).critical_points() == [F(1, 2)]
    assert quadratic_map(F(3, 2)).critical_points() == [F(0)]
    monotone = PiecewiseLinearMap((F(0), F(1, 3), F(1)), (F(0), F(2, 9), F(2, 3)))
    assert monotone.critical_points() == []


# -- metric -----------------------------------------------------------------


def test_interval_distance():
    assert tent_map(2).distance(F(1, 4), F(3, 4)) == F(1, 2)


def test_shift_distance():
    gm = ShiftSystem(("0", "1"), ())
    a = SymbolicPoint(("0", "1", "1", "0"), ("0",))
    b = SymbolicPoint(("0", "1", "1", "1"), ("0",))
    assert gm.distance(a, b) == F(1, 8)


def test_odometer_distance_identity():
    od = OdometerSystem(4)
    w = (1, 0, 1, 0)
    assert od.distance(w, w) == 0


def test_mixed_point_kinds_rejected():
    with pytest.raises(DomainError):
        tent_map(2).distance(F(1, 2), SymbolicPoint((), ("0",)))


# -- middle-thirds structure ------------------------------------------------


def middle_thirds(lo, hi, levels):
    """The 2^levels middle-thirds intervals of [lo, hi], built by subdivision."""
    parts = [(lo, hi)]
    for _ in range(levels):
        parts = [q for a, b in parts for q in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return parts


def thirds_on_both_sides(level):
    """The level-k middle-thirds intervals of [0, 1] and their mirror images in [-1, 0]."""
    pos = middle_thirds(F(0), F(1), level)
    return from_pairs(pos + [(-b, -a) for a, b in pos])


def test_cantor_depth_maps_into_coarser_approximation():
    # slope-3 pieces land one approximation level up, the two slope-9 pieces
    # two levels up; the whole image therefore sits in the level d-2 approximation
    for mode in ("fold", "mirror"):
        system = CantorSystem(5, mode)
        image = system.forward_image(system.space())
        assert image.subset_of(thirds_on_both_sides(3))
        for n in range(1, 6):
            for signed in (n, -n):
                img = system.forward_image(system.piece_set(signed))
                level = 3 if abs(signed) == 3 else 4
                assert img.subset_of(thirds_on_both_sides(level))


def test_cantor_piece_images_match_table():
    system = CantorSystem(6)
    # piece 1 covers the right half of the one-level-coarser approximation
    assert system.forward_image(system.piece_set(1)) == intersect(
        thirds_on_both_sides(5), from_pairs([(0, 1)])
    )
    assert system.forward_image(system.piece_set(-1)) == intersect(
        thirds_on_both_sides(5), from_pairs([(-1, 0)])
    )
    # pieces 2 and 3 land on piece 1, at resolutions one and two levels up
    assert system.forward_image(system.piece_set(2)) == system.piece_set(1, resolution=5)
    assert system.forward_image(system.piece_set(3)) == system.piece_set(1, resolution=4)


def test_cantor_piece_offsets_by_endpoint_matching():
    system = CantorSystem(8)
    for n in list(range(1, 9)) + [-n for n in range(1, 9)]:
        src = system.piece_interval(n)
        slope, offset = system.piece_affine(n)
        lo, hi = slope * src.lo + offset, slope * src.hi + offset
        assert slope in (F(3), F(9))
        if n == 1:
            assert (lo, hi) == (F(0), F(1))
        elif n == -1:
            assert (lo, hi) == (F(-1), F(0))
        elif abs(n) in (2, 3):
            assert (lo, hi) == (F(2, 3), F(1))
        elif n > 3:
            assert (lo, hi) == (F(8, 3 ** (n - 1)), F(1, 3 ** (n - 3)))
        else:
            m = -n
            assert (lo, hi) == (F(2, 3 ** (m - 2)), F(7, 3 ** (m - 1)))


def test_cantor_mirror_negative_pieces_stay_negative():
    system = CantorSystem(6, "mirror")
    for m in (4, 5, 6):
        img = system.forward_image(system.piece_set(-m))
        assert img.hull().hi < 0


def test_cantor_piece_sets_match_middle_thirds_construction():
    for depth in range(1, 9):
        for mode in ("fold", "mirror"):
            system = CantorSystem(depth, mode)
            space = [(F(0), F(0))]
            for n in range(1, depth + 1):
                lo, hi = F(2, 3**n), F(1, 3 ** (n - 1))
                for resolution in (None, depth - 1):  # the default, and what scenarios.py asks for
                    pos = middle_thirds(lo, hi, max((depth if resolution is None else resolution) - n, 0))
                    neg = [(-b, -a) for a, b in reversed(pos)]
                    assert [(p.lo, p.hi) for p in system.piece_set(n, resolution)] == pos
                    assert [(p.lo, p.hi) for p in system.piece_set(-n, resolution)] == neg
                    if resolution is None:
                        space += pos + neg
            assert [(p.lo, p.hi) for p in system.space()] == sorted(space)


# the Fraction construction of the middle-thirds tables that the integer one replaced, kept as the reference
def _reference_piece_set(n, resolution):
    m = abs(n)
    lo, width = F(2, 3**m), F(1, 3**m)
    inner = [ClosedInterval(lo + width * a, lo + width * b)
             for a, b in middle_thirds(F(0), F(1), max(resolution - m, 0))]
    if n < 0:
        inner = [ClosedInterval(-p.hi, -p.lo) for p in inner]
    return normalize(inner).int_parts


def _reference_piece_affine(n, mode):
    def half(k, side):
        return (F(2, 3**k), F(7, 3 ** (k + 1))) if side == "left" else (F(8, 3 ** (k + 1)), F(1, 3 ** (k - 1)))

    src = CantorSystem.piece_interval(n)
    if abs(n) == 1:
        dst = (F(min(n, 0)), F(max(n, 0)))
    elif abs(n) <= 3:
        dst = (F(2, 3), F(1))
    elif n > 3:
        dst = half(n - 2, "right")
    else:
        a, b = half(-n - 2, "left")
        dst = (a, b) if mode == "fold" else (-b, -a)
    slope = (dst[1] - dst[0]) / src.width
    return slope, dst[0] - slope * src.lo


def _reference_cells(depth, mode):
    return tuple((_reference_piece_set(n, depth), *_int_affine_form(*_reference_piece_affine(n, mode))) if n
                 else (((0, 1, 0, 1),), 1, 0, 1)
                 for n in (*range(-1, -depth - 1, -1), 0, *range(depth, 0, -1)))


def test_cantor_tables_match_the_fraction_construction():
    # stored integer tuples, not only values: the pair engine's run skip compares cell triples for equality
    for depth in range(1, 13):
        pieces = [n for k in range(1, depth + 1) for n in (k, -k)]
        for n in pieces:
            for resolution in (depth - 1, depth):
                assert _piece_set(n, resolution).int_parts == _reference_piece_set(n, resolution)
        for mode in ("fold", "mirror"):
            cells = _reference_cells(depth, mode)
            assert _cantor_cells(depth, mode) == cells
            assert [CantorSystem(depth, mode).piece_affine(n) for n in pieces] == [
                _reference_piece_affine(n, mode) for n in pieces]
        assert _cantor_space(depth).int_parts == tuple(part for parts, *_ in cells for part in parts)


def test_membership_is_decidable():
    system = CantorSystem(4)
    assert system.contains_point(F(2, 27))
    assert not system.contains_point(F(5, 6))  # inside the removed middle


# -- odometer ---------------------------------------------------------------


def test_odometer_is_isometry_exhaustively_small():
    od = OdometerSystem(6)
    for a in range(64):
        for b in range(64):
            wa, wb = od.int_to_word(a), od.int_to_word(b)
            assert od.distance(wa, wb) == od.distance(od.evaluate(wa), od.evaluate(wb))


def test_odometer_bijection():
    od = OdometerSystem(5)
    seen = {od.evaluate(od.int_to_word(v)) for v in range(32)}
    assert len(seen) == 32
    w = od.int_to_word(13)
    assert od.iterate_inverse(od.evaluate(w), 1) == w


# -- interval-plus-tail space ------------------------------------------------


def test_slimit_bijection_and_decrease():
    system = SLimitSystem(8)
    rng = random.Random(2)
    for x in sample_rationals(rng, 32):
        if 0 < x < 1:
            assert system.evaluate(x) < x
    for p in system.tail_points() + [F(0), F(1)]:
        assert system.evaluate(p) == p
    # increasing on [0,1] plus fixed isolated points: injective on samples
    xs = sorted(sample_rationals(rng, 16))
    ys = [system.evaluate(x) for x in xs]
    assert ys == sorted(set(ys))


# -- shift admissibility ----------------------------------------------------


def test_golden_mean_forbids_adjacent_ones():
    gm = golden_mean_shift()
    assert gm.contains_point(SymbolicPoint(("0", "1"), ("0",)))
    assert not gm.contains_point(SymbolicPoint(("1", "1"), ("0",)))
    assert not gm.contains_point(SymbolicPoint((), ("1",)))


def test_symbolic_point_canonical_forms():
    a = SymbolicPoint(("0", "1"), ("0", "1"))
    assert a.preamble == ()  # preamble absorbed into the cycle
    b = SymbolicPoint((), ("0", "1", "0", "1"))
    assert b.cycle == ("0", "1")
    assert a == b


@pytest.mark.parametrize("text", ["0(10))", "0(1", "01(1)0", "01", "0()", "((0)", "0)(1)", "0(1(0))"])
def test_symbolic_point_parse_refuses_malformed_text(text):
    # the first three were read as 0(10), 0(1) and a cycle ('1', ')', '0')
    with pytest.raises(ValueError, match=r"expected 'preamble\(cycle\)'|cycle must be nonempty"):
        SymbolicPoint.parse(text)


def test_symbolic_point_parse_reads_its_own_text():
    for text in ["1(10)", "(0)", "ab(cba)"]:
        assert str(SymbolicPoint.parse(text)) == text


@pytest.mark.parametrize("alphabet", [("0", "("), (")", "1")])
def test_shift_alphabet_refuses_the_cycle_delimiters(alphabet):
    with pytest.raises(ValueError, match="cannot be alphabet symbols"):
        ShiftSystem(alphabet)


# -- sliced shift primitives against the per-symbol readings -----------------


def _ref_prefix(p, k):
    return tuple(p.symbol(i) for i in range(k))


def _ref_common_prefix_length(a, b):
    if a == b:
        return None
    bound = len(a.preamble) + len(b.preamble) + math.lcm(len(a.cycle), len(b.cycle)) + 1
    for i in range(bound + 1):
        if a.symbol(i) != b.symbol(i):
            return i
    raise AssertionError("distinct eventually periodic points must disagree within the bound")


def _ref_point_admissible(system, p):
    horizon = len(p.preamble) + 2 * len(p.cycle) + max((len(w) for w in system.forbidden), default=0)
    return system.word_admissible([p.symbol(i) for i in range(horizon)])


def _ref_contains_point(system, p):
    return all(s in system.alphabet for s in p.preamble + p.cycle) and _ref_point_admissible(system, p)


def _points(symbols):
    return st.builds(lambda u, v: SymbolicPoint(tuple(u), tuple(v)),
                     st.text(symbols, max_size=6), st.text(symbols, min_size=1, max_size=5))


@given(_points("01abc"), st.data())
@settings(max_examples=200, deadline=None)
def test_prefix_matches_the_per_symbol_reading(p, data):
    for k in range(len(p.preamble) + 3 * len(p.cycle) + 2):
        assert p.prefix(k) == _ref_prefix(p, k)
    s = data.draw(st.integers(1, 8))
    q = p
    for _ in range(s):
        # shifted() skips canonicalisation; the constructor, run on the same words, must agree field by field
        full = SymbolicPoint(q.preamble[1:], q.cycle) if q.preamble else SymbolicPoint((), q.cycle[1:] + q.cycle[:1])
        q = q.shifted()
        assert (q.preamble, q.cycle) == (full.preamble, full.cycle)
    assert q.prefix(6) == _ref_prefix(p, 6 + s)[s:]


@given(_points("01"), _points("01"))
@settings(max_examples=300, deadline=None)
def test_common_prefix_length_matches_the_per_symbol_reading(a, b):
    assert common_prefix_length(a, b) == _ref_common_prefix_length(a, b)
    # the same point written with a longer preamble and a repeated cycle
    twin = SymbolicPoint(a.preamble + a.cycle, a.cycle * 2)
    assert common_prefix_length(a, twin) is None is _ref_common_prefix_length(a, twin)


@given(st.text("ab", max_size=4), st.text("abc", max_size=4))
@settings(max_examples=200, deadline=None)
def test_common_prefix_length_reads_up_to_the_last_index_of_its_bound(u, body):
    # u·c(body·a) and u·c(body·b) first differ at |u| + 1 + |body|; when both cycles
    # stay primitive that is the last index the bound max(|u|, |u′|) + lcm(|v|, |w|) reads
    a = SymbolicPoint(tuple(u + "c"), tuple(body + "a"))
    b = SymbolicPoint(tuple(u + "c"), tuple(body + "b"))
    k = common_prefix_length(a, b)
    assert k == _ref_common_prefix_length(a, b) == len(u) + 1 + len(body)
    if len(a.cycle) == len(b.cycle) == len(body) + 1:
        assert k == max(len(a.preamble), len(b.preamble)) + math.lcm(len(a.cycle), len(b.cycle)) - 1


@pytest.mark.parametrize("a, b, k", [("c(aba)", "c(abb)", 3), ("(0)", "(1)", 0), ("01(0)", "(01)", 3)])
def test_common_prefix_length_at_the_last_index_of_its_bound(a, b, k):
    a, b = SymbolicPoint.parse(a), SymbolicPoint.parse(b)
    assert max(len(a.preamble), len(b.preamble)) + math.lcm(len(a.cycle), len(b.cycle)) == k + 1
    assert common_prefix_length(a, b) == _ref_common_prefix_length(a, b) == k


@given(st.sampled_from(["01", "abc"]).flatmap(lambda alphabet: st.tuples(
    st.just(alphabet), st.lists(st.text(alphabet, min_size=1, max_size=3), max_size=3))), _points("01abc"))
@settings(max_examples=300, deadline=None)
def test_admissibility_matches_the_per_symbol_reading(spec, p):
    alphabet, forbidden = spec
    system = ShiftSystem(tuple(alphabet), tuple(forbidden))
    assert system.point_admissible(p) == _ref_point_admissible(system, p)
    assert system.contains_point(p) == _ref_contains_point(system, p)


# -- composition ------------------------------------------------------------


def test_tent_square_is_four_laps():
    sq = iterate_pl(tent_map(2), 2)
    assert len(sq.slopes) == 4
    assert all(abs(s) == 4 for s in sq.slopes)
    rng = random.Random(5)
    t2 = tent_map(2)
    for x in sample_rationals(rng, 24):
        assert sq.evaluate(x) == t2.evaluate(t2.evaluate(x))


def test_compose_collapses_collinear_breakpoints():
    m = PiecewiseLinearMap((F(0), F(1, 2), F(1)), (F(0), F(1, 2), F(1)))  # identity
    sq = compose_pl(m, m)
    assert sq.breakpoints == (F(0), F(1))
    # equality and hash see only breakpoints and values, however the map was built
    identity = PiecewiseLinearMap((0, 1), ("0", "1/1"))
    assert sq == identity and hash(sq) == hash(identity)
    assert len({tent_map(2), iterate_pl(tent_map(2), 1), tent_map(F(4, 2))}) == 1
    assert tent_map(2) != tent_map(F(3, 2))


def compose_pl_by_lap_crossings(outer, inner):
    """``compose_pl`` as it was first written: each lap of inner crossed with
    outer's breakpoints, and the collinear breakpoints dropped from a first map."""
    bps = set(inner.breakpoints)
    for dom, s, c in inner.laps():
        lo, hi = s * dom.lo + c, s * dom.hi + c
        lo, hi = min(lo, hi), max(lo, hi)
        for b in outer.breakpoints:
            if lo < b < hi:
                bps.add((b - c) / s)
    bp_list = tuple(sorted(bps))
    vals = tuple(outer.evaluate(inner.evaluate(b)) for b in bp_list)
    m = PiecewiseLinearMap(bp_list, vals)
    keep = [0, *(i for i in range(1, len(bp_list) - 1) if m.slopes[i - 1] != m.slopes[i]), len(bp_list) - 1]
    return PiecewiseLinearMap(tuple(bp_list[i] for i in keep), tuple(vals[i] for i in keep))


def random_pl_map(rng):
    """Breakpoints and values on a grid of twelfths, neighbouring values distinct:
    laps that are not onto, shared values and collinear neighbours all occur."""
    k = rng.randint(1, 4)
    bps = [F(0), *sorted(F(b, 12) for b in rng.sample(range(1, 12), k - 1)), F(1)]
    vals = [F(rng.randint(0, 12), 12)]
    for _ in range(k):
        vals.append(F(rng.choice([v for v in range(13) if F(v, 12) != vals[-1]]), 12))
    return PiecewiseLinearMap(tuple(bps), tuple(vals))


def test_compose_pl_matches_the_lap_crossing_composition():
    rng = random.Random(17)
    pairs = [(random_pl_map(rng), random_pl_map(rng)) for _ in range(300)]
    pairs += [(tent_map(2), tent_map(2)), (tent_map(F(3, 2)), random_zigzag_map(4)), (random_zigzag_map(5), tent_map(1))]
    for outer, inner in pairs:
        composed = compose_pl(outer, inner)
        assert composed == compose_pl_by_lap_crossings(outer, inner)
        assert composed.breakpoints == compose_pl_by_lap_crossings(outer, inner).breakpoints


def test_iterate_pl_keeps_one_map_per_equal_map_and_count():
    iterate_pl.cache_clear()
    rng = random.Random(26)
    for system in [tent_map(2), random_zigzag_map(3)] + [random_pl_map(rng) for _ in range(4)]:
        twin = PiecewiseLinearMap(system.breakpoints, system.values)  # equal, built apart
        chain = system
        for n in range(2, 5):
            chain = compose_pl(system, chain)
            assert iterate_pl(system, n) == chain
            assert iterate_pl(twin, n) is iterate_pl(system, n)
    assert iterate_pl.cache_info().hits == 36 and iterate_pl.cache_info().currsize == 18
    # bounded: 40 more maps keep the newest 32 (maxsize), not 58
    for k in range(40):
        iterate_pl(tent_map(1 + F(2 * k + 1, 81)), 2)
    assert iterate_pl.cache_info().currsize == iterate_pl.cache_info().maxsize == 32


def test_iterate_pl_refuses_laps_past_the_limit(monkeypatch):
    assert systems_module.PARTS_LIMIT == 2**16
    monkeypatch.setattr(systems_module, "PARTS_LIMIT", 8)
    iterate_pl.cache_clear()
    assert len(iterate_pl(tent_map(2), 3).slopes) == 8  # exactly the limit: kept
    with pytest.raises(DomainError, match=r"^iterate f\^4 has 16 laps, past the limit of 8$"):
        iterate_pl(tent_map(2), 4)
    assert iterate_pl.cache_info().currsize == 1  # the refused call is not kept
    monkeypatch.setattr(systems_module, "PARTS_LIMIT", 16)
    assert len(iterate_pl(tent_map(2), 4).slopes) == 16


# -- serialization ----------------------------------------------------------


def test_system_json_round_trip():
    for system in (
        tent_map(F(9, 5)),
        logistic_map(4),
        quadratic_map(F(3, 2)),
        CantorSystem(5, "mirror"),
        golden_mean_shift(),
        OdometerSystem(7),
        SLimitSystem(9),
        *pl_maps(),
    ):
        for again in (system_from_json(system.to_json()), pickle.loads(pickle.dumps(system))):
            assert again == system
            assert hash(again) == hash(system)
            if isinstance(system, PiecewiseLinearMap):
                assert again.laps() == system.laps() and again.slopes == system.slopes


# -- the system contract ----------------------------------------------------

SYSTEM_ZOO = [
    pytest.param(tent_map(2), F(1, 3), id="tent"),
    pytest.param(random_zigzag_map(5), F(2, 7), id="zigzag"),
    pytest.param(logistic_map(4), F(1, 5), id="logistic"),
    pytest.param(quadratic_map(F(3, 2)), F(-1, 3), id="quadratic"),
    pytest.param(CantorSystem(5, "fold"), F(-2, 27), id="cantor-fold"),
    pytest.param(CantorSystem(5, "mirror"), F(-2, 27), id="cantor-mirror"),
    pytest.param(SLimitSystem(6), F(-1, 8), id="slimit"),
    pytest.param(golden_mean_shift(), SymbolicPoint(("0", "1"), ("0",)), id="golden-mean"),
    pytest.param(OdometerSystem(6), (1, 1, 0, 1, 0, 0), id="odometer"),
]


@pytest.mark.parametrize("system, x", SYSTEM_ZOO)
def test_system_contract(system, x):
    assert system.contains_point(x)
    assert system.point_from_str(system.point_to_str(x)) == x
    assert system.distance(x, x) == 0
    wrong = (0, 1) if isinstance(x, F) else F(1, 2)
    with pytest.raises(DomainError):
        system.distance(x, wrong)
    assert system_from_json(system.to_json()) == system
    if isinstance(system, (PiecewiseLinearMap, CantorSystem)):
        for dom, s, c in system.affine_cells():
            assert s * dom.lo + c == system.evaluate(dom.lo)
            assert s * dom.hi + c == system.evaluate(dom.hi)


def test_odometer_point_from_str_takes_only_depth_length_binary_words():
    odo = OdometerSystem(4)
    assert odo.point_from_str("0110") == (0, 1, 1, 0)
    for text in ("0120", "011", "01100", "01a0", "", " 011"):
        with pytest.raises(DomainError, match="is not a depth-4 binary word"):
            odo.point_from_str(text)


def test_the_whole_space_default_needs_an_interval_space():
    # every region check reads None as the whole space, after its own class check
    t2, whole = tent_map(2), RegionSpec(tent_map(2).space())
    for check in (lambda r: check_expanding(t2, r, F(1, 10), 2), lambda r: check_star(t2, r, F(1, 10), 2),
                  lambda r: check_ball_expanding(t2, r, 2, F(1, 4), [F(1, 8)]),
                  lambda r: check_locally_injective(t2, r),
                  lambda r: crosscheck_expanding_characterizations(t2, r)):
        assert check(None) == check(whole)
    for system in (golden_mean_shift(), OdometerSystem(4)):
        with pytest.raises(DomainError, match=f"check_expanding does not support {type(system).__name__}"):
            check_expanding(system, None, F(1, 8), 2)


def test_solvers_reject_unsupported_classes():
    with pytest.raises(DomainError, match="check_expanding does not support ShiftSystem"):
        check_expanding(golden_mean_shift(), RegionSpec(from_pairs([])), F(1, 8), 2)
    with pytest.raises(DomainError, match="shadow_oracle does not support QuadraticFamilyMap"):
        shadow_oracle(quadratic_map(F(3, 2)), PseudoOrbit((F(0),)), F(1, 8))
    with pytest.raises(DomainError, match="check_locally_injective does not support CantorSystem"):
        check_locally_injective(CantorSystem(4), RegionSpec(CantorSystem(4).space()))


# the classes each class-keyed entry accepts; every other class is refused with one DomainError
SUPPORT = {
    "shadow_oracle": ("PiecewiseLinearMap", "CantorSystem", "ShiftSystem", "OdometerSystem", "SLimitSystem"),
    "h_shadow_solve": ("PiecewiseLinearMap", "CantorSystem", "ShiftSystem", "OdometerSystem"),
    "perturbed_orbit": ("PiecewiseLinearMap", "QuadraticFamilyMap", "CantorSystem", "ShiftSystem", "OdometerSystem",
                        "SLimitSystem"),
    "check_expanding": ("PiecewiseLinearMap", "QuadraticFamilyMap", "CantorSystem"),
    "check_star": ("PiecewiseLinearMap", "QuadraticFamilyMap", "CantorSystem"),
    "check_ball_expanding": ("PiecewiseLinearMap", "CantorSystem"),
    "check_open_at": ("PiecewiseLinearMap", "QuadraticFamilyMap", "CantorSystem"),
    "check_locally_injective": ("PiecewiseLinearMap", "QuadraticFamilyMap", "SLimitSystem"),
    "crosscheck_expanding_characterizations": ("PiecewiseLinearMap", "QuadraticFamilyMap", "CantorSystem"),
    "itinerary": ("PiecewiseLinearMap", "QuadraticFamilyMap"),
}

# one system of each class with a point of its space; a region is that point, or empty on a symbolic system
SUPPORT_SYSTEMS = [(tent_map(2), F(0)), (logistic_map(4), F(0)), (CantorSystem(4), F(0)),
                   (golden_mean_shift(), SymbolicPoint.parse("(0)")), (OdometerSystem(4), (0, 0, 0, 0)),
                   (SLimitSystem(3), F(0))]


def _region(x):
    return RegionSpec(point_set(x) if isinstance(x, F) else from_pairs([]))


SUPPORT_CALLS = {
    "shadow_oracle": lambda s, x: shadow_oracle(s, PseudoOrbit((x, s.evaluate(x))), F(1, 8)),
    "h_shadow_solve": lambda s, x: h_shadow_solve(s, PseudoOrbit((x, s.evaluate(x))), F(1, 8)),
    "perturbed_orbit": lambda s, x: perturbed_orbit(s, x, 3, F(1, 8), 0),
    "check_expanding": lambda s, x: check_expanding(s, _region(x), F(1, 9), 3),
    "check_star": lambda s, x: check_star(s, _region(x), F(1, 9), 3),
    "check_ball_expanding": lambda s, x: check_ball_expanding(s, _region(x), 3, F(1, 27), [F(1, 81)]),
    "check_open_at": lambda s, x: check_open_at(s, x),
    "check_locally_injective": lambda s, x: check_locally_injective(s, _region(x)),
    "crosscheck_expanding_characterizations": lambda s, x: crosscheck_expanding_characterizations(s, _region(x)),
    "itinerary": lambda s, x: itinerary(s, x, 4),
}


def test_class_keyed_entries_support_the_same_classes():
    matrix = {}
    for entry, call in SUPPORT_CALLS.items():
        accepted = []
        for system, x in SUPPORT_SYSTEMS:
            name = type(system).__name__
            try:
                call(system, x)
            except DomainError as refusal:
                assert str(refusal) == f"{entry} does not support {name}"  # the concrete class, not a base
            else:
                accepted.append(name)
        matrix[entry] = tuple(accepted)
    assert matrix == SUPPORT


def test_cantor_min_slope_modulus_from_piece_slopes():
    for depth in (1, 2, 3, 6):
        for mode in ("fold", "mirror"):
            assert CantorSystem(depth, mode).min_slope_modulus() == 3


def test_system_json_missing_field_is_named():
    with pytest.raises(ValueError, match="'breakpoints'"):
        system_from_json({"kind": "pl"})
    with pytest.raises(ValueError, match="'kind'"):
        system_from_json({})


@pytest.mark.parametrize("make, name, value", [
    (CantorSystem, "depth", 2.5), (SLimitSystem, "tail_depth", 2.5),
    (OdometerSystem, "depth", 2.5), (OdometerSystem, "depth", True),
], ids=["cantor-float", "slimit-float", "odometer-float", "odometer-bool"])
def test_constructors_refuse_a_depth_that_is_not_an_integer(make, name, value):
    # the Cantor and tail systems used to fail later with a TypeError, and the
    # odometer built a system that refused every word
    with pytest.raises(ValueError, match=f"field '{name}' must be an integer, not {value!r}"):
        make(value)


@pytest.mark.parametrize("depth", [17, 40])
def test_cantor_depth_above_the_limit_is_refused(depth):
    # depth 40 used to be accepted, and its first query built 2^41 − 1 space
    # components; both entries refuse it before anything is built
    message = f"cantor depth is limited to 16, got depth {depth}"
    with pytest.raises(ValueError, match=message):
        CantorSystem(depth)
    with pytest.raises(ValueError, match=message):
        system_from_json({"kind": "cantor", "depth": depth, "negative_image_mode": "mirror"})
    # the limit itself builds, on integers, in a fraction of a second
    space = CantorSystem(16).space()
    assert len(space.int_parts) == 131_071
    assert space.int_parts[0] == (-1, 1, -43046720, 43046721)
    assert space.int_parts[-1] == (43046720, 43046721, 1, 1)


def test_sqrt_enclosure_bounds():
    for q in (F(2), F(1, 3), F(7, 5), F(0)):
        lo, hi = sqrt_enclosure(q, 40)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= F(1, 2**40)
