import math
import pickle
import random
from fractions import Fraction as F

import pytest

from shadowlab.expansivity import (
    RegionSpec,
    check_ball_expanding,
    check_expanding,
    check_locally_injective,
    whole_space_region,
)
from shadowlab.numerics import from_pairs, intersect, normalize
from shadowlab.pseudo_orbits import PseudoOrbit
from shadowlab.shadowing import shadow_oracle
from shadowlab.systems import (
    CantorSystem,
    DomainError,
    OdometerSystem,
    PiecewiseLinearMap,
    ShiftSystem,
    SLimitSystem,
    SymbolicPoint,
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


def test_whole_space_region_needs_an_interval_space():
    assert whole_space_region(tent_map(2)).carrier == tent_map(2).space()
    for system in (golden_mean_shift(), OdometerSystem(4)):
        with pytest.raises(DomainError, match=f"whole_space_region does not support {type(system).__name__}"):
            whole_space_region(system)


def test_solvers_reject_unsupported_classes():
    with pytest.raises(DomainError, match="check_expanding does not support ShiftSystem"):
        check_expanding(golden_mean_shift(), RegionSpec(from_pairs([])), F(1, 8), 2)
    with pytest.raises(DomainError, match="shadow_oracle does not support QuadraticFamilyMap"):
        shadow_oracle(quadratic_map(F(3, 2)), PseudoOrbit((F(0),)), F(1, 8))
    with pytest.raises(DomainError, match="check_locally_injective does not support CantorSystem"):
        check_locally_injective(CantorSystem(4), RegionSpec(CantorSystem(4).space()))


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
    assert CantorSystem(16).depth == 16  # the limit itself is a system; nothing here builds its space


def test_sqrt_enclosure_bounds():
    for q in (F(2), F(1, 3), F(7, 5), F(0)):
        lo, hi = sqrt_enclosure(q, 40)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= F(1, 2**40)
