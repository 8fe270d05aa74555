import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.numerics import (
    RationalIntervalSet,
    affine_image,
    closed_ball,
    from_int_set,
    from_pairs,
    int_intersect,
    intersect,
    interval,
    normalize,
    point_set,
    rat,
    rat_str,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=64)


def union(a, b):
    return normalize(a.parts + b.parts)


def measure(s):
    return sum((p.width for p in s.parts), F(0))


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    parts = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        parts.append(interval(min(a, b), max(a, b)))
    return normalize(parts)


def test_normalize_merges_overlap():
    assert from_pairs([(0, "1/2"), ("1/4", "3/4")]) == from_pairs([(0, "3/4")])


def test_normalize_merges_touching():
    assert from_pairs([(0, "1/3"), ("1/3", 1)]) == from_pairs([(0, 1)])


def test_normalize_empty():
    assert normalize([]).is_empty


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        interval(1, 0)


def test_intersect_basic():
    assert intersect(from_pairs([(0, "1/2")]), from_pairs([("1/4", 1)])) == from_pairs([("1/4", "1/2")])


def test_intersect_two_parts():
    got = intersect(from_pairs([(0, "1/4"), ("1/2", 1)]), from_pairs([("1/8", "5/8")]))
    assert got == from_pairs([("1/8", "1/4"), ("1/2", "5/8")])


def test_intersect_empty_absorbs():
    assert intersect(from_pairs([(0, 1)]), normalize([])).is_empty


def test_affine_image_basic():
    assert affine_image(from_pairs([(0, 1)]), 3, 2) == from_pairs([(2, 5)])


def test_affine_image_endpoint_matching():
    # the slope-9 piece sends [2/27, 1/9] onto [2/3, 1]
    assert affine_image(from_pairs([("2/27", "1/9")]), 9, 0) == from_pairs([("2/3", 1)])


def test_affine_image_orientation_reversal():
    assert affine_image(from_pairs([(0, 1)]), -2, 2) == from_pairs([(0, 2)])


def test_affine_image_rejects_zero_slope():
    with pytest.raises(ValueError):
        affine_image(from_pairs([(0, 1)]), 0, 1)


@given(interval_sets())
@settings(max_examples=80)
def test_normalize_idempotent(s):
    assert normalize(list(s.parts)) == s


# endpoints on a coarse grid, so parts of two sets often touch or coincide
grid_points = st.integers(min_value=0, max_value=48).map(lambda k: F(k, 4))


@st.composite
def grid_sets(draw, max_parts):
    n = draw(st.integers(min_value=0, max_value=max_parts))
    parts = []
    for _ in range(n):
        a = draw(grid_points)
        b = draw(st.one_of(st.just(a), grid_points))  # degenerate point parts too
        parts.append(interval(min(a, b), max(a, b)))
    return normalize(parts)


def pairwise_intersection(a, b):
    """Reference: every part of a against every part of b, then normalize."""
    return normalize([interval(max(p.lo, q.lo), min(p.hi, q.hi))
                      for p in a.parts for q in b.parts if max(p.lo, q.lo) <= min(p.hi, q.hi)])


@given(grid_sets(12), grid_sets(12))
@settings(max_examples=200)
def test_intersect_matches_pairwise_reference(a, b):
    assert intersect(a, b) == pairwise_intersection(a, b)


@given(grid_sets(1), grid_sets(40))
@settings(max_examples=200)
def test_intersect_one_part_against_many(one, many):
    expected = pairwise_intersection(one, many)
    assert intersect(one, many) == expected
    assert intersect(many, one) == expected


@given(st.lists(st.tuples(grid_points, grid_points), max_size=12), st.integers(min_value=-2, max_value=98))
@settings(max_examples=200)
def test_normalize_keeps_exactly_the_union(pairs, k):
    raw = [interval(min(a, b), max(a, b)) for a, b in pairs]
    x = F(k, 8)  # the grid, the midpoints between its points, and points outside it
    assert normalize(raw).contains(x) == any(p.contains(x) for p in raw)


@given(interval_sets())
@settings(max_examples=60)
def test_int_parts_round_trip(s):
    assert from_int_set(s.int_parts) == s
    assert s.int_parts is s.int_parts  # the one stored field


def test_intersect_skips_to_touching_and_point_parts():
    many = from_pairs([(k, F(2 * k + 1, 2)) for k in range(20)])  # [k, k + 1/2]
    assert intersect(from_pairs([(F(37, 2), F(37, 2))]), many) == from_pairs([(F(37, 2), F(37, 2))])
    assert intersect(from_pairs([(F(21, 2), 11)]), many) == from_pairs([(F(21, 2), F(21, 2)), (11, 11)])
    assert intersect(from_pairs([(F(3, 4), F(7, 8))]), many).is_empty
    assert intersect(many, RationalIntervalSet(())).is_empty


@given(interval_sets(), interval_sets())
@settings(max_examples=80)
def test_intersect_commutative(a, b):
    assert intersect(a, b) == intersect(b, a)


@given(interval_sets(), interval_sets(), interval_sets())
@settings(max_examples=60)
def test_intersect_associative(a, b, c):
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


@given(interval_sets(), interval_sets(), interval_sets())
@settings(max_examples=60)
def test_intersect_monotone(a, a_extra, b):
    bigger = union(a, a_extra)
    small = intersect(a, b)
    assert small.subset_of(intersect(bigger, b))


@given(interval_sets(), interval_sets())
@settings(max_examples=80)
def test_intersect_measure_bound(a, b):
    assert measure(intersect(a, b)) <= min(measure(a), measure(b))


@given(interval_sets(), interval_sets(), rationals.filter(lambda q: q != 0), rationals)
@settings(max_examples=60)
def test_affine_distributes_over_union(a, b, slope, offset):
    lhs = affine_image(union(a, b), slope, offset)
    rhs = union(affine_image(a, slope, offset), affine_image(b, slope, offset))
    assert lhs == rhs


@given(interval_sets(), interval_sets(), rationals.filter(lambda q: q != 0), rationals)
@settings(max_examples=60)
def test_affine_commutes_with_intersect(a, b, slope, offset):
    lhs = affine_image(intersect(a, b), slope, offset)
    rhs = intersect(affine_image(a, slope, offset), affine_image(b, slope, offset))
    assert lhs == rhs


@given(interval_sets(), interval_sets(), rationals)
@settings(max_examples=60)
def test_membership_characterizes_intersection(a, b, x):
    both = a.contains(x) and b.contains(x)
    assert intersect(a, b).contains(x) == both


def test_ball_and_point_helpers():
    assert closed_ball("1/2", "1/4") == from_pairs([("1/4", "3/4")])
    assert point_set("1/3").contains(F(1, 3))
    with pytest.raises(ValueError):
        closed_ball(0, -1)


def test_distance_to_point():
    s = from_pairs([(0, "1/4"), ("1/2", 1)])
    assert s.distance_to(F(3, 8)) == F(1, 8)
    assert s.distance_to(F(1, 8)) == 0
    assert s.distance_to(F(3, 2)) == F(1, 2)


def test_rational_serialization_round_trip():
    assert rat_str(F(3, 6)) == "1/2"
    assert rat("7/3") == F(7, 3)
    assert rat_str(F(4)) == "4/1"
    s = from_pairs([(0, "1/2"), ("2/3", 1)])
    assert RationalIntervalSet.from_json(s.to_json()) == s
    assert RationalIntervalSet.from_json([]) == RationalIntervalSet(())


@pytest.mark.parametrize("data", [["01"], {}, [["0", "1"], "12"], [["0", "1", "2"]], [("0", "1")], "01", None])
def test_interval_set_json_is_a_list_of_pairs(data):
    # each string used to be unpacked as a pair, and a dict read as the empty set
    with pytest.raises(ValueError, match=r"^an interval set is a list of \[lo, hi\] pairs$"):
        RationalIntervalSet.from_json(data)


def test_rat_str_beyond_int_to_str_digit_limit():
    value = F(-(10**5999 + 12345), 3**9101)  # 6000-digit numerator, 4343-digit denominator
    text = rat_str(value)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == expected


# -- sets stored as unreduced integer parts -----------------------------------


@st.composite
def point_and_interval_sets(draw):
    """Canonical sets whose parts are points or intervals, with negative ends and 0 among the ends."""
    ends = sorted(set(draw(st.lists(st.one_of(st.just(F(0)), rationals), max_size=10))))
    parts, i = [], 0
    while i < len(ends):
        if i + 1 < len(ends) and draw(st.booleans()):
            parts.append(interval(ends[i], ends[i + 1]))
            i += 3  # skip one end, so the next part leaves a gap
        else:
            parts.append(interval(ends[i], ends[i]))
            i += 2
    return RationalIntervalSet(tuple(parts))


def scaled(s, ks):
    """The integer parts of s with each endpoint's numerator and denominator multiplied by its own k >= 1."""
    ks = iter(ks)
    return from_int_set([(ln * k, ld * k, hn * m, hd * m) for (ln, ld, hn, hd), k, m in zip(s.int_parts, ks, ks)])


def in_lowest_terms(s):
    return all(math.gcd(n, d) == 1 for ln, ld, hn, hd in s.int_parts for n, d in ((ln, ld), (hn, hd)))


@given(point_and_interval_sets(), st.lists(st.integers(1, 10**6), min_size=20, max_size=20))
@settings(max_examples=150)
def test_unreduced_integer_parts_are_the_same_set(s, ks):
    t = scaled(s, ks)
    assert t == s and s == t and hash(t) == hash(s)
    assert t.to_json() == s.to_json() == [[rat_str(p.lo), rat_str(p.hi)] for p in s.parts]
    assert t.parts == s.parts and list(t) == list(s)
    if not s.is_empty:
        assert t.leftmost() == s.leftmost() and t.hull() == s.hull()
    assert (t == from_int_set([(1, 1, 2, 1)])) == (s == from_pairs([(1, 2)]))


def test_unreduced_integer_parts_with_zero_negative_and_point_parts():
    s = from_pairs([(-2, F(-3, 2)), (0, 0), (F(1, 3), F(1, 3)), (F(1, 2), 4)])
    t = from_int_set([(-14, 7, -9, 6), (0, 5, 0, 9), (4, 12, 2, 6), (3, 6, 8, 2)])
    assert t == s and hash(t) == hash(s) and t.to_json() == s.to_json()
    assert t.to_json() == [["-2/1", "-3/2"], ["0/1", "0/1"], ["1/3", "1/3"], ["1/2", "4/1"]]
    assert t != from_int_set([(-14, 7, -9, 6), (0, 5, 0, 9), (4, 12, 2, 6), (3, 6, 9, 2)])


def test_unreduced_integer_parts_beyond_int_to_str_digit_limit():
    big = F(10**5000 + 1, 3**200)  # a 5001-digit numerator, past the default 4300-digit limit
    s = from_pairs([(F(-1, 3), 0), (big, big + 1)])
    k = 7**50
    t = from_int_set([(-k, 3 * k, 0, k), (big.numerator * k, big.denominator * k, (big + 1).numerator, big.denominator)])
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 0):  # the interpreter's default and the benchmark worker's setting
            sys.set_int_max_str_digits(digits)
            assert t.to_json() == s.to_json() == [["-1/3", "0/1"], [rat_str(big), rat_str(big + 1)]]
        assert s.to_json()[1][0] == f"{big.numerator}/{big.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert t == s and hash(t) == hash(s)


@given(point_and_interval_sets(), st.lists(st.integers(1, 10**6), min_size=20, max_size=20), rationals, rationals)
@settings(max_examples=80)
def test_public_results_hold_reduced_integers(s, ks, a, b):
    t = scaled(s, ks)
    results = [intersect(t, t), intersect(t, from_pairs([(-1, 1)])), normalize(t.parts), RationalIntervalSet(t.parts),
               closed_ball(a, abs(b)), RationalIntervalSet.from_json(t.to_json())]
    if a != 0:
        results.append(affine_image(t, a, b))
    assert all(in_lowest_terms(r) for r in results)
    assert results[0] == s


def reduced_subset(a, b):
    """``subset_of`` as it was first written: the integer intersection and the
    set compared as two copies with every endpoint in lowest terms."""
    def lowest(parts):
        return [(ln // g, ld // g, hn // h, hd // h)
                for ln, ld, hn, hd in parts for g, h in [(math.gcd(ln, ld), math.gcd(hn, hd))]]
    return lowest(int_intersect(a.int_parts, b.int_parts)) == lowest(a.int_parts)


@given(point_and_interval_sets(), point_and_interval_sets(), st.lists(st.integers(1, 10**6), min_size=40, max_size=40))
@settings(max_examples=150)
def test_subset_of_matches_the_reduced_comparison(s, t, ks):
    # unreduced parts, point parts and pairs that are and are not subsets
    a, b = scaled(s, ks[:20]), scaled(t, ks[20:])
    met = scaled(intersect(s, t), ks[20:])
    grown = scaled(normalize(s.parts + t.parts), ks[:20])
    for x, y in ((a, b), (b, a), (met, a), (met, b), (a, grown), (grown, a), (a, a), (a, s), (from_int_set([]), a)):
        assert x.subset_of(y) == reduced_subset(x, y)
    assert met.subset_of(a) and met.subset_of(b) and a.subset_of(grown) and a.subset_of(s)


def test_subset_of_on_unreduced_and_point_parts():
    space = from_int_set([(-4, 2, -3, 2), (0, 3, 2, 6), (6, 8, 9, 9)])  # [−2, −3/2] ∪ [0, 1/3] ∪ [3/4, 1]
    assert from_int_set([(-6, 4, -6, 4), (2, 12, 4, 12), (9, 9, 9, 9)]).subset_of(space)
    assert from_int_set([(0, 5, 2, 6)]).subset_of(space)
    assert not from_int_set([(0, 5, 3, 6)]).subset_of(space)  # [0, 1/2] runs into the gap
    assert not from_int_set([(1, 2, 1, 2)]).subset_of(space)  # the point 1/2 lies in the gap
    assert not from_int_set([(-4, 2, -3, 2), (0, 1, 0, 1), (3, 4, 1, 1), (2, 1, 2, 1)]).subset_of(space)
