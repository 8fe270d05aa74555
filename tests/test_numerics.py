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
    assert s.int_parts is s.int_parts  # built once per set


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
