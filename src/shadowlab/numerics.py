"""Exact rational scalars and closed-interval-set algebra.

Every geometric question asked elsewhere in the package (does this ball fit
inside that image, is this constraint set empty, how far is a point from a
region) reduces to operations on finite unions of closed intervals with
rational endpoints.  All arithmetic is exact; nothing here ever touches a
float.  The sets come in two forms: the public one, with Fraction endpoints,
and an integer one of unreduced numerator and denominator pairs that the
tracing loops propagate step after step without taking a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction; anything else,
    a float included, or a zero denominator raises ValueError naming it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Canonical 'p/q' form with q > 0, denominator always explicit."""
    value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


_DECIMAL_CHUNK = 10**500  # str() of anything below this is within every allowed digit limit (>= 640)


def _decimal(n: int) -> str:
    """Exact decimal text of an int of any length, by halving base-10 splits."""
    if n < 0:
        return "-" + _decimal(-n)
    if n < _DECIMAL_CHUNK:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits (log10 2 > 3/10)
    hi, lo = divmod(n, 10**half)
    return _decimal(hi) + _decimal(lo).zfill(half)


@dataclass(frozen=True, order=True)
class ClosedInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", rat(self.lo))
            object.__setattr__(self, "hi", rat(self.hi))
        if _lt(self.hi, self.lo):
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        lo, hi, xn, xd = self.lo, self.hi, x.numerator, x.denominator
        return lo.numerator * xd <= xn * lo.denominator and xn * hi.denominator <= hi.numerator * xd

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


# Comparisons on the hot paths cross-multiply numerators and denominators
# (positive for Fraction and int) instead of going through Fraction's rich
# comparison, whose numbers.Rational check costs more than the products.
def _lt(a: Fraction, b: Fraction) -> bool:
    return a.numerator * b.denominator < b.numerator * a.denominator


def _ordered(lo: Fraction, hi: Fraction) -> ClosedInterval:
    """A ClosedInterval from Fraction endpoints already known to satisfy lo <= hi."""
    iv = object.__new__(ClosedInterval)
    # set as the dataclass's own __init__ does: writing to iv.__dict__ would
    # give every instance a dict of its own (160 bytes instead of 96)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


def interval(lo: RationalLike, hi: RationalLike) -> ClosedInterval:
    return ClosedInterval(rat(lo), rat(hi))


@dataclass(frozen=True)
class RationalIntervalSet:
    """Canonical finite union of disjoint closed intervals.

    Parts are sorted ascending and separated by gaps of positive length;
    touching or overlapping inputs are merged by :func:`normalize`.  The
    empty set is the empty tuple.  Degenerate parts (single points) are
    allowed and used for isolated points of a space.
    """

    parts: tuple[ClosedInterval, ...]

    def __post_init__(self):
        parts = self.parts
        for p, q in zip(parts, parts[1:]):
            if not _lt(p.hi, q.lo):
                raise ValueError("parts not canonical (overlap or touch)")

    # -- queries ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: Fraction) -> bool:
        return int_contains(self.int_parts, x.numerator, x.denominator)

    @cached_property
    def int_parts(self) -> tuple[IntPart, ...]:
        """The integer form of the set, built once: repeated queries on one
        set (a space, a carrier) bisect it without converting it again."""
        return tuple([_int_part(p) for p in self.parts])

    def subset_of(self, other: "RationalIntervalSet") -> bool:
        return intersect(self, other) == self

    def leftmost(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty set has no leftmost point")
        return self.parts[0].lo

    def hull(self) -> ClosedInterval:
        if self.is_empty:
            raise ValueError("empty set has no hull")
        return _ordered(self.parts[0].lo, self.parts[-1].hi)

    def distance_to(self, x: Fraction) -> Fraction:
        """Distance from a point to the set (0 if the point is inside)."""
        if self.is_empty:
            raise ValueError("distance to the empty set is undefined")
        best = None
        for p in self.parts:
            if p.contains(x):
                return Fraction(0)
            d = p.lo - x if x < p.lo else x - p.hi
            if best is None or d < best:
                best = d
        return best

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        inner = " ∪ ".join(repr(p) for p in self.parts) if self.parts else "∅"
        return f"{{{inner}}}"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        return [[rat_str(p.lo), rat_str(p.hi)] for p in self.parts]

    @staticmethod
    def from_json(data: Sequence) -> "RationalIntervalSet":
        return normalize([interval(lo, hi) for lo, hi in data])


def normalize(raw: Iterable[ClosedInterval]) -> RationalIntervalSet:
    """Canonical disjoint sorted form of a union of closed intervals
    (:func:`int_normalize` on their integer form).

    Touching intervals merge: [0,1/3] ∪ [1/3,1] becomes [0,1].
    """
    return from_int_set(int_normalize([_int_part(p) for p in raw]))


def from_pairs(pairs: Iterable[tuple[RationalLike, RationalLike]]) -> RationalIntervalSet:
    return normalize([interval(lo, hi) for lo, hi in pairs])


def point_set(x: RationalLike) -> RationalIntervalSet:
    x = rat(x)
    return RationalIntervalSet((ClosedInterval(x, x),))


def closed_ball(center: RationalLike, radius: RationalLike) -> RationalIntervalSet:
    """B̄_r(c) on the line; clip against a space by intersecting afterwards."""
    c, r = rat(center), rat(radius)
    return from_int_set([int_ball(c.numerator, c.denominator, r.numerator, r.denominator)])


def intersect(a: RationalIntervalSet, b: RationalIntervalSet) -> RationalIntervalSet:
    """Exact intersection (:func:`int_intersect` on the integer forms)."""
    return from_int_set(int_intersect(a.int_parts, b.int_parts))


def interior_grid(span: RationalLike, size: int) -> list[Fraction]:
    """span·j/(size+1) for j = 1 … size: ``size`` evenly spaced points strictly
    inside (0, span), such as an ε grid below ν."""
    span = rat(span)
    return [span * Fraction(j, size + 1) for j in range(1, size + 1)]


def affine_image(s: RationalIntervalSet, slope: RationalLike, offset: RationalLike) -> RationalIntervalSet:
    """Exact image {slope·x + offset : x ∈ s}; slope 0 is rejected."""
    slope, offset = rat(slope), rat(offset)
    if slope == 0:
        raise ValueError("zero slope collapses intervals")
    sd, od = slope.denominator, offset.denominator
    return from_int_set(int_affine(s.int_parts, slope.numerator * od, offset.numerator * sd, sd * od))


# ---------------------------------------------------------------------------
# integer interval sets
# ---------------------------------------------------------------------------

# The tube loops work on a second form of a canonical interval set: a list of
# parts (ln, ld, hn, hd) standing for [ln/ld, hn/hd], with ld, hd > 0 and no
# fraction reduced.  Parts ascend with gaps of positive length, as in a
# RationalIntervalSet.  Every comparison cross-multiplies, so no gcd is taken
# until a set leaves this form, with one Fraction per endpoint.
IntPart = tuple[int, int, int, int]


def _int_part(p: ClosedInterval) -> IntPart:
    return (p.lo.numerator, p.lo.denominator, p.hi.numerator, p.hi.denominator)


def from_int_set(parts: Sequence[IntPart]) -> RationalIntervalSet:
    # tuple() of a list: of a generator it resizes a guessed-size tuple, which
    # drifts tuples between CPython's per-size free lists and raises peak RSS
    return RationalIntervalSet(tuple([_ordered(Fraction(ln, ld), Fraction(hn, hd)) for ln, ld, hn, hd in parts]))


def int_ball(cn: int, cd: int, rn: int, rd: int) -> IntPart:
    """B̄_r(c) for c = cn/cd and r = rn/rd as one part."""
    if rn < 0:
        raise ValueError("negative radius")
    c, r, d = cn * rd, rn * cd, cd * rd
    return (c - r, d, c + r, d)


def int_tube(space: Sequence[IntPart], cn: int, cd: int, rn: int, rd: int) -> list[IntPart]:
    """B̄_r(c) ∩ space: every tube of the tracing loops."""
    return int_intersect(space, [int_ball(cn, cd, rn, rd)])


def int_contains(s: Sequence[IntPart], xn: int, xd: int) -> bool:
    """Whether xn/xd (xd > 0) lies in the set, by bisection over its parts."""
    lo, hi = 0, len(s) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        ln, ld, hn, hd = s[mid]
        if xn * ld < ln * xd:
            hi = mid - 1
        elif xn * hd > hn * xd:
            lo = mid + 1
        else:
            return True
    return False


def _int_reaching(s: Sequence[IntPart], lo: int, hi: int, xn: int, xd: int) -> int:
    """First index in [lo, hi) whose part ends at or past xn/xd (canonical parts ascend in their right ends)."""
    while lo < hi:
        mid = (lo + hi) // 2
        p = s[mid]
        if p[2] * xd < xn * p[3]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def int_intersect(a: Sequence[IntPart], b: Sequence[IntPart]) -> list[IntPart]:
    """Exact intersection by a two-pointer sweep over canonical parts.

    When the two current parts do not overlap, the side that lies wholly to
    the left jumps by bisection to its first part reaching the other's left
    end (canonical parts ascend in their right ends), so parts that cannot
    overlap anything are skipped in logarithmic time: one part against n
    costs O(log n) comparisons, not O(n).  After each output the side that
    ended it advances to a part starting strictly past that end, so the
    outputs ascend with gaps and are already canonical."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        pln, pld, phn, phd = a[i]
        qln, qld, qhn, qhd = b[j]
        if phn * qld < qln * phd:  # p ends before q starts
            i = _int_reaching(a, i + 1, na, qln, qld)
        elif qhn * pld < pln * qhd:  # q ends before p starts
            j = _int_reaching(b, j + 1, nb, pln, pld)
        else:
            ln, ld = (qln, qld) if pln * qld < qln * pld else (pln, pld)
            if phn * qhd < qhn * phd:
                out.append((ln, ld, phn, phd))
                i += 1
            else:
                out.append((ln, ld, qhn, qhd))
                j += 1
    return out


# orders parts by their left ends, exactly
_INT_LO = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])


def int_normalize(raw: Iterable[IntPart]) -> list[IntPart]:
    """Canonical form of parts in any order: sorted by left end, and merged
    where they overlap or touch."""
    out = []
    for ln, ld, hn, hd in sorted(raw, key=_INT_LO):
        if out and ln * ed <= en * ld:
            if hn * ed > en * hd:
                out[-1] = (*out[-1][:2], hn, hd)
                en, ed = hn, hd
        else:
            out.append((ln, ld, hn, hd))
            en, ed = hn, hd
    return out


def int_affine(s: Sequence[IntPart], a: int, b: int, q: int) -> list[IntPart]:
    """Image of a set under x ↦ (a·x + b)/q for integers a, q ≠ 0.  A strictly
    monotone map keeps the gaps between parts, so the image is canonical."""
    if q < 0:
        a, b, q = -a, -b, -q
    if a > 0:
        return [(a * ln + b * ld, q * ld, a * hn + b * hd, q * hd) for ln, ld, hn, hd in s]
    return [(a * hn + b * hd, q * hd, a * ln + b * ld, q * ld) for ln, ld, hn, hd in reversed(s)]
