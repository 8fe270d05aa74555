"""Exact rational scalars and closed-interval-set algebra.

Every geometric question asked elsewhere in the package (does this ball fit
inside that image, is this constraint set empty, how far is a point from a
region) reduces to operations on finite unions of closed intervals with
rational endpoints.  All arithmetic is exact; nothing here ever touches a
float.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
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
        xn, xd = x.numerator, x.denominator
        lo, hi = 0, len(self.parts) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            p = self.parts[mid]
            a, b = p.lo, p.hi
            if xn * a.denominator < a.numerator * xd:
                hi = mid - 1
            elif xn * b.denominator > b.numerator * xd:
                lo = mid + 1
            else:
                return True
        return False

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


EMPTY_SET = RationalIntervalSet(())
_LO, _HI = attrgetter("lo"), attrgetter("hi")


def normalize(raw: Iterable[ClosedInterval]) -> RationalIntervalSet:
    """Canonical disjoint sorted form of a union of closed intervals.

    Touching intervals merge: [0,1/3] ∪ [1/3,1] becomes [0,1].
    """
    merged: list[ClosedInterval] = []
    for p in sorted(raw, key=_LO):
        lo, hi = p.lo, p.hi
        hn, hd = hi.numerator, hi.denominator
        if merged and lo.numerator * end_d <= end_n * lo.denominator:
            if hn * end_d > end_n * hd:
                merged[-1] = _ordered(merged[-1].lo, hi)
                end_n, end_d = hn, hd
        else:
            merged.append(p)
            end_n, end_d = hn, hd
    return RationalIntervalSet(tuple(merged))


def from_pairs(pairs: Iterable[tuple[RationalLike, RationalLike]]) -> RationalIntervalSet:
    return normalize([interval(lo, hi) for lo, hi in pairs])


def point_set(x: RationalLike) -> RationalIntervalSet:
    x = rat(x)
    return RationalIntervalSet((ClosedInterval(x, x),))


def closed_ball(center: RationalLike, radius: RationalLike) -> RationalIntervalSet:
    """B̄_r(c) on the line; clip against a space by intersecting afterwards."""
    c, r = rat(center), rat(radius)
    if r.numerator < 0:
        raise ValueError("negative radius")
    return RationalIntervalSet((_ordered(c - r, c + r),))


def intersect(a: RationalIntervalSet, b: RationalIntervalSet) -> RationalIntervalSet:
    """Exact intersection by a two-pointer sweep over canonical parts.

    When the two current parts do not overlap, the side that lies wholly to
    the left jumps by bisection to its first part reaching the other's left
    end (canonical parts ascend in ``hi``), so parts that cannot overlap
    anything are skipped in logarithmic time: one part against n costs
    O(log n) comparisons, not O(n)."""
    out: list[ClosedInterval] = []
    i = j = 0
    pa, pb = a.parts, b.parts
    na, nb = len(pa), len(pb)
    while i < na and j < nb:
        p, q = pa[i], pb[j]
        plo, phi, qlo, qhi = p.lo, p.hi, q.lo, q.hi
        pln, pld, phn, phd = plo.numerator, plo.denominator, phi.numerator, phi.denominator
        qln, qld, qhn, qhd = qlo.numerator, qlo.denominator, qhi.numerator, qhi.denominator
        if phn * qld < qln * phd:  # p ends before q starts
            i = bisect_left(pa, qlo, i + 1, na, key=_HI)
        elif qhn * pld < pln * qhd:  # q ends before p starts
            j = bisect_left(pb, plo, j + 1, nb, key=_HI)
        else:
            lo = qlo if pln * qld < qln * pld else plo
            if phn * qhd < qhn * phd:
                out.append(_ordered(lo, phi))
                i += 1
            else:
                out.append(_ordered(lo, qhi))
                j += 1
    # after each output the side that ended it advances to a part starting
    # strictly past that end, so the outputs ascend with gaps and are
    # already canonical
    return RationalIntervalSet(tuple(out))


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
    images = [(slope * p.lo + offset, slope * p.hi + offset) for p in s.parts]
    if slope.numerator < 0:
        images = [(b, a) for a, b in reversed(images)]
    # a strictly monotone map keeps the gaps between parts: already canonical.
    # tuple() of a list: of a generator it resizes a guessed-size tuple, which
    # drifts tuples between CPython's per-size free lists and raises peak RSS
    return RationalIntervalSet(tuple([_ordered(a, b) for a, b in images]))
