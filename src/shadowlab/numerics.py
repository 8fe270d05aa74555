"""Exact rational scalars and closed-interval-set algebra.

Every geometric question asked elsewhere in the package (does this ball fit
inside that image, is this constraint set empty, how far is a point from a
region) reduces to operations on finite unions of closed intervals with
rational endpoints.  All arithmetic is exact; nothing here ever touches a
float.  A set stores one form: integer parts (ln, ld, hn, hd), numerator and
denominator pairs that the tracing loops propagate step after step without
taking a gcd.  Fractions are built only when a caller reads the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
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
    """Canonical 'p/q' form of a Fraction or int, denominator always explicit."""
    return _ratio_str(value.numerator, value.denominator)


def _ratio_str(n: int, d: int) -> str:
    """'n/d' for n/d in lowest terms with d > 0, at any length."""
    try:
        return f"{n}/{d}"
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        return f"{_decimal(n)}/{_decimal(d)}"


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
        if self.hi.numerator * self.lo.denominator < self.lo.numerator * self.hi.denominator:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        lo, hi, xn, xd = self.lo, self.hi, x.numerator, x.denominator
        return lo.numerator * xd <= xn * lo.denominator and xn * hi.denominator <= hi.numerator * xd

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def _ordered(lo: Fraction, hi: Fraction) -> ClosedInterval:
    """A ClosedInterval from Fraction endpoints already known to satisfy lo <= hi."""
    iv = object.__new__(ClosedInterval)
    # as the dataclass's own __init__ does: a write to iv.__dict__ would cost a dict per instance
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


def interval(lo: RationalLike, hi: RationalLike) -> ClosedInterval:
    return ClosedInterval(rat(lo), rat(hi))


@dataclass(frozen=True, init=False, eq=False)
class RationalIntervalSet:
    """Canonical finite union of disjoint closed intervals.

    Parts are sorted ascending and separated by gaps of positive length;
    touching or overlapping inputs are merged by :func:`normalize`.  The
    empty set is the empty tuple.  Degenerate parts (single points) are
    allowed and used for isolated points of a space.

    The one stored field is ``int_parts``, the integer form below; ``parts``,
    iteration, ``leftmost`` and ``hull`` build Fractions on each call.
    """

    int_parts: tuple[IntPart, ...]

    def __init__(self, parts: Iterable[ClosedInterval]):
        ints = tuple([(p.lo.numerator, p.lo.denominator, p.hi.numerator, p.hi.denominator) for p in parts])
        for p, q in zip(ints, ints[1:]):
            if not p[2] * q[1] < q[0] * p[3]:
                raise ValueError("parts not canonical (overlap or touch)")
        object.__setattr__(self, "int_parts", ints)

    def __eq__(self, other):
        return isinstance(other, RationalIntervalSet) and _reduced(self.int_parts) == _reduced(other.int_parts)

    def __hash__(self):
        return hash(tuple(_reduced(self.int_parts)))

    # -- queries ----------------------------------------------------------

    @property
    def parts(self) -> tuple[ClosedInterval, ...]:
        return tuple([_ordered(Fraction(ln, ld), Fraction(hn, hd)) for ln, ld, hn, hd in self.int_parts])

    @property
    def is_empty(self) -> bool:
        return not self.int_parts

    def contains(self, x: Fraction) -> bool:
        return int_contains(self.int_parts, x.numerator, x.denominator)

    def subset_of(self, other: "RationalIntervalSet") -> bool:
        return from_int_set(int_intersect(self.int_parts, other.int_parts)) == self

    def leftmost(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty set has no leftmost point")
        return Fraction(*self.int_parts[0][:2])

    def hull(self) -> ClosedInterval:
        if self.is_empty:
            raise ValueError("empty set has no hull")
        return _ordered(Fraction(*self.int_parts[0][:2]), Fraction(*self.int_parts[-1][2:]))

    def distance_to(self, x: Fraction) -> Fraction:
        """Distance from a point to the set (0 if the point is inside)."""
        if self.is_empty:
            raise ValueError("distance to the empty set is undefined")
        return min(max(p.lo - x, x - p.hi, Fraction(0)) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        inner = " ∪ ".join(repr(p) for p in self.parts) if self.int_parts else "∅"
        return f"{{{inner}}}"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        return [[_ratio_str(ln, ld), _ratio_str(hn, hd)] for ln, ld, hn, hd in _reduced(self.int_parts)]

    @staticmethod
    def from_json(data: Sequence) -> "RationalIntervalSet":
        return normalize([interval(lo, hi) for lo, hi in data])


def normalize(raw: Iterable[ClosedInterval]) -> RationalIntervalSet:
    """Canonical disjoint sorted form of a union of closed intervals
    (:func:`int_normalize` on their integer form).

    Touching intervals merge: [0,1/3] ∪ [1/3,1] becomes [0,1].
    """
    return from_int_set(int_normalize([(p.lo.numerator, p.lo.denominator, p.hi.numerator, p.hi.denominator)
                                       for p in raw]))


def from_pairs(pairs: Iterable[tuple[RationalLike, RationalLike]]) -> RationalIntervalSet:
    return normalize([interval(lo, hi) for lo, hi in pairs])


def point_set(x: RationalLike) -> RationalIntervalSet:
    x = rat(x)
    return RationalIntervalSet((ClosedInterval(x, x),))


def closed_ball(center: RationalLike, radius: RationalLike) -> RationalIntervalSet:
    """B̄_r(c) on the line; clip against a space by intersecting afterwards."""
    c, r = rat(center), rat(radius)
    return from_int_set(_reduced([int_ball(c.numerator, c.denominator, r.numerator, r.denominator)]))


def intersect(a: RationalIntervalSet, b: RationalIntervalSet) -> RationalIntervalSet:
    """Exact intersection (:func:`int_intersect` on the integer forms)."""
    return from_int_set(_reduced(int_intersect(a.int_parts, b.int_parts)))


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
    return from_int_set(_reduced(int_affine(s.int_parts, slope.numerator * od, offset.numerator * sd, sd * od)))


# ---------------------------------------------------------------------------
# integer interval sets
# ---------------------------------------------------------------------------

# A set's integer form: a sequence of parts (ln, ld, hn, hd) standing for
# [ln/ld, hn/hd], with ld, hd > 0 and no fraction necessarily reduced.  Parts
# ascend with gaps of positive length.  Every comparison cross-multiplies, so
# the tracing loops take no gcd; the public operations above reduce their
# results, so chains of public calls do not grow bit lengths.
IntPart = tuple[int, int, int, int]


def from_int_set(parts: Sequence[IntPart]) -> RationalIntervalSet:
    """The set of canonical integer parts, stored as they are (no gcd, no check)."""
    s = object.__new__(RationalIntervalSet)
    object.__setattr__(s, "int_parts", tuple(parts))
    return s


def _reduced(parts: Iterable[IntPart]) -> list[IntPart]:
    """The same parts with each endpoint in lowest terms."""
    return [(ln // g, ld // g, hn // h, hd // h) for ln, ld, hn, hd in parts for g, h in [(gcd(ln, ld), gcd(hn, hd))]]


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
