"""The zoo of concrete dynamical systems behind one uniform contract.

Interval-type systems (piecewise-linear maps, the quadratic families, the
middle-thirds expanding map, the interval-plus-isolated-points space) use
exact rationals as points.  Symbolic systems (one-sided shifts of finite
type, the binary odometer) use finite words or eventually periodic words.

Every system answers which points belong to its space (``contains_point``),
where a point maps (``evaluate``), the metric (``distance``) and how a point
is written and read (``point_to_str``, ``point_from_str``).  The interval
systems also answer their space as an interval set (``space``), the closed
tube about a point (``tube``) and forward images; the piecewise-affine ones
(``PiecewiseLinearMap``, ``CantorSystem``) their affine cells, exact
preimages and minimum slope modulus; PL maps, the quadratic family and the
tail system their critical points.  A solver that needs
more than every system answers checks the class once, at entry
(:func:`require`).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .numerics import (
    ClosedInterval,
    IntPart,
    RationalIntervalSet,
    from_int_set,
    int_affine,
    int_contains,
    int_intersect,
    int_normalize,
    int_tube,
    normalize,
    rat,
    rat_str,
)

ONE = Fraction(1)
ZERO = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
_UNIT_INTERVAL = RationalIntervalSet((ClosedInterval(ZERO, ONE),))
_SYMMETRIC_INTERVAL = RationalIntervalSet((ClosedInterval(-ONE, ONE),))


class DomainError(ValueError):
    """Point outside the system's space, or a system class a solver does not support."""


def require(system_class: type, solver: str, supported) -> type:
    """A solver's one entry check: ``system_class`` itself when it is among
    ``supported`` (a tuple of classes or a dict keyed by them), else one
    DomainError naming it."""
    if system_class not in supported:
        raise DomainError(f"{solver} does not support {system_class.__name__}")
    return system_class


class IntervalSystem:
    """Shared by the interval systems: rational points, the metric |x − y|
    and the closed tube about a point.

    The tracing loops run on the integer form of interval sets
    (``numerics.int_*``): each system's ``_int_*`` steps take and return that
    form, and its public set methods convert at the boundary."""

    @cached_property
    def _int_space(self) -> tuple[IntPart, ...]:
        return self.space().int_parts

    def tube(self, x: Fraction, radius: Fraction) -> RationalIntervalSet:
        """B̄_r(x) ∩ space: every tracing tube and expansion ball is one."""
        return from_int_set(int_tube(self._int_space, x.numerator, x.denominator, radius.numerator, radius.denominator))

    def distance(self, x: Fraction, y: Fraction) -> Fraction:
        if not isinstance(x, Fraction) or not isinstance(y, Fraction):
            raise DomainError("interval systems take rational points")
        return abs(x - y)

    def point_to_str(self, x: Fraction) -> str:
        return rat_str(x)

    def point_from_str(self, text: str) -> Fraction:
        return rat(text)


# ---------------------------------------------------------------------------
# piecewise-linear interval maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearMap(IntervalSystem):
    """Interval map on [0,1], affine between consecutive breakpoints.

    ``breakpoints`` is strictly increasing with first 0 and last 1; ``values``
    gives the map at each breakpoint.  Slopes must be nonzero so that every
    lap is a monotone branch.

    The laps and slopes are computed once, at construction, and shared by
    every query; equality and hashing see only ``breakpoints`` and ``values``.
    The queries work on a second, integer copy: each breakpoint and value as
    (numerator, denominator) and each lap's s·x + c as (a·x + b)/q.  One
    evaluation and one image-bounds scan on integer pairs serve ``evaluate``,
    the forward image and the exact ball-expansion certificate; the preimage step maps through the inverse laps
    (q·y − b)/a.  Points and interval sets stay unreduced integers inside the
    tracing loops; the public methods build one Fraction per endpoint or
    point they return.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _laps: tuple[tuple[ClosedInterval, Fraction, Fraction], ...] = field(init=False, repr=False, compare=False)
    _int_breakpoints: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _int_values: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _int_laps: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = tuple(rat(b) for b in self.breakpoints)
        vals = tuple(rat(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) or len(bps) < 2:
            raise ValueError("need matching breakpoint/value lists of length >= 2")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (0 <= v <= 1) for v in vals):
            raise ValueError("values must lie in [0,1]")
        slopes = tuple((v1 - v0) / (b1 - b0) for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:]))
        if any(s == 0 for s in slopes):
            raise ValueError("zero-slope lap is not a monotone branch")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "_laps", tuple(
            (ClosedInterval(b0, b1), s, v0 - s * b0) for b0, b1, v0, s in zip(bps, bps[1:], vals, slopes)
        ))
        object.__setattr__(self, "_int_breakpoints", tuple((b.numerator, b.denominator) for b in bps))
        object.__setattr__(self, "_int_values", tuple((v.numerator, v.denominator) for v in vals))
        object.__setattr__(self, "_int_laps", tuple(_int_affine_form(s, c) for _, s, c in self._laps))

    def laps(self) -> tuple[tuple[ClosedInterval, Fraction, Fraction], ...]:
        """All maximal affine pieces as (domain, slope, offset)."""
        return self._laps

    def affine_cells(self) -> tuple[tuple[ClosedInterval, Fraction, Fraction], ...]:
        """The affine cells the pair engine works on: the stored laps."""
        return self._laps

    def space(self) -> RationalIntervalSet:
        return _UNIT_INTERVAL

    def contains_point(self, x: Fraction) -> bool:
        return 0 <= x.numerator <= x.denominator

    def lap_index(self, x) -> int:
        """Index of the rightmost lap whose left end is at most x, for x in
        [0,1] as a Fraction or an integer pair (n, d > 0): the lap holding x,
        the right one at an interior breakpoint and the last at 1 (f is
        continuous, so both neighbours agree there)."""
        xn, xd = x if type(x) is tuple else (x.numerator, x.denominator)
        bps = self._int_breakpoints
        lo, hi = 0, len(bps) - 2
        idx = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            bn, bd = bps[mid]
            if bn * xd <= xn * bd:
                idx = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return idx

    def _int_value(self, xn: int, xd: int) -> tuple[int, int]:
        """f(xn/xd) for xd > 0 and xn/xd in [0,1], as an unreduced integer pair."""
        a, b, q = self._int_laps[self.lap_index((xn, xd))]
        return a * xn + b * xd, q * xd

    def _int_image_bounds(self, ln: int, ld: int, hn: int, hd: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(min f, max f) over [ln/ld, hn/hd] ⊆ [0,1] as integer pairs, from f at
        both ends and the value given at each breakpoint strictly between."""
        lo = hi = self._int_value(ln, ld)
        inner = [v for (bn, bd), v in zip(self._int_breakpoints, self._int_values)
                 if ln * bd < bn * ld and bn * hd < hn * bd]
        for c in [self._int_value(hn, hd), *inner]:
            if c[0] * lo[1] < lo[0] * c[1]:
                lo = c
            elif c[0] * hi[1] > hi[0] * c[1]:
                hi = c
        return lo, hi

    def evaluate(self, x: Fraction) -> Fraction:
        xn, xd = x.numerator, x.denominator
        if not 0 <= xn <= xd:
            raise DomainError(f"{x} outside [0,1]")
        return Fraction(*self._int_value(xn, xd))

    def lipschitz(self) -> Fraction:
        return max(abs(s) for s in self.slopes)

    def min_slope_modulus(self) -> Fraction:
        return min(abs(s) for s in self.slopes)

    def critical_points(self) -> list[Fraction]:
        """Interior breakpoints where the slope changes sign."""
        out = []
        slopes = self.slopes
        for i in range(1, len(self.breakpoints) - 1):
            if slopes[i - 1] * slopes[i] < 0:
                out.append(self.breakpoints[i])
        return out

    def _int_forward(self, s: Sequence[IntPart]) -> list[IntPart]:
        """f(s) for s ⊆ [0,1]: the image bounds of each part, merged."""
        bounds = self._int_image_bounds
        return int_normalize([(*lo, *hi) for lo, hi in (bounds(*part) for part in s)])

    def _int_preimage(self, target: Sequence[IntPart]) -> list[IntPart]:
        """f⁻¹(target): per lap, the target clipped to the lap's range, which
        the lap covers one to one, mapped through the inverse lap."""
        out = []
        vals = self._int_values
        for (a, b, q), v0, v1 in zip(self._int_laps, vals, vals[1:]):
            hit = int_intersect(target, [(*v0, *v1) if a > 0 else (*v1, *v0)])
            if hit:
                out += int_affine(hit, q, -b, a)
        return int_normalize(out)

    def _int_point_preimages(self, yn: int, yd: int) -> list[tuple[int, int]]:
        """Every x with f(x) = yn/yd, ascending, as unreduced pairs.  Laps are
        searched as half-open (b_i, b_i+1], plus 0 on the first: f is
        continuous, so a hit at a shared breakpoint is also a hit of the lap to
        its left."""
        out = []
        bps = self._int_breakpoints
        for i, ((ln, ld), (hn, hd), (a, b, q)) in enumerate(zip(bps, bps[1:], self._int_laps)):
            n, d = q * yn - b * yd, a * yd  # x = (q·y − b)/a
            if d < 0:
                n, d = -n, -d
            if (ln * d < n * ld if i else n >= 0) and n * hd <= hn * d:
                out.append((n, d))
        return out

    def forward_image(self, s: RationalIntervalSet) -> RationalIntervalSet:
        if s.parts and (s.parts[0].lo < 0 or s.parts[-1].hi > 1):
            raise DomainError(f"{s} not inside [0,1]")
        return from_int_set(self._int_forward(s.int_parts))

    def preimage(self, target: RationalIntervalSet) -> RationalIntervalSet:
        return from_int_set(self._int_preimage(target.int_parts))

    def point_preimages(self, y: Fraction) -> list[Fraction]:
        """Every x with f(x) = y, ascending."""
        return [Fraction(n, d) for n, d in self._int_point_preimages(y.numerator, y.denominator)]

    def to_json(self) -> dict:
        return {
            "kind": "pl",
            "breakpoints": [rat_str(b) for b in self.breakpoints],
            "values": [rat_str(v) for v in self.values],
        }


def _int_affine_form(slope: Fraction, offset: Fraction) -> tuple[int, int, int]:
    """slope·x + offset as (a·x + b)/q with integers a, b and q > 0."""
    q = math.lcm(slope.denominator, offset.denominator)
    return slope.numerator * (q // slope.denominator), offset.numerator * (q // offset.denominator), q


def tent_map(lam) -> PiecewiseLinearMap:
    """T_λ(x) = λ·min(x, 1−x); into [0,1] for λ ≤ 2."""
    lam = rat(lam)
    if not (0 < lam <= 2):
        raise ValueError("tent slope must lie in (0,2]")
    return PiecewiseLinearMap((ZERO, HALF, ONE), (ZERO, lam / 2, ZERO))


def compose_pl(outer: PiecewiseLinearMap, inner: PiecewiseLinearMap) -> PiecewiseLinearMap:
    """Exact composition outer∘inner as a piecewise-linear map."""
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
    # drop interior breakpoints where adjacent laps are collinear
    keep = [0]
    slopes = m.slopes
    for i in range(1, len(bp_list) - 1):
        if slopes[i - 1] != slopes[i]:
            keep.append(i)
    keep.append(len(bp_list) - 1)
    return PiecewiseLinearMap(tuple(bp_list[i] for i in keep), tuple(vals[i] for i in keep))


def iterate_pl(system: PiecewiseLinearMap, n: int) -> PiecewiseLinearMap:
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    out = system
    for _ in range(n - 1):
        out = compose_pl(system, out)
    return out


def random_zigzag_map(seed: int, min_laps: int = 2, max_laps: int = 4) -> PiecewiseLinearMap:
    """Seeded full-lap zigzag: every lap surjective onto [0,1], slopes >= 2.

    These maps are ball expanding on the whole interval, which makes them a
    reusable stress family for the tracing solvers.
    """
    rng = random.Random(seed)
    k = rng.randint(min_laps, max_laps)
    while True:
        weights = [rng.randint(1, 5) for _ in range(k)]
        total = sum(weights)
        widths = [Fraction(w, total) for w in weights]
        if all(w <= HALF for w in widths):
            break
    bps = [ZERO]
    for w in widths[:-1]:
        bps.append(bps[-1] + w)
    bps.append(ONE)
    start_high = rng.random() < 0.5
    vals = []
    for i in range(k + 1):
        vals.append(ONE if (i % 2 == 0) == start_high else ZERO)
    return PiecewiseLinearMap(tuple(bps), tuple(vals))


# ---------------------------------------------------------------------------
# quadratic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFamilyMap(IntervalSystem):
    """Either g_λ(x)=λx(1−x) on [0,1] or f_μ(x)=1−μx² on [−1,1]."""

    family: str  # "logistic" | "quadratic"
    parameter: Fraction

    def __post_init__(self):
        object.__setattr__(self, "parameter", rat(self.parameter))
        p = self.parameter
        if self.family == "logistic":
            if not (0 < p <= 4):
                raise ValueError("logistic parameter must be in (0,4]")
        elif self.family == "quadratic":
            if not (1 <= p <= 2):
                raise ValueError("quadratic parameter must be in [1,2]")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def space(self) -> RationalIntervalSet:
        return _UNIT_INTERVAL if self.family == "logistic" else _SYMMETRIC_INTERVAL

    def contains_point(self, x: Fraction) -> bool:
        return self.space().contains(x)

    def evaluate(self, x: Fraction) -> Fraction:
        if not self.contains_point(x):
            raise DomainError(f"{x} outside the domain")
        # x(1 - x) = 1/4 - (x - 1/2)^2: a Fraction power is not re-normalised and every
        # other operation has a small operand, so no gcd of two orbit-sized integers is taken
        p = self.parameter
        return p * (QUARTER - (x - HALF) ** 2) if self.family == "logistic" else 1 - p * x ** 2

    def critical_point(self) -> Fraction:
        return HALF if self.family == "logistic" else ZERO

    def critical_points(self) -> list[Fraction]:
        return [self.critical_point()]

    def min_slope_modulus(self) -> Fraction:
        """|f′| vanishes at the critical point, which lies in the space."""
        return ZERO

    def derivative(self, x: Fraction) -> Fraction:
        p = self.parameter
        return p * (1 - 2 * x) if self.family == "logistic" else -2 * p * x

    def second_derivative(self, x: Fraction) -> Fraction:
        return -2 * self.parameter

    def third_derivative(self, x: Fraction) -> Fraction:
        return ZERO

    def forward_image(self, s: RationalIntervalSet) -> RationalIntervalSet:
        out = []
        c = self.critical_point()
        for part in s.parts:
            cands = [self.evaluate(part.lo), self.evaluate(part.hi)]
            if part.lo < c < part.hi:
                cands.append(self.evaluate(c))
            out.append(ClosedInterval(min(cands), max(cands)))
        return normalize(out)

    def preimage_outer(self, target: RationalIntervalSet, bits: int = 64) -> RationalIntervalSet:
        """Outer rational enclosure of the preimage (endpoints are square roots)."""
        return from_int_set(self._int_preimage_outer(target.int_parts, bits))

    def _int_preimage_outer(self, target: Sequence[IntPart], bits: int) -> list[IntPart]:
        # f(x) ∈ [a,b]  ⟺  (x − c)² ∈ [(f(c) − b)/p, (f(c) − a)/p] for the critical point c;
        # the square roots are enclosed on the 2^−bits grid, every end over cd·2^bits
        c, p = self.critical_point(), self.parameter
        top = self.evaluate(c)
        cn, cd, tn, td, pn, pd = c.numerator, c.denominator, top.numerator, top.denominator, p.numerator, p.denominator
        scale = cd << bits
        mid = cn << bits
        out = []
        for ln, ld, hn, hd in target:
            hi2 = (tn * ld - ln * td) * pd  # over td·ld·pn
            if hi2 < 0:
                continue
            rhi = _sqrt_bounds(hi2, td * ld * pn, bits)[1] * cd
            rlo = _sqrt_bounds(max((tn * hd - hn * td) * pd, 0), td * hd * pn, bits)[0] * cd
            out += [(mid - rhi, scale, mid - rlo, scale), (mid + rlo, scale, mid + rhi, scale)]
        return int_intersect(int_normalize(out), self._int_space)

    def to_json(self) -> dict:
        return {"kind": "quadratic", "family": self.family, "parameter": rat_str(self.parameter)}


def logistic_map(lam) -> QuadraticFamilyMap:
    return QuadraticFamilyMap("logistic", rat(lam))


def quadratic_map(mu) -> QuadraticFamilyMap:
    return QuadraticFamilyMap("quadratic", rat(mu))


def sqrt_enclosure(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo² ≤ q ≤ hi² and hi − lo ≤ 2^−bits, exact rationals."""
    if q < 0:
        raise ValueError("negative radicand")
    lo, hi = _sqrt_bounds(q.numerator, q.denominator, bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _sqrt_bounds(n: int, d: int, bits: int) -> tuple[int, int]:
    """sqrt_enclosure of n/d ≥ 0 (d > 0) as numerators over 2^bits: (0, 0) at
    0, else ⌊2^bits·√(n/d)⌋ and one more.  isqrt of ⌊N/d⌋ is ⌊√(N/d)⌋, since
    m² ≤ N/d exactly when m² ≤ ⌊N/d⌋."""
    if n == 0:
        return 0, 0
    root = math.isqrt((n << 2 * bits) // d)
    return root, root + 1


# ---------------------------------------------------------------------------
# the middle-thirds expanding map
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _thirds_level(level: int) -> tuple[ClosedInterval, ...]:
    """Level-k middle-thirds approximation of the Cantor set on [0,1]."""
    parts = [ClosedInterval(ZERO, ONE)]
    for _ in range(level):
        nxt = []
        for p in parts:
            w = p.width / 3
            nxt.append(ClosedInterval(p.lo, p.lo + w))
            nxt.append(ClosedInterval(p.hi - w, p.hi))
        parts = nxt
    return tuple(parts)


@lru_cache(maxsize=256)
def _piece_set(n: int, resolution: int) -> RationalIntervalSet:
    """Cantor piece n resolved to middle-thirds intervals of width 3^−resolution."""
    m = abs(n)
    span = CantorSystem.piece_interval(m)
    inner = _thirds_level(max(resolution - m, 0))
    scaled = [ClosedInterval(span.lo + span.width * p.lo, span.lo + span.width * p.hi) for p in inner]
    if n < 0:
        scaled = [ClosedInterval(-p.hi, -p.lo) for p in scaled]
    return normalize(scaled)


@lru_cache(maxsize=64)
def _piece_table(depth: int, mode: str) -> tuple[tuple[RationalIntervalSet, Fraction, Fraction], ...]:
    """(piece set, slope, offset) of every piece, indices 1, −1, 2, −2, … ±depth."""
    system = CantorSystem(depth, mode)
    return tuple((_piece_set(signed, depth), *system.piece_affine(signed))
                 for n in range(1, depth + 1) for signed in (n, -n))


@lru_cache(maxsize=64)
def _int_cell_table(depth: int, mode: str) -> tuple[tuple[tuple[IntPart, ...], int, int, int], ...]:
    """The map's cells in ascending position, each as (parts, a, b, q) with
    f(x) = (a·x + b)/q on it: every piece of the table, and the fixed point 0
    as the cell {0} with the identity.  Every a is positive."""
    cells = [(piece.int_parts, *_int_affine_form(s, c)) for piece, s, c in _piece_table(depth, mode)]
    cells.append((((0, 1, 0, 1),), 1, 0, 1))
    return tuple(sorted(cells, key=lambda cell: Fraction(*cell[0][0][:2])))


@lru_cache(maxsize=64)
def _cantor_space(depth: int) -> RationalIntervalSet:
    """The fixed point 0 with every piece of index |n| ≤ depth at resolution depth."""
    # the piece sets are the same under both image modes
    pieces = _piece_table(depth, "fold")
    return normalize([ClosedInterval(ZERO, ZERO)] + [p for piece, _, _ in pieces for p in piece.parts])


@dataclass(frozen=True)
class CantorSystem(IntervalSystem):
    """Self-map of a two-sided middle-thirds set in [−1,1] that scales each
    dyadically indexed piece by 3 (by 9 on the two pieces of index ±3) and
    translates it onto another piece.

    Pieces: C_n = X ∩ [2/3ⁿ, 1/3ⁿ⁻¹] for n > 0 and C_{−n} = −C_n.  Images:
    C_{±1} onto the corresponding half of the space, C_{±2} and C_{±3} onto
    C_1, deeper positive pieces onto the right half of the piece two indices
    up.  For the deep negative pieces the stated image "left half of the
    piece two indices up" admits two readings and both are implemented:

    * ``fold``: the image is the left half on the POSITIVE side, so a
      punctured neighbourhood of 0 maps one-sidedly into [0,1];
    * ``mirror``: the image is the reflected left half on the NEGATIVE
      side, which keeps pairs straddling 0 uniformly expanded.

    ``depth`` truncates the piece index at |n| ≤ depth and resolves each
    piece internally to middle-thirds intervals of width 3^−depth, so the
    space is a finite union of closed intervals and every query is exactly
    decidable.

    A piece set depends only on its index and resolution, the space only on
    ``depth``, and the table of (piece set, slope, offset) on ``depth`` and
    the mode: each is built once per process (in a bounded cache that holds
    no system) and shared by every system and query that asks for it.  The
    map queries (``evaluate``, forward images, preimages and point
    preimages) read the same table in integer form, ordered by position with
    the fixed point 0 as a cell of its own, and build one Fraction per
    endpoint or point they return.
    """

    depth: int
    negative_image_mode: str = "fold"

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.negative_image_mode not in ("fold", "mirror"):
            raise ValueError("negative_image_mode must be 'fold' or 'mirror'")

    # piece geometry -------------------------------------------------------

    @staticmethod
    def piece_interval(n: int) -> ClosedInterval:
        if n == 0:
            raise ValueError("no piece with index 0")
        m = abs(n)
        lo, hi = Fraction(2, 3**m), Fraction(1, 3 ** (m - 1))
        return ClosedInterval(lo, hi) if n > 0 else ClosedInterval(-hi, -lo)

    @staticmethod
    def piece_half(n: int, side: str) -> ClosedInterval:
        """Left or right half of a positive-index piece."""
        if n <= 0:
            raise ValueError("halves are defined for positive indices")
        if side == "left":
            return ClosedInterval(Fraction(2, 3**n), Fraction(7, 3 ** (n + 1)))
        if side == "right":
            return ClosedInterval(Fraction(8, 3 ** (n + 1)), Fraction(1, 3 ** (n - 1)))
        raise ValueError("side must be 'left' or 'right'")

    def piece_affine(self, n: int) -> tuple[Fraction, Fraction]:
        """(slope, offset) of the orientation-preserving map on piece n."""
        src = self.piece_interval(n)
        if n == 1:
            dst = ClosedInterval(ZERO, ONE)
        elif n == -1:
            dst = ClosedInterval(-ONE, ZERO)
        elif n in (2, 3, -2, -3):
            dst = self.piece_interval(1)
        elif n > 3:
            dst = self.piece_half(n - 2, "right")
        else:  # n < -3
            half = self.piece_half(abs(n) - 2, "left")
            if self.negative_image_mode == "fold":
                dst = half
            else:
                dst = ClosedInterval(-half.hi, -half.lo)
        slope = dst.width / src.width
        return slope, dst.lo - slope * src.lo

    def min_slope_modulus(self) -> Fraction:
        return min(abs(s) for _, s, _ in self._pieces())

    def critical_points(self) -> list[Fraction]:
        """None: every piece map is increasing and the pieces are separated."""
        return []

    def piece_set(self, n: int, resolution: Optional[int] = None) -> RationalIntervalSet:
        """Piece n resolved to middle-thirds intervals of width 3^−resolution."""
        return _piece_set(n, self.depth if resolution is None else resolution)

    def space(self) -> RationalIntervalSet:
        return _cantor_space(self.depth)

    # map ------------------------------------------------------------------

    def _pieces(self) -> tuple[tuple[RationalIntervalSet, Fraction, Fraction], ...]:
        return _piece_table(self.depth, self.negative_image_mode)

    def contains_point(self, x: Fraction) -> bool:
        return self.space().contains(x)

    def _int_cells(self) -> tuple[tuple[tuple[IntPart, ...], int, int, int], ...]:
        return _int_cell_table(self.depth, self.negative_image_mode)

    def _int_value(self, xn: int, xd: int) -> tuple[int, int]:
        """f(xn/xd) for xd > 0 as an unreduced integer pair."""
        for parts, a, b, q in self._int_cells():
            if int_contains(parts, xn, xd):
                return a * xn + b * xd, q * xd
        raise DomainError(f"{Fraction(xn, xd)} outside the depth-{self.depth} space")

    def evaluate(self, x: Fraction) -> Fraction:
        return Fraction(*self._int_value(x.numerator, x.denominator))

    def affine_cells(self) -> list[tuple[ClosedInterval, Fraction, Fraction]]:
        """All space components with their affine data, plus the fixed origin."""
        return [(ClosedInterval(ZERO, ZERO), ONE, ZERO)] + [
            (part, s, c) for piece, s, c in self._pieces() for part in piece.parts]

    def _int_forward(self, s: Sequence[IntPart]) -> list[IntPart]:
        out = []
        for parts, a, b, q in self._int_cells():
            hit = int_intersect(s, parts)
            if hit:
                out += int_affine(hit, a, b, q)
        return int_normalize(out)

    def _int_preimage(self, target: Sequence[IntPart]) -> list[IntPart]:
        out = []
        for parts, a, b, q in self._int_cells():
            out += int_intersect(int_affine(target, q, -b, a), parts)
        return int_normalize(out)

    def _int_point_preimages(self, yn: int, yd: int) -> list[tuple[int, int]]:
        """Every x with f(x) = yn/yd, ascending, as unreduced pairs."""
        return [(n, d) for parts, a, b, q in self._int_cells()
                for n, d in ((q * yn - b * yd, a * yd),) if int_contains(parts, n, d)]

    def forward_image(self, sset: RationalIntervalSet) -> RationalIntervalSet:
        return from_int_set(self._int_forward(sset.int_parts))

    def preimage(self, target: RationalIntervalSet) -> RationalIntervalSet:
        return from_int_set(self._int_preimage(target.int_parts))

    def point_preimages(self, y: Fraction) -> list[Fraction]:
        return [Fraction(n, d) for n, d in self._int_point_preimages(y.numerator, y.denominator)]

    def ball_image(self, radius: Fraction, closed: bool = True) -> RationalIntervalSet:
        """Exact image of the radius-ball about 0 intersected with the space.

        Open balls are supported only when they coincide with a closed
        intersection at the space's gap structure (true for the radii 2/3ⁿ
        used by the one-sidedness checks).
        """
        ball = self.tube(ZERO, radius)
        if not closed:
            kept = []
            for p in ball.parts:
                if p.lo == -radius or p.hi == radius:
                    if p.width > 0:
                        raise ValueError("open ball not exactly representable at this radius")
                    continue
                kept.append(p)
            ball = normalize(kept)
        return self.forward_image(ball)

    def to_json(self) -> dict:
        return {"kind": "cantor", "depth": self.depth, "negative_image_mode": self.negative_image_mode}


# ---------------------------------------------------------------------------
# shift spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicPoint:
    """Eventually periodic one-sided sequence: preamble then repeating cycle."""

    preamble: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        pre, cyc = list(self.preamble), list(self.cycle)
        # primitive cycle
        for p in range(1, len(cyc)):
            if len(cyc) % p == 0 and cyc == cyc[:p] * (len(cyc) // p):
                cyc = cyc[:p]
                break
        # absorb preamble tail into the cycle
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc = [cyc[-1]] + cyc[:-1]
        object.__setattr__(self, "preamble", tuple(pre))
        object.__setattr__(self, "cycle", tuple(cyc))

    def symbol(self, i: int) -> str:
        if i < len(self.preamble):
            return self.preamble[i]
        return self.cycle[(i - len(self.preamble)) % len(self.cycle)]

    def prefix(self, k: int) -> tuple[str, ...]:
        return tuple(self.symbol(i) for i in range(k))

    def shifted(self) -> "SymbolicPoint":
        if self.preamble:
            return SymbolicPoint(self.preamble[1:], self.cycle)
        return SymbolicPoint((), self.cycle[1:] + self.cycle[:1])

    def __str__(self):
        return "".join(self.preamble) + "(" + "".join(self.cycle) + ")"

    @staticmethod
    def parse(text: str) -> "SymbolicPoint":
        if "(" not in text:
            raise ValueError("expected 'preamble(cycle)'")
        pre, rest = text.split("(", 1)
        cyc = rest.rstrip(")")
        return SymbolicPoint(tuple(pre), tuple(cyc))


def common_prefix_length(a: SymbolicPoint, b: SymbolicPoint) -> Optional[int]:
    """Length of the longest common prefix; None when the points are equal."""
    if a == b:
        return None
    bound = len(a.preamble) + len(b.preamble) + math.lcm(len(a.cycle), len(b.cycle)) + 1
    for i in range(bound + 1):
        if a.symbol(i) != b.symbol(i):
            return i
    raise AssertionError("distinct eventually periodic points must disagree within the bound")


def cylinder_length(epsilon: Fraction) -> int:
    """Smallest k ≥ 0 with 2^−k ≤ ε, so that prefix-k agreement ⟺ distance ≤ ε
    in the 2^−(common prefix length) metric; exact for every ε > 0."""
    return (-(-epsilon.denominator // epsilon.numerator) - 1).bit_length()


@dataclass(frozen=True)
class ShiftSystem:
    """One-sided shift over a finite alphabet avoiding a finite word list."""

    alphabet: tuple[str, ...]
    forbidden: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if any(len(a) != 1 for a in self.alphabet):
            raise ValueError("alphabet symbols must be single characters")

    @property
    def max_forbidden_length(self) -> int:
        return max((len(w) for w in self.forbidden), default=0)

    def word_admissible(self, word: Sequence[str]) -> bool:
        text = "".join(word)
        return not any(bad in text for bad in self.forbidden)

    def point_admissible(self, p: SymbolicPoint) -> bool:
        window = list(p.preamble) + list(p.cycle) * 2
        horizon = len(window) + self.max_forbidden_length
        return self.word_admissible([p.symbol(i) for i in range(horizon)])

    def contains_point(self, p: SymbolicPoint) -> bool:
        return all(s in self.alphabet for s in p.preamble + p.cycle) and self.point_admissible(p)

    def evaluate(self, p: SymbolicPoint) -> SymbolicPoint:
        if not self.contains_point(p):
            raise DomainError(f"{p} not admissible")
        return p.shifted()

    def distance(self, a: SymbolicPoint, b: SymbolicPoint) -> Fraction:
        if not isinstance(a, SymbolicPoint) or not isinstance(b, SymbolicPoint):
            raise DomainError("shift systems take symbolic points")
        k = common_prefix_length(a, b)
        return ZERO if k is None else Fraction(1, 2**k)

    def point_to_str(self, p: SymbolicPoint) -> str:
        return str(p)

    def point_from_str(self, text: str) -> SymbolicPoint:
        return SymbolicPoint.parse(text)

    def follower_continuation(self, context: Sequence[str], rng: random.Random, length: int) -> list[str]:
        """Seeded admissible continuation of the given context."""
        L = self.max_forbidden_length
        word = list(context)
        for _ in range(length):
            options = [a for a in self.alphabet if self.word_admissible(word[-(L - 1):] + [a] if L > 1 else [a])]
            if not options:
                raise DomainError("context admits no admissible continuation")
            word.append(rng.choice(options))
        return word[len(context):]

    def admissible_cycle_from(self, context: Sequence[str]) -> tuple[str, ...]:
        """Some cycle whose infinite repetition extends the context admissibly."""
        L = max(self.max_forbidden_length, 1)
        for size in range(1, L + 2):
            for idx in range(len(self.alphabet) ** size):
                cyc = []
                k = idx
                for _ in range(size):
                    cyc.append(self.alphabet[k % len(self.alphabet)])
                    k //= len(self.alphabet)
                trial = list(context[-(L):]) + cyc * (L + 2)
                if self.word_admissible(trial):
                    return tuple(cyc)
        raise DomainError("no admissible cycle extends the context")

    def to_json(self) -> dict:
        return {"kind": "sft", "alphabet": list(self.alphabet), "forbidden": list(self.forbidden)}


def golden_mean_shift() -> ShiftSystem:
    return ShiftSystem(("0", "1"), ("11",))


# ---------------------------------------------------------------------------
# binary odometer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdometerSystem:
    """Add-one-with-carry on binary words of fixed length, least bit first."""

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def contains_point(self, w: tuple[int, ...]) -> bool:
        return isinstance(w, tuple) and len(w) == self.depth and all(b in (0, 1) for b in w)

    def evaluate(self, w: tuple[int, ...]) -> tuple[int, ...]:
        if not self.contains_point(w):
            raise DomainError(f"{w} is not a depth-{self.depth} word")
        out = list(w)
        for i in range(self.depth):
            if out[i] == 0:
                out[i] = 1
                break
            out[i] = 0
        return tuple(out)

    def iterate_inverse(self, w: tuple[int, ...], steps: int) -> tuple[int, ...]:
        value = (self.word_to_int(w) - steps) % (1 << self.depth)
        return self.int_to_word(value)

    def word_to_int(self, w: tuple[int, ...]) -> int:
        return sum(b << i for i, b in enumerate(w))

    def int_to_word(self, value: int) -> tuple[int, ...]:
        return tuple((value >> i) & 1 for i in range(self.depth))

    def distance(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        if not isinstance(a, tuple) or not isinstance(b, tuple):
            raise DomainError("odometer systems take binary words")
        if a == b:
            return ZERO
        k = 0
        while a[k] == b[k]:
            k += 1
        return Fraction(1, 2**k)

    def point_to_str(self, w: tuple[int, ...]) -> str:
        return "".join(str(b) for b in w)

    def point_from_str(self, text: str) -> tuple[int, ...]:
        if len(text) != self.depth or not set(text) <= {"0", "1"}:
            raise DomainError(f"{text!r} is not a depth-{self.depth} binary word")
        return tuple(int(ch) for ch in text)

    def to_json(self) -> dict:
        return {"kind": "odometer", "depth": self.depth}


# ---------------------------------------------------------------------------
# interval plus isolated fixed tail points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLimitSystem(IntervalSystem):
    """[0,1] ∪ {−1/2ⁿ : n ≤ tail_depth} with g(x)=x² on [0,1], identity below 0.

    g is an increasing bijection of [0,1] with g(x) < x strictly inside, so
    every forward orbit in (0,1) slides down to 0 while the isolated negative
    points never move.
    """

    tail_depth: int

    def __post_init__(self):
        if self.tail_depth < 1:
            raise ValueError("tail_depth must be >= 1")

    def tail_points(self) -> list[Fraction]:
        return [Fraction(-1, 2**n) for n in range(1, self.tail_depth + 1)]

    def space(self) -> RationalIntervalSet:
        parts = [ClosedInterval(p, p) for p in self.tail_points()]
        parts.append(ClosedInterval(ZERO, ONE))
        return normalize(parts)

    def contains_point(self, x: Fraction) -> bool:
        return (0 <= x <= 1) or x in set(self.tail_points())

    def evaluate(self, x: Fraction) -> Fraction:
        if not self.contains_point(x):
            raise DomainError(f"{x} outside the space")
        return x * x if x >= 0 else x

    def critical_points(self) -> list[Fraction]:
        """Empty: the map is increasing on [0,1] and the identity below 0."""
        return []

    def _int_forward(self, s: Sequence[IntPart]) -> list[IntPart]:
        out = []
        for ln, ld, hn, hd in s:
            if hn <= 0:
                out.append((ln, ld, hn, hd))
            else:
                lo, lod = (ln, ld) if ln > 0 else (0, 1)
                out.append((lo * lo, lod * lod, hn * hn, hd * hd))
                if ln < 0:
                    out.append((ln, ld, ln, ld))
        return int_intersect(int_normalize(out), self._int_space)

    def forward_image(self, sset: RationalIntervalSet) -> RationalIntervalSet:
        return from_int_set(self._int_forward(sset.int_parts))

    def to_json(self) -> dict:
        return {"kind": "slimit", "tail_depth": self.tail_depth}


# ---------------------------------------------------------------------------
# uniform contract
# ---------------------------------------------------------------------------

SystemSpec = Union[
    PiecewiseLinearMap, QuadraticFamilyMap, CantorSystem, ShiftSystem, OdometerSystem, SLimitSystem
]
Point = Union[Fraction, SymbolicPoint, tuple]


def orbit(system: SystemSpec, x: Point, n: int) -> list:
    """The true orbit [x, f(x), …, fⁿ(x)]."""
    out = [x]
    for _ in range(n):
        out.append(system.evaluate(out[-1]))
    return out


def iterate(system: SystemSpec, x: Point, n: int) -> Point:
    return orbit(system, x, n)[-1]


def system_from_json(data: Union[dict, str]) -> SystemSpec:
    """Parse a system document; a missing field raises ValueError naming it."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"system JSON must be an object, not {type(data).__name__}")
    try:
        kind = data["kind"]
        if kind == "pl":
            return PiecewiseLinearMap(
                tuple(rat(b) for b in data["breakpoints"]), tuple(rat(v) for v in data["values"])
            )
        if kind == "quadratic":
            return QuadraticFamilyMap(data["family"], rat(data["parameter"]))
        if kind == "cantor":
            return CantorSystem(int(data["depth"]), data.get("negative_image_mode", "fold"))
        if kind == "sft":
            return ShiftSystem(tuple(data["alphabet"]), tuple(data.get("forbidden", ())))
        if kind == "odometer":
            return OdometerSystem(int(data["depth"]))
        if kind == "slimit":
            return SLimitSystem(int(data["tail_depth"]))
    except KeyError as missing:
        raise ValueError(f"system JSON lacks the field {missing.args[0]!r}") from None
    raise ValueError(f"unknown system kind {kind!r}")
