"""The zoo of concrete dynamical systems behind one uniform contract.

Interval-type systems (piecewise-linear maps, the quadratic families, the
middle-thirds expanding map, the interval-plus-isolated-points space) use
exact rationals as points.  Symbolic systems (one-sided shifts of finite
type, the binary odometer) use finite words or eventually periodic words.

Every system answers which points belong to its space (``contains_point``),
where a point maps (``evaluate``), the metric (``distance``) and how a point
is written and read (``point_to_str``, ``point_from_str``).  The interval
systems also answer their space as an interval set (``space``), the closed
tube about a point (``tube``) and forward images.  The PL maps and the
middle-thirds map are affine on finitely many closed cells over a finite
union of intervals, and share one base (:class:`PiecewiseAffineSystem`) that
holds one integer cell table: the cell lookup, evaluation, forward images,
exact preimages, point preimages, affine cells and minimum slope modulus are
written once on it, and each class only builds its table (a cell per lap; a
cell per piece plus the fixed point 0).  PL maps, the quadratic family and
the tail system answer their critical points.  A solver that needs more than
every system answers checks the class once, at entry (:func:`require`).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterator, Optional, Sequence, Union

from .numerics import (
    ClosedInterval,
    IntPart,
    RationalIntervalSet,
    _reduced,
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
_UNIT_INTERVAL = RationalIntervalSet((ClosedInterval(ZERO, ONE),))
_SYMMETRIC_INTERVAL = RationalIntervalSet((ClosedInterval(-ONE, ONE),))


class DomainError(ValueError):
    """Point outside the system's space, a system class a solver does not support,
    or exact work past a stated limit."""


# Exact sets stop here: a tracing set of more parts (unless its space has more), or
# an iterate of more laps, is refused with one DomainError.  Every golden and
# benchmark set has at most 8 parts; tent(2)'s tracing sets about the constant orbit
# 1/2 at ε = 9/20 grow about 1.87× per orbit point, and tent(2)ⁿ has 2ⁿ laps.
PARTS_LIMIT = 1 << 16


def require(system_class: type, solver: str, supported) -> type:
    """A solver's one entry check: the first class in ``system_class``'s MRO
    that ``supported`` holds (a tuple of classes or a dict keyed by them), so
    a table may name a base of the contract; else one DomainError naming the
    concrete class."""
    for cls in system_class.__mro__:
        if cls in supported:
            return cls
    raise DomainError(f"{solver} does not support {system_class.__name__}")


class IntervalSystem:
    """Shared by the interval systems: rational points, membership in the
    space, the metric |x − y| and the closed tube about a point.

    The tracing loops run on the integer form of interval sets
    (``numerics.int_*``): each system's ``_int_*`` steps take and return that
    form, and its public set methods wrap it in a set as it is."""

    @cached_property
    def _int_space(self) -> tuple[IntPart, ...]:
        return self.space().int_parts

    def contains_point(self, x: Fraction) -> bool:
        return int_contains(self._int_space, x.numerator, x.denominator)

    def _int_tube(self, x: Fraction, radius: Fraction) -> list[IntPart]:
        return int_tube(self._int_space, x.numerator, x.denominator, radius.numerator, radius.denominator)

    def tube(self, x: Fraction, radius: Fraction) -> RationalIntervalSet:
        """B̄_r(x) ∩ space: every tracing tube and expansion ball is one."""
        return from_int_set(self._int_tube(x, radius))

    def distance(self, x: Fraction, y: Fraction) -> Fraction:
        if not isinstance(x, Fraction) or not isinstance(y, Fraction):
            raise DomainError("interval systems take rational points")
        return ZERO if x == y else abs(x - y)

    def point_to_str(self, x: Fraction) -> str:
        return rat_str(x)

    def point_from_str(self, text: str) -> Fraction:
        return rat(text)


# ---------------------------------------------------------------------------
# piecewise-affine maps: one integer cell table
# ---------------------------------------------------------------------------

Cells = tuple[tuple[tuple[IntPart, ...], int, int, int], ...]


class PiecewiseAffineSystem(IntervalSystem):
    """An interval system that is affine on each of finitely many closed cells.

    ``_int_cells`` is the one cell table: the cells in ascending position, each
    as (parts, a, b, q), a canonical integer interval set with f(x) = (a·x + b)/q
    on it, a ≠ 0 and q > 0.  Two neighbouring cells may share an end, where
    their maps agree; otherwise their hulls are disjoint, and the space is the
    union of the cells.  The cell lookup, evaluation, forward image, preimage,
    point preimages, affine cells and minimum slope modulus are written once on
    that table; a subclass only builds it.
    """

    _int_cells: Cells

    def cell_index(self, xn: int, xd: int) -> int:
        """Index of the rightmost cell whose left end is at most xn/xd (xd > 0),
        by bisection: the cell holding the point when one does, the right one
        at an end two cells share, and 0 left of every cell."""
        cells = self._int_cells
        lo, hi, idx = 1, len(cells) - 1, 0
        while lo <= hi:
            mid = (lo + hi) // 2
            left = cells[mid][0][0]
            if left[0] * xd <= xn * left[1]:
                idx = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return idx

    def _int_value(self, xn: int, xd: int) -> tuple[int, int]:
        """f(xn/xd) for xd > 0 as an unreduced integer pair; DomainError outside the space."""
        parts, a, b, q = self._int_cells[self.cell_index(xn, xd)]
        if not int_contains(parts, xn, xd):
            raise DomainError(f"{Fraction(xn, xd)} outside the space")
        return a * xn + b * xd, q * xd

    def evaluate(self, x: Fraction) -> Fraction:
        return Fraction(*self._int_value(x.numerator, x.denominator))

    def affine_cells(self) -> list[tuple[ClosedInterval, Fraction, Fraction]]:
        """Every component of every cell as (domain, slope, offset), ascending."""
        return [(part, Fraction(a, q), Fraction(b, q))
                for parts, a, b, q in self._int_cells for part in from_int_set(parts).parts]

    def min_slope_modulus(self) -> Fraction:
        """min |f′| over the cells of positive width: an isolated fixed point has no slope."""
        return min(Fraction(abs(a), q) for parts, a, _, q in self._int_cells
                   if any(ln * hd < hn * ld for ln, ld, hn, hd in parts))

    @cached_property
    def _int_cell_images(self) -> tuple[list[IntPart], ...]:
        """The image of each cell's hull, in table order."""
        return tuple(int_affine([(*parts[0][:2], *parts[-1][2:])], a, b, q) for parts, a, b, q in self._int_cells)

    def _int_forward(self, s: Sequence[IntPart]) -> list[IntPart]:
        """f(s) for s inside the space: each cell's share of s through its map, merged.  The
        space meets a cell's hull in that cell alone, so one walk over s and the ascending cells
        gives each share: the run of s's parts that start by the hull's right end, the first
        clipped at its left end and the last at its right end, a clipped last part staying
        current for the next cell; a cell that ends before the current part is skipped."""
        out, i, n = [], 0, len(s)
        for parts, a, b, q in self._int_cells:
            if i == n:
                break
            (cn, cd, _, _), (hn, hd) = parts[0], parts[-1][2:]
            j = i
            while j < n and s[j][0] * hd <= hn * s[j][1]:
                j += 1
            if j == i:
                continue
            share = list(s[i:j])
            ln, ld, en, ed = share[0]
            if ln * cd < cn * ld:
                share[0] = (cn, cd, en, ed)
            ln, ld, en, ed = share[-1]
            if en * hd > hn * ed:
                share[-1] = (ln, ld, hn, hd)
                j -= 1
            out += int_affine(share, a, b, q)
            i = j
        return int_normalize(out)

    def _int_preimage(self, target: Sequence[IntPart]) -> list[IntPart]:
        """f⁻¹(target): per cell, the target clipped to the image of the cell's
        hull, mapped through the inverse (q·y − b)/a and met with the cell; joined
        in cell order, merged only where a share starts on the last one's end."""
        out = []
        for (parts, a, b, q), image in zip(self._int_cells, self._int_cell_images):
            hit = int_intersect(target, image)
            if hit:
                share = int_intersect(int_affine(hit, q, -b, a), parts)
                if out and share and share[0][0] * out[-1][3] <= out[-1][2] * share[0][1]:
                    (ln, ld, en, ed), (_, _, hn, hd) = out.pop(), share[0]
                    share[0] = (ln, ld, hn, hd) if hn * ed > en * hd else (ln, ld, en, ed)
                out += share
        return out

    def _int_leftmost_preimage(self, yn: int, yd: int, within: Sequence[IntPart]) -> Optional[tuple[int, int]]:
        """The leftmost x in ``within`` with f(x) = yn/yd (yd > 0), as an unreduced
        pair, or None: the cells ascend, so the first cell whose preimage
        (q·y − b)/a lies in the cell and in ``within`` holds it."""
        for parts, a, b, q in self._int_cells:
            n, d = q * yn - b * yd, a * yd
            if d < 0:
                n, d = -n, -d
            if int_contains(parts, n, d) and int_contains(within, n, d):
                return n, d
        return None

    def forward_image(self, s: RationalIntervalSet) -> RationalIntervalSet:
        sp, t = self._int_space, s.int_parts
        if t and (t[0][0] * sp[0][1] < sp[0][0] * t[0][1] or t[-1][2] * sp[-1][3] > sp[-1][2] * t[-1][3]):
            raise DomainError(f"{s} not inside {self.space().hull()}")
        return from_int_set(self._int_forward(int_intersect(t, sp)))

    def preimage(self, target: RationalIntervalSet) -> RationalIntervalSet:
        return from_int_set(self._int_preimage(target.int_parts))

    def point_preimages(self, y: Fraction) -> list[Fraction]:
        """Every x with f(x) = y, ascending and each once: the parts of f⁻¹([y, y])."""
        return [Fraction(n, d) for n, d, _, _ in self._int_preimage([(y.numerator, y.denominator) * 2])]


# ---------------------------------------------------------------------------
# piecewise-linear interval maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearMap(PiecewiseAffineSystem):
    """Interval map on [0,1], affine between consecutive breakpoints.

    ``breakpoints`` is strictly increasing with first 0 and last 1; ``values``
    gives the map at each breakpoint.  Slopes must be nonzero so that every
    lap is a monotone branch.

    The cell table has one cell per lap, built once at construction and shared
    by every query; equality and hashing see only ``breakpoints`` and
    ``values``.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _int_cells: Cells = field(init=False, repr=False, compare=False)

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
        ibps = tuple((b.numerator, b.denominator) for b in bps)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "_int_cells", tuple(
            (((*l, *r),), *_int_affine_form(s, v0 - s * b0))
            for l, r, b0, v0, s in zip(ibps, ibps[1:], bps, vals, slopes)))

    # perfbench/layers.py traces these in the class's own namespace; a PL map's cells are its laps
    laps = PiecewiseAffineSystem.affine_cells
    evaluate = PiecewiseAffineSystem.evaluate
    forward_image = PiecewiseAffineSystem.forward_image
    preimage = PiecewiseAffineSystem.preimage
    point_preimages = PiecewiseAffineSystem.point_preimages

    def space(self) -> RationalIntervalSet:
        return _UNIT_INTERVAL

    def contains_point(self, x: Fraction) -> bool:
        return 0 <= x.numerator <= x.denominator

    def lipschitz(self) -> Fraction:
        return max(abs(s) for s in self.slopes)

    def critical_points(self) -> list[Fraction]:
        """Interior breakpoints where the slope changes sign."""
        return [b for b, s0, s1 in zip(self.breakpoints[1:], self.slopes, self.slopes[1:]) if s0 * s1 < 0]

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
    """Exact composition outer∘inner as a piecewise-linear map: inner's breakpoints and the
    preimages of outer's, less those where the laps on either side are collinear."""
    bps = sorted(set(inner.breakpoints).union(*map(inner.point_preimages, outer.breakpoints)))
    vals = [outer.evaluate(inner.evaluate(b)) for b in bps]
    slopes = [(v1 - v0) / (b1 - b0) for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])]
    keep = [0, *(i for i in range(1, len(bps) - 1) if slopes[i - 1] != slopes[i]), len(bps) - 1]
    return PiecewiseLinearMap(tuple(bps[i] for i in keep), tuple(vals[i] for i in keep))


@lru_cache(maxsize=32)
def iterate_pl(system: PiecewiseLinearMap, n: int) -> PiecewiseLinearMap:
    """fⁿ by n − 1 exact compositions, kept per (map, n); an iterate of more than
    PARTS_LIMIT laps is refused before it can be kept."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    out = system
    for k in range(2, n + 1):
        out = compose_pl(system, out)
        if len(out.slopes) > PARTS_LIMIT:
            raise DomainError(f"iterate f^{k} has {len(out.slopes)} laps, past the limit of {PARTS_LIMIT}")
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
    start_high = rng.random() < 0.5
    vals = (ONE if (i % 2 == 0) == start_high else ZERO for i in range(k + 1))
    return PiecewiseLinearMap((ZERO, *accumulate(widths[:-1]), ONE), tuple(vals))


# ---------------------------------------------------------------------------
# quadratic families
# ---------------------------------------------------------------------------


# exact iteration doubles a point's bit length at every step: one more step from a
# point of this many bits takes seconds, and each further step about three times that
QUADRATIC_MAX_BITS = 1 << 23


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

    @cached_property
    def _int_form(self) -> tuple[int, int, int, int, int]:
        """(a, b, d, cn, cd) with f(x) = α − β(x − c)² for α = a/d, β = b/d and c = cn/cd."""
        p = self.parameter
        if self.family == "logistic":  # (λ/4, λ, 1/2)
            return p.numerator, 4 * p.numerator, 4 * p.denominator, 1, 2
        return p.denominator, p.numerator, p.denominator, 0, 1  # (1, μ, 0)

    @cached_property
    def _form(self) -> tuple[Fraction, Fraction, Fraction]:
        """(α, β, c) of ``_int_form`` as Fractions."""
        a, b, d, cn, cd = self._int_form
        return Fraction(a, d), Fraction(b, d), Fraction(cn, cd)

    def evaluate(self, x: Fraction) -> Fraction:
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > QUADRATIC_MAX_BITS:
            raise ValueError(f"exact quadratic iteration is limited to points of {QUADRATIC_MAX_BITS} bits")
        if not self.contains_point(x):
            raise DomainError(f"{x} outside the domain")
        # a Fraction power is not re-normalised and every other operation has a small
        # operand, so no gcd of two orbit-sized integers is taken
        alpha, beta, c = self._form
        return alpha - beta * (x - c) ** 2

    def enclosures(self, x: Fraction, bits: int) -> Iterator[tuple[int, int]]:
        """Outward-rounded enclosures of x, f(x), f²(x), … as numerator pairs over 2^bits.

        With A ≤ B the magnitudes of the ends of (x − c)·2^bits (A = 0 when they straddle 0), the
        image is [⌊N_B/(d·2^bits)⌋, ⌈N_A/(d·2^bits)⌉] for N_m = a·4^bits − b·m².  With d = odd·2^k each
        floor is ⌊⌊N/2^(bits+k)⌋/odd⌋, and on one side of c B² = A² + (B − A)(B + A), whose second
        product is by the enclosure's width: one full squaring per step.  A start outside the space is refused."""
        if not self.contains_point(x):
            raise DomainError(f"{x} outside the domain")
        a, b, d, cn, cd = self._int_form
        k = (d & -d).bit_length() - 1
        odd, shift, one = d >> k, bits + k, a << 2 * bits
        mid = dyadic_bounds(cn, cd, bits)[0]  # c·2^bits, an integer for c in {0, 1/2}
        lo, hi = dyadic_bounds(x.numerator, x.denominator, bits)
        while True:
            yield lo, hi
            if lo > mid:
                small, big = lo - mid, hi - mid
            elif hi < mid:
                small, big = mid - hi, mid - lo
            else:  # straddles c: the image reaches up to α
                small, big = 0, max(mid - lo, hi - mid)
            small_sq = small * small
            big_sq = small_sq + (big - small) * (big + small)
            lo, neg_hi = (one - b * big_sq) >> shift, (b * small_sq - one) >> shift
            if odd > 1:  # odd is 1 for a dyadic μ
                lo, neg_hi = lo // odd, neg_hi // odd
            hi = -neg_hi

    def critical_point(self) -> Fraction:
        return self._form[2]

    def critical_points(self) -> list[Fraction]:
        return [self.critical_point()]

    def min_slope_modulus(self) -> Fraction:
        """|f′| vanishes at the critical point, which lies in the space."""
        return ZERO

    def derivative(self, x: Fraction) -> Fraction:
        _, beta, c = self._form
        return -2 * beta * (x - c)

    def second_derivative(self, x: Fraction) -> Fraction:
        return -2 * self._form[1]

    def third_derivative(self, x: Fraction) -> Fraction:
        return ZERO

    def preimage_outer(self, target: RationalIntervalSet, bits: int = 64) -> RationalIntervalSet:
        """Outer rational enclosure of the preimage (endpoints are square roots)."""
        return from_int_set(self._int_preimage_outer(target.int_parts, bits))

    def _int_preimage_outer(self, target: Sequence[IntPart], bits: int) -> list[IntPart]:
        # f(x) ∈ [l, h]  ⟺  (x − c)² ∈ [(α − h)/β, (α − l)/β], with α − l = (a·ld − ln·d)/(d·ld) and
        # β = b/d; the square roots are enclosed on the 2^−bits grid, every end over cd·2^bits
        a, b, d, cn, cd = self._int_form
        scale = cd << bits
        mid = cn << bits
        out = []
        for ln, ld, hn, hd in target:
            hi2 = a * ld - ln * d  # (α − l)/β = hi2/(ld·b)
            if hi2 < 0:
                continue
            rhi = _sqrt_bounds(hi2, ld * b, bits)[1] * cd
            rlo = _sqrt_bounds(max(a * hd - hn * d, 0), hd * b, bits)[0] * cd
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


def dyadic_bounds(n: int, d: int, bits: int) -> tuple[int, int]:
    """⌊2^bits·n/d⌋ and ⌈2^bits·n/d⌉ (d > 0): the numerators of the 2^−bits grid points either side of n/d."""
    q, rem = divmod(n << bits, d)
    return q, q + (rem > 0)


def dyadic_ball(x: Fraction, r: Fraction, bits: int) -> tuple[int, int]:
    """⌈2^bits·(x − r)⌉ and ⌊2^bits·(x + r)⌋ (r ≥ 0): the numerators of the first and last 2^−bits grid
    points in the closed ball [x − r, x + r], an integer being at least a real exactly when it is at least its
    ceiling.  With x·2^bits = q + ρ/d and r·2^bits = E + Eᵣ/e (0 ≤ ρ < d, 0 ≤ Eᵣ < e) they are
    q − E + [ρe > Eᵣd] and q + E + [ρe + Eᵣd ≥ de]: one division of an integer of x's size."""
    d, e = x.denominator, r.denominator
    q, rho = divmod(x.numerator << bits, d)
    big_e, rem_e = divmod(r.numerator << bits, e)
    return q - big_e + (rho * e > rem_e * d), q + big_e + (rho * e + rem_e * d >= d * e)


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


# the space has 2^(depth+1) − 1 components, built on integers: depth 16 builds
# 131,071 of them in about 0.1 s, and each further level doubles the time and the memory
CANTOR_MAX_DEPTH = 16


@lru_cache(maxsize=256)
def _piece_set(n: int, resolution: int) -> RationalIntervalSet:
    """Cantor piece n resolved to middle-thirds intervals of width 3^−resolution.

    With k = max(resolution − |n|, 0) and the unit 3^−(|n|+k), piece |n| is
    [2·3^k, 3^(k+1)]; its parts are [s, s + 1] for each s = 2·3^k plus a
    k-digit base-3 number with digits 0 and 2, built by splitting each start
    by 0 and 2·3^j for j = k−1, …, 0.  Each end is stored reduced, and piece
    −n is the mirror image of piece n."""
    if n == 0:
        raise ValueError("no piece with index 0")
    m, k = abs(n), max(resolution - abs(n), 0)
    unit, starts = 3 ** (m + k), [2 * 3**k]
    for j in range(k - 1, -1, -1):
        starts = [s + t for s in starts for t in (0, 2 * 3**j)]
    parts = _reduced((s, unit, s + 1, unit) for s in starts)
    return from_int_set(parts if n > 0 else [(-hn, hd, -ln, ld) for ln, ld, hn, hd in reversed(parts)])


@lru_cache(maxsize=64)
def _cantor_cells(depth: int, mode: str) -> Cells:
    """The middle-thirds map's cell table: one cell per piece, its set at
    resolution ``depth`` with the piece's increasing map, and the fixed point 0
    as the cell {0} with the identity, in ascending position (pieces −1, −2, …,
    −depth, then 0, then depth, …, 1)."""
    system = CantorSystem(depth, mode)
    return tuple((_piece_set(n, depth).int_parts, *_int_affine_form(*system.piece_affine(n))) if n
                 else (((0, 1, 0, 1),), 1, 0, 1)
                 for n in (*range(-1, -depth - 1, -1), 0, *range(depth, 0, -1)))


@lru_cache(maxsize=64)
def _cantor_space(depth: int) -> RationalIntervalSet:
    """The union of the cells: the fixed point 0 with every piece of index |n| ≤ depth."""
    # the cells ascend with gaps between them, and their sets are the same under both image modes
    return from_int_set([part for parts, *_ in _cantor_cells(depth, "fold") for part in parts])


@dataclass(frozen=True)
class CantorSystem(PiecewiseAffineSystem):
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
    ``depth``, and the cell table (one cell per piece, plus the fixed point 0
    as a cell of its own) on ``depth`` and the mode: each is built once per
    process, in a bounded cache that holds no system, and shared by every
    system and query that asks for it.
    """

    depth: int
    negative_image_mode: str = "fold"

    def __post_init__(self):
        _check_depth("depth", self.depth)
        if self.depth > CANTOR_MAX_DEPTH:
            raise ValueError(f"cantor depth is limited to {CANTOR_MAX_DEPTH}, got depth {self.depth}")
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

    def piece_affine(self, n: int) -> tuple[Fraction, Fraction]:
        """(slope, offset) of the orientation-preserving map from piece n onto
        its image, given by its left end and width: the half of the space on
        its side for |n| = 1, piece 1 for |n| = 2 or 3, and otherwise, with
        w = 3^−(|n|−1), [8w, 9w] for n > 0 and [6w, 7w] for n < 0 (in
        ``mirror`` mode reflected to [−7w, −6w])."""
        m = abs(n)
        if m == 1:
            lo, width = (ZERO if n > 0 else -ONE), ONE
        elif m <= 3:
            lo, width = Fraction(2, 3), Fraction(1, 3)
        else:
            width = Fraction(1, 3 ** (m - 1))
            lo = width * (8 if n > 0 else 6 if self.negative_image_mode == "fold" else -7)
        slope = width * 3**m
        return slope, lo - slope * self.piece_interval(n).lo

    def critical_points(self) -> list[Fraction]:
        """None: every piece map is increasing and the pieces are separated."""
        return []

    def piece_set(self, n: int, resolution: Optional[int] = None) -> RationalIntervalSet:
        """Piece n resolved to middle-thirds intervals of width 3^−resolution."""
        return _piece_set(n, self.depth if resolution is None else resolution)

    def space(self) -> RationalIntervalSet:
        return _cantor_space(self.depth)

    # map ------------------------------------------------------------------

    @property
    def _int_cells(self) -> Cells:
        return _cantor_cells(self.depth, self.negative_image_mode)

    # perfbench/layers.py traces these in the class's own namespace
    contains_point = IntervalSystem.contains_point
    forward_image = PiecewiseAffineSystem.forward_image
    preimage = PiecewiseAffineSystem.preimage

    def ball_image(self, radius: Fraction, closed: bool = True) -> RationalIntervalSet:
        """Exact image of the radius-ball about 0 intersected with the space.

        Open balls are supported only when they coincide with a closed
        intersection at the space's gap structure (true for the radii 2/3ⁿ
        used by the one-sidedness checks).
        """
        ball = self._int_tube(ZERO, radius)
        if not closed:
            rn, rd = radius.numerator, radius.denominator
            edge = [p for p in ball if p[0] * rd == -rn * p[1] or p[2] * rd == rn * p[3]]
            if any(ln * hd != hn * ld for ln, ld, hn, hd in edge):
                raise ValueError("open ball not exactly representable at this radius")
            ball = [p for p in ball if p not in edge]
        return from_int_set(self._int_forward(ball))

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
        """The first k symbols, one slice of preamble + cycle·⌈(k − |preamble|)/|cycle|⌉."""
        pre = self.preamble
        if k <= len(pre):
            return pre[:k]
        return (pre + self.cycle * -((len(pre) - k) // len(self.cycle)))[:k]

    def shifted(self) -> "SymbolicPoint":
        # canonical in, canonical out: dropping the first preamble symbol keeps the
        # last one distinct from the cycle's last, and a rotated primitive cycle is
        # primitive, so __post_init__ is not run again
        p = object.__new__(SymbolicPoint)
        pre, cyc = self.preamble, self.cycle
        object.__setattr__(p, "preamble", pre[1:])
        object.__setattr__(p, "cycle", cyc if pre else cyc[1:] + cyc[:1])
        return p

    def __str__(self):
        return "".join(self.preamble) + "(" + "".join(self.cycle) + ")"

    @staticmethod
    def parse(text: str) -> "SymbolicPoint":
        pre, _, cyc = text.partition("(")
        if not cyc.endswith(")") or ")" in pre or "(" in cyc or ")" in cyc[:-1]:
            raise ValueError(f"expected 'preamble(cycle)' with one '(' and one final ')', got {text!r}")
        return SymbolicPoint(tuple(pre), tuple(cyc[:-1]))


def common_prefix_length(a: SymbolicPoint, b: SymbolicPoint) -> Optional[int]:
    """Length of the longest common prefix; None when the points are equal.

    From position max(|u|, |u′|) on both points repeat with period lcm(|v|, |w|),
    so two that agree on that many more symbols are equal."""
    if a == b:
        return None
    n = max(len(a.preamble), len(b.preamble)) + math.lcm(len(a.cycle), len(b.cycle))
    return next(i for i, (s, t) in enumerate(zip(a.prefix(n), b.prefix(n))) if s != t)


# 2^−k for the common prefix lengths that short words reach, built once
_HALF_POWERS = tuple(Fraction(1, 1 << k) for k in range(64))


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
        if "(" in self.alphabet or ")" in self.alphabet:
            raise ValueError("'(' and ')' cannot be alphabet symbols: they delimit a point's cycle")

    @cached_property
    def max_forbidden_length(self) -> int:
        return max((len(w) for w in self.forbidden), default=0)

    @cached_property
    def _symbols(self) -> frozenset:
        return frozenset(self.alphabet)

    def word_admissible(self, word: Sequence[str]) -> bool:
        text = "".join(word)
        return not any(bad in text for bad in self.forbidden)

    def point_admissible(self, p: SymbolicPoint) -> bool:
        return self.word_admissible(p.prefix(len(p.preamble) + 2 * len(p.cycle) + self.max_forbidden_length))

    def contains_point(self, p: SymbolicPoint) -> bool:
        return self._symbols.issuperset(p.preamble + p.cycle) and self.point_admissible(p)

    def evaluate(self, p: SymbolicPoint) -> SymbolicPoint:
        if not self.contains_point(p):
            raise DomainError(f"{p} not admissible")
        return p.shifted()

    def distance(self, a: SymbolicPoint, b: SymbolicPoint) -> Fraction:
        if not isinstance(a, SymbolicPoint) or not isinstance(b, SymbolicPoint):
            raise DomainError("shift systems take symbolic points")
        k = common_prefix_length(a, b)
        if k is None:
            return ZERO
        return _HALF_POWERS[k] if k < len(_HALF_POWERS) else Fraction(1, 2**k)

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
        _check_depth("depth", self.depth)

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
        _check_depth("tail_depth", self.tail_depth)

    def tail_points(self) -> list[Fraction]:
        return [Fraction(-1, 2**n) for n in range(1, self.tail_depth + 1)]

    def space(self) -> RationalIntervalSet:
        return normalize([ClosedInterval(p, p) for p in self.tail_points()] + [ClosedInterval(ZERO, ONE)])

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


# the fields each kind reads besides "kind"
_SYSTEM_FIELDS = dict(pl=("breakpoints", "values"), quadratic=("family", "parameter"), cantor=("depth", "negative_image_mode"),
                      sft=("alphabet", "forbidden"), odometer=("depth",), slimit=("tail_depth",))


def system_from_json(data: Union[dict, str]) -> SystemSpec:
    """Parse a system document; a missing field, one of the wrong type or one
    that its kind does not read raises ValueError naming it."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"system JSON must be an object, not {type(data).__name__}")
    try:
        kind = data["kind"]
        if isinstance(kind, str) and kind in _SYSTEM_FIELDS:  # an unknown kind is refused below
            _known_fields("system", data, "kind", *_SYSTEM_FIELDS[kind])
        if kind == "pl":
            return PiecewiseLinearMap(tuple(rat(b) for b in _list_field("breakpoints", data["breakpoints"])),
                                      tuple(rat(v) for v in _list_field("values", data["values"])))
        if kind == "quadratic":
            return QuadraticFamilyMap(data["family"], rat(data["parameter"]))
        if kind == "cantor":
            return CantorSystem(data["depth"], data.get("negative_image_mode", "fold"))
        if kind == "sft":
            alphabet = data["alphabet"]  # a string is its own list of one-character symbols
            return ShiftSystem(tuple(alphabet if isinstance(alphabet, str) else _list_field("alphabet", alphabet, str)),
                               tuple(_list_field("forbidden", data.get("forbidden", []), str)))
        if kind == "odometer":
            return OdometerSystem(data["depth"])
        if kind == "slimit":
            return SLimitSystem(data["tail_depth"])
    except KeyError as missing:
        raise ValueError(f"system JSON lacks the field {missing.args[0]!r}") from None
    raise ValueError(f"unknown system kind {kind!r}")


def _known_fields(what: str, data: dict, *known: str) -> None:
    """Refuse a document field that its parser does not read, by name."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"{what} JSON has the unknown field {unknown[0]!r}")


def _check_depth(name: str, value) -> None:
    """A depth field is an integer >= 1: a float or a boolean is refused, not truncated."""
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _list_field(name: str, value, item: type = object) -> list:
    """The value of a list field, each entry of the given type."""
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        what = "a list" if item is object else f"a list of {item.__name__}"
        raise ValueError(f"system JSON field {name!r} must be {what}, not {value!r}")
    return value
