"""Certifiers and falsifiers for the expansion-property hierarchy.

Piecewise-affine systems get exact decisions: pair conditions reduce to the
sign of piecewise-affine functions over small polytopes, decided at the
vertices of a line arrangement with rational coordinates.  Smooth systems
get derivative-bound certification where a monotone hull argument applies,
sampling falsifiers otherwise, and honest ``undetermined`` when neither
side lands.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .numerics import (
    ClosedInterval,
    IntPart,
    RationalIntervalSet,
    from_int_set,
    int_affine,
    int_intersect,
    int_tube,
    interior_grid,
    intersect,
    normalize,
    rat,
    rat_str,
)
from .systems import (
    CantorSystem,
    DomainError,
    PiecewiseLinearMap,
    QuadraticFamilyMap,
    SLimitSystem,
    SystemSpec,
    require,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RegionSpec:
    """A subset of an interval system's space, plus a certified margin to the
    critical set."""

    carrier: RationalIntervalSet
    margin: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "margin", rat(self.margin))
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


def region_of(*pairs) -> RegionSpec:
    return RegionSpec(normalize([ClosedInterval(rat(a), rat(b)) for a, b in pairs]))


def whole_space_region(system) -> RegionSpec:
    """The whole space as a region; only interval systems have one."""
    require(type(system), "whole_space_region", (PiecewiseLinearMap, QuadraticFamilyMap, CantorSystem, SLimitSystem))
    return RegionSpec(system.space())


@dataclass(frozen=True)
class ExpansivityVerdict:
    property: str
    holds: str  # "certified" | "falsified" | "undetermined"
    constants: dict
    counterexample: Optional[dict] = None

    def __post_init__(self):
        if self.holds == "falsified" and self.counterexample is None:
            raise ValueError("a falsified verdict must carry a counterexample")

    @property
    def certified(self) -> bool:
        return self.holds == "certified"

    @property
    def falsified(self) -> bool:
        return self.holds == "falsified"

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "constants": {k: str(v) for k, v in sorted(self.constants.items())},
            "counterexample": self.counterexample,
        }


# ---------------------------------------------------------------------------
# exact pair analysis over affine cells
# ---------------------------------------------------------------------------

IntCell = tuple[IntPart, int, int, int]  # (part, a, b, q): f(x) = (a·x + b)/q on the part
Cell = tuple[ClosedInterval, Fraction, Fraction]  # the Fraction view: (domain, slope, offset)


def _affine_cells(system, carrier: RationalIntervalSet) -> list[IntCell]:
    """The entries of the system's cell table met with the carrier, ascending,
    each component with its cell's (a, b, q)."""
    return [(part, a, b, q) for parts, a, b, q in system._int_cells
            for part in int_intersect(parts, carrier.int_parts)]


def _out_of_reach(cx: IntCell, cy: IntCell, dn: int, dd: int) -> bool:
    """Whether cy starts at least δ = dn/dd right of where cx ends."""
    (_, _, hn, hd), (ln, ld, _, _) = cx[0], cy[0]
    return (ln * hd - hn * ld) * dd >= dn * ld * hd


def _vertex_candidates(cx: Cell, cy: Cell, delta: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the arrangement of the pair polytope with the image-equality line."""
    (ix, sx, ox), (iy, sy, oy) = cx, cy
    xs = [ix.lo, ix.hi]
    ys = [iy.lo, iy.hi]
    lines = []  # y = a*x + b
    lines.append((ONE, ZERO))            # y = x
    lines.append((ONE, delta))           # y = x + delta
    lines.append((sx / sy, (ox - oy) / sy))  # F(x) = G(y)
    pts = set()
    for x in xs:
        for y in ys:
            pts.add((x, y))
        for a, b in lines:
            pts.add((x, a * x + b))
    for y in ys:
        for a, b in lines:
            if a != 0:
                pts.add(((y - b) / a, y))
    for (a1, b1) in lines:
        for (a2, b2) in lines:
            if a1 != a2:
                x = (b2 - b1) / (a1 - a2)
                pts.add((x, a1 * x + b1))
    out = []
    for x, y in pts:
        if ix.lo <= x <= ix.hi and iy.lo <= y <= iy.hi and ZERO <= y - x <= delta:
            out.append((x, y))
    return out


def _pair_bound_clears(cx: IntCell, cy: IntCell, delta: Fraction, mu: Fraction) -> bool:
    """True when one of two exact bounds proves that no pair x ∈ cx, y ∈ cy
    with 0 < y−x < delta has |F(x)−G(y)| < μ(y−x):

    (a) both cells carry the same map F = G with |s| ≥ μ, so
        |F(x)−G(y)| = |s|(y−x) ≥ μ(y−x);
    (b) the images F(ix) and G(iy) lie at least μ·min(delta, iy.hi−ix.lo)
        apart, an upper bound on μ(y−x) over every such pair.
    Both are decided on the table's integers by cross-multiplication."""
    (ix, ax, bx, qx), (iy, ay, by, qy) = cx, cy
    mn, md = mu.numerator, mu.denominator
    if cx[1:] == cy[1:] and abs(ax) * md >= mn * qx:
        return True
    (fl, fld, fh, fhd), = int_affine([ix], ax, bx, qx)
    (gl, gld, gh, ghd), = int_affine([iy], ay, by, qy)
    # r = μ·min(delta, iy.hi − ix.lo)
    rn, rd = iy[2] * ix[1] - ix[0] * iy[3], iy[3] * ix[1]
    if delta.numerator * rd < rn * delta.denominator:
        rn, rd = delta.numerator, delta.denominator
    rn, rd = rn * mn, rd * md
    # gap = max(min G − max F, min F − max G) ≥ r, one side at a time
    return (gl * fhd - fh * gld) * rd >= rn * gld * fhd or (fl * ghd - gh * fld) * rd >= rn * fld * ghd


def _pair_violation(cx: IntCell, cy: IntCell, delta: Fraction, mu: Fraction) -> Optional[tuple]:
    """A pair x ∈ cx, y ∈ cy with 0 < y−x < delta and |F(x)−G(y)| < μ(y−x),
    or None when no such pair exists.

    Pairs out of reach (iy.lo − ix.hi ≥ delta) and pairs that
    :func:`_pair_bound_clears` proves clear are None at once; the rest are
    decided exactly at the vertices of the line arrangement, on Fractions."""
    if _out_of_reach(cx, cy, delta.numerator, delta.denominator) or _pair_bound_clears(cx, cy, delta, mu):
        return None
    cx, cy = [(ClosedInterval(Fraction(ln, ld), Fraction(hn, hd)), Fraction(a, q), Fraction(b, q))
              for (ln, ld, hn, hd), a, b, q in (cx, cy)]  # the Fraction view of both cells
    (ix, sx, ox), (iy, sy, oy) = cx, cy
    # prefer an exact image collision F(x) = G(y), i.e. y = a·x + b
    a, b = sx / sy, (ox - oy) / sy
    lo, hi = ix.lo, ix.hi
    y_bounds = sorted(((iy.lo - b) / a, (iy.hi - b) / a))
    lo, hi = max(lo, y_bounds[0]), min(hi, y_bounds[1])
    if a != 1:
        sep_bounds = sorted((-b / (a - 1), (delta - b) / (a - 1)))
        lo, hi = max(lo, sep_bounds[0]), min(hi, sep_bounds[1])
        feasible_line = lo < hi
    else:
        feasible_line = lo <= hi and ZERO < b < delta
    if feasible_line:
        x = (lo + hi) / 2
        y = a * x + b
        if ix.lo <= x <= ix.hi and iy.lo <= y <= iy.hi and ZERO < y - x < delta:
            return x, y
    best = None
    for (x, y) in _vertex_candidates(cx, cy, delta):
        h = abs((sx * x + ox) - (sy * y + oy)) - mu * (y - x)
        if h < 0 and (best is None or h < best[2]):
            best = (x, y, h)
    if best is None:
        return None
    x, y, _ = best
    # restore strictness 0 < y−x < delta by nudging into the cell interior
    if y - x == 0 or y - x == delta:
        shrink = Fraction(1, 2)
        for _ in range(64):
            found = None
            for (xx, yy) in (
                (x - _small_step(ix, shrink), y),
                (x + _small_step(ix, shrink), y),
                (x, y - _small_step(iy, shrink)),
                (x, y + _small_step(iy, shrink)),
            ):
                if ix.lo <= xx <= ix.hi and iy.lo <= yy <= iy.hi and ZERO < yy - xx < delta:
                    if abs((sx * xx + ox) - (sy * yy + oy)) - mu * (yy - xx) < 0:
                        found = (xx, yy)
                        break
            if found is not None:
                x, y = found
                break
            shrink /= 2
        else:
            return None
    return x, y


def _small_step(iv: ClosedInterval, shrink: Fraction) -> Fraction:
    w = iv.width if iv.width > 0 else ONE
    return w * shrink / 4


def _run_ends(cells: list[IntCell]) -> list[int]:
    """For each cell, the index just past the run of cells from it on that share its (a, b, q)."""
    ends = list(range(1, len(cells) + 1))
    for i in range(len(cells) - 2, -1, -1):
        if cells[i][1:] == cells[i + 1][1:]:
            ends[i] = ends[i + 1]
    return ends


def _reachable(cx: IntCell, cells: list[IntCell], ends: list[int], j: int, dn: int, dd: int, steep: bool):
    """The cells from index j on that start less than δ = dn/dd right of where
    cx ends, ascending (cells sorted by lo: the first out of reach ends them).
    When cx's slope modulus is at least μ (``steep``), each run of cells that
    share cx's map is skipped whole: bound (a) of :func:`_pair_bound_clears`
    clears every pair with it."""
    own_map = cx[1:]
    while j < len(cells):
        cy = cells[j]
        if _out_of_reach(cx, cy, dn, dd):
            return
        if steep and cy[1:] == own_map:
            j = ends[j]
        else:
            yield cy
            j += 1


def _expanding_violation(cells: list[IntCell], delta: Fraction, mu: Fraction) -> Optional[tuple]:
    """The first violating pair over cells in ascending order, as :func:`_affine_cells` gives them."""
    dn, dd, mn, md = delta.numerator, delta.denominator, mu.numerator, mu.denominator
    ends = _run_ends(cells)
    for i, cx in enumerate(cells):
        (ln, ld, hn, hd), a, _, q = cx
        steep = abs(a) * md >= mn * q
        # pairs inside one cell: the ratio is exactly the slope modulus
        if ln * hd < hn * ld and not steep:
            lo = Fraction(ln, ld)
            return lo, lo + min(delta / 2, Fraction(hn, hd) - lo)
        for cy in _reachable(cx, cells, ends, i + 1, dn, dd, steep):
            hit = _pair_violation(cx, cy, delta, mu) or _pair_violation(cy, cx, delta, mu)
            if hit is not None:
                return hit
    return None


def _falsified_pair_verdict(system, prop: str, x, y, mu, constants) -> ExpansivityVerdict:
    lhs = system.distance(system.evaluate(x), system.evaluate(y))
    dxy = system.distance(x, y)
    if lhs >= mu * dxy:
        raise AssertionError("counterexample failed direct re-validation")
    counter = {
        "x": rat_str(x),
        "y": rat_str(y),
        "d(x,y)": rat_str(dxy),
        "d(f(x),f(y))": rat_str(lhs),
        "inequality": f"{rat_str(lhs)} < {rat_str(mu)} * {rat_str(dxy)}",
    }
    return ExpansivityVerdict(prop, "falsified", constants, counter)


def check_expanding(system: SystemSpec, region: RegionSpec, delta, mu) -> ExpansivityVerdict:
    """Does d(f(x), f(y)) ≥ μ·d(x, y) hold for all region pairs closer than δ?"""
    return _pair_check(_EXPANDING_ROUTES, "check_expanding", system, region, delta, mu)


def check_star(system: SystemSpec, lambda_set: RegionSpec, delta, mu) -> ExpansivityVerdict:
    """One-sided variant: only x is confined to the region, y roams the space."""
    return _pair_check(_STAR_ROUTES, "check_star", system, lambda_set, delta, mu)


def _pair_check(routes: dict, solver: str, system, region: RegionSpec, delta, mu) -> ExpansivityVerdict:
    """The entry of the two pair checks: one class check, the constants, one route."""
    route = routes[require(type(system), solver, routes)]
    delta, mu = rat(delta), rat(mu)
    if mu <= 1 or delta <= 0:
        raise ValueError("need mu > 1 and delta > 0")
    return route(system, region.carrier, delta, mu, {"delta": rat_str(delta), "mu": rat_str(mu)})


def _affine_expanding(system, carrier: RationalIntervalSet, delta, mu, constants) -> ExpansivityVerdict:
    hit = _expanding_violation(_affine_cells(system, carrier), delta, mu)
    if hit is None:
        return ExpansivityVerdict("expanding", "certified", constants)
    return _falsified_pair_verdict(system, "expanding", hit[0], hit[1], mu, constants)


def _affine_star(system, carrier: RationalIntervalSet, delta, mu, constants) -> ExpansivityVerdict:
    cells_y = _affine_cells(system, system.space())
    ends = _run_ends(cells_y)
    dn, dd, mn, md = delta.numerator, delta.denominator, mu.numerator, mu.denominator
    for cx in _affine_cells(system, carrier):
        # the space cells within δ of cx: from the first that ends less than δ left of it
        first = bisect_left(cells_y, True, key=lambda cy: not _out_of_reach(cy, cx, dn, dd))
        for cy in _reachable(cx, cells_y, ends, first, dn, dd, abs(cx[1]) * md >= mn * cx[3]):
            hit = _pair_violation(cx, cy, delta, mu)
            if hit is None:
                swapped = _pair_violation(cy, cx, delta, mu)
                hit = None if swapped is None else (swapped[1], swapped[0])
            if hit is not None:
                # first coordinate is the region-constrained point
                return _falsified_pair_verdict(system, "star", hit[0], hit[1], mu, constants)
    return ExpansivityVerdict("star", "certified", constants)


def _quadratic_expanding(system, carrier: RationalIntervalSet, delta, mu, constants,
                         one_sided: bool) -> ExpansivityVerdict:
    prop = "star" if one_sided else "expanding"
    if carrier.is_empty:
        return ExpansivityVerdict(prop, "certified", constants)
    hull = carrier.hull()
    if one_sided:
        hull = ClosedInterval(hull.lo - delta, hull.hi + delta)
    c = system.critical_point()
    # derivative-bound certification on the monotone hull
    if not (hull.lo <= c <= hull.hi):
        dmin = min(abs(system.derivative(hull.lo)), abs(system.derivative(hull.hi)))
        if dmin >= mu:
            return ExpansivityVerdict(prop, "certified", {**constants, "minDerivative": rat_str(dmin)})
    # sampling falsifier around the critical point
    for k in range(1, 12):
        s = delta / 2**k
        x, y = c - s, c + s
        if carrier.contains(x) and (one_sided or carrier.contains(y)) and system.contains_point(y):
            lhs = abs(system.evaluate(x) - system.evaluate(y))
            if lhs < mu * (y - x):
                return _falsified_pair_verdict(system, prop, x, y, mu, constants)
    return ExpansivityVerdict(prop, "undetermined", constants)


_EXPANDING_ROUTES = {PiecewiseLinearMap: _affine_expanding, CantorSystem: _affine_expanding,
                     QuadraticFamilyMap: partial(_quadratic_expanding, one_sided=False)}
_STAR_ROUTES = {PiecewiseLinearMap: _affine_star, CantorSystem: _affine_star,
                QuadraticFamilyMap: partial(_quadratic_expanding, one_sided=True)}


# ---------------------------------------------------------------------------
# ball expanding
# ---------------------------------------------------------------------------


def _first_uncovered(ball: list[IntPart], image: list[IntPart]) -> Optional[Fraction]:
    """The first point of ``ball`` outside ``image``, both canonical integer
    sets, as a Fraction: a part's left end, the midpoint of the first gap in
    its cover or its right end; None when covered."""
    for part in ball:
        ln, ld, hn, hd = part
        cover = int_intersect([part], image)
        if not cover or cover[0][0] * ld > ln * cover[0][1]:
            return Fraction(ln, ld)
        if len(cover) > 1:  # canonical parts: a gap of positive length follows the first
            (_, _, cn, cd), (nn, nd, _, _) = cover[:2]
            return Fraction(cn * nd + nn * cd, 2 * cd * nd)
        if cover[0][2] * hd < hn * cover[0][3]:
            return Fraction(hn, hd)
    return None


def _pl_ball_expanding_once(system: PiecewiseLinearMap, carrier: RationalIntervalSet,
                            mu: Fraction, eps: Fraction) -> Optional[tuple]:
    """Exact certification over all carrier x for one ε: the first failing
    (x, missing point) in ascending x, or None.

    Between consecutive cuts (0, 1, every breakpoint b and b ± ε) every
    quantity involved (the window edges f(x∓ε), the window-interior
    breakpoint values, f(x) ± μ·ε) is a single affine function of x, so
    after refining each cell by all pairwise crossings of those affines the
    two covering inequalities are affine per piece and endpoint checks
    decide them completely.  All on the cell table's integers (breakpoints
    are the laps' left ends and 1): the cuts over one common denominator D,
    each candidate as (A, B, Q) with value (A·x + B)/Q, each crossing as
    n/d, compared by cross-multiplication; a Fraction is built only for a
    crossing inside its cell, for the ends of the segments the carrier keeps
    and for the missing point returned.
    """
    en, ed = eps.numerator, eps.denominator
    men, med = mu.numerator * en, mu.denominator * ed  # μ·ε
    cells = system._int_cells
    ends = [parts[0][:2] for parts, *_ in cells] + [(1, 1)]  # the breakpoints: each lap's left end, then 1
    vals = [system._int_value(n, d) for n, d in ends]
    D = math.lcm(*(d for _, d in ends)) * ed
    E = en * (D // ed)  # ε in units of 1/D
    bps = [n * (D // d) for n, d in ends]
    base = sorted({0, D}.union(v for b in bps for v in (b - E, b, b + E) if 0 <= v <= D))

    def violation_at(x: Fraction) -> Optional[Fraction]:
        # the window [x − ε, x + ε] ∩ [0,1] is an interval, so its image is one
        (ln, ld, hn, hd), = system._int_forward(system._int_tube(x, eps))
        fn, fd = system._int_value(x.numerator, x.denominator)
        sn, sd, rn = fn * med, fd * med, men * fd  # f(x) and μ·ε over one denominator
        top, bot = min(sn + rn, sd), max(sn - rn, 0)
        if top * hd > hn * sd:
            return Fraction(top, sd)
        if bot * ld < ln * sd:
            return Fraction(bot, sd)
        return None

    last = None  # the test points ascend, and two segments may share an end: test it once
    for lo, hi in zip(base, base[1:]):
        seg = int_intersect([(lo, D, hi, D)], carrier.int_parts)
        if not seg:
            continue
        # affine candidates valid throughout (lo, hi), read at its midpoint (lo + hi)/2D;
        # every b and b ± ε is a cut, so mid ± ε and mid lie strictly inside one lap
        mid, D2, E2 = lo + hi, 2 * D, 2 * E
        cands = []
        for sign, end in ((-1, vals[0]), (1, vals[-1])):  # the window edges f(x − ε), f(x + ε)
            if 0 < mid + sign * E2 < D2:
                _, a, b, q = cells[system.cell_index(mid + sign * E2, D2)]
                cands.append((a * ed, b * ed + sign * a * en, q * ed))
            else:
                cands.append((0, *end))
        cands += [(0, *v) for b, v in zip(bps, vals) if mid - E2 < 2 * b < mid + E2]
        _, a, b, q = cells[system.cell_index(mid, D2)]
        cands += [(a * med, b * med + q * men, q * med), (a * med, b * med - q * men, q * med), (0, 1, 1), (0, 0, 1)]

        crossings = set()
        for i, (a1, b1, q1) in enumerate(cands):
            for a2, b2, q2 in cands[i + 1:]:
                d = a1 * q2 - a2 * q1
                if d:
                    n = b2 * q1 - b1 * q2
                    if d < 0:
                        n, d = -n, -d
                    if lo * d < n * D < hi * d:
                        crossings.add(Fraction(n, d))
        for ln, ld, hn, hd in seg:
            plo, phi = Fraction(ln, ld), Fraction(hn, hd)
            for x in sorted({plo, phi}.union(x for x in crossings if plo < x < phi)):
                missing = None if x == last else violation_at(x)
                if missing is not None:
                    return x, missing
                last = x
    return None


def check_ball_expanding(system: SystemSpec, region: RegionSpec, mu, nu, eps_grid: Sequence) -> ExpansivityVerdict:
    """Does f(B̄_ε(x) ∩ X) cover B̄_{μsenε}(f(x)) ∩ X for region x and ε < ν?"""
    route = _BALL_ROUTES[require(type(system), "check_ball_expanding", _BALL_ROUTES)]
    mu, nu = rat(mu), rat(nu)
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    if nu <= 0:
        raise ValueError("nu must be positive")
    eps_list = [rat(e) for e in eps_grid]
    if not eps_list:
        raise ValueError("empty epsilon grid: there is nothing to certify")
    if any(not (0 < e < nu) for e in eps_list):
        raise ValueError("grid values must lie in (0, nu)")
    constants = {"mu": rat_str(mu), "nu": rat_str(nu), "gridSize": len(eps_list)}
    return route(system, region.carrier, mu, eps_list, constants)


def _pl_ball_expanding(system: PiecewiseLinearMap, carrier: RationalIntervalSet, mu: Fraction,
                       eps_list: list, constants: dict) -> ExpansivityVerdict:
    """Certified for every grid ε over the whole region by breakpoint case analysis."""
    for eps in eps_list:
        hit = _pl_ball_expanding_once(system, carrier, mu, eps)
        if hit is not None:
            x, missing = hit
            return _ball_falsified(system, x, eps, mu, missing, constants)
    return ExpansivityVerdict("ballExpanding", "certified", constants)


def _cantor_ball_expanding(system: CantorSystem, carrier: RationalIntervalSet, mu: Fraction,
                           eps_list: list, constants: dict) -> ExpansivityVerdict:
    """Probed at component endpoints plus up to 24 seeded left ends of
    space components: a probe failure is an exact falsification, while
    all-probes-pass yields ``undetermined`` unless the region is a finite
    point set.  Each probe runs on the cell table's integers: f(x), the
    image of its ε-window and the μ·ε ball about f(x) in the space; only a
    missing point becomes a Fraction."""
    space, parts, by_lo = system._int_space, carrier.parts, lambda p: Fraction(p[0], p[1])
    rng = random.Random(11)
    probes = [end for part in parts for end in (part.lo, part.hi)]
    # the space components whose left end lies in the carrier, ascending: per carrier part, by bisection
    pool = [p for part in parts
            for p in space[bisect_left(space, part.lo, key=by_lo):bisect_right(space, part.hi, key=by_lo)]]
    for _ in range(min(24, len(pool))):
        probes.append(by_lo(pool[rng.randrange(len(pool))]))
    radii = [(eps, mu * eps) for eps in eps_list]
    for x in sorted(set(probes)):
        fn, fd = system._int_value(x.numerator, x.denominator)
        for eps, r in radii:
            image = system._int_forward(system._int_tube(x, eps))
            missing = _first_uncovered(int_tube(system._int_space, fn, fd, r.numerator, r.denominator), image)
            if missing is not None:
                return _ball_falsified(system, x, eps, mu, missing, constants)
    finite = all(p.lo == p.hi for p in parts)
    holds = "certified" if finite else "undetermined"
    return ExpansivityVerdict("ballExpanding", holds, constants)


_BALL_ROUTES = {PiecewiseLinearMap: _pl_ball_expanding, CantorSystem: _cantor_ball_expanding}


def _ball_falsified(system, x, eps, mu, missing, constants) -> ExpansivityVerdict:
    fx = system.evaluate(x)
    space = system.space()
    image = from_int_set(system._int_forward(system._int_tube(x, eps)))
    if image.contains(missing) or abs(missing - fx) > mu * eps or not space.contains(missing):
        raise AssertionError("ball-expanding counterexample failed re-validation")
    counter = {
        "x": rat_str(x),
        "epsilon": rat_str(eps),
        "missingPoint": rat_str(missing),
        "statement": (
            f"point {rat_str(missing)} lies within {rat_str(mu * eps)} of f(x)={rat_str(fx)} "
            "but outside the image of the ε-ball"
        ),
    }
    return ExpansivityVerdict("ballExpanding", "falsified", constants, counter)


def _search_ball_constants(system: PiecewiseLinearMap, region: RegionSpec) -> Optional[tuple[Fraction, Fraction]]:
    """Small search for working (μ, ν) on a piecewise-linear map, each checked
    on the 10-point ε grid below ν; None when nothing on the menu certifies."""
    for mu in (system.min_slope_modulus(), Fraction(3, 2), Fraction(5, 4), Fraction(9, 8)):
        if mu <= 1:
            continue
        for nu in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            if check_ball_expanding(system, region, mu, nu, interior_grid(nu, 10)).certified:
                return mu, nu
    return None


# ---------------------------------------------------------------------------
# openness and local injectivity
# ---------------------------------------------------------------------------


def check_open_at(system: SystemSpec, x) -> ExpansivityVerdict:
    """Is the image of every small neighbourhood of x a relative
    neighbourhood of f(x)?  Exact for interval maps and the middle-thirds
    system."""
    route = _OPEN_AT_ROUTES[require(type(system), "check_open_at", _OPEN_AT_ROUTES)]
    return route(system, x := rat(x), {"x": rat_str(x)})


def _pl_open_at(system: PiecewiseLinearMap, x: Fraction, constants) -> ExpansivityVerdict:
    fx = system.evaluate(x)  # DomainError outside [0,1]
    # slopes of the laps just left and just right of x; at 0 and 1 both read the one lap there
    right = system.cell_index(x.numerator, x.denominator)
    ln, ld = system._int_cells[right][0][0][:2]
    left = right - 1 if right and x.numerator * ld == ln * x.denominator else right
    sl, sr = system.slopes[left], system.slopes[right]
    if x == 0:
        ok = (sr > 0 and fx == 0) or (sr < 0 and fx == 1)
    elif x == 1:
        ok = (sl > 0 and fx == 1) or (sl < 0 and fx == 0)
    elif sl * sr > 0:
        ok = True
    elif sl > 0 > sr:  # strict local max
        ok = fx == 1
    else:  # strict local min
        ok = fx == 0
    if ok:
        return ExpansivityVerdict("openOn", "certified", constants)
    side = "above" if (x not in (0, 1) and sl > 0) or (x == 0 and sr < 0) or (x == 1 and sl > 0) else "below"
    counter = {
        "x": rat_str(x),
        "f(x)": rat_str(fx),
        "statement": f"images of small neighbourhoods of x omit points just {side} f(x)",
    }
    return ExpansivityVerdict("openOn", "falsified", constants, counter)


def _quadratic_open_at(system: QuadraticFamilyMap, x: Fraction, constants) -> ExpansivityVerdict:
    c = system.critical_point()
    hull = system.space().hull()
    fx = system.evaluate(x)
    if x == c:
        ok = fx in (hull.lo, hull.hi)
    elif x in (hull.lo, hull.hi):
        # one-sided neighbourhood, monotone there
        going_up = system.derivative(x) > 0
        at_left = x == hull.lo
        ok = fx == (hull.lo if going_up == at_left else hull.hi)
    else:
        ok = True
    if ok:
        return ExpansivityVerdict("openOn", "certified", constants)
    counter = {"x": rat_str(x), "f(x)": rat_str(fx),
               "statement": "interior extremum value is not a space endpoint"}
    return ExpansivityVerdict("openOn", "falsified", constants, counter)


def _cantor_open_at(system: CantorSystem, x: Fraction, constants) -> ExpansivityVerdict:
    if not system.contains_point(x):
        raise DomainError(f"{x} outside the depth-{system.depth} space")
    if x != 0:
        return ExpansivityVerdict("openOn", "certified", constants)
    # at the fixed point the image of any ball misses space points near 0
    witness = Fraction(-2, 3**system.depth)
    radius = Fraction(2, 3 ** min(4, system.depth))
    image = system.ball_image(radius, closed=True)
    if image.contains(witness):
        raise AssertionError("expected missing point is covered; construction changed?")
    counter = {
        "x": "0/1",
        "radius": rat_str(radius),
        "missingPoint": rat_str(witness),
        "statement": "the image of the ball about 0 misses space points arbitrarily close to f(0)=0",
    }
    return ExpansivityVerdict("openOn", "falsified", constants, counter)


_OPEN_AT_ROUTES = {PiecewiseLinearMap: _pl_open_at, QuadraticFamilyMap: _quadratic_open_at,
                   CantorSystem: _cantor_open_at}


def check_locally_injective(system: SystemSpec, region: RegionSpec) -> ExpansivityVerdict:
    """Holds exactly when the region avoids the critical set."""
    require(type(system), "check_locally_injective", (PiecewiseLinearMap, QuadraticFamilyMap, SLimitSystem))
    constants = {"margin": rat_str(region.margin)}
    for c in system.critical_points():
        if region.carrier.contains(c):
            counter = {"criticalPoint": rat_str(c),
                       "statement": "the region contains a point with no injective neighbourhood"}
            return ExpansivityVerdict("locallyInjective", "falsified", constants, counter)
    return ExpansivityVerdict("locallyInjective", "certified", constants)


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------


def schwarzian(system: QuadraticFamilyMap, x) -> Fraction:
    """f‴/f′ − (3/2)(f″/f′)², exact from the family's closed-form derivatives."""
    x = rat(x)
    d1 = system.derivative(x)
    if d1 == 0:
        raise ValueError("Schwarzian undefined at a critical point")
    d2 = system.second_derivative(x)
    d3 = system.third_derivative(x)
    return d3 / d1 - Fraction(3, 2) * (d2 / d1) ** 2


# ---------------------------------------------------------------------------
# two-characterization crosscheck
# ---------------------------------------------------------------------------


def _inflate(carrier: RationalIntervalSet, margin: Fraction, space: RationalIntervalSet) -> RationalIntervalSet:
    if margin == 0:
        return carrier
    grown = normalize([ClosedInterval(p.lo - margin, p.hi + margin) for p in carrier.parts])
    return intersect(grown, space)


def crosscheck_expanding_characterizations(system: SystemSpec, region: RegionSpec) -> dict:
    """Runs the two equivalent characterizations on a margin-inflated region:
    (1) open + expanding, (2) ball expanding + locally one-to-one, and
    reports whether the verdicts are consistent (mismatches through
    ``undetermined`` are tolerated).  A PL map's ball side searches its
    constants over 10-point ε grids."""
    ball_side_of = _CROSSCHECK_BALL_SIDES[
        require(type(system), "crosscheck_expanding_characterizations", _CROSSCHECK_BALL_SIDES)]
    carrier = region.carrier
    margin = region.margin
    crit = system.critical_points()
    if margin == 0 and crit and not carrier.is_empty:
        margin = min(carrier.distance_to(c) for c in crit) / 2
    inflated = RegionSpec(_inflate(carrier, margin, system.space()), ZERO)

    probes = [x for part in inflated.carrier.parts for x in (part.lo, part.hi, (part.lo + part.hi) / 2)]
    open_verdicts = [check_open_at(system, p) for p in sorted(set(probes))]
    if any(v.falsified for v in open_verdicts):
        open_side = "falsified"
    elif all(v.certified for v in open_verdicts):
        open_side = "certified"
    else:
        open_side = "undetermined"

    mu = system.min_slope_modulus()
    if mu <= 1:
        expanding_side = "undetermined"
    else:
        delta = margin if margin > 0 else Fraction(1, 9)
        expanding_side = check_expanding(system, inflated, delta, mu).holds

    ball_side = ball_side_of(system, inflated)
    inj_side = "falsified" if any(inflated.carrier.contains(c) for c in crit) else "certified"

    side1 = _conjoin(open_side, expanding_side)
    side2 = _conjoin(ball_side, inj_side)
    consistent = not (
        (side1 == "certified" and side2 == "falsified")
        or (side1 == "falsified" and side2 == "certified")
    )
    return {
        "open": open_side,
        "expanding": expanding_side,
        "ballExpanding": ball_side,
        "locallyInjective": inj_side,
        "side1": side1,
        "side2": side2,
        "consistent": consistent,
    }


def _pl_ball_side(system: PiecewiseLinearMap, region: RegionSpec) -> str:
    return "undetermined" if _search_ball_constants(system, region) is None else "certified"


def _cantor_ball_side(system: CantorSystem, region: RegionSpec) -> str:
    if system.depth < 4:  # the ε grid 3^-4 .. 3^-min(6, depth) would be empty
        return "undetermined"
    ball_grid = [Fraction(1, 3**k) for k in range(4, min(7, system.depth + 1))]
    return check_ball_expanding(system, region, Fraction(3), Fraction(1, 27), ball_grid).holds


# the ball side of the crosscheck; the smooth family has no ball certifier
_CROSSCHECK_BALL_SIDES = {PiecewiseLinearMap: _pl_ball_side, CantorSystem: _cantor_ball_side,
                          QuadraticFamilyMap: lambda system, region: "undetermined"}


def _conjoin(a: str, b: str) -> str:
    if "falsified" in (a, b):
        return "falsified"
    if a == b == "certified":
        return "certified"
    return "undetermined"
