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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .numerics import (
    ClosedInterval,
    IntPart,
    RationalIntervalSet,
    _INT_LO,
    _int_reaching,
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
    PiecewiseAffineSystem,
    PiecewiseLinearMap,
    QuadraticFamilyMap,
    SLimitSystem,
    SystemSpec,
    require,
)

ZERO = Fraction(0)


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


def _carrier(system, region: Optional[RegionSpec]) -> RationalIntervalSet:
    """The region's carrier, the whole space for None, refused with one DomainError naming its first
    part outside the space: every expansion notion is of a map on a subset of its space, and only this
    decides it.  Each region check calls it after its class check."""
    space = system.space()
    if region is None:
        return space
    carrier = region.carrier
    if not carrier.subset_of(space):
        part = next(p for p in carrier.parts if not RationalIntervalSet((p,)).subset_of(space))
        raise DomainError(f"region part [{rat_str(part.lo)}, {rat_str(part.hi)}] is not in the space")
    return carrier


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


def _affine_cells(system, carrier: RationalIntervalSet) -> list[IntCell]:
    """The entries of the system's cell table met with the carrier, ascending,
    each component with its cell's (a, b, q)."""
    return [(part, a, b, q) for parts, a, b, q in system._int_cells
            for part in int_intersect(parts, carrier.int_parts)]


def _out_of_reach(cx: IntCell, cy: IntCell, dn: int, dd: int) -> bool:
    """Whether cy starts at least δ = dn/dd right of where cx ends."""
    (_, _, hn, hd), (ln, ld, _, _) = cx[0], cy[0]
    return (ln * hd - hn * ld) * dd >= dn * ld * hd


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
    decided on the table's integers.  h = |F(x)−G(y)| − μ(y−x) is convex and
    affine on each side of the collision line F(x) = G(y), so its least value
    over the closed polytope P (the box ix × iy met with 0 ≤ y−x ≤ delta) is
    taken at a crossing of two of seven lines A·x + B·y = C: the four cell
    sides, y = x, y = x + delta and the collision line.  Each crossing is an
    integer triple (xn, yn, d) with d > 0 for the point (xn/d, yn/d), kept when
    it lies in P.

    The point: first the middle of the collision segment (P met with the
    collision line, where h = −μ(y−x)), when it has two ends, or one when the
    line is parallel to y = x, and the middle lies strictly inside the strip;
    otherwise the crossing of least h, compared as h·md·qx·qy·d by
    cross-multiplication, a tie going to the first crossing in the fixed order
    of the lines (the Fraction engine kept in ``tests/reference.py`` broke ties
    in its set's hash order and nudged along the axes, so its points may differ
    there).  h ≥ 0 wherever y = x, so a best crossing v with h(v) < 0 has
    y−x > 0, and it lies on the strip's edge only where y−x = delta.  There it
    moves to v + t·(c − v) toward the box corner c = (ix.hi, iy.lo), where y−x
    is least and, the pair being in reach, less than delta: t = 1 if h(c) < 0,
    and otherwise t = h(v)/(2(h(v) − h(c))) in (0, 1/2], where convexity gives
    h ≤ (1−t)·h(v) + t·h(c) = h(v)/2 < 0.  y−x < delta for every t > 0, and
    y−x > 0 wherever h < 0.  Only the pair returned becomes Fractions."""
    dn, dd = delta.numerator, delta.denominator
    if _out_of_reach(cx, cy, dn, dd) or _pair_bound_clears(cx, cy, delta, mu):
        return None
    ((ln, ld, hn, hd), ax, bx, qx), ((yln, yld, yhn, yhd), ay, by, qy) = cx, cy
    A, B, C = ax * qy, -ay * qx, by * qx - bx * qy  # the collision line qx·qy·(F(x) − G(y)) = 0
    md, mq = mu.denominator, mu.numerator * qx * qy

    def h(xn, yn, d):  # h·md·qx·qy·d at (xn/d, yn/d)
        return md * abs(A * xn + B * yn - C * d) - mq * (yn - xn)

    lines = ((ld, 0, ln), (hd, 0, hn), (0, yld, yln), (0, yhd, yhn), (-1, 1, 0), (-dd, dd, dn), (A, B, C))
    vertices = []
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            d = a1 * b2 - a2 * b1
            if d:
                xn, yn = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
                if d < 0:
                    xn, yn, d = -xn, -yn, -d
                if (ln * d <= xn * ld and xn * hd <= hn * d and yln * d <= yn * yld and yn * yhd <= yhn * d
                        and 0 <= (yn - xn) * dd <= dn * d):
                    vertices.append((xn, yn, d))
    # a crossing of the collision line inside P is an end of its segment there
    ends = [v for v in vertices if A * v[0] + B * v[1] == C * v[2]]
    if ends:
        x1, y1, d1 = ends[0]
        x2, y2, d2 = next((v for v in ends if v[0] * d1 != x1 * v[2] or v[1] * d1 != y1 * v[2]), ends[0])
        if A + B == 0 or (x2, y2, d2) != ends[0]:  # parallel to y = x, or two distinct ends
            xn, yn, d = x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, 2 * d1 * d2
            if 0 < (yn - xn) * dd < dn * d:
                return Fraction(xn, d), Fraction(yn, d)
    best = None
    for v in vertices:
        hv = h(*v)
        if hv < 0 and (best is None or hv * best[3] < best[0] * v[2]):
            best = (hv, *v)
    if best is None:
        return None
    hv, xn, yn, d = best
    if (yn - xn) * dd == dn * d:  # on the strip's edge: step toward the corner (ix.hi, iy.lo)
        cxn, cyn, cd = hn * yld, yln * hd, hd * yld
        hc = h(cxn, cyn, cd)
        if hc < 0:
            xn, yn, d = cxn, cyn, cd
        else:
            tn, td = hv * cd, 2 * (hv * cd - hc * d)  # t = tn/td
            xn, yn, d = (xn * cd * td + tn * (cxn * d - xn * cd), yn * cd * td + tn * (cyn * d - yn * cd),
                         d * cd * td)
    return Fraction(xn, d), Fraction(yn, d)


def _run_ends(cells: list[IntCell]) -> list[int]:
    """For each cell, the index just past the run of cells from it on that share its (a, b, q)."""
    ends = list(range(1, len(cells) + 1))
    for i in range(len(cells) - 2, -1, -1):
        if cells[i][1:] == cells[i + 1][1:]:
            ends[i] = ends[i + 1]
    return ends


def _reachable(cx: IntCell, cells: list[IntCell], ends: list[int], j: int, delta: Fraction, mu: Fraction, steep: bool):
    """The cells from index j on that start less than δ right of where cx ends, ascending (the first out of reach
    ends them), less each run of one map that :func:`_pair_bound_clears` clears whole: by (a) when it has cx's map and
    cx is ``steep``, or, for two cells or more, by (b) on cx and the run's hull in the order of their positions (G(hull)
    covers each member's image; min(δ, iy.hi − ix.lo) is at least each member's); the others one cell at a time."""
    (ln, ld, hn, hd), dn, dd = cx[0], delta.numerator, delta.denominator
    walk = j  # the cells before this index are in a run walked cell by cell
    while j < len(cells) and not _out_of_reach(cx, cells[j], dn, dd):
        cy, end = cells[j], ends[j]
        if j >= walk:
            rln, rld, rhn, rhd = part = cy[0][:2] + cells[end - 1][0][2:]
            if steep and cy[1:] == cx[1:] or end - j > 1 and (
                    hn * rld <= rln * hd and _pair_bound_clears(cx, (part, *cy[1:]), delta, mu)
                    or rhn * ld <= ln * rhd and _pair_bound_clears((part, *cy[1:]), cx, delta, mu)):
                j = end
                continue
            walk = end
        yield cy
        j += 1


def _expanding_violation(cells: list[IntCell], delta: Fraction, mu: Fraction) -> Optional[tuple]:
    """The first violating pair over cells in ascending order, as :func:`_affine_cells` gives them:
    each cy starts where cx ends or later, so only the order (cx, cy) can hold a pair with y − x > 0."""
    mn, md = mu.numerator, mu.denominator
    ends = _run_ends(cells)
    for i, cx in enumerate(cells):
        (ln, ld, hn, hd), a, _, q = cx
        steep = abs(a) * md >= mn * q
        # pairs inside one cell: the ratio is exactly the slope modulus
        if ln * hd < hn * ld and not steep:
            lo = Fraction(ln, ld)
            return lo, lo + min(delta / 2, Fraction(hn, hd) - lo)
        for cy in _reachable(cx, cells, ends, i + 1, delta, mu, steep):
            hit = _pair_violation(cx, cy, delta, mu)
            if hit is not None:
                return hit
    return None


def _falsified_pair_verdict(system, prop: str, x, y, delta, mu, constants) -> ExpansivityVerdict:
    lhs = system.distance(system.evaluate(x), system.evaluate(y))
    dxy = system.distance(x, y)
    if not 0 < dxy < delta or lhs >= mu * dxy:
        raise AssertionError("counterexample failed direct re-validation")
    counter = {
        "x": rat_str(x),
        "y": rat_str(y),
        "d(x,y)": rat_str(dxy),
        "d(f(x),f(y))": rat_str(lhs),
        "inequality": f"{rat_str(lhs)} < {rat_str(mu)} * {rat_str(dxy)}",
    }
    return ExpansivityVerdict(prop, "falsified", constants, counter)


def check_expanding(system: SystemSpec, region: Optional[RegionSpec], delta, mu) -> ExpansivityVerdict:
    """Does d(f(x), f(y)) ≥ μ·d(x, y) hold for all region pairs closer than δ?
    Every region check reads None as the whole space."""
    return _pair_check(_EXPANDING_ROUTES, "check_expanding", system, region, delta, mu)


def check_star(system: SystemSpec, lambda_set: Optional[RegionSpec], delta, mu) -> ExpansivityVerdict:
    """One-sided variant: only x is confined to the region, y roams the space."""
    return _pair_check(_STAR_ROUTES, "check_star", system, lambda_set, delta, mu)


def _pair_check(routes: dict, solver: str, system, region: Optional[RegionSpec], delta, mu) -> ExpansivityVerdict:
    """The entry of the two pair checks: one class check, the constants, the region gate, one route."""
    route = routes[require(type(system), solver, routes)]
    delta, mu = rat(delta), rat(mu)
    if mu <= 1 or delta <= 0:
        raise ValueError("need mu > 1 and delta > 0")
    return route(system, _carrier(system, region), delta, mu, {"delta": rat_str(delta), "mu": rat_str(mu)})


def _affine_expanding(system, carrier: RationalIntervalSet, delta, mu, constants) -> ExpansivityVerdict:
    hit = _expanding_violation(_affine_cells(system, carrier), delta, mu)
    if hit is None:
        return ExpansivityVerdict("expanding", "certified", constants)
    return _falsified_pair_verdict(system, "expanding", hit[0], hit[1], delta, mu, constants)


def _affine_star(system, carrier: RationalIntervalSet, delta, mu, constants) -> ExpansivityVerdict:
    cells_y = _affine_cells(system, system.space())
    ends = _run_ends(cells_y)
    dn, dd, mn, md = delta.numerator, delta.denominator, mu.numerator, mu.denominator
    for cx in _affine_cells(system, carrier):
        # the space cells within δ of cx: from the first that ends less than δ left of it
        first = bisect_left(cells_y, True, key=lambda cy: not _out_of_reach(cy, cx, dn, dd))
        for cy in _reachable(cx, cells_y, ends, first, delta, mu, abs(cx[1]) * md >= mn * cx[3]):
            hit = _pair_violation(cx, cy, delta, mu)
            if hit is None:
                swapped = _pair_violation(cy, cx, delta, mu)
                hit = None if swapped is None else (swapped[1], swapped[0])
            if hit is not None:
                # first coordinate is the region-constrained point
                return _falsified_pair_verdict(system, "star", hit[0], hit[1], delta, mu, constants)
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
    # sampling falsifier around the critical point: pairs δ/2^k apart, strictly closer than δ
    for k in range(1, 12):
        s = delta / 2 ** (k + 1)
        x, y = c - s, c + s
        if carrier.contains(x) and (one_sided or carrier.contains(y)) and system.contains_point(y):
            lhs = abs(system.evaluate(x) - system.evaluate(y))
            if lhs < mu * (y - x):
                return _falsified_pair_verdict(system, prop, x, y, delta, mu, constants)
    return ExpansivityVerdict(prop, "undetermined", constants)


_EXPANDING_ROUTES = {PiecewiseAffineSystem: _affine_expanding, QuadraticFamilyMap: partial(_quadratic_expanding, one_sided=False)}
_STAR_ROUTES = {PiecewiseAffineSystem: _affine_star, QuadraticFamilyMap: partial(_quadratic_expanding, one_sided=True)}


# ---------------------------------------------------------------------------
# ball expanding
# ---------------------------------------------------------------------------


def _first_uncovered(ball: list[IntPart], image: list[IntPart]) -> Optional[Fraction]:
    """The first point of ``ball`` outside ``image``, both canonical integer sets, as a Fraction: a part's left
    end, the midpoint of the first gap in its cover or its right end; None when covered.  One walk over both:
    each part is met from the first image part that reaches its left end, bisected for from the last one's on."""
    j = 0
    for ln, ld, hn, hd in ball:
        j = _int_reaching(image, j, len(image), ln, ld)
        if j == len(image) or image[j][0] * ld > ln * image[j][1]:
            return Fraction(ln, ld)
        _, _, cn, cd = image[j]
        if cn * hd < hn * cd:  # image[j] ends inside the part: a gap follows, to the next image part or past hn
            nn, nd = image[j + 1][:2] if j + 1 < len(image) else (hn + hd, hd)
            return Fraction(cn * nd + nn * cd, 2 * cd * nd) if nn * hd <= hn * nd else Fraction(hn, hd)
    return None


def _pl_ball_table(system: PiecewiseLinearMap, carrier: RationalIntervalSet) -> tuple:
    """What :func:`_pl_ball_step` reads for every ε, built once per check: the system, its breakpoints
    (each lap's left end, then 1) over the lcm L of their denominators, their values, L and the carrier."""
    ends = [parts[0][:2] for parts, *_ in system._int_cells] + [(1, 1)]
    L = math.lcm(*(d for _, d in ends))
    return system, [n * (L // d) for n, d in ends], [system._int_value(n, d) for n, d in ends], L, carrier.int_parts


def _int_meets(rows: list, ln: int, ld: int, hn: int, hd: int) -> bool:
    """Does some x in [ln/ld, hn/hd] have α·x + β > 0 (≥ 0 where closed) for every (α, β, closed) in ``rows``?
    One pass that tightens the part's bounds by each half-line, by cross-multiplication, keeping whether each is open."""
    lo_open = hi_open = False
    for a, b, closed in rows:
        if a > 0:  # x > −b/a
            c = -b * ld - ln * a
            if c > 0 or c == 0 and not closed:
                ln, ld, lo_open = -b, a, not closed
        elif a < 0:  # x < b/−a
            c = hn * -a - b * hd
            if c > 0 or c == 0 and not closed:
                hn, hd, hi_open = b, -a, not closed
        elif b < 0 or b == 0 and not closed:
            return False
    gap = hn * ld - ln * hd
    return gap > 0 or gap == 0 and not (lo_open or hi_open)


def _pl_window(table: tuple, mid: int, D2: int, E2: int, ed: int) -> tuple[list, tuple]:
    """The window values on the segment about mid/D2 at ε = E2/D2 (D2 = 2·L·ed), each (A·x + S·ε + C)/Q as (A, S, C, Q):
    f(x ∓ ε), or f(0) and f(1) where the window is clipped, then the breakpoint values inside; and f's lap (a, b, q) at x."""
    system, bps, vals, _, _ = table
    cells = system._int_cells
    window = []
    for sign, end in ((-1, vals[0]), (1, vals[-1])):
        if 0 < mid + sign * E2 < D2:
            _, a, b, q = cells[system.cell_index(mid + sign * E2, D2)]
            window.append((a, sign * a, b, q))
        else:
            window.append((0, 0, *end))
    window += [(0, 0, *v) for b, v in zip(bps, vals) if mid - E2 < 2 * b * ed < mid + E2]
    return window, cells[system.cell_index(mid, D2)][1:]


def _pl_ball_step(table: tuple, mu: Fraction, eps: Fraction) -> Optional[tuple]:
    """Exact certification over all carrier x for one ε: the first failing
    (x, missing point) in ascending x, or None.

    Between consecutive cuts (0, 1, every breakpoint b and b ± ε) the window
    edges f(x∓ε), the window-interior breakpoint values and f(x) ± μ·ε are
    each affine in x, and a continuous map sends the window onto the hull of
    its values.  So each covering test fails exactly where a few affine
    margins are all positive: a segment whose carrier parts meet neither
    failing set (:func:`_int_meets`, every row open) is skipped.  Otherwise
    the least margin is concave with its breakpoints at pairwise crossings
    of the affines, so a failing set that meets a part holds a test point:
    a part end or a crossing.  All on the cell table's integers: the cuts over D = L·ε's
    denominator, each candidate as (A, B, Q) with value (A·x + B)/Q, each
    test point as n/d with d > 0; only the pair returned becomes Fractions.
    """
    _, bps, _, L, carrier_parts = table
    en, ed = eps.numerator, eps.denominator
    men, med = mu.numerator * en, mu.denominator * ed  # μ·ε
    D, E = L * ed, en * L  # ε in units of 1/D
    base = sorted({0, D}.union(v for b in bps for v in (b * ed - E, b * ed, b * ed + E) if 0 <= v <= D))

    pn, pd = -1, 1  # the test points ascend, and two segments may share an end: test it once
    for lo, hi in zip(base, base[1:]):
        seg = int_intersect([(lo, D, hi, D)], carrier_parts)
        if not seg:
            continue
        # affine candidates valid throughout (lo, hi), read at its midpoint (lo + hi)/2D;
        # every b and b ± ε is a cut, so mid ± ε and mid lie strictly inside one lap
        window, (a, b, q) = _pl_window(table, lo + hi, 2 * D, 2 * E, ed)
        window = [(A * ed, C * ed + S * en, Q * ed) for A, S, C, Q in window]
        ta, tb, bb, tq = a * med, b * med + q * men, b * med - q * men, q * med  # f(x) ± μ·ε
        # test 1 fails where min(f(x) + μ·ε, 1) is above every window value, test 2 where max(f(x) − μ·ε, 0) is below
        up = [r for A, B, Q in window for r in ((ta * Q - A * tq, tb * Q - B * tq, False), (-A, Q - B, False))]
        down = [r for A, B, Q in window for r in ((A * tq - ta * Q, B * tq - bb * Q, False), (A, B, False))]
        if not any(_int_meets(up, *p) or _int_meets(down, *p) for p in seg):
            continue
        cands = window + [(ta, tb, tq), (ta, bb, tq), (0, 1, 1), (0, 0, 1)]

        crossings = []
        for i, (a1, b1, q1) in enumerate(cands):
            for a2, b2, q2 in cands[i + 1:]:
                d = a1 * q2 - a2 * q1
                if d:
                    n = b2 * q1 - b1 * q2
                    if d < 0:
                        n, d = -n, -d
                    if lo * d < n * D < hi * d:
                        crossings.append((n, d))
        crossings.sort(key=_INT_LO)
        for pln, pld, phn, phd in seg:
            inner = [(n, d) for n, d in crossings if pln * d < n * pld and n * phd < phn * d]
            for xn, xd in [(pln, pld), *inner, (phn, phd)]:
                if xn * pd != pn * xd:
                    pn, pd = xn, xd
                    # f(x) ± μ·ε clipped to [0, 1], over tq·xd; a window value over Q·xd
                    top, bot, sd = min(ta * xn + tb * xd, tq * xd), max(ta * xn + bb * xd, 0), tq * xd
                    if all(top * Q > (A * xn + B * xd) * tq for A, B, Q in window):
                        return Fraction(xn, xd), Fraction(top, sd)
                    if all(bot * Q < (A * xn + B * xd) * tq for A, B, Q in window):
                        return Fraction(xn, xd), Fraction(bot, sd)
    return None


def _pl_ball_run_clear(table: tuple, mu: Fraction, lo: tuple, hi: tuple) -> bool:
    """Does no carrier x fail a covering test at any ε in [lo, hi] (integer pairs), a range strictly between
    two critical radii?  There the cut order is fixed, so each segment's laps and window, read at lo, hold
    throughout, and every margin of :func:`_pl_ball_step` is affine in (x, ε): per segment, carrier part and
    test, the failing set is a closed face (lo ≤ ε ≤ hi, the segment's cuts, the part) cut by strict rows
    α·x + β·ε + γ > 0.  Eliminating x (Fourier–Motzkin: each lower bound below each upper one, strictly if
    either is strict) leaves half-lines in ε for :func:`_int_meets`.  At each ε the face's slice is the
    step's own failing set, scaled by positive factors, so a cleared run holds no failing grid ε."""
    _, bps, _, L, carrier_parts = table
    (en, ed), (hn, hd), (mn, md) = lo, hi, (mu.numerator, mu.denominator)
    D, E = L * ed, en * L
    cuts = sorted((b * ed + s * E, b, s) for b in bps for s in (-1, 0, 1) if 0 <= b * ed + s * E <= D)
    for (cl, bl, sl), (cr, br, sr) in zip(cuts, cuts[1:]):
        # the parts the segment sweeps: its left cut b + s·ε is least at hi if s < 0, its right one greatest if s > 0
        (xn, xd), (yn, yd) = hi if sl < 0 else lo, hi if sr > 0 else lo
        parts = int_intersect([(bl * xd + sl * xn * L, L * xd, br * yd + sr * yn * L, L * yd)], carrier_parts)
        if not parts:
            continue
        window, (a, b, q) = _pl_window(table, cl + cr, 2 * D, 2 * E, ed)
        ta, tm, tb, tq = a * md, q * mn, b * md, q * md  # f(x) ± μ·ε = (ta·x ± tm·ε + tb)/tq
        up = [r for A, S, C, Q in window
              for r in ((ta * Q - A * tq, tm * Q - S * tq, tb * Q - C * tq, False), (-A, -S, Q - C, False))]
        down = [r for A, S, C, Q in window
                for r in ((A * tq - ta * Q, S * tq + tm * Q, C * tq - tb * Q, False), (A, S, C, False))]
        for pln, pld, phn, phd in parts:
            box = [(L, -sl * L, -bl, True), (-L, sr * L, br, True), (pld, 0, -pln, True), (-phd, 0, phn, True)]
            for rows in (up + box, down + box):
                erows = [(b1, c1, k1) for a1, b1, c1, k1 in rows if not a1]
                erows += [(a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, k1 and k2) for a1, b1, c1, k1 in rows if a1 > 0
                          for a2, b2, c2, k2 in rows if a2 < 0]
                if _int_meets(erows, en, ed, hn, hd):
                    return False
    return True


def _pl_ball_failure(table: tuple, mu: Fraction, eps_list: list) -> Optional[tuple]:
    """The first grid ε, in the grid's order, at which :func:`_pl_ball_step` fails, as (ε, x, missing point);
    None when every ε certifies.  The cut order changes only at the critical radii bⱼ − bᵢ and (bⱼ − bᵢ)/2,
    so the grid ε strictly between two of them form a run, bucketed on integers over 2L; a run of two or
    more that :func:`_pl_ball_run_clear` clears skips its steps, and every other ε is stepped."""
    _, bps, _, L, _ = table
    ts = [divmod(2 * L * eps.numerator, eps.denominator) for eps in eps_list]  # 2L·ε = t + r/ε's denominator
    top = max(t for t, _ in ts)  # radii over 2L, v − u and 2(v − u), past top split no two grid ε
    crit = sorted({c for i, u in enumerate(bps) for v in bps[i + 1:bisect_right(bps, u + top)]
                   for c in (v - u, 2 * (v - u)) if c <= top})
    runs = {}
    for i, (eps, (t, r)) in enumerate(zip(eps_list, ts)):
        k = bisect_right(crit, t)
        if r or not k or crit[k - 1] != t:  # ε is on no critical radius
            runs.setdefault(k, []).append((eps.numerator, eps.denominator, i))
    cleared = {i for run in runs.values() if len(run) > 1
               and _pl_ball_run_clear(table, mu, min(run, key=_INT_LO)[:2], max(run, key=_INT_LO)[:2]) for *_, i in run}
    for i, eps in enumerate(eps_list):
        if i not in cleared and (hit := _pl_ball_step(table, mu, eps)) is not None:
            return eps, *hit
    return None


def check_ball_expanding(system: SystemSpec, region: Optional[RegionSpec], mu, nu, eps_grid: Sequence) -> ExpansivityVerdict:
    """Does f(B̄_ε(x) ∩ X) cover B̄_{με}(f(x)) ∩ X for region x and ε < ν?"""
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
    return route(system, _carrier(system, region), mu, eps_list, constants)


def _pl_ball_expanding(system: PiecewiseLinearMap, carrier: RationalIntervalSet, mu: Fraction,
                       eps_list: list, constants: dict) -> ExpansivityVerdict:
    """Certified for every grid ε over the whole region by breakpoint case analysis, a run of ε between
    two critical radii at a time where one (x, ε) face test clears it (:func:`_pl_ball_failure`)."""
    hit = _pl_ball_failure(_pl_ball_table(system, carrier), mu, eps_list)
    if hit is not None:
        return _ball_falsified(system, hit[1], hit[0], mu, hit[2], constants)
    return ExpansivityVerdict("ballExpanding", "certified", constants)


def _cantor_ball_expanding(system: CantorSystem, carrier: RationalIntervalSet, mu: Fraction,
                           eps_list: list, constants: dict) -> ExpansivityVerdict:
    """Probed at the region's component endpoints: a probe failure is an
    exact falsification, while all-probes-pass yields ``undetermined``
    unless the region is a finite point set.  Each probe runs on the cell
    table's integers: f(x), the image of its ε-window and the μ·ε ball about
    f(x) in the space; only a missing point becomes a Fraction."""
    parts = carrier.parts
    radii = [(eps, mu * eps) for eps in eps_list]
    for x in sorted({end for part in parts for end in (part.lo, part.hi)}):
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
    # re-checked through the point preimages, not the ε-ball's forward image the routes computed
    fx = system.evaluate(x)
    if (any(abs(p - x) <= eps for p in system.point_preimages(missing)) or abs(missing - fx) > mu * eps
            or not system.contains_point(missing)):
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


def _search_ball_constants(system: PiecewiseLinearMap, carrier: RationalIntervalSet) -> Optional[tuple[Fraction, Fraction]]:
    """Small search for working (μ, ν) on a piecewise-linear map over a gated carrier,
    each checked on the 10-point ε grid below ν on one table, as a check runs it (:func:`_pl_ball_failure`);
    None when nothing on the menu certifies."""
    table = _pl_ball_table(system, carrier)
    for mu in (system.min_slope_modulus(), Fraction(3, 2), Fraction(5, 4), Fraction(9, 8)):
        if mu <= 1:
            continue
        for nu in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            if _pl_ball_failure(table, mu, interior_grid(nu, 10)) is None:
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


def check_locally_injective(system: SystemSpec, region: Optional[RegionSpec]) -> ExpansivityVerdict:
    """Holds exactly when the region avoids the critical set."""
    require(type(system), "check_locally_injective", (PiecewiseLinearMap, QuadraticFamilyMap, SLimitSystem))
    carrier = _carrier(system, region)
    constants = {"margin": rat_str(region.margin if region else ZERO)}
    for c in system.critical_points():
        if carrier.contains(c):
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


def crosscheck_expanding_characterizations(system: SystemSpec, region: Optional[RegionSpec]) -> dict:
    """Runs the two equivalent characterizations on a margin-inflated region:
    (1) open + expanding, (2) ball expanding + locally one-to-one, and
    reports whether the verdicts are consistent (mismatches through
    ``undetermined`` are tolerated).  A PL map's ball side searches its
    constants over 10-point ε grids."""
    expanding, ball_side_of = _CROSSCHECK_SIDES[
        require(type(system), "crosscheck_expanding_characterizations", _CROSSCHECK_SIDES)]
    carrier = _carrier(system, region)
    margin = region.margin if region else ZERO
    crit = system.critical_points()
    if margin == 0 and crit and not carrier.is_empty:
        margin = min(carrier.distance_to(c) for c in crit) / 2
    inflated = _inflate(carrier, margin, system.space())

    probes = [x for part in inflated.parts for x in (part.lo, part.hi, (part.lo + part.hi) / 2)]
    probes += [c for c in crit if inflated.contains(c)]  # a turn inside a part can close the map there
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
        expanding_side = expanding(system, inflated, delta, mu, {}).holds

    ball_side = ball_side_of(system, inflated)
    inj_side = "falsified" if any(inflated.contains(c) for c in crit) else "certified"

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


def _pl_ball_side(system: PiecewiseLinearMap, carrier: RationalIntervalSet) -> str:
    return "undetermined" if _search_ball_constants(system, carrier) is None else "certified"


def _cantor_ball_side(system: CantorSystem, carrier: RationalIntervalSet) -> str:
    if system.depth < 4:  # the ε grid 3^-4 .. 3^-min(6, depth) would be empty
        return "undetermined"
    ball_grid = [Fraction(1, 3**k) for k in range(4, min(7, system.depth + 1))]
    return _cantor_ball_expanding(system, carrier, Fraction(3), ball_grid, {}).holds


# the crosscheck's expanding route and ball side, on a gated carrier; the smooth family has no ball certifier
_CROSSCHECK_SIDES = {PiecewiseLinearMap: (_affine_expanding, _pl_ball_side), CantorSystem: (_affine_expanding, _cantor_ball_side),
                     QuadraticFamilyMap: (_EXPANDING_ROUTES[QuadraticFamilyMap], lambda system, carrier: "undetermined")}


def _conjoin(a: str, b: str) -> str:
    if "falsified" in (a, b):
        return "falsified"
    if a == b == "certified":
        return "certified"
    return "undetermined"
