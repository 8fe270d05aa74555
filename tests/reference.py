"""Second paths for the package's tests: independent implementations, or copies
of a loop that a faster one replaced, that a test compares the package with."""

from bisect import bisect_right
from fractions import Fraction
from fractions import Fraction as F
from functools import lru_cache
from typing import Optional

from shadowlab.expansivity import IntCell, _affine_cells, _out_of_reach, _pair_bound_clears, _pair_violation
from shadowlab.numerics import (
    ClosedInterval,
    RationalIntervalSet,
    int_affine,
    int_intersect,
    int_normalize,
    intersect,
    normalize,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# -- interval core and PL point queries --------------------------------------------


def ref_normalize(parts):
    merged = []
    for p in sorted(parts, key=lambda p: (p.lo, p.hi)):
        if merged and p.lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], p.hi)
        else:
            merged.append([p.lo, p.hi])
    return [(lo, hi) for lo, hi in merged]


def ref_intersect(a, b):
    return ref_normalize([ClosedInterval(max(p.lo, q.lo), min(p.hi, q.hi))
                          for p in a.parts for q in b.parts if max(p.lo, q.lo) <= min(p.hi, q.hi)])


def ref_evaluate(f, x):
    idx = max(i for i in range(len(f.breakpoints) - 1) if f.breakpoints[i] <= x)
    _, s, c = f.laps()[idx]
    return s * x + c


def ref_point_preimages(f, y):
    return sorted({(y - c) / s for dom, s, c in f.affine_cells() if dom.lo <= (y - c) / s <= dom.hi})


def ref_preimage(f, target):
    out = []
    for dom, s, c in f.laps():
        a, b = s * dom.lo + c, s * dom.hi + c
        rng = normalize([ClosedInterval(min(a, b), max(a, b))])
        for lo, hi in ref_intersect(target, rng):
            u, v = (lo - c) / s, (hi - c) / s
            out.extend(ref_intersect(normalize([ClosedInterval(min(u, v), max(u, v))]), normalize([dom])))
    return ref_normalize([ClosedInterval(lo, hi) for lo, hi in out])


def ref_int_forward(system, s):
    """The cell-table forward step as first written: s met with every cell by a
    full sweep, each share through its cell's map, merged."""
    out = []
    for parts, a, b, q in system._int_cells:
        hit = int_intersect(s, parts)
        if hit:
            out += int_affine(hit, a, b, q)
    return int_normalize(out)


def ref_image_bounds(f, lo, hi):
    vals = [ref_evaluate(f, lo), ref_evaluate(f, hi)]
    vals.extend(ref_evaluate(f, b) for b in f.breakpoints if lo < b < hi)
    return min(vals), max(vals)


# -- expansivity ------------------------------------------------------------------

# The pair engine on Fractions, as the integer engine replaced it: ties among
# least-h vertices follow its set's hash order, and the 64-halving nudge off the
# edge y − x = δ can give up, returning None on a violation region thinner than
# its steps.
Cell = tuple[ClosedInterval, Fraction, Fraction]  # the Fraction view: (domain, slope, offset)


def ref_vertex_candidates(cx: Cell, cy: Cell, delta: Fraction) -> list[tuple[Fraction, Fraction]]:
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


def ref_pair_violation(cx: IntCell, cy: IntCell, delta: Fraction, mu: Fraction) -> Optional[tuple]:
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
    for (x, y) in ref_vertex_candidates(cx, cy, delta):
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


@lru_cache(maxsize=64)
def _ref_laps(system):
    """A PL map's laps as the reference reads them, built once per map: the left
    ends, each lap's (slope, offset), and the breakpoints with their values."""
    laps = system.laps()
    return [dom.lo for dom, _, _ in laps], [(s, c) for _, s, c in laps], system.breakpoints, system.values


def ref_pl_ball_expanding_once(system, carrier, mu, eps):
    """The PL ball route in its first form, on Fraction arithmetic throughout: every
    test point is a carrier part's end or a crossing of two candidate lines inside a
    segment between the breakpoints and their shifts by ±ε, and each is evaluated
    directly: the lap by bisection over the laps' left ends, f(x) as s·x + c, window
    bounds as the min and max of f at the window ends and the breakpoint values
    between them."""
    lefts, laps, bps, values = _ref_laps(system)
    reach = mu * eps

    def lap_at(t):  # (index of the first breakpoint right of t, t's lap as (slope, offset))
        k = bisect_right(lefts, t)
        return k, laps[k - 1]

    def violation_at(x):
        lo, hi = max(ZERO, x - eps), min(ONE, x + eps)
        (i, (s, c)), (j, (u, v)) = lap_at(lo), lap_at(hi)
        window = [s * lo + c, u * hi + v, *values[i:j]]  # a breakpoint on an end repeats f there
        s, c = lap_at(x)[1]
        fx = s * x + c
        top, bot = min(ONE, fx + reach), max(ZERO, fx - reach)
        if top > max(window):
            return top
        if bot < min(window):
            return bot
        return None

    base = sorted([*bps, *(b + eps for b in bps if b + eps < ONE), *(b - eps for b in bps if b - eps > ZERO)])
    base = [b for k, b in enumerate(base) if not k or b != base[k - 1]]
    last = None
    for lo, hi in zip(base, base[1:]):
        seg = intersect(RationalIntervalSet((ClosedInterval(lo, hi),)), carrier)
        if seg.is_empty:
            continue
        xm = (lo + hi) / 2
        left, right = xm - eps, xm + eps
        if left <= ZERO:
            i, cands = 1, [(ZERO, values[0])]
        else:
            i, (s, c) = lap_at(left)
            cands = [(s, c - s * eps)]
        if right >= ONE:
            j = len(lefts)
            cands.append((ZERO, values[-1]))
        else:
            j, (s, c) = lap_at(right)
            cands.append((s, c + s * eps))
        cands += [(ZERO, v) for v in values[i:j]]
        s, c = lap_at(xm)[1]
        cands += [(s, c + reach), (s, c - reach), (ZERO, ONE), (ZERO, ZERO)]
        # every crossing of two candidates strictly inside (lo, hi): a line of slope s ≠ 0
        # meets a level k there when k lies strictly between the line's values at lo and hi
        lines = [(s, c) for s, c in cands if s]
        levels = {c for s, c in cands if not s}
        crossings = [(c2 - c1) / (s1 - s2) for k, (s1, c1) in enumerate(lines) for s2, c2 in lines[k + 1:] if s1 != s2]
        crossings = [x for x in crossings if lo < x < hi]
        for s, c in lines:
            ends = sorted((s * lo + c, s * hi + c))
            crossings += [(k - c) / s for k in levels if ends[0] < k < ends[1]]
        for part in seg.parts:
            for x in sorted({part.lo, part.hi, *(x for x in crossings if part.lo < x < part.hi)}):
                if x == last:  # the last part's end, already tested
                    continue
                last, missing = x, violation_at(x)
                if missing is not None:
                    return x, missing
    return None


def ref_expanding_violation(cells, delta, mu):
    """The pair loop before the run skip: every cell pair in reach, in order."""
    for i, cx in enumerate(cells):
        (ln, ld, hn, hd), a, _, q = cx
        if ln * hd < hn * ld and abs(a) * mu.denominator < mu.numerator * q:
            lo = F(ln, ld)
            return lo, lo + min(delta / 2, F(hn, hd) - lo)
        for cy in cells[i + 1:]:
            if _out_of_reach(cx, cy, delta.numerator, delta.denominator):
                break
            hit = _pair_violation(cx, cy, delta, mu) or _pair_violation(cy, cx, delta, mu)
            if hit is not None:
                return hit
    return None


def ref_star_hit(system, carrier, delta, mu):
    """The star loop before the window: every region cell against every space cell."""
    dn, dd = delta.numerator, delta.denominator
    cells_y = _affine_cells(system, system.space())
    for cx in _affine_cells(system, carrier):
        for cy in cells_y:
            if _out_of_reach(cx, cy, dn, dd) or _out_of_reach(cy, cx, dn, dd):
                continue
            hit = _pair_violation(cx, cy, delta, mu)
            if hit is None:
                swapped = _pair_violation(cy, cx, delta, mu)
                hit = None if swapped is None else (swapped[1], swapped[0])
            if hit is not None:
                return hit
    return None


def ref_uncovered_point(ball, image):
    """A point of ``ball`` outside ``image`` on Fraction sets, or None when covered."""
    for part in ball.parts:
        cover = intersect(RationalIntervalSet((part,)), image)
        if cover.is_empty or cover.parts[0].lo > part.lo:
            return part.lo
        cursor = cover.parts[0].hi
        for nxt in cover.parts[1:]:
            if nxt.lo > cursor:
                return (cursor + nxt.lo) / 2
            cursor = nxt.hi
        if cursor < part.hi:
            return part.hi
    return None


def ref_cantor_ball_hit(system, carrier, mu, eps_list):
    """The Cantor probe route on Fraction sets: the first failing (x, ε, missing point), or None."""
    probes = [end for part in carrier.parts for end in (part.lo, part.hi)]
    for x in sorted(set(probes)):
        fx = system.evaluate(x)
        for eps in eps_list:
            missing = ref_uncovered_point(system.tube(fx, mu * eps), system.forward_image(system.tube(x, eps)))
            if missing is not None:
                return x, eps, missing
    return None
