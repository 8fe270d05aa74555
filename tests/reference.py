"""Second paths for the package's tests: independent implementations, or copies
of a loop that a faster one replaced, that a test compares the package with."""

from bisect import bisect_right
from fractions import Fraction as F

from shadowlab.expansivity import _affine_cells, _out_of_reach, _pair_violation
from shadowlab.numerics import ClosedInterval, RationalIntervalSet, intersect

# -- expansivity ------------------------------------------------------------------


def ref_pl_ball_expanding_once(system, carrier, mu, eps):
    """The PL ball route as first written, on Fraction arithmetic throughout:
    the lap by a linear scan, f(x) as s·x + c, window bounds as the min and max
    of the window ends and the interior breakpoint values."""
    laps = system.laps()
    lefts = [dom.lo for dom, _, _ in laps]

    def lap_at(t):  # the rightmost lap whose left end is at most t
        _, s, c = laps[bisect_right(lefts, t) - 1]
        return s, c

    def f(t):
        s, c = lap_at(t)
        return s * t + c

    def violation_at(x):
        lo, hi = max(F(0), x - eps), min(F(1), x + eps)
        window = [f(lo), f(hi)] + [v for b, v in zip(system.breakpoints, system.values) if lo < b < hi]
        fx = f(x)
        top, bot = min(F(1), fx + mu * eps), max(F(0), fx - mu * eps)
        if top > max(window):
            return top
        if bot < min(window):
            return bot
        return None

    base = sorted({F(0), F(1)} | {v for b in system.breakpoints for v in (b, b + eps, b - eps) if 0 <= v <= 1})
    for lo, hi in zip(base, base[1:]):
        seg = intersect(RationalIntervalSet((ClosedInterval(lo, hi),)), carrier)
        if seg.is_empty:
            continue
        xm = (lo + hi) / 2
        cands = []
        if xm - eps <= 0:
            cands.append((F(0), f(F(0))))
        else:
            s, c = lap_at(xm - eps)
            cands.append((s, c - s * eps))
        if xm + eps >= 1:
            cands.append((F(0), f(F(1))))
        else:
            s, c = lap_at(xm + eps)
            cands.append((s, c + s * eps))
        cands += [(F(0), v) for b, v in zip(system.breakpoints, system.values) if xm - eps < b < xm + eps]
        s, c = lap_at(xm)
        cands += [(s, c + mu * eps), (s, c - mu * eps), (F(0), F(1)), (F(0), F(0))]
        crossings = {(c2 - c1) / (s1 - s2) for i, (s1, c1) in enumerate(cands) for s2, c2 in cands[i + 1:] if s1 != s2}
        crossings = [x for x in crossings if lo < x < hi]
        for part in seg.parts:
            for x in sorted({part.lo, part.hi} | {x for x in crossings if part.lo < x < part.hi}):
                missing = violation_at(x)
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
