"""Itineraries, the signed symbol order, and parameter search for unimodal maps.

Symbols are 'L', 'C', 'R' relative to the critical point.  The kneading word
of a map is the itinerary of its critical value.  Words are compared in the
order that mirrors the order of points on the line: lexicographic, with the
orientation flipping after every 'R'.  Itineraries are exact; on the quadratic family their
symbols are read off ``QuadraticFamilyMap.enclosures`` on the kneading precision ladder, and
past its top iterated exactly from the first enclosure that meets c.  Parameter search drives a
bisection on the quadratic family with that order, reading each kneading word off enclosures of
the critical orbit; a word they cannot certify is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional, Union

from .numerics import rat, rat_str
from .systems import ZERO, DomainError, PiecewiseLinearMap, QuadraticFamilyMap, dyadic_bounds, iterate, quadratic_map, require

L, C, R = "L", "C", "R"
_ORDER = {L: -1, C: 0, R: 1}


@dataclass(frozen=True)
class KneadingWord:
    symbols: str
    horizon: int

    def __post_init__(self):
        if len(self.symbols) > self.horizon:
            raise ValueError("more symbols than the declared horizon")
        if any(s not in "LCR" for s in self.symbols):
            raise ValueError("symbols must be over {L, C, R}")
        if C in self.symbols[:-1]:
            raise ValueError("a critical hit terminates the word")

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return self.symbols


def word(symbols: str) -> KneadingWord:
    return KneadingWord(symbols, len(symbols))


def _unimodal(system) -> tuple[Callable[..., str], Fraction]:
    """The symbol walk for the system's class (its one entry check) and its critical point."""
    walk = _SYMBOL_WALKS[require(type(system), "itinerary", _SYMBOL_WALKS)]
    crit = system.critical_points()
    if len(crit) != 1:
        raise ValueError("itineraries need a unimodal map (exactly one critical point)")
    return walk, crit[0]


def itinerary(system: Union[QuadraticFamilyMap, PiecewiseLinearMap], x, n: int) -> KneadingWord:
    """Symbols of x, f(x), …, f^{n−1}(x) relative to the critical point;
    a critical hit emits 'C' and stops."""
    if n < 1:
        raise ValueError("need n >= 1")
    walk, c = _unimodal(system)
    x = rat(x)
    if not system.contains_point(x):
        raise DomainError(f"{x} outside the space")
    return KneadingWord(walk(system, x, c, n), n)


def _exact_symbols(system, x: Fraction, c: Fraction, n: int) -> str:
    out = []
    while x != c and len(out) < n - 1:  # the last symbol is f^{n−1}(x)'s: fⁿ(x) is never computed
        out.append(L if x < c else R)
        x = system.evaluate(x)
    return "".join(out) + (C if x == c else L if x < c else R)


def _ladder(system: QuadraticFamilyMap, x: Fraction, start: int, stop: int,
            ladder: tuple[int, ...]) -> tuple[int, int, list[tuple[int, int]]]:
    """(bits, c·2^bits, the enclosures of f^start(x), …, f^(stop−1)(x) over 2^bits) at the first
    rung of the ladder where none of them meets c·2^bits; past its top rung, the enclosures up to
    and including the first that meets it."""
    cn, cd = system._int_form[3:]
    for bits in ladder:
        mid = dyadic_bounds(cn, cd, bits)[0]  # exact: c is 0 or 1/2
        out = []
        for pair in islice(system.enclosures(x, bits), start, stop):
            out.append(pair)
            if pair[0] <= mid <= pair[1]:
                break
        else:
            break
    return bits, mid, out


def _enclosed_symbols(system: QuadraticFamilyMap, x: Fraction, c: Fraction, n: int) -> str:
    """Each symbol read off an outward-rounded enclosure of the point on the kneading ladder;
    past its top, the exact walk from the first enclosure that meets c."""
    _, mid, encs = _ladder(system, x, 0, n, _KNEADING_BITS)
    lo, hi = encs[-1]
    exact = ""
    if lo <= mid <= hi:
        encs.pop()
        exact = _exact_symbols(system, iterate(system, x, len(encs)), c, n - len(encs))
    return "".join([L if hi < mid else R for _, hi in encs]) + exact


_SYMBOL_WALKS = {PiecewiseLinearMap: _exact_symbols, QuadraticFamilyMap: _enclosed_symbols}


def kneading_word(system, horizon: int) -> KneadingWord:
    """Itinerary of the critical value (the first symbol sits at f(c))."""
    c = _unimodal(system)[1]
    return itinerary(system, system.evaluate(c), horizon)


def _kneading_for_search(mu: Fraction, horizon: int) -> KneadingWord:
    """Kneading word of 1−μx², each symbol read off an enclosure of the critical orbit on the
    kneading ladder; a word it cannot certify is refused, as exact iteration would double its bit
    length at every step."""
    encs = _ladder(quadratic_map(mu), ZERO, 1, horizon + 1, _KNEADING_BITS)[2]
    lo, hi = encs[-1]
    if lo <= 0 <= hi and (lo, hi) != (0, 0):
        raise ValueError(f"kneading word at mu = {rat_str(mu)}, horizon {horizon} is not certified "
                         f"at {_KNEADING_BITS[-1]} bits")
    return KneadingWord("".join([R if lo > 0 else L if hi < 0 else C for lo, hi in encs]), horizon)


# ---------------------------------------------------------------------------
# the staircase target sequence
# ---------------------------------------------------------------------------


def staircase_symbol(n: int) -> str:
    """Symbol n of R·L·L followed by blocks R^k L with k = 2, 3, 4, …

    Block k occupies positions [k(k+1)/2, (k+1)(k+2)/2); its final position
    carries the lone L.  The run of R's between consecutive L's therefore
    grows by exactly one each time, which is what makes the prefix never
    recur.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n < 3:
        return (R, L, L)[n]
    # n + 1 is a triangular number m(m+1)/2 exactly when 8(n+1) + 1 = (2m+1)²
    return L if math.isqrt(8 * n + 9) ** 2 == 8 * n + 9 else R


def staircase_word(length: int) -> KneadingWord:
    return word("".join(staircase_symbol(i) for i in range(length)))


def is_recurrent_prefix(w: KneadingWord, window: int) -> bool:
    """Does the length-``window`` prefix reappear as a factor at index ≥ 1?"""
    if window > len(w):
        raise ValueError("window exceeds the word length")
    if window == 0:
        return True
    text = w.symbols
    return text.find(text[:window], 1) != -1


# ---------------------------------------------------------------------------
# signed lexicographic order
# ---------------------------------------------------------------------------


def parity_lex_compare(a: KneadingWord, b: KneadingWord) -> int:
    """−1, 0, +1 in the order compatible with point order on the line.

    At the first differing index the natural order L < C < R applies when
    the number of preceding R's is even and reverses when it is odd.  Words
    agreeing on their common prefix compare equal at that horizon.
    """
    parity = 1
    for sa, sb in zip(a.symbols, b.symbols):
        if sa != sb:
            return parity * (-1 if _ORDER[sa] < _ORDER[sb] else 1)
        if sa == R:
            parity = -parity
    return 0


# ---------------------------------------------------------------------------
# parameter search in the even quadratic family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSearchResult:
    parameter: Fraction
    achieved: KneadingWord
    bracket: tuple[Fraction, Fraction]
    matched: bool

    def to_json(self) -> dict:
        return {
            "parameter": rat_str(self.parameter),
            "achieved": str(self.achieved),
            "bracketLo": rat_str(self.bracket[0]),
            "bracketHi": rat_str(self.bracket[1]),
            "bracketWidth": rat_str(self.bracket[1] - self.bracket[0]),
            "matched": self.matched,
        }


def find_parameter(target: KneadingWord, horizon: int, bisection_steps: int) -> ParameterSearchResult:
    """Bisection over μ ∈ [1,2] for a map 1−μx² whose kneading word matches
    the target prefix at the horizon.

    Relies on the kneading word being weakly monotone in μ under the signed
    order (validated empirically by the tests on a parameter grid; it cannot
    be certified here).  Returns the last matching parameter seen together
    with the final bracket; a ValueError when some bisection point's word is
    not certified at the top of the precision ladder.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if bisection_steps < 0:
        raise ValueError("bisection_steps must be >= 0")
    if horizon > len(target):
        raise ValueError("horizon exceeds the target length")
    goal = word(target.symbols[:horizon])
    lo, hi = Fraction(1), Fraction(2)
    mid = (lo + hi) / 2
    best: Optional[tuple[Fraction, KneadingWord]] = None
    achieved = _kneading_for_search(mid, horizon)
    for _ in range(bisection_steps):
        cmp = parity_lex_compare(achieved, goal)
        if cmp == 0 and len(achieved) == horizon:
            best = (mid, achieved)
            hi = mid  # keep shrinking toward the window's lower edge
        elif cmp < 0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
        achieved = _kneading_for_search(mid, horizon)
    if best is not None and parity_lex_compare(achieved, goal) != 0:
        mid, achieved = best
    matched = parity_lex_compare(achieved, goal) == 0 and len(achieved) == horizon
    return ParameterSearchResult(mid, achieved, (lo, hi), matched)


# ---------------------------------------------------------------------------
# certified critical-orbit separation at working precision
# ---------------------------------------------------------------------------


_KNEADING_BITS = (192, 768, 3072)
_SEPARATION_BITS = (512, 1024, 2048, 4096)


def critical_orbit_separation(mu: Fraction, first: int, last: int) -> Optional[Fraction]:
    """Certified positive lower bound on min |Fⁿ(0)| for n in [first, last],
    F = 1−μx², via outward-rounded dyadic interval iteration.

    Returns None when no positive bound can be certified even at the
    precision cap, doubling from 512 to 4096 bits (the orbit may genuinely
    meet 0).  μ outside [1, 2] is refused: there the enclosures grow without
    bound.
    """
    if not 1 <= first <= last:
        raise ValueError("need 1 <= first <= last")
    bits, _, encs = _ladder(quadratic_map(mu), ZERO, first, last + 1, _SEPARATION_BITS)
    lo, hi = encs[-1]
    if lo <= 0 <= hi:
        return None
    return Fraction(min(lo if lo > 0 else -hi for lo, hi in encs), 1 << bits)
