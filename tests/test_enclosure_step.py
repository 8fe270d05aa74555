"""The quadratic enclosure step against the step as first written, over long runs.

The first step sorted the magnitudes of the enclosure's ends about c and took
each end with one division by d·2^bits.  The generator now branches on the side
of c, takes one full squaring per step and divides by the odd part of d only.
Both must yield the same integers at every step.
"""

import random
from fractions import Fraction as F
from itertools import islice

from shadowlab.systems import logistic_map, quadratic_map

STEPS = 1000


def _first_enclosures(system, x, bits):
    """The generator as first written, on f(x) = α − β(x − c)² with α = a/d, β = b/d."""
    p = system.parameter
    if system.family == "logistic":
        a, b, d, mid = p.numerator, 4 * p.numerator, 4 * p.denominator, 1 << bits - 1
    else:
        a, b, d, mid = p.denominator, p.numerator, p.denominator, 0
    one = a << 2 * bits
    lo, hi = (x.numerator << bits) // x.denominator, -((-x.numerator << bits) // x.denominator)
    while True:
        yield lo, hi
        small, big = sorted((abs(lo - mid), abs(hi - mid)))
        if lo <= mid <= hi:
            small = 0
        lo, hi = (one - b * big * big) // (d << bits), -((b * small * small - one) // (d << bits))


def _parameters(rng, per_denominator):
    """μ over denominators 2^40, 2^64 (odd part 1) and 100 (odd part 25), and the ends of [1, 2]."""
    return [F(den + rng.randrange(den + 1), den) for den in (2**40, 2**64, 100) for _ in range(per_denominator)] + [
        F(1), F(2)]


def _starts(system, bits, rng):
    """c and its two grid neighbours, and one rational of the space."""
    c, lo = (F(1, 2), F(0)) if system.family == "logistic" else (F(0), F(-1))
    return [c, c - F(1, 1 << bits), c + F(1, 1 << bits), lo + F(rng.randrange(1, 10**6), 10**6) * (2 * c - 2 * lo)]


def _runs(bits, seed, per_denominator):
    rng = random.Random(seed)
    for mu in _parameters(rng, per_denominator):
        for system in (quadratic_map(mu), logistic_map(2 * mu)):
            for x in _starts(system, bits, rng):
                yield system, x


def _compare(bits, seed, per_denominator=2):
    """Both generators over STEPS steps of every run; the number of enclosures that straddle c strictly."""
    straddling = {"logistic": 0, "quadratic": 0}
    for system, x in _runs(bits, seed, per_denominator):
        got = list(islice(system.enclosures(x, bits), STEPS + 1))
        want = list(islice(_first_enclosures(system, x, bits), STEPS + 1))
        assert got == want, (system, x, bits, next(i for i, (g, w) in enumerate(zip(got, want)) if g != w))
        mid = system.critical_point() * (1 << bits)
        straddling[system.family] += sum(lo < mid < hi for lo, hi in got[:-1])
    return straddling


def test_long_runs_match_the_first_step_at_192_bits():
    _compare(192, 192)


def test_long_runs_match_the_first_step_at_512_bits():
    _compare(512, 512)


def test_long_runs_match_the_first_step_at_4096_bits():
    _compare(4096, 4096, per_denominator=1)


def test_straddling_runs_match_the_first_step_at_4_and_8_bits():
    # at low precision the enclosures widen until they straddle c and take the straddling branch
    for bits in (4, 8):
        assert min(_compare(bits, bits).values()) > 0
