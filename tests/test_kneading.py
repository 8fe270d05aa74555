import math
import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import kneading
from shadowlab.kneading import (
    KneadingWord,
    _kneading_for_search,
    critical_orbit_separation,
    find_parameter,
    is_recurrent_prefix,
    itinerary,
    kneading_word,
    parity_lex_compare,
    staircase_symbol,
    staircase_word,
    word,
)
from shadowlab.systems import (
    DomainError,
    PiecewiseLinearMap,
    QuadraticFamilyMap,
    logistic_map,
    quadratic_map,
    tent_map,
)


# -- itineraries -----------------------------------------------------------


def test_logistic_itinerary_of_one():
    got = itinerary(logistic_map(4), 1, 4)
    assert got.symbols == "RLLL"


def test_tent_itinerary_of_one():
    assert itinerary(tent_map(2), 1, 3).symbols == "RLL"


def test_itinerary_stops_at_critical_hit():
    got = itinerary(tent_map(2), F(1, 2), 5)
    assert got.symbols == "C"
    assert got.horizon == 5


def test_kneading_word_starts_at_critical_value():
    # the critical value of the even family is 1, so words start with R
    for mu in (F(11, 10), F(3, 2), F(2)):
        assert kneading_word(quadratic_map(mu), 6).symbols[0] == "R"
    assert kneading_word(quadratic_map(2), 8).symbols == "RLLLLLLL"


def exact_itinerary(system, x, n):
    """The itinerary loop as first written: every symbol from the exact point."""
    c = system.critical_points()[0]
    x = F(x)
    out = []
    for _ in range(n):
        if x == c:
            out.append("C")
            break
        out.append("L" if x < c else "R")
        x = system.evaluate(x)
    return KneadingWord("".join(out), n)


# (system, start) pairs whose orbit meets the critical point: logistic(9/4) maps 1/3 to 1/2,
# and 1 − (16/9)x² maps ±3/8 to 3/4 and ±3/4 to 0
CRITICAL_HITS = [(logistic_map(F(9, 4)), F(1, 3)), (logistic_map(4), F(1, 2)), (quadratic_map(F(16, 9)), F(3, 8)),
                 (quadratic_map(F(16, 9)), F(-3, 4)), (quadratic_map(F(3, 2)), F(0)), (tent_map(2), F(1, 4))]
OUTSIDE = [(logistic_map(F(387, 100)), F(-1, 10)), (logistic_map(4), F(11, 10)), (quadratic_map(2), F(-3, 2)),
           (tent_map(F(3, 2)), F(2))]


def _start_in_space(pair):
    system, t = pair
    hull = system.space().hull()
    return system, hull.lo + (hull.hi - hull.lo) * t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_itinerary_matches_the_exact_loop(data):
    # symbols read off enclosures equal the exact ones, including critical hits
    # (an enclosure that only touches c must hand over to the exact walk) and
    # starts outside the space, which both refuse
    n = data.draw(st.integers(1, 14))
    systems = st.one_of(st.integers(250, 400).map(lambda k: logistic_map(F(k, 100))),
                        st.integers(100, 200).map(lambda k: quadratic_map(F(k, 100))),
                        st.integers(11, 20).map(lambda k: tent_map(F(k, 10))))
    system, x = data.draw(st.one_of(
        st.sampled_from(CRITICAL_HITS + OUTSIDE),
        st.tuples(systems, st.fractions(0, 1, max_denominator=1000)).map(_start_in_space)))
    try:
        want = exact_itinerary(system, x, n)
    except DomainError:
        with pytest.raises(DomainError, match="outside the space"):
            itinerary(system, x, n)
        return
    assert itinerary(system, x, n) == want


def test_itinerary_stops_after_the_last_symbol(monkeypatch):
    # the walk never computes fⁿ(x), which no symbol reads; on the quadratic family it
    # iterates exactly only up to the first enclosure that meets c
    calls = []
    for cls in (QuadraticFamilyMap, PiecewiseLinearMap):
        monkeypatch.setattr(cls, "evaluate", lambda self, x, f=cls.evaluate: calls.append(x) or f(self, x))
    assert itinerary(logistic_map(F(9, 4)), F(1, 3), 1).symbols == "L" and calls == []
    assert itinerary(logistic_map(F(9, 4)), F(1, 3), 5).symbols == "LC" and calls == [F(1, 3)]
    assert itinerary(logistic_map(F(387, 100)), F(1, 3), 12).symbols == "LRLRLLRLLRLL" and len(calls) == 1
    assert itinerary(tent_map(2), F(1, 5), 2).symbols == "LL" and calls[1:] == [F(1, 5)]


def test_itinerary_climbs_the_precision_ladder(monkeypatch):
    # the 192-bit enclosures of this orbit first meet c at step 323 and the 768-bit ones at
    # step 1,240: the walk takes the next rung instead of iterating 323 steps exactly, which
    # ends in the exact-iteration limit
    system, x, n = logistic_map(F(387, 100)), F(1, 3), 400
    mid = 1 << 191
    assert any(lo <= mid <= hi for lo, hi in islice(system.enclosures(x, 192), n))
    monkeypatch.setattr(QuadraticFamilyMap, "evaluate", lambda self, x: pytest.fail("exact iteration"))
    got = itinerary(system, x, n)
    want = _reference_enclosures(system, x, 768, n - 1)
    assert all(hi < F(1, 2) or lo > F(1, 2) for lo, hi in want)
    assert got == KneadingWord("".join("L" if hi < F(1, 2) else "R" for lo, hi in want), n)


# -- the staircase sequence --------------------------------------------------


def test_staircase_prefix_and_blocks():
    assert staircase_word(15).symbols == "RLLRRLRRRLRRRRL"
    assert [staircase_symbol(n) for n in range(15, 21)] == ["R", "R", "R", "R", "R", "L"]


def staircase_symbol_by_search(n):
    """``staircase_symbol`` as it was first written: the block index k from an
    isqrt guess, adjusted by loops, and L at each block's last position."""
    if n < 3:
        return "RLL"[n]
    k = (math.isqrt(8 * n + 1) - 1) // 2
    while k * (k + 1) // 2 > n:
        k -= 1
    while (k + 1) * (k + 2) // 2 <= n:
        k += 1
    return "L" if n == (k + 1) * (k + 2) // 2 - 1 else "R"


def test_staircase_closed_form_matches_the_block_search():
    ns = [*range(20000), *(t * (t + 1) // 2 + d for t in range(200, 100000, 997) for d in (-2, -1, 0, 1))]
    assert [staircase_symbol(n) for n in ns] == [staircase_symbol_by_search(n) for n in ns]


def test_staircase_run_lengths_increase_by_one():
    text = staircase_word(600).symbols
    runs = []
    count = 0
    for s in text[3:]:
        if s == "R":
            count += 1
        else:
            runs.append(count)
            count = 0
    assert runs == list(range(2, 2 + len(runs)))


def test_staircase_no_adjacent_l_after_prefix():
    text = staircase_word(600).symbols
    assert "LL" not in text[2:]


def test_recurrence_scan():
    target = staircase_word(500)
    assert not is_recurrent_prefix(target, 3)
    assert is_recurrent_prefix(word("RLRLRL"), 2)
    assert is_recurrent_prefix(word("RLR"), 0)


def test_recurrence_window_bound():
    with pytest.raises(ValueError):
        is_recurrent_prefix(word("RL"), 3)


# -- signed order -------------------------------------------------------------


def test_signed_order_examples():
    assert parity_lex_compare(word("RL"), word("RR")) == 1  # flipped after one R
    assert parity_lex_compare(word("L"), word("R")) == -1
    assert parity_lex_compare(word("RLL"), word("RLL")) == 0


def test_signed_order_matches_point_order_on_tent_grid():
    # itineraries ordered by the signed comparison agree with the order of
    # the points themselves (away from ties), the defining property
    system = tent_map(F(19, 10))
    rng = random.Random(6)
    pts = sorted(F(rng.randint(1, 999), 1000) for _ in range(60))
    for a, b in zip(pts, pts[1:]):
        if a == b:
            continue
        wa, wb = itinerary(system, a, 12), itinerary(system, b, 12)
        cmp = parity_lex_compare(wa, wb)
        assert cmp in (-1, 0)


def test_kneading_monotone_in_parameter():
    horizon = 10
    words = [kneading_word(quadratic_map(1 + F(k, 100)), horizon) for k in range(0, 101)]
    for a, b in zip(words, words[1:]):
        assert parity_lex_compare(a, b) <= 0


# -- parameter search -----------------------------------------------------------


def test_find_parameter_matches_staircase_prefix():
    result = find_parameter(staircase_word(15), 15, 40)
    assert result.matched
    assert result.achieved.symbols == "RLLRRLRRRLRRRRL"
    assert result.bracket[1] - result.bracket[0] <= F(1, 2**30)
    assert result.bracket[0] <= result.parameter <= result.bracket[1]
    assert kneading_word(quadratic_map(result.parameter), 15).symbols == "RLLRRLRRRLRRRRL"


def test_find_parameter_rl_tail_drives_to_two():
    target = word("R" + "L" * 14)
    result = find_parameter(target, 15, 45)
    assert result.matched
    assert abs(result.parameter - 2) < F(1, 2**10)


def test_find_parameter_zero_steps_returns_bracket_midpoint():
    result = find_parameter(staircase_word(15), 15, 0)
    assert result.parameter == F(3, 2)
    assert result.achieved == kneading_word(quadratic_map(F(3, 2)), 15)


# -- certified separation ----------------------------------------------------------


def test_critical_orbit_separation_positive_for_staircase_parameter():
    result = find_parameter(staircase_word(15), 15, 40)
    sep = critical_orbit_separation(result.parameter, 2, 200)
    assert sep is not None and sep > 0


def test_critical_orbit_separation_detects_zero_hits():
    # at parameter 1 the second image of the critical point is exactly 0
    assert critical_orbit_separation(F(1), 2, 4) is None


def test_word_validation():
    with pytest.raises(ValueError):
        KneadingWord("RCX", 3)
    with pytest.raises(ValueError):
        KneadingWord("CR", 2)  # critical hit must terminate


def test_search_and_separation_reject_out_of_range_inputs():
    target = staircase_word(15)
    for horizon in (0, -3):
        with pytest.raises(ValueError, match="horizon"):
            find_parameter(target, horizon, 10)
    with pytest.raises(ValueError, match="bisection_steps"):
        find_parameter(target, 15, -1)
    for first, last in ((0, 5), (-1, 3), (4, 3), (0, 0)):
        with pytest.raises(ValueError, match="first"):
            critical_orbit_separation(F(3, 2), first, last)
    # F(0) = 1 and F²(0) = −1/2 for F = 1 − (3/2)x²
    assert critical_orbit_separation(F(3, 2), 1, 1) == 1
    assert critical_orbit_separation(F(3, 2), 1, 2) == F(1, 2)


def test_parameter_search_refuses_a_word_the_precision_ladder_cannot_certify(monkeypatch):
    # exact iteration would double its bit length at every step of the word
    monkeypatch.setattr(kneading, "_KNEADING_BITS", (4,))
    with pytest.raises(ValueError, match="horizon 12 is not certified at 4 bits"):
        find_parameter(staircase_word(12), 12, 3)


@pytest.mark.parametrize("mu", [F(3), F(0), F(5, 2)])
def test_critical_orbit_separation_refuses_parameters_outside_the_family(mu):
    # above 2 the enclosures grow without bound and each step triples the time
    with pytest.raises(ValueError, match=r"quadratic parameter must be in \[1,2\]"):
        critical_orbit_separation(mu, 2, 20)


# -- the enclosure generator against a Fraction reference --------------------------


def _form(system):
    """(α, β, c) with f(x) = α − β(x − c)², from the textbook formulas."""
    p = system.parameter
    return (p / 4, p, F(1, 2)) if system.family == "logistic" else (F(1), p, F(0))


def _reference_step(form, lo, hi, bits):
    """The step as written with Fractions: image of [lo, hi] under α − β(x − c)²,
    floor/ceil to the 2^−bits grid."""
    alpha, beta, c = form
    scale = 1 << bits
    mags = sorted((abs(lo - c), abs(hi - c)))
    sq_hi = mags[1] * mags[1]
    sq_lo = F(0) if lo <= c <= hi else mags[0] * mags[0]
    return (F(math.floor((alpha - beta * sq_hi) * scale), scale),
            F(math.ceil((alpha - beta * sq_lo) * scale), scale))


def _reference_enclosures(system, x, bits, steps):
    scale = 1 << bits
    lo, hi = F(math.floor(x * scale), scale), F(math.ceil(x * scale), scale)
    out = [(lo, hi)]
    for _ in range(steps):
        lo, hi = _reference_step(_form(system), lo, hi, bits)
        out.append((lo, hi))
    return out


def _reference_fast_kneading(mu, horizon, bits=192):
    while bits <= 8192:
        lo = hi = F(1)
        syms = []
        stuck = False
        for _ in range(horizon):
            if lo > 0:
                syms.append("R")
            elif hi < 0:
                syms.append("L")
            elif lo == hi == 0:
                syms.append("C")
                break
            else:
                stuck = True
                break
            lo, hi = _reference_step((F(1), mu, F(0)), lo, hi, bits)
        if not stuck:
            return KneadingWord("".join(syms), horizon)
        bits *= 4
    return None


def _reference_separation(mu, first, last, bits=512, max_bits=4096):
    while bits <= max_bits:
        lo = hi = F(0)
        best = None
        ok = True
        for n in range(1, last + 1):
            lo, hi = _reference_step((F(1), mu, F(0)), lo, hi, bits)
            if n >= first:
                if lo <= 0 <= hi:
                    ok = False
                    break
                bound = min(abs(lo), abs(hi))
                if best is None or bound < best:
                    best = bound
        if ok:
            return best
        bits *= 2
    return None


@pytest.mark.parametrize("bits", [4, 8, 64, 192, 512])
@pytest.mark.parametrize("den", [100, 2**40, 2**64])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_integer_quadratic_step_matches_fraction_reference(bits, den, data):
    # the enclosures of x, f(x), … from dyadic and non-dyadic starts, the critical
    # point and its grid neighbours included, in both forms; an inward-rounded or
    # an off-centre step differs here
    mu = F(den + data.draw(st.integers(0, den)), den)
    system = data.draw(st.sampled_from([quadratic_map(mu), logistic_map(2 * mu)]))
    c, lo_end = (F(1, 2), F(0)) if system.family == "logistic" else (F(0), F(-1))
    scale = 1 << bits
    x = data.draw(st.one_of(
        st.sampled_from([c, c - F(1, scale), c + F(1, scale), lo_end, lo_end + 1 + (system.family == "quadratic")]),
        st.integers(0, scale).map(lambda k: lo_end + F(k, scale) * (1 + (system.family == "quadratic"))),
        st.fractions(lo_end, lo_end + 1 + (system.family == "quadratic"), max_denominator=10**30)))
    got = list(islice(system.enclosures(x, bits), 41))
    assert all(isinstance(v, int) for pair in got for v in pair)
    want = _reference_enclosures(system, x, bits, 40)
    assert [(F(lo, scale), F(hi, scale)) for lo, hi in got] == want
    assert all(lo <= hi for lo, hi in got)


@pytest.mark.parametrize("bits", [4, 8])
def test_enclosures_that_straddle_the_critical_point_match_the_reference(bits):
    # at low precision the enclosures widen and meet c strictly (lo < c < hi) within 40
    # steps; only such an enclosure takes the step's straddling branch, whose image
    # reaches up to α, and the other users of the generator stop before stepping one
    rng = random.Random(bits)
    scale = 1 << bits
    straddling = {"logistic": 0, "quadratic": 0}
    for _ in range(12):
        den = rng.choice([100, 2**40])
        mu = F(den + rng.randrange(den + 1), den)
        for system in (quadratic_map(mu), logistic_map(2 * mu)):
            hull = system.space().hull()
            x = hull.lo + (hull.hi - hull.lo) * F(rng.randrange(1, 1000), 1000)
            got = list(islice(system.enclosures(x, bits), 41))
            assert [(F(lo, scale), F(hi, scale)) for lo, hi in got] == _reference_enclosures(system, x, bits, 40)
            mid = system.critical_point() * scale
            straddling[system.family] += sum(lo < mid < hi for lo, hi in got[:-1])
    assert min(straddling.values()) > 0, straddling


def _separation_parameters():
    rng = random.Random(56)
    staircase = find_parameter(staircase_word(15), 15, 40).parameter
    mus = [staircase, F(1), F(2), F(3, 2), F(7, 4)]
    mus += [F(100 + rng.randrange(101), 100) for _ in range(3)]
    mus += [F(2**40 + rng.randrange(2**40 + 1), 2**40) for _ in range(3)]
    return mus


def test_separation_and_fast_kneading_match_fraction_reimplementation():
    seen_none = seen_bound = 0
    for mu in _separation_parameters():
        for tail in (2, 3, 5, 10, 20, 35, 50):
            got = critical_orbit_separation(mu, 2, tail)
            assert got == _reference_separation(mu, 2, tail)
            seen_none += got is None
            seen_bound += got is not None
        assert critical_orbit_separation(mu, 7, 30) == _reference_separation(mu, 7, 30)
        for horizon in (1, 5, 15, 30, 50):
            try:
                got = _kneading_for_search(mu, horizon)
            except ValueError:  # a word the ladder cannot certify is refused
                got = None
            assert got == _reference_fast_kneading(mu, horizon)
    assert seen_none and seen_bound
