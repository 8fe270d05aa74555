import math
import random
from fractions import Fraction as F

import pytest

from shadowlab import kneading
from shadowlab.kneading import (
    KneadingWord,
    _fast_quadratic_kneading,
    _quadratic_step,
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
from shadowlab.systems import logistic_map, quadratic_map, tent_map


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


# -- the staircase sequence --------------------------------------------------


def test_staircase_prefix_and_blocks():
    assert staircase_word(15).symbols == "RLLRRLRRRLRRRRL"
    assert [staircase_symbol(n) for n in range(15, 21)] == ["R", "R", "R", "R", "R", "L"]


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


# -- the integer enclosure step against a Fraction reference ------------------------


def _reference_step(mu, lo, hi, bits):
    """The step as written with Fractions: image of [lo, hi] under 1 − μx²,
    floor/ceil to the 2^−bits grid."""
    scale = 1 << bits
    mags = sorted((abs(lo), abs(hi)))
    sq_hi = mags[1] * mags[1]
    sq_lo = F(0) if lo <= 0 <= hi else mags[0] * mags[0]
    return (F(math.floor((1 - mu * sq_hi) * scale), scale),
            F(math.ceil((1 - mu * sq_lo) * scale), scale))


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
            lo, hi = _reference_step(mu, lo, hi, bits)
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
            lo, hi = _reference_step(mu, lo, hi, bits)
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


@pytest.mark.parametrize("bits", [64, 192, 512])
@pytest.mark.parametrize("den", [100, 2**40, 2**64])
def test_integer_quadratic_step_matches_fraction_reference(bits, den):
    rng = random.Random(bits * 7 + den.bit_length())
    scale = 1 << bits
    mus = [F(den + rng.randrange(den + 1), den) for _ in range(6)] + [F(1), F(2)]
    straddling = 0
    for mu in mus:
        for _ in range(25):
            a, b = sorted(rng.randrange(-scale, scale + 1) for _ in range(2))
            for lo, hi in ((a, b), (abs(a) // 2, abs(b)), (-abs(b), -abs(a) // 3), (a, a), (0, 0), (-b, b)):
                lo, hi = min(lo, hi), max(lo, hi)
                straddling += lo <= 0 <= hi
                got = _quadratic_step(mu, lo, hi, bits)
                assert all(isinstance(v, int) for v in got)
                want = _reference_step(mu, F(lo, scale), F(hi, scale), bits)
                assert (F(got[0], scale), F(got[1], scale)) == want
                assert got[0] <= got[1]
    assert 0 < straddling < len(mus) * 25 * 6


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
            assert _fast_quadratic_kneading(mu, horizon) == _reference_fast_kneading(mu, horizon)
    assert seen_none and seen_bound
