import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.numerics import ClosedInterval, from_int_set, normalize
from shadowlab.pseudo_orbits import (
    DeviationReport,
    PseudoOrbit,
    _sample_in_set,
    checked_orbit,
    deviation,
    orbit_from_csv,
    orbit_from_json,
    orbit_to_csv,
    orbit_to_json,
    perturbed_orbit,
    traces,
    verify_jumps,
)
from shadowlab.shadowing import finite_horizon_delta
from shadowlab.systems import (
    CantorSystem,
    DomainError,
    IntervalSystem,
    OdometerSystem,
    SLimitSystem,
    SymbolicPoint,
    golden_mean_shift,
    iterate,
    iterate_pl,
    logistic_map,
    random_zigzag_map,
    tent_map,
)


def true_orbit(system, x0, length):
    pts = [x0]
    for _ in range(length - 1):
        pts.append(system.evaluate(pts[-1]))
    return PseudoOrbit(tuple(pts))


def test_true_orbit_has_zero_jumps():
    t2 = tent_map(2)
    orbit = true_orbit(t2, F(1, 3), 6)
    assert verify_jumps(t2, orbit) == 0
    rep = deviation(t2, F(1, 3), orbit)
    assert rep.max_deviation == 0 and rep.exact_hit


def test_single_jump_is_measured_exactly():
    t2 = tent_map(2)
    orbit = PseudoOrbit((F(1, 4), F(1, 2) + F(1, 100)))
    assert verify_jumps(t2, orbit) == F(1, 100)


def test_slimit_squeeze_orbit_jump_bound():
    system = SLimitSystem(10)
    n = 4
    pts = [F(1, 2)]
    for _ in range(n):
        pts.append(system.evaluate(pts[-1]))
    pts.append(F(0))
    pts.extend([F(-1, 2**n)] * 3)
    orbit = PseudoOrbit(tuple(pts))
    assert verify_jumps(system, orbit) < F(1, 10)


def test_deviation_per_step():
    t2 = tent_map(2)
    orbit = PseudoOrbit((F(0), F(1, 10)))
    rep = deviation(t2, F(0), orbit)
    assert rep.per_step == (F(0), F(1, 10))
    assert not rep.exact_hit


def test_slimit_tail_point_misses_badly():
    system = SLimitSystem(10)
    n = 4
    orbit = PseudoOrbit((F(1, 2), F(1, 4)))
    rep = deviation(system, F(-1, 2**n), orbit)
    assert rep.per_step[0] == F(1, 2) + F(1, 2**n)
    assert rep.per_step[0] > F(1, 4)


def test_checked_orbit_validates_claims():
    t2 = tent_map(2)
    pts = (F(1, 4), F(1, 2) + F(1, 100))
    assert checked_orbit(t2, pts, claimed_delta=F(1, 50)).claimed_delta == F(1, 50)
    with pytest.raises(ValueError):
        checked_orbit(t2, pts, claimed_delta=F(1, 200))


def test_checked_orbit_refuses_points_outside_the_space():
    # no claimed bound: the membership check alone must catch the bad point
    with pytest.raises(DomainError, match=r"orbit point 1 \(0120\) is not in the space"):
        checked_orbit(OdometerSystem(4), ((1, 0, 0, 0), (0, 1, 2, 0)))
    with pytest.raises(DomainError, match=r"orbit point 0 \(-1/8\)"):
        checked_orbit(tent_map(2), (F(-1, 8), F(1, 4)))
    assert checked_orbit(OdometerSystem(4), ((1, 0, 0, 0), (0, 1, 0, 0))).last_index == 1


def test_perturbed_orbit_respects_delta():
    t2 = tent_map(2)
    orbit = perturbed_orbit(t2, F(1, 3), 50, F(1, 100), seed=1)
    assert len(orbit) == 50
    assert verify_jumps(t2, orbit) < F(1, 100)


def test_perturbed_orbit_rejects_bad_delta():
    with pytest.raises(ValueError):
        perturbed_orbit(tent_map(2), F(1, 3), 10, 0, seed=1)


def test_perturbed_orbit_deterministic():
    t2 = tent_map(2)
    a = perturbed_orbit(t2, F(1, 3), 30, F(1, 64), seed=99)
    b = perturbed_orbit(t2, F(1, 3), 30, F(1, 64), seed=99)
    assert a.points == b.points
    c = perturbed_orbit(t2, F(1, 3), 30, F(1, 64), seed=100)
    assert a.points != c.points


def ref_sample_in_set(sset, rng):
    """The sampler as first written, on Fraction arithmetic: a ticket r/2^32 of
    the total width walked down the parts, then int() of the point times 2^48."""
    parts = sset.parts
    widths = [p.width for p in parts]
    total = sum(widths, F(0))
    if total == 0:
        return parts[rng.randrange(len(parts))].lo
    ticket = F(rng.getrandbits(32), 1 << 32) * total
    for p, width in zip(parts, widths):
        if ticket <= width:
            snapped = F(int((p.lo + ticket) * (1 << 48)), 1 << 48)
            return snapped if snapped >= p.lo else p.lo
        ticket -= width
    return parts[-1].hi


def test_sample_in_set_matches_the_fraction_reference():
    # same draws from the same rng calls, on multi-part sets with zero-width
    # parts, negative parts and endpoints of up to 80 bits
    rng = random.Random(48)
    sets = []
    for _ in range(1500):
        bits = rng.choice((3, 20, 55, 80))
        parts = []
        for _ in range(rng.randint(1, 6)):
            lo = F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
            width = F(0) if rng.random() < 0.3 else F(rng.randint(1, 2**bits), rng.randint(1, 2**(bits + 3)))
            parts.append(ClosedInterval(lo, lo + width))
        sets.append(normalize(parts))
    sets += [CantorSystem(5).space(), normalize([ClosedInterval(F(k, 7), F(k, 7)) for k in range(5)])]
    for k, sset in enumerate(sets):
        ours, ref = random.Random(k), random.Random(k)
        for _ in range(4):
            x = _sample_in_set(sset, ours)
            assert x == ref_sample_in_set(sset, ref) and type(x) is F, (sset, x)
        assert ours.getstate() == ref.getstate()
    assert any(len(s.parts) > 1 and any(p.width == 0 for p in s.parts) for s in sets)


def fraction_parts_sample_in_set(sset, rng):
    """The sampler as it read the Fraction parts, taken back to integers over their lcm."""
    parts = sset.parts
    den = math.lcm(*(e.denominator for p in parts for e in (p.lo, p.hi)))
    ends = [(p.lo.numerator * (den // p.lo.denominator), p.hi.numerator * (den // p.hi.denominator)) for p in parts]
    total = sum(hi - lo for lo, hi in ends)
    if total == 0:
        return parts[rng.randrange(len(parts))].lo
    ticket = rng.getrandbits(32) * total
    for p, (lo, hi) in zip(parts, ends):
        width = (hi - lo) << 32
        if ticket <= width:
            raw = ((lo << 32) + ticket) << 16
            snapped = raw // den if raw >= 0 else -(-raw // den)
            if snapped * den < lo << 48:
                return p.lo
            if snapped * den > hi << 48:
                return p.hi
            return F(snapped, 1 << 48)
        ticket -= width
    return parts[-1].hi


def test_sample_in_set_on_integer_parts_matches_the_fraction_parts():
    # unreduced, negative and point parts: the same samples and the same rng state after
    rng = random.Random(20)
    for k in range(600):
        base = rng.choice((7, 2**20, 3**30))
        ends = sorted(rng.sample(range(-3 * base, 3 * base), 2 * rng.randint(1, 5)))
        parts = []
        for lo, hi in zip(ends[::2], ends[1::2]):
            hi = lo if rng.random() < 0.3 else hi
            f, g = rng.randint(1, 9), rng.randint(1, 9)
            parts.append((lo * f, base * f, hi * g, base * g))
        sset = from_int_set(parts)
        ours, ref = random.Random(k), random.Random(k)
        for _ in range(3):
            x = _sample_in_set(sset, ours)
            assert x == fraction_parts_sample_in_set(sset, ref) and type(x) is F, (parts, x)
        assert ours.getstate() == ref.getstate()


def test_sample_in_set_stays_inside_a_negative_part_off_the_grid():
    # snapping toward zero used to lift this sample to -93824992236885/2^48 > -1/3
    part = ClosedInterval(F(-1, 3) - F(1, 2**60), F(-1, 3))
    sset = normalize([part])
    x = _sample_in_set(sset, random.Random(0))
    assert sset.contains(x) and x == part.hi


sample_ends = st.one_of(
    st.builds(lambda n, d: F(n, d), st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
    st.builds(lambda n, s: F(n, 3) + F(s, 2**60), st.integers(-6, 6), st.sampled_from([-1, 1])),
    st.integers(-8, 8).map(lambda k: F(k, 4)),
)


@given(st.lists(st.tuples(sample_ends, st.one_of(st.just(F(0)), sample_ends.map(abs))), min_size=1, max_size=5),
       st.integers(0, 2**32))
@settings(max_examples=300)
def test_sample_in_set_lands_in_its_set(parts, seed):
    sset = normalize([ClosedInterval(lo, lo + width) for lo, width in parts])
    rng = random.Random(seed)
    for _ in range(4):
        assert sset.contains(_sample_in_set(sset, rng))


def test_perturbed_orbit_symbolic_kinds():
    gm = golden_mean_shift()
    x0 = SymbolicPoint(("0", "1"), ("0",))
    orbit = perturbed_orbit(gm, x0, 12, F(1, 32), seed=4)
    assert verify_jumps(gm, orbit) < F(1, 32)
    assert all(gm.contains_point(p) for p in orbit.points)

    od = OdometerSystem(8)
    orbit = perturbed_orbit(od, (0,) * 8, 12, F(1, 16), seed=4)
    assert verify_jumps(od, orbit) < F(1, 16)


def test_shift_perturbation_keeps_a_delta_below_two_to_the_minus_64():
    # the kept prefix must reach 2^-71 here; a cap at 64 symbols let jumps of 2^-64 through
    gm = golden_mean_shift()
    delta = F(1, 2**70)
    orbit = perturbed_orbit(gm, SymbolicPoint((), ("0",)), 12, delta, seed=3)
    assert len(orbit) == 12
    assert verify_jumps(gm, orbit) < orbit.claimed_delta == delta


def test_block_downsampling_amplification_bound():
    # jumps of the n-block downsampled orbit stay within the geometric bound,
    # cross-checked against direct simulation of the composed map
    rng = random.Random(3)
    for seed in range(8):
        system = random_zigzag_map(seed)
        L = system.lipschitz()
        n = rng.choice((2, 3))
        composed = iterate_pl(system, n)
        delta = F(1, 200)
        orbit = perturbed_orbit(system, F(1, 3), 3 * n + 1, delta, seed=seed)
        downsampled = PseudoOrbit(orbit.points[::n])
        bound = delta * sum(L**i for i in range(n))
        assert verify_jumps(composed, downsampled) <= bound


def test_finite_horizon_delta_consistency_with_downsampling():
    system = tent_map(2)
    n, eps = 3, F(1, 8)
    delta = finite_horizon_delta(system.lipschitz(), n, eps)
    for seed in range(10):
        orbit = perturbed_orbit(system, F(1, 3), n + 1, delta, seed=seed)
        # starting exactly on the first point keeps every step within eps
        rep = deviation(system, orbit.points[0], orbit)
        assert rep.max_deviation < eps


def test_orbit_serialization_round_trips():
    t2 = tent_map(2)
    orbit = perturbed_orbit(t2, F(1, 3), 10, F(1, 50), seed=2)
    assert orbit_from_csv(t2, orbit_to_csv(t2, orbit)).points == orbit.points
    again = orbit_from_json(t2, orbit_to_json(t2, orbit))
    assert again.points == orbit.points and again.claimed_delta == orbit.claimed_delta

    scheduled = PseudoOrbit(orbit.points, decay_schedule=tuple(F(1, 2**k) for k in range(1, 10)))
    again = orbit_from_json(t2, orbit_to_json(t2, scheduled))
    assert again.decay_schedule == scheduled.decay_schedule

    gm = golden_mean_shift()
    sym = perturbed_orbit(gm, SymbolicPoint(("0",), ("0", "1")), 6, F(1, 16), seed=3)
    assert orbit_from_csv(gm, orbit_to_csv(gm, sym)).points == sym.points


def test_orbit_parsers_refuse_what_they_do_not_read():
    # a misspelt claimedDelta used to switch the jump check off, and a second CSV
    # column was dropped without a word
    t2 = tent_map(2)
    with pytest.raises(ValueError, match="orbit JSON has the unknown field 'claimed_delta'"):
        orbit_from_json(t2, {"points": ["0", "1/2"], "claimed_delta": "0"})
    with pytest.raises(ValueError, match="orbit CSV row '1/2,3/4' has more than one column"):
        orbit_from_csv(t2, "1/2,3/4\n1/3\n")
    # an empty trailing column is still one point per row
    assert orbit_from_csv(t2, "1/2,\n1/3, \n").points == (F(1, 2), F(1, 3))


# -- early-stopping tracing test ----------------------------------------------------

# (system, start point, jump bound) per kind; logistic orbits stay short because
# exact iteration doubles the denominators every step
TRACE_CASES = {
    "tent": (tent_map(2), F(1, 3), F(1, 64), 10),
    "zigzag": (random_zigzag_map(5), F(2, 7), F(1, 64), 10),
    "cantor": (CantorSystem(4, "fold"), F(2, 3), F(1, 81), 10),
    "logistic": (logistic_map(4), F(1, 3), F(1, 64), 6),
    "odometer": (OdometerSystem(8), (0, 1, 1, 0, 1, 0, 0, 1), F(1, 16), 10),
    "golden-mean": (golden_mean_shift(), SymbolicPoint(("0", "1"), ("0",)), F(1, 32), 10),
}


@given(st.sampled_from(sorted(TRACE_CASES)), st.integers(0, 10**6), st.integers(1, 10))
@settings(max_examples=120, deadline=None)
def test_traces_is_deviation_cut_at_epsilon(kind, seed, length):
    system, x0, delta, max_length = TRACE_CASES[kind]
    length = min(length, max_length)
    rng = random.Random(seed)
    orbit = perturbed_orbit(system, x0, length, delta, seed=seed)
    other = perturbed_orbit(system, x0, length, delta, seed=seed + 1)
    y = rng.choice(orbit.points + other.points)
    full = deviation(system, y, orbit)
    # ε on both sides of every step distance, and on it (the tubes are closed)
    d = rng.choice(full.per_step)
    for epsilon in {d, d / 2, d * 2, full.max_deviation, F(1, 2**20)} - {0}:
        got = traces(system, y, orbit, epsilon)
        if full.max_deviation > epsilon:
            assert got is None
        else:
            assert got is not None
            assert got.max_deviation == full.max_deviation
            assert got.per_step == full.per_step
            assert got.exact_hit == full.exact_hit


class _CountingSystem:
    def __init__(self, system):
        self.system, self.evaluations = system, 0

    def evaluate(self, x):
        self.evaluations += 1
        return self.system.evaluate(x)

    def distance(self, a, b):
        return self.system.distance(a, b)


def test_traces_stops_at_the_first_tube_it_leaves():
    t2 = tent_map(2)
    orbit = true_orbit(t2, F(1, 3), 12)
    # y = 1/3 + 1/8 is 1/8 off at step 0 and 1/4 off at step 1
    counted = _CountingSystem(t2)
    assert traces(counted, F(1, 3) + F(1, 8), orbit, F(3, 16)) is None
    assert counted.evaluations == 1
    counted = _CountingSystem(t2)
    assert traces(counted, F(1, 3), orbit, F(1, 100)) == deviation(t2, F(1, 3), orbit)
    assert counted.evaluations == 11


def test_traces_under_a_negative_epsilon_is_none():
    # every distance exceeds a negative ε, a zero one included
    t2 = tent_map(2)
    assert traces(t2, F(1, 3), PseudoOrbit((F(1, 3) + F(1, 1000),)), -1) is None
    assert traces(t2, F(1, 3), true_orbit(t2, F(1, 3), 3), F(-1, 10**30)) is None
    assert traces(t2, F(1, 3), true_orbit(t2, F(1, 3), 3), 0) == deviation(t2, F(1, 3), true_orbit(t2, F(1, 3), 3))


class _PathSystem(IntervalSystem):
    """Steps along a given path of rationals, whatever the point; the interval metric."""

    def __init__(self, path):
        self.path, self.steps = path, 0

    def evaluate(self, x):
        self.steps += 1
        return self.path[self.steps]


def _reference_report(path, points, bound):
    """The report with Fraction comparisons: None when some deviation exceeds the bound."""
    per = tuple(abs(z - x) for z, x in zip(path, points))
    if bound is not None and max(per) > bound:
        return None
    return DeviationReport(max(per), per, path[-1] == points[-1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_reports_match_fraction_comparisons(data):
    # orbit-sized deviations within a factor of two of the one before, where the bit-length
    # test leaves the decision to the cross product, equal ones, zeros from equal points, and
    # bounds at, just above and just below the maximum and at its negative
    big = st.integers(1, 2**3000)
    dev = data.draw(st.builds(F, big, big))
    devs = []
    for _ in range(data.draw(st.integers(1, 8))):
        devs.append(dev)
        near = st.fractions(F(1, 2), 2, max_denominator=2**64).map((dev or F(1, 3)).__mul__)
        dev = data.draw(st.one_of(st.just(dev), st.just(F(0)), st.builds(F, big, big), near))
    path = [data.draw(st.builds(F, big, big)) for _ in devs]
    points = [z + d * data.draw(st.sampled_from([1, -1])) for z, d in zip(path, devs)]
    worst = max(devs)
    bound = data.draw(st.sampled_from([None, worst, worst * F(2**64 + 1, 2**64), worst * F(2**64 - 1, 2**64),
                                       -worst, *devs]))
    orbit = PseudoOrbit(tuple(points))
    report = deviation(_PathSystem(path), path[0], orbit)
    assert report == _reference_report(path, points, None)
    assert all(type(d) is F for d in report.per_step)
    if bound is not None:
        assert traces(_PathSystem(path), path[0], orbit, bound) == _reference_report(path, points, bound)
