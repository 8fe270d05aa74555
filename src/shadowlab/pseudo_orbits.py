"""Construction, perturbation and verification of pseudo-orbits.

A pseudo-orbit is a finite point sequence whose consecutive jumps
d(f(x_i), x_{i+1}) stay below a claimed bound; an asymptotic variant carries
a per-index decay schedule.  Deviation reports measure how well a candidate
point traces the sequence, including whether it lands on the final entry
exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import RationalIntervalSet, from_int_set, int_intersect, int_tube, rat, rat_str
from .systems import (
    DomainError,
    IntervalSystem,
    OdometerSystem,
    Point,
    ShiftSystem,
    SymbolicPoint,
    SystemSpec,
    cylinder_length,
    require,
)

ZERO = Fraction(0)

# sampling radius shrink keeps strict jump bounds valid under closed-ball arithmetic
INSIDE = Fraction(1023, 1024)


@dataclass(frozen=True)
class PseudoOrbit:
    points: tuple
    claimed_delta: Optional[Fraction] = None
    decay_schedule: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("a pseudo-orbit has at least one point")
        if self.decay_schedule is not None and len(self.decay_schedule) < len(self.points) - 1:
            raise ValueError("decay schedule shorter than the jump list")

    def __len__(self):
        return len(self.points)

    @property
    def last_index(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True)
class DeviationReport:
    max_deviation: Fraction
    per_step: tuple[Fraction, ...]
    exact_hit: bool

    def to_json(self) -> dict:
        return {
            "maxDeviation": rat_str(self.max_deviation),
            "perStep": [rat_str(d) for d in self.per_step],
            "exactHit": self.exact_hit,
        }


def _jumps(system: SystemSpec, orbit: PseudoOrbit) -> list[Fraction]:
    """d(f(x_i), x_{i+1}) for each consecutive pair."""
    return [system.distance(system.evaluate(a), b) for a, b in zip(orbit.points, orbit.points[1:])]


def verify_jumps(system: SystemSpec, orbit: PseudoOrbit) -> Fraction:
    """Exact maximum of d(f(x_i), x_{i+1}); zero for a genuine orbit."""
    if len(orbit.points) == 0:
        raise ValueError("empty orbit")
    return max(_jumps(system, orbit), default=ZERO)


def checked_orbit(system: SystemSpec, points: Sequence[Point], claimed_delta=None,
                  decay_schedule=None) -> PseudoOrbit:
    """Build a PseudoOrbit, check that every point lies in the space and
    verify its claimed bounds against the system."""
    for i, p in enumerate(points):
        if not system.contains_point(p):
            raise DomainError(f"orbit point {i} ({system.point_to_str(p)}) is not in the space")
    orbit = PseudoOrbit(tuple(points), claimed_delta, decay_schedule)
    if claimed_delta is None and decay_schedule is None:
        return orbit
    jumps = _jumps(system, orbit)
    if claimed_delta is not None and max(jumps, default=ZERO) >= claimed_delta:
        raise ValueError("claimed delta not satisfied by the jump sequence")
    if decay_schedule is not None:
        for i, (jump, bound) in enumerate(zip(jumps, decay_schedule)):
            if jump > bound:
                raise ValueError(f"decay schedule violated at index {i}")
    return orbit


def _trace_report(system: SystemSpec, y: Point, orbit: PseudoOrbit,
                  bound: Optional[Fraction]) -> Optional[DeviationReport]:
    """The one step loop: distances d(f^i(y), x_i), iterating lazily and
    stopping at the first step beyond ``bound`` (never when it is None).

    Only a new running maximum can exceed the bound, so most steps cost one
    comparison, as the maximum alone did."""
    per = []
    worst = None
    z = y
    for i, x in enumerate(orbit.points):
        if i:
            z = system.evaluate(z)
        d = system.distance(z, x)
        per.append(d)
        dn, dd = d.numerator, d.denominator
        if worst is None or _exceeds(dn, dd, wn, wd):
            if bound is not None and _exceeds(dn, dd, bound.numerator, bound.denominator):
                return None
            worst, wn, wd = d, dn, dd
    return DeviationReport(worst, tuple(per), z == orbit.points[-1])


def _exceeds(an: int, ad: int, bn: int, bd: int) -> bool:
    """an/ad > bn/bd for ad, bd > 0.  A product of positive integers has the sum of their bit
    lengths or one less, so for positive an, bn sums two or more apart decide with no cross product."""
    if an <= 0 or bn <= 0:
        return an * bd > bn * ad
    s = an.bit_length() + bd.bit_length() - bn.bit_length() - ad.bit_length()
    return s > 1 or (s > -2 and an * bd > bn * ad)


def deviation(system: SystemSpec, y: Point, orbit: PseudoOrbit) -> DeviationReport:
    """Per-step distances d(f^i(y), x_i) plus the exact-terminal-hit flag."""
    return _trace_report(system, y, orbit, None)


def traces(system: SystemSpec, y: Point, orbit: PseudoOrbit, epsilon) -> Optional[DeviationReport]:
    """``deviation(system, y, orbit)`` when y ε-traces the orbit, else None.

    Stops at the first step whose distance exceeds ε, so a candidate that
    leaves an early tube is not iterated to the orbit's end."""
    return _trace_report(system, y, orbit, rat(epsilon))


_SAMPLE_BITS = 48


def _sample_in_set(sset: RationalIntervalSet, rng: random.Random) -> Fraction:
    """Seeded rational sample, measure-weighted, from a nonempty interval set.

    Samples snap toward zero to the 2^−48 grid (kept at their part's left
    end if that moves them below it, at its right end if above it) so that
    repeated sampling never compounds denominators across orbit steps.  The
    work is on the set's integer parts over one common denominator.
    """
    if sset.is_empty:
        raise ValueError("cannot sample the empty set")
    parts = sset.int_parts
    den = math.lcm(*(d for _, ld, _, hd in parts for d in (ld, hd)))
    ends = [(ln * (den // ld), hn * (den // hd)) for ln, ld, hn, hd in parts]
    total = sum(hi - lo for lo, hi in ends)
    if total == 0:
        return Fraction(ends[rng.randrange(len(ends))][0], den)
    # the ticket total·r/2^32 in units of 1/(den·2^32), walked down part by part
    ticket = rng.getrandbits(32) * total
    for lo, hi in ends:
        width = (hi - lo) << 32
        if ticket <= width:
            raw = ((lo << 32) + ticket) << (_SAMPLE_BITS - 32)  # lo + ticket, in units of 1/(den·2^48)
            snapped = raw // den if raw >= 0 else -(-raw // den)
            if snapped * den < lo << _SAMPLE_BITS:
                return Fraction(lo, den)
            if snapped * den > hi << _SAMPLE_BITS:
                return Fraction(hi, den)
            return Fraction(snapped, 1 << _SAMPLE_BITS)
        ticket -= width
    return Fraction(ends[-1][1], den)


def perturbed_orbit(system: SystemSpec, x0: Point, length: int, delta, seed: int,
                    region: Optional[RationalIntervalSet] = None) -> PseudoOrbit:
    """Seeded δ-pseudo-orbit: each step lands inside the closed ball of radius
    δ·(1−2⁻¹⁰) around the true image, intersected with the space (and with
    ``region`` when given).  The orbit truncates if the constraint set empties.
    """
    steps = _PERTURBED_STEPS[require(type(system), "perturbed_orbit", _PERTURBED_STEPS)]
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if length < 1:
        raise ValueError("length must be >= 1")
    pts = steps(system, x0, length, delta * INSIDE, random.Random(seed), region)
    return PseudoOrbit(tuple(pts), claimed_delta=delta)


def _interval_steps(system, x0, length, radius, rng, region) -> list:
    space = system._int_space if region is None else int_intersect(system._int_space, region.int_parts)
    rn, rd = radius.numerator, radius.denominator
    pts = [x0]
    for _ in range(length - 1):
        fx = system.evaluate(pts[-1])
        ball = int_tube(space, fx.numerator, fx.denominator, rn, rd)
        if not ball:
            break
        pts.append(_sample_in_set(from_int_set(ball), rng))
    return pts


def _odometer_steps(system: OdometerSystem, x0, length, radius, rng, region) -> list:
    # the metric saturates at the word length: agreeing on every bit means equal
    level = min(cylinder_length(radius), system.depth)
    pts = [x0]
    for _ in range(length - 1):
        word = list(system.evaluate(pts[-1]))
        for i in range(level, system.depth):
            word[i] = rng.randint(0, 1)
        pts.append(tuple(word))
    return pts


def _shift_steps(system: ShiftSystem, x0, length, radius, rng, region) -> list:
    level = cylinder_length(radius)
    pts = [x0]
    for _ in range(length - 1):
        prefix = list(system.evaluate(pts[-1]).prefix(level))
        tail = system.follower_continuation(prefix, rng, 6)
        candidate = SymbolicPoint(tuple(prefix + tail), system.admissible_cycle_from(prefix + tail))
        if not system.contains_point(candidate):
            raise DomainError("generated continuation is not admissible")
        pts.append(candidate)
    return pts


_PERTURBED_STEPS = {
    IntervalSystem: _interval_steps,
    OdometerSystem: _odometer_steps,
    ShiftSystem: _shift_steps,
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def orbit_to_csv(system: SystemSpec, orbit: PseudoOrbit) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for p in orbit.points:
        writer.writerow([system.point_to_str(p)])
    return buf.getvalue()


def orbit_from_csv(system: SystemSpec, text: str) -> PseudoOrbit:
    pts = [system.point_from_str(row[0]) for row in csv.reader(io.StringIO(text)) if row]
    return PseudoOrbit(tuple(pts))


def orbit_to_json(system: SystemSpec, orbit: PseudoOrbit) -> dict:
    data = {"points": [system.point_to_str(p) for p in orbit.points]}
    if orbit.claimed_delta is not None:
        data["claimedDelta"] = rat_str(orbit.claimed_delta)
    if orbit.decay_schedule is not None:
        data["decaySchedule"] = [rat_str(b) for b in orbit.decay_schedule]
    return data


def orbit_from_json(system: SystemSpec, data) -> PseudoOrbit:
    """Parse an orbit document; a missing field raises ValueError naming it."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"orbit JSON must be an object, not {type(data).__name__}")
    if "points" not in data:
        raise ValueError("orbit JSON lacks the field 'points'")
    for key in ("points", "decaySchedule"):
        if key in data and not isinstance(data[key], list):
            raise ValueError(f"orbit JSON field {key!r} must be a list, not {type(data[key]).__name__}")
    pts = tuple(system.point_from_str(t) for t in data["points"])
    delta = rat(data["claimedDelta"]) if "claimedDelta" in data else None
    sched = tuple(rat(b) for b in data["decaySchedule"]) if "decaySchedule" in data else None
    return PseudoOrbit(pts, delta, sched)
