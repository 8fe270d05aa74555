"""Decision procedures and constructive solvers for pseudo-orbit tracing.

The exact oracle decides, for piecewise-affine interval systems and for the
symbolic systems, whether a finite pseudo-orbit admits a point whose orbit
stays inside the closed ε-tubes around it; the exact-hit solver additionally
demands that the tracer land exactly on the final orbit point.  On top of
those sit the iterate reduction, the staged construction for decaying
pseudo-orbits, and the witness builders for the counterexample scenarios.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Optional

from .numerics import (
    IntPart,
    RationalIntervalSet,
    from_int_set,
    int_contains,
    int_intersect,
    int_tube,
    interior_grid,
    rat,
    rat_str,
)
from .pseudo_orbits import (
    INSIDE,
    DeviationReport,
    PseudoOrbit,
    _interval_steps,
    deviation,
    traces,
    verify_jumps,
)
from .systems import (
    CantorSystem,
    DomainError,
    OdometerSystem,
    PiecewiseLinearMap,
    Point,
    QuadraticFamilyMap,
    ShiftSystem,
    SLimitSystem,
    SymbolicPoint,
    SystemSpec,
    cylinder_length,
    dyadic_ball,
    iterate,
    iterate_pl,
    require,
    tent_map,
)
from .systems import orbit as true_orbit

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
# the ball-expansion radius ν behind the iterate route and the staged construction
_NU = Fraction(1, 4)
# the oracle's exhaustive odometer search stops here: 2^20 words take seconds
_ODOMETER_SEARCH_DEPTH = 20


@dataclass(frozen=True)
class ShadowCertificate:
    """Outcome of a tracing query.

    On plain-oracle certificates ``feasible_set`` is the exact set of
    initial points whose forward orbit stays in every closed ε-tube, and
    ``feasible`` is equivalent to it being nonempty.  Exact-hit certificates
    leave it None (that set can have exponentially many components and the
    exact-hit question does not need it; ask the oracle when you want it)
    and ``feasible`` refers to the terminal-hit question.  Symbolic systems
    carry the merged constraint word in ``cylinder`` instead.  ``system`` is
    the system the query ran on; it writes the witness.

    The tube sets are propagated on unreduced integers, and ``feasible_set``
    and the ``transcript`` sets keep them: no Fraction is built unless a
    caller reads a set's parts, and ``to_json`` takes one gcd per endpoint.
    """

    system: SystemSpec
    feasible: bool
    feasible_set: Optional[RationalIntervalSet]
    witness: Optional[Point]
    report: Optional[DeviationReport]
    constants: dict
    transcript: tuple = ()
    cylinder: Optional[str] = None
    infeasible_reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "feasibleSet": self.feasible_set.to_json() if self.feasible_set is not None else None,
            "witness": None if self.witness is None else self.system.point_to_str(self.witness),
            "report": None if self.report is None else self.report.to_json(),
            "constants": {k: str(v) for k, v in sorted(self.constants.items())},
            "transcript": [s.to_json() if isinstance(s, RationalIntervalSet) else str(s) for s in self.transcript],
            "cylinder": self.cylinder,
            "infeasibleReason": self.infeasible_reason,
        }


# ---------------------------------------------------------------------------
# constants from the expansion data
# ---------------------------------------------------------------------------


def ball_expanding_delta(mu, nu, epsilon) -> tuple[Fraction, Fraction]:
    """Tube radius ε′ = min(ε, ν) and jump bound δ = (μ−1)·ε′."""
    mu, nu, epsilon = rat(mu), rat(nu), rat(epsilon)
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    if nu <= 0 or epsilon <= 0:
        raise ValueError("nu and epsilon must be positive")
    eps_prime = min(epsilon, nu)
    return eps_prime, (mu - 1) * eps_prime


def finite_horizon_delta(lipschitz, n: int, epsilon) -> Fraction:
    """Jump-and-start bound that keeps a length-(n+1) block within ε.

    With e_0 < δ and e_{k+1} ≤ L·e_k + δ, the geometric sum stays below ε
    when δ = ε(L−1)/(L^{n+1}−1); for L = 1 the accumulation is additive.
    """
    L = max(rat(lipschitz), ONE)
    epsilon = rat(epsilon)
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if L == 1:
        return epsilon / (n + 1)
    return epsilon * (L - 1) / (L ** (n + 1) - 1)


# ---------------------------------------------------------------------------
# exact oracle and exact-hit solver for interval systems
# ---------------------------------------------------------------------------


def _tubes(system, orbit: PseudoOrbit, epsilon: Fraction) -> list[list[IntPart]]:
    """The closed ε-tubes about the orbit points, in integer form."""
    space, rn, rd = system._int_space, epsilon.numerator, epsilon.denominator
    return [int_tube(space, x.numerator, x.denominator, rn, rd) for x in orbit.points]


def _backward_tube_sets(system, orbit: PseudoOrbit, epsilon: Fraction, preimage) -> list[list[IntPart]]:
    """T_i = tube_i ∩ f⁻¹(T_{i+1}) in integer form; T_0 is the full ε-tracing
    set.  ``preimage`` is the system's integer preimage step, exact or an
    outer enclosure, which makes every T_i an outer enclosure too."""
    sets = _tubes(system, orbit, epsilon)
    for i in range(len(sets) - 2, -1, -1):
        sets[i] = int_intersect(sets[i], preimage(sets[i + 1])) if sets[i + 1] else []
    return sets


def _forward_sets(system, sets: list) -> list:
    """F_0 = S_0, F_i = f(F_{i−1}) ∩ S_i over integer sets, in place: F_i is the
    exact set of i-th iterates of points whose orbit stays in S_0, …, S_i."""
    step = system._int_forward
    for i in range(1, len(sets)):
        sets[i] = int_intersect(step(sets[i - 1]), sets[i]) if sets[i - 1] else []
    return sets


def _forward_tube_sets(system, orbit: PseudoOrbit, epsilon: Fraction) -> list[list[IntPart]]:
    """F_i = exact set of i-th iterates of tube-respecting tracers, in integer form."""
    return _forward_sets(system, _tubes(system, orbit, epsilon))


def _chain_back(system, forward: list, last: tuple[int, int]) -> list[tuple[int, int]]:
    """The chain w_0, …, w_m = last ∈ F_m with w_i ∈ F_i and f(w_i) = w_{i+1},
    as integer pairs: the walk back takes the leftmost preimage in each F_i."""
    chain = [last]
    for s in reversed(forward[:-1]):
        w = next((c for c in system._int_point_preimages(*chain[-1]) if int_contains(s, *c)), None)
        if w is None:
            raise AssertionError("reachable point lost its preimage; forward sets inconsistent")
        chain.append(w)
    chain.reverse()
    return chain


def shadow_oracle(system: SystemSpec, orbit: PseudoOrbit, epsilon) -> ShadowCertificate:
    """Exact decision: does some point ε-trace the orbit in closed tubes?

    Piecewise-affine interval systems get the full initial feasible set by
    branchwise constraint propagation; the witness is the leftmost feasible
    point.  The interval-plus-tail homeomorphism is decided through exact
    forward image sets (its inverse has irrational branch endpoints, so no
    initial set is reported).  Symbolic systems reduce to cylinder-constraint
    merging; when f⁻ᵐ(xₘ) fails on an odometer deeper than 20, the word search
    is refused with a DomainError.  Quadratic maps are rejected here; use
    :func:`quadratic_shadow_verdict`.
    """
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return _ORACLES[require(type(system), "shadow_oracle", _ORACLES)](system, orbit, epsilon)


def _tube_oracle(system, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowCertificate:
    sets = [from_int_set(s) for s in _backward_tube_sets(system, orbit, epsilon, system._int_preimage)]
    feasible_set = sets[0]
    constants = {"epsilon": rat_str(epsilon)}
    if feasible_set.is_empty:
        return ShadowCertificate(system, False, feasible_set, None, None, constants, tuple(sets),
                                 infeasible_reason="no point stays inside every closed tube")
    witness = feasible_set.leftmost()
    report = deviation(system, witness, orbit)
    return ShadowCertificate(system, True, feasible_set, witness, report, constants, tuple(sets))


def h_shadow_solve(system: SystemSpec, orbit: PseudoOrbit, epsilon) -> ShadowCertificate:
    """Exact-hit variant: the tracer must satisfy f^m(y) = x_m exactly.

    Solved by exact forward image sets followed by a backward point-preimage
    walk from x_m; infeasibility of the exact hit is reported separately
    from emptiness of the tubes.
    """
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return _EXACT_HIT_SOLVERS[require(type(system), "h_shadow_solve", _EXACT_HIT_SOLVERS)](system, orbit, epsilon)


def _tube_exact_hit(system, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowCertificate:
    forward = _forward_tube_sets(system, orbit, epsilon)
    transcript = tuple(from_int_set(s) for s in forward)
    constants = {"epsilon": rat_str(epsilon)}
    last = (orbit.points[-1].numerator, orbit.points[-1].denominator)
    if not forward[-1]:
        return ShadowCertificate(system, False, None, None, None, constants, transcript,
                                 infeasible_reason="no point stays inside every closed tube")
    if not int_contains(forward[-1], *last):
        return ShadowCertificate(system, False, None, None, None, constants, transcript,
                                 infeasible_reason="final orbit point unreachable inside the tubes")
    chain = _chain_back(system, forward, last)
    report = _chain_report(system, chain, orbit)
    return ShadowCertificate(system, True, None, Fraction(*chain[0]), report, constants, transcript)


def _chain_report(system, chain: list[tuple[int, int]], orbit: PseudoOrbit) -> DeviationReport:
    """The deviation report of the chain's first point w₀, read off the chain
    w₀, …, wₘ = xₘ once f(wᵢ) = wᵢ₊₁ is re-checked at every step by the map's
    own integer evaluation; a miss raises AssertionError."""
    per = []
    for i, ((wn, wd), x) in enumerate(zip(chain, orbit.points)):
        if i:
            fn, fd = system._int_value(*chain[i - 1])
            if fn * wd != wn * fd:
                raise AssertionError("reconstructed witness misses the terminal point")
        xn, xd = x.numerator, x.denominator
        per.append(Fraction(abs(wn * xd - xn * wd), wd * xd))
    return DeviationReport(max(per), tuple(per), True)


def _slimit_oracle(system: SLimitSystem, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowCertificate:
    # the squaring branch has irrational inverse branches, so the initial
    # feasible set is not rationally representable; feasibility itself is
    # still exact through forward image sets
    forward = tuple(from_int_set(s) for s in _forward_tube_sets(system, orbit, epsilon))
    constants = {"epsilon": rat_str(epsilon)}
    if forward[-1].is_empty:
        return ShadowCertificate(system, False, None, None, None, constants, forward,
                                 infeasible_reason="no point stays inside every closed tube")
    # a rational witness may still exist, try tube points
    candidates = [c for part in forward[0].parts for c in {part.lo, part.hi, (part.lo + part.hi) / 2}]
    for cand in sorted(candidates):
        rep = traces(system, cand, orbit, epsilon)
        if rep is not None:
            return ShadowCertificate(system, True, None, cand, rep, constants, forward)
    return ShadowCertificate(system, True, None, None, None, constants, forward)


# ---------------------------------------------------------------------------
# symbolic solver
# ---------------------------------------------------------------------------


def _shift_solve(system: ShiftSystem, orbit: PseudoOrbit, epsilon: Fraction) -> ShadowCertificate:
    # the witness is prefix + x_m, so every "feasible" here is already an exact
    # hit; "infeasible" is incomplete, it tries one completion only
    pts = orbit.points
    m = len(pts) - 1
    k = cylinder_length(epsilon)
    constants = {"epsilon": rat_str(epsilon), "cylinder": k}
    merged: dict[int, str] = {}
    for i, x in enumerate(pts):
        for j in range(k):
            want = x.symbol(j)
            if merged.setdefault(i + j, want) != want:
                return ShadowCertificate(system, False, None, None, None, constants,
                                         infeasible_reason=f"conflicting symbol constraints at position {i + j}")
    prefix = tuple(merged.get(p, pts[min(p, m)].symbol(p - min(p, m))) for p in range(m))
    witness = SymbolicPoint(prefix + pts[-1].preamble, pts[-1].cycle)
    if not system.contains_point(witness):
        # complete only when forbidden words fit inside the constraint
        # window (k+1 symbols); coarser tubes would need a completion search
        return ShadowCertificate(system, False, None, None, None, constants,
                                 infeasible_reason="merged constraint word contains a forbidden factor")
    report = traces(system, witness, orbit, epsilon)
    if report is None:
        return ShadowCertificate(system, False, None, None, None, constants,
                                 infeasible_reason="canonical completion leaves the tubes")
    cyl = "".join(merged.get(p, "·") for p in range(m + k))
    return ShadowCertificate(system, True, None, witness, report, constants, cylinder=cyl)


def _odometer_solve(system: OdometerSystem, orbit: PseudoOrbit, epsilon: Fraction,
                    require_exact_hit: bool = False) -> ShadowCertificate:
    pts = orbit.points
    m = len(pts) - 1
    constants = {"epsilon": rat_str(epsilon)}
    y = system.iterate_inverse(pts[-1], m)
    report = traces(system, y, orbit, epsilon)
    if report is not None:
        return ShadowCertificate(system, True, None, y, report, constants)
    # add-one mod 2^depth is a bijection, so y is the only word with f^m(y) = x_m;
    # the oracle falls back to exhaustive search
    if not require_exact_hit:
        if system.depth > _ODOMETER_SEARCH_DEPTH:
            raise DomainError(f"odometer word search is limited to depth {_ODOMETER_SEARCH_DEPTH}, "
                              f"got depth {system.depth}")
        for value in range(1 << system.depth):
            cand = system.int_to_word(value)
            rep = traces(system, cand, orbit, epsilon)
            if rep is not None:
                return ShadowCertificate(system, True, None, cand, rep, constants)
    return ShadowCertificate(system, False, None, None, None, constants,
                             infeasible_reason="no word traces the orbit at this radius")


_ORACLES = {
    PiecewiseLinearMap: _tube_oracle,
    CantorSystem: _tube_oracle,
    SLimitSystem: _slimit_oracle,
    ShiftSystem: _shift_solve,
    OdometerSystem: _odometer_solve,
}
_EXACT_HIT_SOLVERS = {
    PiecewiseLinearMap: _tube_exact_hit,
    CantorSystem: _tube_exact_hit,
    ShiftSystem: _shift_solve,
    OdometerSystem: partial(_odometer_solve, require_exact_hit=True),
}


# ---------------------------------------------------------------------------
# three-valued oracle for the quadratic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticShadowVerdict:
    value: str  # "yes" | "no" | "unknown"
    witness: Optional[Fraction]
    report: Optional[DeviationReport]
    bits_used: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": None if self.witness is None else rat_str(self.witness),
            "report": None if self.report is None else self.report.to_json(),
            "bitsUsed": self.bits_used,
        }


def quadratic_shadow_verdict(system: QuadraticFamilyMap, orbit: PseudoOrbit, epsilon) -> QuadraticShadowVerdict:
    """YES/NO/UNKNOWN tracing verdict for the smooth families.

    YES is certified by an explicit rational witness iterated exactly; NO by
    emptiness of an outward-rounded backward enclosure of the tube sets;
    anything else escalates precision from 64 to 512 bits and finally reports
    UNKNOWN.  An x₀ whose enclosures lie in every tube is in the tracing set: no outer one is built.
    """
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bits, grid = 64, 32
    x0, tried = orbit.points[0], set()
    if system.contains_point(x0) and all(tlo <= lo and hi <= thi for (tlo, thi), (lo, hi)
                                         in zip((dyadic_ball(x, epsilon, bits) for x in orbit.points),
                                                system.enclosures(x0, bits))):
        return QuadraticShadowVerdict("yes", x0, traces(system, x0, orbit, epsilon), bits)
    while True:
        # outer backward propagation: tubes relaxed by the enclosure width
        outer0 = from_int_set(_backward_tube_sets(system, orbit, epsilon,
                                                  partial(system._int_preimage_outer, bits=bits))[0])
        if outer0.is_empty:
            return QuadraticShadowVerdict("no", None, None, bits)
        found = _quadratic_witness_search(system, orbit, epsilon, _witness_candidates(x0, outer0, grid, tried), bits)
        if found is not None:
            return QuadraticShadowVerdict("yes", *found, bits)
        if bits >= 512:
            return QuadraticShadowVerdict("unknown", None, None, bits)
        bits, grid = 2 * bits, 4 * grid


def _witness_candidates(x0: Fraction, outer0: RationalIntervalSet, grid: int, tried: set) -> Iterator[Fraction]:
    """x₀, then per part of the outer enclosure of the tracing set its ends, midpoint and grid, as they
    are tried; each once per verdict (``tried``): one that fails at one precision fails at all."""
    parts = (chain((p.lo, p.hi, (p.lo + p.hi) / 2), (p.lo + t for t in interior_grid(p.width, grid - 1)))
             for p in outer0.parts)
    for cand in chain([x0], chain.from_iterable(parts)):
        if cand not in tried:
            tried.add(cand)
            yield cand


def _quadratic_witness_search(system: QuadraticFamilyMap, orbit: PseudoOrbit, epsilon: Fraction,
                              candidates: Iterable[Fraction], bits: int) -> Optional[tuple[Fraction, DeviationReport]]:
    """The first candidate in the first tube that traces, with its report.  A candidate y is rejected
    with no exact iteration when the enclosure of some fⁱ(y) at ``bits`` lies wholly outside its tube."""
    tube0, tubes = system.tube(orbit.points[0], epsilon), [dyadic_ball(x, epsilon, bits) for x in orbit.points]
    for cand in candidates:
        if not tube0.contains(cand) or any(hi < tlo or lo > thi for (tlo, thi), (lo, hi)
                                           in zip(tubes, system.enclosures(cand, bits))):
            continue
        rep = traces(system, cand, orbit, epsilon)
        if rep is not None:
            return cand, rep
    return None


# ---------------------------------------------------------------------------
# iterate reduction
# ---------------------------------------------------------------------------


def h_shadow_via_iterate(system: PiecewiseLinearMap, n: int, region: RationalIntervalSet,
                         orbit: PseudoOrbit, epsilon) -> ShadowCertificate:
    """Exact-hit tracing of an orbit of f obtained by solving for fⁿ.

    Prepends a backward extension z with f^{n−r}(z) = x_0 inside the region,
    downsamples the extended sequence through n-blocks, solves the exact-hit
    problem for the composed map, and pushes the solution forward.  The
    reduction needs f(region) ⊇ region, decided exactly; a region or orbit
    that fails it is refused with a DomainError.
    """
    epsilon = rat(epsilon)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return h_shadow_solve(system, orbit, epsilon)
    if not region.subset_of(system.forward_image(region)):
        raise DomainError("f(region) does not cover the region")
    for p in orbit.points:
        if not region.contains(p):
            raise DomainError("orbit leaves the declared region")

    composed = iterate_pl(system, n)
    L = system.lipschitz()
    eps_prime = finite_horizon_delta(L, n, epsilon)
    mu_n = composed.min_slope_modulus()
    solve_radius, delta_certified = (
        ball_expanding_delta(mu_n, _NU, eps_prime) if mu_n > 1 else (eps_prime, None)
    )

    m = orbit.last_index
    j, r = divmod(m, n)
    # the backward extension z, …, f^{n−r}(z) = x_0 with z, …, f^{n−r−1}(z) in the region
    x0 = (orbit.points[0].numerator, orbit.points[0].denominator)
    reach = _forward_sets(system, [region.int_parts] * (n - r) + [[(*x0, *x0)]])
    if not reach[-1]:
        raise DomainError("no backward extension of the start point inside the region")
    extended = [Fraction(*w) for w in _chain_back(system, reach, x0)[:-1]] + list(orbit.points)  # y_0 … y_{(j+1)n}
    downsampled = PseudoOrbit(tuple(extended[k * n] for k in range(j + 2)))
    worst = verify_jumps(composed, downsampled)
    if delta_certified is not None and worst >= delta_certified:
        raise DomainError("downsampled jumps exceed the bound certified for the composed map")

    inner = h_shadow_solve(composed, downsampled, solve_radius)
    constants = {
        "epsilon": rat_str(epsilon),
        "epsilonPrime": rat_str(eps_prime),
        "solveRadius": rat_str(solve_radius),
        "n": n,
        "r": r,
        "downsampledJump": rat_str(worst),
    }
    if not inner.feasible:
        return ShadowCertificate(system, False, inner.feasible_set, None, None, constants,
                                 inner.transcript, infeasible_reason=inner.infeasible_reason)
    witness = iterate(system, inner.witness, n - r)
    report = deviation(system, witness, orbit)
    if not report.exact_hit:
        raise AssertionError("iterate-route witness misses the terminal point")
    return ShadowCertificate(system, True, inner.feasible_set, witness, report, constants, inner.transcript)


# ---------------------------------------------------------------------------
# staged construction for decaying pseudo-orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagedShadowLog:
    stage_points: tuple
    stage_horizons: tuple[int, ...]
    stage_bounds: tuple[Fraction, ...]
    condition_checks: tuple[dict, ...]
    completed: bool
    failed_stage: Optional[int] = None

    def all_conditions_hold(self) -> bool:
        return self.completed and all(all(c.values()) for c in self.condition_checks)

    def to_json(self) -> dict:
        return {
            "stagePoints": [rat_str(p) for p in self.stage_points],
            "stageHorizons": list(self.stage_horizons),
            "stageBounds": [rat_str(b) for b in self.stage_bounds],
            "conditionChecks": [dict(c) for c in self.condition_checks],
            "completed": self.completed,
            "failedStage": self.failed_stage,
        }


def asymptotic_shadow(system: PiecewiseLinearMap, orbit: PseudoOrbit, region: RationalIntervalSet,
                      epsilon, stages: int = 5) -> StagedShadowLog:
    """Stage-wise tracing of a decaying pseudo-orbit with halving accuracy.

    Stage i re-traces the splice of the previous tracer's true orbit with the
    tail of the input at accuracy ε_i = ε·2^{−i−1}, demanding an exact hit at
    each stage horizon.  Horizons are chosen greedily as the first index from
    which the remaining jumps fit the stage's jump bound, the ball-expansion
    bound at μ = the minimum slope modulus and ν = 1/4.
    """
    epsilon = rat(epsilon)
    if orbit.decay_schedule is None:
        raise ValueError("a decay schedule is required")
    mu = system.min_slope_modulus()
    if mu <= 1:
        raise DomainError("staged tracing needs a slope modulus above 1")

    jumps = [system.distance(system.evaluate(a), b) for a, b in zip(orbit.points, orbit.points[1:])]
    if all(jump == 0 for jump in jumps):
        check = {"a": True, "b": True, "c": True, "d": True}
        return StagedShadowLog((orbit.points[0],), (orbit.last_index,), (epsilon / 2,), (check,), True)

    bounds = [epsilon * Fraction(1, 2 ** (i + 1)) for i in range(stages + 1)]
    radii_and_deltas = [ball_expanding_delta(mu, _NU, b) for b in bounds]
    solve_radii = [r * INSIDE for r, _ in radii_and_deltas]
    deltas = [d * INSIDE for _, d in radii_and_deltas]

    # greedy horizons: k_i = first index whose tail jumps all stay below δ_i
    horizons = [0]
    for i in range(1, stages + 1):
        k = horizons[-1] + 1
        while k <= len(jumps) and any(jp >= deltas[i] for jp in jumps[k:]):
            k += 1
        if k > orbit.last_index - 1:
            return StagedShadowLog((), tuple(horizons), tuple(bounds), (), False, failed_stage=i)
        horizons.append(k)
    horizons.append(orbit.last_index)

    stage_points = []
    checks = []
    walk = None  # the previous stage tracer's true orbit, up to this stage's start
    for i in range(stages + 1):
        k_lo, k_hi = horizons[i], horizons[i + 1]
        head = orbit.points[:1] if walk is None else walk
        spliced = PseudoOrbit(tuple(head) + tuple(orbit.points[k_lo + 1 : k_hi + 1]))
        cert = h_shadow_solve(system, spliced, solve_radii[i])
        if not cert.feasible:
            return StagedShadowLog(tuple(stage_points), tuple(horizons[: i + 2]),
                                   tuple(bounds[: i + 1]), tuple(checks), False, failed_stage=i)
        z = cert.witness
        prev_walk, walk = walk, true_orbit(system, z, k_hi)
        stage_points.append(z)
        checks.append(_stage_conditions(system, prev_walk, walk, orbit, k_lo, bounds[i], epsilon, region))
    return StagedShadowLog(tuple(stage_points), tuple(horizons), tuple(bounds[: stages + 1]),
                           tuple(checks), True)


def _stage_conditions(system, prev_walk, walk, orbit, k_lo, bound, epsilon, region) -> dict:
    """Conditions (a)–(d) of one stage, read off the true orbit of its tracer
    up to the stage horizon (``walk``) and that of the previous stage's tracer
    up to this stage's start (``prev_walk``, None at stage 0)."""
    fresh = 0 if prev_walk is None else k_lo + 1
    return {
        "a": prev_walk is None or all(system.distance(p, w) < bound for p, w in zip(prev_walk, walk)),
        "b": all(system.distance(w, x) < bound for w, x in zip(walk[fresh:], orbit.points[fresh:])),
        "c": walk[-1] == orbit.points[len(walk) - 1],
        "d": all(region.distance_to(w) < epsilon for w in walk),
    }


def make_decaying_orbit(system: PiecewiseLinearMap, x0: Fraction, epsilon, stages: int,
                        block: int, seed: int) -> PseudoOrbit:
    """Seeded pseudo-orbit whose block-i jumps fit the stage-(i+1) bound of
    asymptotic_shadow, with a decay schedule attached."""
    epsilon = rat(epsilon)
    mu = system.min_slope_modulus()
    bounds = [epsilon * Fraction(1, 2 ** (i + 1)) for i in range(stages + 3)]
    deltas = [ball_expanding_delta(mu, _NU, b)[1] * INSIDE for b in bounds]
    rng = random.Random(seed)
    pts = [x0]
    for delta in deltas[1:]:  # block i walks within half the stage-(i+1) jump bound
        pts += _interval_steps(system, pts[-1], block + 1, delta * HALF, rng, None)[1:]
    return PseudoOrbit(tuple(pts), decay_schedule=tuple(delta for delta in deltas[1:] for _ in range(block)))


# ---------------------------------------------------------------------------
# witness builders for the counterexample scenarios
# ---------------------------------------------------------------------------


def tent_critical_orbit_gap(lam, horizon: int) -> Fraction:
    """min_{0<n≤horizon} |T_λⁿ(c) − c|, exact."""
    return min((abs(x - HALF) for x in true_orbit(tent_map(lam), HALF, horizon)[1:]), default=None)


def nonshadow_witness_tent(lam, epsilon, delta, horizon: int = 200) -> tuple[PseudoOrbit, ShadowCertificate]:
    """Deflected pseudo-orbit through the kink of a slope-λ tent map,
    together with the oracle verdict on it; success means an empty feasible
    set.  Requires 1 < λ < 2 and a critical orbit staying more than 2ε away
    from the kink up to the horizon.  The orbit is long enough for a
    deflection δ to outgrow the tube radius: 9 + ⌈log_λ(4ε/δ)⌉ points, 12
    without deflection.
    """
    lam, epsilon, delta = rat(lam), rat(epsilon), rat(delta)
    if not (1 < lam < 2):
        raise ValueError("tent slope must satisfy 1 < lambda < 2")
    gap = tent_critical_orbit_gap(lam, horizon)
    if gap <= 2 * epsilon:
        raise DomainError(
            f"critical-orbit gap {gap} is not above 2*epsilon at horizon {horizon}")
    system = tent_map(lam)
    length = 9 + math.ceil(math.log(float(4 * epsilon / delta)) / math.log(float(lam))) if delta > 0 else 12
    head = true_orbit(system, HALF, 2)  # the kink, its image and the point the deflection moves

    best = None
    for sign in (-1, 1):
        pts = head[:2] + true_orbit(system, head[2] + sign * delta / 2, length - 3)
        orbit = PseudoOrbit(tuple(pts), claimed_delta=delta if delta > 0 else None)
        cert = shadow_oracle(system, orbit, epsilon)
        cert = replace(cert, constants={**cert.constants, "delta": rat_str(delta), "lambda": rat_str(lam),
                                        "deflectionSide": "down" if sign < 0 else "up"})
        if not cert.feasible:
            return orbit, cert
        if best is None:
            best = (orbit, cert)
    return best


def slimit_minimal_tail_index(delta) -> int:
    """Smallest N with both g^N(1/2) = 2^(−2^N) < δ and 2^(−N) < δ."""
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    N = 1
    while not (Fraction(1, 2 ** (2**N)) < delta and Fraction(1, 2**N) < delta):
        N += 1
        if N > 64:
            raise ValueError("delta too small for a practical tail index")
    return N


def slimit_counterexample_check(system: SLimitSystem, N: int, epsilon, delta) -> dict:
    """Builds the squeeze-to-zero-then-jump-to-the-tail pseudo-orbit (the
    true orbit of 1/2 to g^N(1/2), then 0, then the tail point five times) and
    verifies exactly that (i) it is a δ-pseudo-orbit, (ii) the only point
    whose orbit converges to its constant tail is the tail point itself,
    and (iii) that point fails ε-tracing already at step 0.
    """
    epsilon, delta = rat(epsilon), rat(delta)
    if N > system.tail_depth:
        raise ValueError("N exceeds the tail depth of the space")
    gN = Fraction(1, 2 ** (2**N))
    tail = Fraction(-1, 2**N)
    if not (gN < delta and -tail < delta):
        raise ValueError("preconditions g^N(1/2) < delta and 2^-N < delta fail")

    orbit = PseudoOrbit(tuple(true_orbit(system, HALF, N) + [ZERO] + [tail] * 5))

    worst = verify_jumps(system, orbit)
    is_delta_orbit = worst < delta

    # every point at or below 0 is fixed and isolated, and (0,1) slides down,
    # so the constant tail attracts exactly its own point
    tail_fixed = all(system.evaluate(p) == p for p in system.tail_points() + [ZERO, ONE])
    rng = random.Random(20)
    decreasing = all(
        system.evaluate(x) < x
        for x in (Fraction(rng.randint(1, 999), 1000) for _ in range(64))
        if 0 < x < 1
    )
    nonneg_stay_away = all(abs(x - tail) >= Fraction(1, 2**N) for x in (ZERO, ONE))
    unique_converger = tail_fixed and decreasing and nonneg_stay_away

    report = deviation(system, tail, orbit)
    step0 = report.per_step[0]

    return {
        "orbit": orbit,
        "N": N,
        "maxJump": worst,
        "isDeltaPseudoOrbit": is_delta_orbit,
        "uniqueTailConverger": unique_converger,
        "step0Deviation": step0,
        "step0Expected": HALF + Fraction(1, 2**N),
        "maxDeviation": report.max_deviation,
        "exceedsEpsilon": report.max_deviation >= HALF and HALF > epsilon,
        "passed": is_delta_orbit and unique_converger
        and step0 == HALF + Fraction(1, 2**N) and report.max_deviation > epsilon,
    }
