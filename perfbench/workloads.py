"""Seeded query sets for the four benchmark workloads.

A workload is built from a ``random.Random`` seeded by the workload name and
the benchmark seed, so the same seed always gives the same queries.  Building
it is the benchmark's set-up: systems are constructed, pseudo-orbits are
generated and each map is certified once.  Each :class:`Query` is one call to
a public decision function of shadowlab plus an independent check of its
answer.  Calls go through module attributes at call time, so the per-layer
tracer sees them when it is installed.

The mix inside each workload is stratified: lengths, depths and query kinds
follow fixed schedules and only the concrete points, maps and parameters are
drawn from the seed.  That keeps the cost of one pass comparable across
seeds, which is what lets a bound on the medians mean something.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

from shadowlab import expansivity, kneading, numerics, pseudo_orbits, shadowing, systems

from layers import COUNT_UNITS

ZERO, ONE, HALF = F(0), F(1), F(1, 2)


@dataclass
class Query:
    """One timed call and the check of its answer (``None`` means correct)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    info: Optional[dict] = None


def _rand_in(rng: random.Random, lo: F, hi: F, bits: int = 24) -> F:
    return lo + (hi - lo) * F(rng.getrandbits(bits), 1 << bits)


def _rand_in_set(rng: random.Random, s, bits: int = 24) -> F:
    part = s.parts[rng.randrange(len(s.parts))]
    return _rand_in(rng, part.lo, part.hi, bits)


def _retrace(system, witness, orbit, epsilon, exact_hit: bool) -> Optional[str]:
    """A feasible answer must re-trace: within ε at every step (and land)."""
    if witness is None:
        return "feasible answer without a witness"
    rep = pseudo_orbits.deviation(system, witness, orbit)
    if rep.max_deviation > epsilon:
        return "witness leaves a tube"
    if exact_hit and not rep.exact_hit:
        return "witness misses the final point"
    return None


def _cylinder(epsilon: F) -> int:
    """Smallest k with 2^-k <= epsilon, i.e. prefix-k agreement <=> distance <= epsilon."""
    k = 0
    while F(1, 1 << k) > epsilon:
        k += 1
    return k


# ---------------------------------------------------------------------------
# pl-trace: exact-hit solving, the tube oracle and the iterate route on PL maps
# ---------------------------------------------------------------------------

PL_SOLVE_LENGTHS = tuple(range(2, 51, 2))
PL_ORACLE_LENGTHS = tuple(range(2, 21, 2))
ZIGZAG_ORACLE_MAX = 14  # feasible sets of multi-lap maps grow exponentially in components
PL_ITERATE_LENGTHS = (4, 9, 14, 19, 24)
PL_ZIGZAGS = 10  # many seeded maps with few orbits each, so no single map sets the cost
ZIGZAG_LAPS = 3  # a fixed lap count keeps the oracle's component growth alike across seeds


def _pl_families(rng: random.Random):
    """(label, map, region or None, margin, mu, nu, eps); the slopes, radii and
    jump bounds of the hshadow-4.3 and pl-region-5.2 scenarios."""
    fams = [("tent2", systems.tent_map(2), None, ZERO, F(2), F(1, 4), F(1, 10)),
            ("tent95", systems.tent_map(F(9, 5)),
             numerics.from_pairs([("1/20", "9/20"), ("11/20", "19/20")]),
             F(1, 20), F(9, 5), F(1, 20), F(1, 25))]
    for k in range(PL_ZIGZAGS):
        z = systems.random_zigzag_map(rng.getrandbits(32), ZIGZAG_LAPS, ZIGZAG_LAPS)
        fams.append((f"zigzag{k}", z, None, ZERO, z.min_slope_modulus(), F(1, 4), F(1, 10)))
    return fams


def _pl_orbit(rng, system, region, length, delta):
    """A seeded delta-pseudo-orbit of exactly ``length`` points (inside the region)."""
    carrier = region if region is not None else system.space()
    while True:
        x0 = _rand_in_set(rng, carrier)
        orbit = pseudo_orbits.perturbed_orbit(system, x0, length, delta,
                                              seed=rng.getrandbits(32), region=region)
        if len(orbit) == length:
            return orbit


def _check_solve(system, orbit, eps, certified):
    def check(cert):
        if not cert.feasible:
            return "exact-hit infeasible on a ball-expanding map within the jump bound" if certified else None
        return _retrace(system, cert.witness, orbit, eps, exact_hit=True)
    return check


def _check_oracle(system, orbit, eps, certified):
    def check(cert):
        solve = shadowing.h_shadow_solve(system, orbit, eps)
        if solve.feasible and (cert.feasible_set is None or not cert.feasible_set.contains(solve.witness)):
            return "exact-hit tracer missing from the oracle's feasible set"
        if not cert.feasible:
            return "oracle infeasible where tracing is guaranteed" if certified else None
        return _retrace(system, cert.witness, orbit, eps, exact_hit=False)
    return check


def _check_iterate(system, orbit, eps):
    def check(cert):
        direct = shadowing.h_shadow_solve(system, orbit, eps)
        if direct.feasible != cert.feasible:
            return "iterate route and direct solver disagree"
        if not cert.feasible:
            return "iterate route infeasible on a tent-map pseudo-orbit"
        return _retrace(system, cert.witness, orbit, eps, exact_hit=True)
    return check


def build_pl_trace(rng: random.Random) -> list[Query]:
    queries = []
    for k, (label, system, region, margin, mu, nu, eps) in enumerate(_pl_families(rng)):
        carrier = region if region is not None else system.space()
        grid = [nu * F(j, 11) for j in range(1, 11)]
        certified = expansivity.check_ball_expanding(
            system, expansivity.RegionSpec(carrier, margin), mu, nu, grid).certified
        eps_prime, delta = shadowing.ball_expanding_delta(mu, nu, eps)
        # the tent maps take every length; each zigzag map takes every fifth
        share = slice(None) if label.startswith("tent") else slice(k % 5, None, 5)
        for length in PL_SOLVE_LENGTHS[share]:
            orbit = _pl_orbit(rng, system, region, length, delta)
            queries.append(Query(
                f"solve/{label}", lambda s=system, o=orbit, e=eps_prime: shadowing.h_shadow_solve(s, o, e),
                _check_solve(system, orbit, eps_prime, certified)))
        for length in PL_ORACLE_LENGTHS[share]:
            if label.startswith("zigzag"):
                length = min(length, ZIGZAG_ORACLE_MAX)
            orbit = _pl_orbit(rng, system, region, length, delta)
            queries.append(Query(
                f"oracle/{label}", lambda s=system, o=orbit, e=eps_prime: shadowing.shadow_oracle(s, o, e),
                _check_oracle(system, orbit, eps_prime, certified)))

    # iterate-3.8: exact-hit tracing through the second iterate of the full tent map
    tent = systems.tent_map(2)
    whole = numerics.from_pairs([(0, 1)])
    support = numerics.from_pairs([("1/10", "9/10")])
    eps = F(1, 10)
    for length in PL_ITERATE_LENGTHS * 2:
        orbit = _pl_orbit(rng, tent, support, length, eps / 8)
        queries.append(Query(
            "iterate/tent2", lambda o=orbit: shadowing.h_shadow_via_iterate(tent, 2, whole, o, eps),
            _check_iterate(tent, orbit, eps)))
    return queries


# ---------------------------------------------------------------------------
# cantor-expand: the pair engine and piece sets of the middle-thirds system
# ---------------------------------------------------------------------------

CANTOR_SYSTEMS = ((6, "fold"), (6, "mirror"), (7, "fold"), (7, "mirror"))
# (left end of the expansion region, delta) per system: nearly the whole space
# at depth 6 (about 127 cells), the piece [2/3, 1] at depth 7 (64 cells)
CANTOR_EXPANDING = ((-ONE, F(1, 9)), (-ONE, F(1, 9)), (F(2, 3), F(1, 27)), (F(2, 3), F(1, 27)))
CANTOR_SAMPLE_PAIRS = 64


def _trimmed(rng, space, lo: F, hi: F):
    """The space inside [lo, hi], less seeded slivers of at most 1/81 at both
    ends: nearly the same cells on every seed, so the cost of a verdict
    barely depends on the seed."""
    window = (lo + _rand_in(rng, ZERO, F(1, 81), 12), hi - _rand_in(rng, ZERO, F(1, 81), 12))
    return numerics.intersect(space, numerics.from_pairs([window]))


def _check_expanding(system, carrier, delta, mu, seed):
    def check(verdict):
        if verdict.falsified:
            cx = verdict.counterexample
            x, y = numerics.rat(cx["x"]), numerics.rat(cx["y"])
            if not (carrier.contains(x) and carrier.contains(y)):
                return "counterexample pair leaves the region"
            gap = abs(y - x)
            if not (0 < gap < delta):
                return "counterexample pair is not delta-close"
            if abs(system.evaluate(x) - system.evaluate(y)) >= mu * gap:
                return "counterexample does not violate the expansion inequality"
            return None
        if not verdict.certified:
            return None
        rng = random.Random(seed)
        for _ in range(CANTOR_SAMPLE_PAIRS):
            x = _rand_in_set(rng, carrier)
            near = numerics.intersect(carrier, numerics.closed_ball(x, delta * F(1023, 1024)))
            y = _rand_in_set(rng, near)
            if y != x and abs(system.evaluate(x) - system.evaluate(y)) < mu * abs(y - x):
                return "certified verdict contradicted by a sampled pair"
        return None
    return check


def _check_ball_expanding(system, carrier, mu, grid, seed):
    space = system.space()

    def check(verdict):
        if verdict.falsified:
            cx = verdict.counterexample
            x, eps, missing = (numerics.rat(cx[k]) for k in ("x", "epsilon", "missingPoint"))
            if not carrier.contains(x) or not space.contains(missing):
                return "ball counterexample leaves the region or the space"
            if abs(missing - system.evaluate(x)) > mu * eps:
                return "missing point is not within mu*eps of f(x)"
            if any(abs(p - x) <= eps and space.contains(p) for p in system.point_preimages(missing)):
                return "missing point has a preimage inside the ball"
            return None
        if not verdict.certified:
            return None
        rng = random.Random(seed)
        for _ in range(CANTOR_SAMPLE_PAIRS):
            x = _rand_in_set(rng, carrier)
            eps = grid[rng.randrange(len(grid))]
            target = numerics.intersect(space, numerics.closed_ball(system.evaluate(x), mu * eps))
            t = _rand_in_set(rng, target)
            if not any(abs(p - x) <= eps for p in system.point_preimages(t)):
                return "certified ball verdict contradicted by a sampled target"
        return None
    return check


def _check_crosscheck(result):
    if not result["consistent"]:
        return "the two characterizations disagree"
    return None


def _check_ball_image(system, radius):
    ball = numerics.intersect(system.space(), numerics.closed_ball(ZERO, radius))

    def check(image):
        for part in ball.parts:
            if not (image.contains(system.evaluate(part.lo)) and image.contains(system.evaluate(part.hi))):
                return "image misses the image of a ball component endpoint"
        for part in image.parts:
            for y in (part.lo, part.hi):
                if not any(ball.contains(p) for p in system.point_preimages(y)):
                    return "image point without a preimage in the ball"
        return None
    return check


def build_cantor_expand(rng: random.Random) -> list[Query]:
    queries = []
    for (depth, mode), (lo, delta) in zip(CANTOR_SYSTEMS, CANTOR_EXPANDING):
        system = systems.CantorSystem(depth, mode)
        space = system.space()
        carrier = _trimmed(rng, space, lo, ONE)
        region = expansivity.RegionSpec(carrier)
        queries.append(Query(
            f"expanding/cantor{depth}{mode}",
            lambda s=system, r=region, d=delta: expansivity.check_expanding(s, r, d, F(3)),
            _check_expanding(system, carrier, delta, F(3), rng.getrandbits(32)),
            {"system": system, "carrier": carrier, "delta": delta}))
        ball_grid = (F(1, 81), F(1, 243))
        for _ in range(4):
            comp = space.parts[rng.randrange(len(space.parts))]
            carrier = numerics.RationalIntervalSet((comp,))
            region = expansivity.RegionSpec(carrier)
            queries.append(Query(
                f"ball/cantor{depth}{mode}",
                lambda s=system, r=region: expansivity.check_ball_expanding(s, r, F(3), F(1, 27), ball_grid),
                _check_ball_expanding(system, carrier, F(3), ball_grid, rng.getrandbits(32))))
        for x in (ZERO, space.parts[rng.randrange(len(space.parts))].lo):
            region = expansivity.RegionSpec(numerics.point_set(x))
            queries.append(Query(
                f"crosscheck/cantor{depth}{mode}",
                lambda s=system, r=region: expansivity.crosscheck_expanding_characterizations(s, r),
                _check_crosscheck))
        for radius in (F(c, 3 ** n) for n in range(1, depth + 1) for c in (1, 2)):
            queries.append(Query(
                f"ball_image/cantor{depth}{mode}",
                lambda s=system, r=radius: s.ball_image(r),
                _check_ball_image(system, radius)))

    # tent-ball-2.9 and pl-region-5.2 traffic: PL ball expansion over 50-radius grids
    band = numerics.from_pairs([("1/20", "9/20"), ("11/20", "19/20")])
    for system, carrier, mu, nu in ((systems.tent_map(2), numerics.from_pairs([(0, 1)]), F(2), F(1, 4)),
                                    (systems.tent_map(F(9, 5)), band, F(9, 5), F(1, 20))):
        grid = [nu * F(j, 51) for j in range(1, 51)]
        region = expansivity.RegionSpec(carrier)
        queries.append(Query(
            "ball/pl",
            lambda s=system, r=region, m=mu, n=nu, g=grid: expansivity.check_ball_expanding(s, r, m, n, g),
            _check_ball_expanding(system, carrier, mu, grid, rng.getrandbits(32))))
    return queries


# ---------------------------------------------------------------------------
# smooth-enclose: three-valued tracing, parameter search and separation bounds
# ---------------------------------------------------------------------------

# exact iteration doubles denominator bits per step: true orbits run to length
# 15, past the point where it dominates.  Perturbed orbits stop at 11: beyond
# it the witness search iterates many candidates exactly and one query costs
# anywhere from 5 ms to 2 s depending on the seed.
SMOOTH_TRUE_LENGTHS = tuple(range(6, 16))
SMOOTH_PERTURBED_MAX = 11
SMOOTH_ITINERARY_MAX = 12
SMOOTH_HORIZONS = tuple(range(15, 26))
SMOOTH_TAILS = (200, 400, 600, 800, 1000)
NO_GRID_BITS = 10
FAR_EPS = F(1, 20)
# odd numerators not divisible by 5: every parameter has denominator exactly 100
LOGISTIC_NUMERATORS = tuple(n for n in range(371, 400, 2) if n % 5)
STAIRCASE_MU = F(2109490101787, 1 << 40)  # matches the staircase prefix at horizon 15


def _logistic_parameter(rng) -> F:
    return F(rng.choice(LOGISTIC_NUMERATORS), 100)


def _start_point(rng) -> F:
    """An odd multiple of 1/1024 in [1/20, 19/20]: every start has 10 denominator bits."""
    return F(2 * rng.randint(26, 485) + 1, 1024)


def _true_orbit(system, x0, length):
    pts = [x0]
    for _ in range(length - 1):
        pts.append(system.evaluate(pts[-1]))
    return pseudo_orbits.PseudoOrbit(tuple(pts))


def _far_orbit(rng, system, length):
    """Every jump is at least 1/2 - 2^-11, more than (Lipschitz + 1)·FAR_EPS
    for every parameter up to 4, so no point can trace the orbit."""
    pts = [_rand_in(rng, ZERO, ONE, 10)]
    for _ in range(length - 1):
        fx = system.evaluate(pts[-1])
        pts.append(F(round((fx + HALF if fx < HALF else fx - HALF) * 1024), 1024))
    return pseudo_orbits.PseudoOrbit(tuple(pts))


def _grid_tracer(system, orbit, eps) -> Optional[F]:
    """A dyadic grid point of the first tube whose exact orbit traces, if any."""
    step = F(1, 1 << NO_GRID_BITS)
    x0 = orbit.points[0]
    j, top = math.ceil(max(ZERO, x0 - eps) / step), math.floor(min(ONE, x0 + eps) / step)
    while j <= top:
        y = z = j * step
        for i, x in enumerate(orbit.points):
            if abs(z - x) > eps:
                break
            if i < len(orbit.points) - 1:
                z = system.evaluate(z)
        else:
            return y
        j += 1
    return None


def _check_verdict(system, orbit, eps, expect):
    def check(verdict):
        if verdict.value == "yes":
            if expect == "no":
                return "yes on an orbit whose jumps no tracer can follow"
            return _retrace(system, verdict.witness, orbit, eps, exact_hit=False)
        if verdict.value == "no":
            if expect == "yes":
                return "no on a true orbit"
            if expect is None and _grid_tracer(system, orbit, eps) is not None:
                return "no although a grid point traces the orbit"
        return None
    return check


ENCLOSURE_SCALE = 1 << 4096


def _enclosure_step(lo: F, hi: F, mu: F) -> tuple[F, F]:
    """Outward-rounded image of [lo, hi] under 1 - mu x^2 on a 2^-4096 grid:
    the benchmark's own enclosure, independent of the package's."""
    a, b = sorted((abs(lo), abs(hi)))
    sq_lo = ZERO if lo <= 0 <= hi else a * a
    return (F(math.floor((1 - mu * b * b) * ENCLOSURE_SCALE), ENCLOSURE_SCALE),
            F(math.ceil((1 - mu * sq_lo) * ENCLOSURE_SCALE), ENCLOSURE_SCALE))


def _enclose_itinerary(mu: F, horizon: int) -> Optional[str]:
    """Kneading word of 1 - mu x^2 from enclosures of the critical orbit;
    None when an enclosure straddles the critical point."""
    lo = hi = ONE
    out = []
    for _ in range(horizon):
        if lo > 0:
            out.append("R")
        elif hi < 0:
            out.append("L")
        else:
            return None
        lo, hi = _enclosure_step(lo, hi, mu)
    return "".join(out)


def _check_find_parameter(target, horizon):
    def check(result):
        if not result.matched:
            return "staircase prefix not matched"
        if result.achieved.symbols != target.symbols[:horizon]:
            return "achieved word differs from the target prefix"
        mine = _enclose_itinerary(result.parameter, horizon)
        if mine is not None and mine != result.achieved.symbols:
            return "independent enclosure gives another kneading word"
        return None
    return check


def _check_separation(mu, tail):
    def check(bound):
        if bound is None:
            return None
        lo = hi = ZERO
        for n in range(1, tail + 1):
            lo, hi = _enclosure_step(lo, hi, mu)
            if n >= 2 and max(abs(lo), abs(hi)) < bound:
                return f"iterate {n} is provably closer to 0 than the claimed bound"
        return None
    return check


def _check_itinerary(points):
    """Symbols of the exact orbit points, cut after a critical hit."""
    expected = "".join("C" if x == HALF else ("L" if x < HALF else "R") for x in points)
    expected = expected[: expected.index("C") + 1] if "C" in expected else expected

    def check(word):
        return None if word.symbols == expected else "itinerary differs from the exact orbit"
    return check


def build_smooth_enclose(rng: random.Random) -> list[Query]:
    queries = []
    eps = F(1, 10)
    for _ in range(3):
        for length in SMOOTH_TRUE_LENGTHS:
            system = systems.logistic_map(_logistic_parameter(rng))
            true = _true_orbit(system, _start_point(rng), length)
            pert = pseudo_orbits.perturbed_orbit(system, _start_point(rng), min(length, SMOOTH_PERTURBED_MAX),
                                                 F(1, 1000), seed=rng.getrandbits(32))
            far = _far_orbit(rng, system, length)
            for kind, orbit, radius, expect in (("true", true, eps, "yes"), ("perturbed", pert, eps, None),
                                                ("far", far, FAR_EPS, "no")):
                queries.append(Query(
                    f"verdict/{kind}",
                    lambda s=system, o=orbit, r=radius: shadowing.quadratic_shadow_verdict(s, o, r),
                    _check_verdict(system, orbit, radius, expect)))
            head = true.points[:SMOOTH_ITINERARY_MAX]
            queries.append(Query(
                "itinerary/logistic",
                lambda s=system, x=head[0], n=len(head): kneading.itinerary(s, x, n),
                _check_itinerary(head)))
    target = kneading.staircase_word(60)
    for horizon in SMOOTH_HORIZONS:
        queries.append(Query(
            "find_parameter/staircase",
            lambda h=horizon: kneading.find_parameter(target, h, 40),
            _check_find_parameter(target, horizon)))
    for tail in SMOOTH_TAILS * 2:
        mu = STAIRCASE_MU + F(rng.getrandbits(20), 1 << 64)
        queries.append(Query(
            "separation/quadratic",
            lambda m=mu, t=tail: kneading.critical_orbit_separation(m, 2, t),
            _check_separation(mu, tail)))
    return queries


# ---------------------------------------------------------------------------
# symbolic-trace: the odometer and the golden-mean shift
# ---------------------------------------------------------------------------

ODOMETER_DEPTHS = (10, 11, 12)
ODOMETER_LENGTHS = (8, 16, 24, 32)
# the exhaustive fallback: 10 alike orbits of 6 independent depth-12 words,
# 20 of the 148 queries, so the p90 tail falls inside one group of equal cost
FALLBACK_DEPTH = 12
FALLBACK_ORBITS = 10
FALLBACK_LENGTH = 6
GOLDEN_ORBITS = 40
SYMBOLIC_RADII = tuple(F(1, 1 << k) for k in range(0, 6))  # 1, 1/2, ..., 1/32


def _odometer_truth(system, orbit, eps, exact_hit: bool) -> bool:
    """Brute force over the k-bit cylinder words: y traces the orbit iff
    (y + i) agrees with x_i on its first k bits for every i."""
    k = min(_cylinder(eps), system.depth)
    mod = 1 << k
    vals = [sum(b << i for i, b in enumerate(w)) for w in orbit.points]
    m = len(vals) - 1
    if exact_hit:
        y = (vals[-1] - m) % (1 << system.depth)
        return all((y + i) % mod == v % mod for i, v in enumerate(vals))
    return any(all((r + i) % mod == v % mod for i, v in enumerate(vals)) for r in range(mod))


def _golden_words(length: int, constraint: dict):
    """Every word of the golden-mean shift of the given length that meets
    the positional constraints (depth-first, pruned)."""
    word: list[str] = []

    def extend():
        if len(word) == length:
            yield tuple(word)
            return
        pos = len(word)
        for a in (constraint[pos],) if pos in constraint else ("0", "1"):
            if a == "1" and word and word[-1] == "1":
                continue
            word.append(a)
            yield from extend()
            word.pop()
    return extend()


def _shift_truth(orbit, eps, exact_hit: bool) -> Optional[bool]:
    """Brute force over short admissible words of the golden-mean shift; any
    admissible word continues admissibly by 0^inf, so finite words decide.
    None when two points demand different symbols at one position."""
    k = _cylinder(eps)
    pts = orbit.points
    m = len(pts) - 1
    constraint: dict[int, str] = {}
    for i, x in enumerate(pts[:-1] if exact_hit else pts):
        for j in range(k):
            if constraint.setdefault(i + j, x.symbol(j)) != x.symbol(j):
                return False
    if not exact_hit:
        return next(_golden_words(m + k, constraint), None) is not None
    # y = u + x_m: the tail is fixed, so the constraints on it must hold already
    last = pts[-1]
    for pos, a in list(constraint.items()):
        if pos >= m:
            if last.symbol(pos - m) != a:
                return False
            del constraint[pos]
    for u in _golden_words(m, constraint):
        if not (u and u[-1] == "1" and last.symbol(0) == "1"):
            return True
    return False


def _check_symbolic(system, orbit, eps, exact_hit):
    def check(cert):
        if isinstance(system, systems.OdometerSystem):
            truth = _odometer_truth(system, orbit, eps, exact_hit)
        else:
            truth = _shift_truth(orbit, eps, exact_hit)
        if cert.feasible != truth:
            return f"verdict {cert.feasible} but brute force says {truth}"
        if cert.feasible:
            return _retrace(system, cert.witness, orbit, eps, exact_hit)
        return None
    return check


def _golden_point(rng, system):
    lead = rng.choice(("0", "1"))
    word = [lead] + system.follower_continuation((lead,), rng, 7)
    return systems.SymbolicPoint(tuple(word), system.admissible_cycle_from(word))


def build_symbolic_trace(rng: random.Random) -> list[Query]:
    """Perturbed orbits keep more leading bits than the radius asks for, so
    the canonical inverse point traces them; orbits of independent points
    (radius <= 1/4) almost never trace and take the exhaustive fallback.
    Golden-mean radii run up to 1, where no position is constrained."""
    orbits = []
    for depth in ODOMETER_DEPTHS:
        system = systems.OdometerSystem(depth)
        for i, length in enumerate(ODOMETER_LENGTHS * 2):
            k = 1 + i % 5
            x0 = tuple(rng.randint(0, 1) for _ in range(depth))
            orbit = pseudo_orbits.perturbed_orbit(system, x0, length, F(1, 1 << (k + 1)),
                                                  seed=rng.getrandbits(32))
            orbits.append((f"odometer{depth}", system, orbit, F(1, 1 << k)))
    system = systems.OdometerSystem(FALLBACK_DEPTH)
    for i in range(FALLBACK_ORBITS):
        pts = tuple(tuple(rng.randint(0, 1) for _ in range(FALLBACK_DEPTH)) for _ in range(FALLBACK_LENGTH))
        orbits.append((f"odometer{FALLBACK_DEPTH}", system, pseudo_orbits.PseudoOrbit(pts), F(1, 1 << (2 + i % 4))))
    golden = systems.golden_mean_shift()
    for i in range(GOLDEN_ORBITS):
        length = 2 + i % 11
        x0 = _golden_point(rng, golden)
        if i % 5 == 4:
            pts = [x0] + [_golden_point(rng, golden) for _ in range(length - 1)]
            orbit = pseudo_orbits.PseudoOrbit(tuple(pts))
        else:
            orbit = pseudo_orbits.perturbed_orbit(golden, x0, length, F(1, 1 << rng.randint(2, 6)),
                                                  seed=rng.getrandbits(32))
        orbits.append(("golden", golden, orbit, SYMBOLIC_RADII[i % len(SYMBOLIC_RADII)]))
    queries = []
    for label, system, orbit, eps in orbits:
        info = {"system": system, "orbit": orbit, "eps": eps}
        queries.append(Query(
            f"oracle/{label}", lambda s=system, o=orbit, e=eps: shadowing.shadow_oracle(s, o, e),
            _check_symbolic(system, orbit, eps, exact_hit=False), info))
        queries.append(Query(
            f"solve/{label}", lambda s=system, o=orbit, e=eps: shadowing.h_shadow_solve(s, o, e),
            _check_symbolic(system, orbit, eps, exact_hit=True), info))
    return queries


WORKLOADS = {
    "pl-trace": build_pl_trace,
    "cantor-expand": build_cantor_expand,
    "smooth-enclose": build_smooth_enclose,
    "symbolic-trace": build_symbolic_trace,
}


def build(name: str, seed: int) -> list[Query]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------------------
# counts read from the returned objects (computed, not instrumented)
# ---------------------------------------------------------------------------



def _cells(system, carrier):
    """Affine cells of the region, as the pair engine forms them."""
    base = system.affine_cells() if isinstance(system, systems.CantorSystem) else system.laps()
    return sorted(
        part for dom, _, _ in base
        for part in numerics.intersect(numerics.RationalIntervalSet((dom,)), carrier).parts)


def _pairs_in_reach(cells, delta) -> int:
    """Cell pairs closer than delta: the pairs the engine has to examine when
    nothing lets it stop early."""
    count = 0
    for i, cx in enumerate(cells):
        for cy in cells[i + 1:]:
            if cy.lo - cx.hi >= delta:
                break
            count += 1
    return count


def computed_counts(queries: list[Query], results: list) -> dict:
    c = dict.fromkeys(COUNT_UNITS, 0)
    for q, r in zip(queries, results):
        dens = []
        if isinstance(r, shadowing.ShadowCertificate):
            for s in r.transcript:
                if isinstance(s, numerics.RationalIntervalSet):
                    c["shadowing.tube_components.sum"] += len(s.parts)
                    c["shadowing.tube_components.max"] = max(c["shadowing.tube_components.max"], len(s.parts))
            if r.feasible_set is not None:
                dens.extend(e.denominator for p in r.feasible_set.parts for e in (p.lo, p.hi))
            if isinstance(r.witness, F):
                dens.append(r.witness.denominator)
        elif isinstance(r, shadowing.QuadraticShadowVerdict):
            c["shadowing.quadratic_bits.max"] = max(c["shadowing.quadratic_bits.max"], r.bits_used)
            c["shadowing.quadratic_escalations"] += (r.bits_used // 64).bit_length() - 1
            if r.witness is not None:
                dens.append(r.witness.denominator)
        if dens:
            c["numerics.den_bits.max"] = max(c["numerics.den_bits.max"], max(d.bit_length() for d in dens))
        info = q.info or {}
        if "carrier" in info:
            cells = _cells(info["system"], info["carrier"])
            c["expansivity.cells.max"] = max(c["expansivity.cells.max"], len(cells))
            c["expansivity.cell_pairs.sum"] += _pairs_in_reach(cells, info["delta"])
        if isinstance(info.get("system"), systems.OdometerSystem):
            system, orbit = info["system"], info["orbit"]
            canonical = system.iterate_inverse(orbit.points[-1], orbit.last_index)
            if pseudo_orbits.deviation(system, canonical, orbit).max_deviation > info["eps"]:
                c["shadowing.symbolic_fallbacks"] += 1
    return c
