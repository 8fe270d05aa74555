"""Exact-arithmetic toolkit for pseudo-orbit tracing and expansion analysis
of one-dimensional and symbolic dynamical systems."""

from .numerics import (
    ClosedInterval,
    RationalIntervalSet,
    affine_image,
    closed_ball,
    from_pairs,
    intersect,
    normalize,
    rat,
    rat_str,
)
from .pseudo_orbits import DeviationReport, PseudoOrbit, deviation, perturbed_orbit, traces, verify_jumps
from .shadowing import (
    ShadowCertificate,
    StagedShadowLog,
    asymptotic_shadow,
    ball_expanding_delta,
    finite_horizon_delta,
    h_shadow_solve,
    h_shadow_via_iterate,
    nonshadow_witness_tent,
    quadratic_shadow_verdict,
    shadow_oracle,
    slimit_counterexample_check,
)
from .expansivity import (
    ExpansivityVerdict,
    RegionSpec,
    check_ball_expanding,
    check_expanding,
    check_locally_injective,
    check_open_at,
    check_star,
    crosscheck_expanding_characterizations,
    schwarzian,
)
from .kneading import (
    KneadingWord,
    find_parameter,
    is_recurrent_prefix,
    itinerary,
    kneading_word,
    parity_lex_compare,
    staircase_word,
)
from .systems import (
    CantorSystem,
    OdometerSystem,
    PiecewiseLinearMap,
    QuadraticFamilyMap,
    ShiftSystem,
    SLimitSystem,
    SymbolicPoint,
    golden_mean_shift,
    logistic_map,
    quadratic_map,
    system_from_json,
    tent_map,
)
from .scenarios import REGISTRY, Report, Scenario, run_scenario

__version__ = "0.1.0"
