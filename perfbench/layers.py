"""Per-layer tracing, installed from outside the package.

The layers are shadowlab's modules.  :class:`Tracer` replaces each function
named in :data:`TRACED` by a wrapper that counts calls and accumulates self
time: the call's duration minus the time spent in wrapped calls it made.  A
module-level function is rebound at every module that imported it (for
example ``shadowlab.shadowing.intersect``), so calls are seen whichever
binding they go through.  Methods are wrapped on their class.  Nothing under
``src/`` changes; tracing exists only in a process that installs it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

TRACED = {
    "numerics": ("normalize", "intersect", "affine_image"),
    "systems": (
        "PiecewiseLinearMap.evaluate", "PiecewiseLinearMap.laps", "PiecewiseLinearMap.preimage",
        "PiecewiseLinearMap.forward_image", "PiecewiseLinearMap.point_preimages", "compose_pl",
        "CantorSystem.piece_set", "CantorSystem.forward_image", "CantorSystem.preimage",
        "CantorSystem.contains_point", "CantorSystem.ball_image",
        "QuadraticFamilyMap.evaluate", "QuadraticFamilyMap.preimage_outer", "sqrt_enclosure",
        "OdometerSystem.evaluate", "OdometerSystem.distance",
        "ShiftSystem.contains_point", "ShiftSystem.distance",
    ),
    "pseudo_orbits": ("deviation", "perturbed_orbit", "verify_jumps"),
    "shadowing": ("h_shadow_solve", "shadow_oracle", "h_shadow_via_iterate", "quadratic_shadow_verdict"),
    "expansivity": ("check_expanding", "check_ball_expanding", "crosscheck_expanding_characterizations"),
    "kneading": ("find_parameter", "critical_orbit_separation", "itinerary"),
}

# classes whose constructions are counted, without timing
COUNTED = {"numerics": ("ClosedInterval",)}

# quantities that drive cost, read from the answers rather than instrumented
COUNT_UNITS = {
    "shadowing.tube_components.sum": "count",
    "shadowing.tube_components.max": "count",
    "numerics.den_bits.max": "bits",
    "shadowing.quadratic_bits.max": "bits",
    "shadowing.quadratic_escalations": "count",
    "expansivity.cells.max": "count",
    "expansivity.cell_pairs.sum": "count",
    "shadowing.symbolic_fallbacks": "count",
}


def traced_keys() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


def counted_keys() -> list[str]:
    return [f"{mod}.{name}" for mod, names in COUNTED.items() for name in names]


class Tracer:
    """Calls and self time per traced function, while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._child_ns: list[int] = []  # time spent in wrapped children, per open call

    def _timed(self, key: str, fn):
        calls, self_ns, stack, clock = self.calls, self.self_ns, self._child_ns, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[key] += 1
                self_ns[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return traced

    def _counted_init(self, key: str, init):
        calls = self.calls

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            if self.active:
                calls[key] += 1
            init(obj, *args, **kwargs)
        return counted

    def install(self) -> None:
        import shadowlab  # noqa: F401  (imports every submodule)

        modules = [m for name, m in sys.modules.items() if name == "shadowlab" or name.startswith("shadowlab.")]
        for mod, names in TRACED.items():
            module = importlib.import_module(f"shadowlab.{mod}")
            for name in names:
                key = f"{mod}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._timed(key, cls.__dict__[meth]))
                    continue
                original = getattr(module, name)
                wrapped = self._timed(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        for mod, names in COUNTED.items():
            module = importlib.import_module(f"shadowlab.{mod}")
            for name in names:
                cls = getattr(module, name)
                cls.__init__ = self._counted_init(f"{mod}.{name}", cls.__init__)

    def snapshot(self) -> dict:
        """{key: {"calls": n, "self_s": s}} for every traced and counted key."""
        out = {key: {"calls": self.calls[key], "self_s": self.self_ns[key] / 1e9} for key in traced_keys()}
        out.update({key: {"calls": self.calls[key]} for key in counted_keys()})
        return out
