"""Per-layer tracing of the octool package, applied from outside the program.

While installed, every function and method defined in the six layer modules
is replaced by a timing wrapper wherever callers look it up: the defining
module, every octool module that bound it with ``from .x import y``, the
package namespace, and the class dictionary for methods.  Each wrapper pushes
a span on a stack; a span's self time is its duration minus the time of the
spans it caused, and is charged to the layer of the function it wraps.
``uninstall`` puts every original back, so the untraced timed run never sees
a wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

LAYERS = ("quad", "specfun", "octransform", "hausdorff", "bounds", "harness_cli")

THEOREM_IDS = (
    "T_L1", "T_COMM_DIAG", "T_LP_ASUP", "T_LP_AINF", "C_LP_SANDWICH",
    "T_LPLQ", "T_INTERVAL_E", "T_GRAND_UB", "T_GRAND_LB", "T_QB_UB",
    "T_QB_LB", "L_POWER", "P_PLANCHEREL", "P_EIGEN", "D_SCALING_DIAG",
)

# per_layer metric names, in the order they are printed
METRIC_NAMES = (
    "quad.gk15_calls", "quad.adaptive_runs", "quad.budget_partials", "quad.self_s",
    "specfun.series_calls", "specfun.series_element_terms",
    "specfun.g_batch_points_per_s", "specfun.scalar_g_calls",
    "specfun.ratio_extrema_calls", "specfun.self_s",
    "octransform.transform_grid_points", "octransform.self_s",
    "hausdorff.log_grid_x_nodes", "hausdorff.apply_calls", "hausdorff.self_s",
    "bounds.lp_integrals", "bounds.grand_norm_s", "bounds.self_s",
    *(f"harness_cli.{tid}_s" for tid in THEOREM_IDS),
    "harness_cli.self_s",
    "trace.overhead",
)

# calls counted per theorem id, printed by a traced verify run
THEOREM_COUNTS = {
    "gk15_calls": "quad._gk15",
    "adaptive_runs": "quad.integrate_finite",
    "series_calls": "specfun._hyp_series",
    "ratio_extrema_calls": "specfun.weight_ratio_extrema",
    "log_grid_calls": "hausdorff.hausdorff_log_grid",
    "lp_integrals": "bounds._lp_integral",
}


def unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Aggregates spans in memory: calls and inclusive seconds per function,
    self seconds per layer, and the few counters that need arguments or
    results."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"octool.{name}") for name in LAYERS}
        self.package = importlib.import_module("octool")
        self.calls = {}      # "layer.qualname" -> [calls, inclusive seconds]
        self.self_s = [0.0] * len(LAYERS)
        self.counts = {
            "series_element_terms": 0, "g_batch_points": 0,
            "transform_grid_points": 0, "log_grid_x_nodes": 0,
            "budget_partials": 0,
        }
        self.theorem_s = dict.fromkeys(THEOREM_IDS, 0.0)
        self.theorem_counts = {}   # theorem id -> {count name: calls}
        self._stack = [0.0]
        self._patches = []   # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, layer: int, key: str, after=None):
        stat = self.calls.setdefault(key, [0, 0.0])
        stack, self_s, perf = self._stack, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf() - t0
                inner = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - inner
                stat[0] += 1
                stat[1] += dt
                if after is not None:
                    after(args, result, exc, dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hooks(self):
        c = self.counts
        budget = self.modules["quad"].BudgetExhaustedError

        def hyp_series(args, result, exc, dt):
            if result is not None:
                c["series_element_terms"] += int(np.size(result[0])) * int(result[2])

        def g_batch(args, result, exc, dt):
            c["g_batch_points"] += int(np.size(args[1])) * int(np.size(args[2]))

        def transform_grid(args, result, exc, dt):
            c["transform_grid_points"] += int(np.size(args[2]))

        def log_grid(args, result, exc, dt):
            c["log_grid_x_nodes"] += int(np.size(args[3]))

        def integrate_finite(args, result, exc, dt):
            if isinstance(exc, budget):
                c["budget_partials"] += 1

        return {
            "specfun._hyp_series": hyp_series,
            "specfun._g_batch": g_batch,
            "octransform.transform_grid": transform_grid,
            "hausdorff.hausdorff_log_grid": log_grid,
            "quad.integrate_finite": integrate_finite,
        }

    def _integrand_wrapper(self, gk15):
        """``_gk15`` whose integrand argument is itself a span, charged to the
        layer that defined it: an integrand closure built in ``bounds`` and
        evaluated inside ``quad`` counts as ``bounds`` work."""
        layer_of = {f"octool.{name}": i for i, name in enumerate(LAYERS)}
        wrap = self._wrap

        def wrapper(f, a, b):
            layer = layer_of.get(getattr(f, "__module__", None))
            if layer is not None:
                f = wrap(f, layer, f"{LAYERS[layer]}.<integrand>")
            return gk15(f, a, b)

        return wrapper

    def _per_theorem(self, run_scenario):
        """``run_scenario`` that also charges its inclusive seconds and the
        calls counted in ``THEOREM_COUNTS`` to the scenario's theorem id."""
        own = self.calls["harness_cli.run_scenario"]
        stats = {name: self.calls[key] for name, key in THEOREM_COUNTS.items()}

        def wrapper(s):
            seconds = own[1]
            before = {name: stat[0] for name, stat in stats.items()}
            try:
                return run_scenario(s)
            finally:
                self.theorem_s[s.theorem_id] += own[1] - seconds
                per = self.theorem_counts.setdefault(s.theorem_id, dict.fromkeys(stats, 0))
                for name, stat in stats.items():
                    per[name] += stat[0] - before[name]

        return wrapper

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        hooks = self._after_hooks()
        wrapped = {}  # id(original function) -> wrapper
        for layer, name in enumerate(LAYERS):
            mod = self.modules[name]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{name}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, layer, key, hooks.get(key))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m_name, m_obj in list(vars(obj).items()):
                        if inspect.isfunction(m_obj) and (
                                m_name == "__call__" or not m_name.startswith("__")):
                            key = f"{name}.{obj.__name__}.{m_name}"
                            self._set(obj, m_name, self._wrap(m_obj, layer, key))
        gk15 = id(self.modules["quad"]._gk15)
        wrapped[gk15] = self._integrand_wrapper(wrapped[gk15])
        run_scenario = id(self.modules["harness_cli"].run_scenario)
        wrapped[run_scenario] = self._per_theorem(wrapped[run_scenario])
        for owner in (self.package, *self.modules.values()):
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(owner, attr, wrapped[id(obj)])

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------
    def metrics(self, overhead: float, speed: float) -> dict:
        """The per-layer metrics; ``speed`` turns the traced pass's wall
        seconds into reference seconds (see calibration.py)."""
        def calls(key):
            return self.calls.get(key, [0, 0.0])[0]

        def seconds(key):
            return self.calls.get(key, [0, 0.0])[1] * speed

        self_s = {name: s * speed for name, s in zip(LAYERS, self.self_s)}
        g_batch_s = seconds("specfun._g_batch")
        values = {
            "quad.gk15_calls": calls("quad._gk15"),
            "quad.adaptive_runs": calls("quad.integrate_finite"),
            "quad.budget_partials": self.counts["budget_partials"],
            "quad.self_s": self_s["quad"],
            "specfun.series_calls": calls("specfun._hyp_series"),
            "specfun.series_element_terms": self.counts["series_element_terms"],
            "specfun.g_batch_points_per_s":
                self.counts["g_batch_points"] / g_batch_s if g_batch_s > 0 else 0.0,
            "specfun.scalar_g_calls":
                calls("specfun.eigenfunction_g") + calls("specfun.jacobi_phi"),
            "specfun.ratio_extrema_calls": calls("specfun.weight_ratio_extrema"),
            "specfun.self_s": self_s["specfun"],
            "octransform.transform_grid_points": self.counts["transform_grid_points"],
            "octransform.self_s": self_s["octransform"],
            "hausdorff.log_grid_x_nodes": self.counts["log_grid_x_nodes"],
            "hausdorff.apply_calls": calls("hausdorff.hausdorff_apply_result"),
            "hausdorff.self_s": self_s["hausdorff"],
            "bounds.lp_integrals": calls("bounds._lp_integral"),
            "bounds.grand_norm_s": seconds("bounds.grand_norm"),
            "bounds.self_s": self_s["bounds"],
            **{f"harness_cli.{tid}_s": s * speed for tid, s in self.theorem_s.items()},
            "harness_cli.self_s": self_s["harness_cli"],
            "trace.overhead": overhead,
        }
        return {name: values[name] for name in METRIC_NAMES}
