"""Timing spans around the public entry points of each regretlab layer.

`Tracer.install()` wraps every entry point listed in LAYERS and rebinds each
`regretlab.*` module attribute that refers to the same function object, so
calls from one module into another are captured as well as the benchmark's
own calls.  `uninstall()` puts the original objects back.  A listed entry
point that the package no longer has is reported as absent, not as an error.

A span's self time is its duration minus the durations of the spans it
caused.  Spans are aggregated per layer as they close; the work counters are
read from the arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import regretlab

# layer (= module of the package) -> public entry points; "Class.method" wraps a method
LAYERS = {
    "cli": ("main", "load_config", "builtin_experiment_curves"),
    "regret": (
        "regret", "regret_curve", "growth_classify", "linear_regret_certificate",
        "quadratic_floor_check",
    ),
    "hindsight": ("solve_hindsight", "batch_oracle"),
    "model": (
        "simulate", "simulate_inputs", "evaluate_cost", "closed_loop", "closed_loop_matrix",
        "tracking_transform",
    ),
    "adversary": (
        "constant_eigvec", "dominant_direction", "phi_aligned", "random_ball",
        "ConstantEigvecDisturbance.realize", "TransitionAlignedDisturbance.realize",
        "BallDisturbance.realize",
    ),
    "transition": (
        "transition_matrix", "transition_row", "transition_norms", "bibs_partial_sums",
        "summability_constants", "classify_lti", "classify_ltv", "exponential_fit",
    ),
    "counterexample": (
        "dare_modified", "dare_residual", "discounted_gain", "build_model", "gamma_check",
        "gamma_scan", "vq_recursion", "discounted_cost_closed_form",
        "discounted_cost_simulated", "linear_regret_despite_instability",
    ),
}

# entry points that build a transition-norm table or sequence of T rows
TABLE_ENTRIES = ("transition_row", "transition_norms", "bibs_partial_sums", "summability_constants")


class _Span:
    __slots__ = ("layer", "name", "start", "child_s", "max_T")

    def __init__(self, layer: str, name: str):
        self.layer, self.name = layer, name
        self.child_s = 0.0
        self.max_T = 0  # largest horizon solved under a regret_curve span
        self.start = perf_counter()


def _horizon_arg(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("T", kwargs.get("t")))


class Tracer:
    """Process-local span collector; aggregates per layer while installed."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.load_config_s = 0.0
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ rebinding

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "regretlab" or k.startswith("regretlab."))]
        self.absent = []
        for layer, entries in LAYERS.items():
            module = sys.modules.get(f"regretlab.{layer}")
            for entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    self.absent.append(f"{layer}.{entry}")
                    continue
                wrapper = self._wrap(layer, attr, original)
                if owner_name:
                    self._rebind(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapper)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    # --------------------------------------------------------------- spans

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(layer, name)
            self.stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except regretlab.SimulationOverflowError as exc:
                if name in ("simulate", "simulate_inputs"):
                    self.counts["model.steps"] += exc.t
                raise
            finally:
                duration = perf_counter() - span.start
                self.stack.pop()
                self.self_s[layer] += duration - span.child_s
                self.calls[layer] += 1
                if self.stack:
                    self.stack[-1].child_s += duration
                self._count(span, duration, args, kwargs, result)

        return wrapper

    def _count(self, span: _Span, duration: float, args, kwargs, result) -> None:
        layer, name = span.layer, span.name
        if result is None:
            return
        if name == "solve_hindsight":
            T = int(result.horizon)
            self.counts["hindsight.steps"] += T
            curve = next((s for s in reversed(self.stack) if s.name == "regret_curve"), None)
            if curve is None:
                self.counts["hindsight.curve_T"] += T
            else:
                curve.max_T = max(curve.max_T, T)
        elif name == "regret_curve":
            self.counts["hindsight.curve_T"] += span.max_T
        elif name in ("simulate", "simulate_inputs"):
            self.counts["model.steps"] += int(result.horizon)
        elif layer == "adversary" and isinstance(result, regretlab.DisturbanceSignal):
            if not any(s.layer == "adversary" for s in self.stack):
                self.counts["adversary.rows"] += int(result.horizon)
        elif name in TABLE_ENTRIES:
            self.counts["transition.table_rows"] += _horizon_arg(args, kwargs)
        elif name == "dare_modified":
            self.counts["counterexample.dare_calls"] += 1
        elif name == "load_config":
            self.load_config_s += duration
        elif name == "main":
            self.counts["cli.calls"] += 1

    # -------------------------------------------------------------- metrics

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics over `passes` traced passes."""
        per = 1.0 / passes
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] * per
        for layer in ("hindsight", "model", "adversary", "transition", "counterexample"):
            out[f"{layer}.calls"] = self.calls[layer] * per
        for key in ("hindsight.steps", "model.steps", "adversary.rows",
                    "transition.table_rows", "counterexample.dare_calls", "cli.calls"):
            out[key] = self.counts[key] * per
        curve_T = self.counts["hindsight.curve_T"]
        out["hindsight.redundancy"] = self.counts["hindsight.steps"] / curve_T if curve_T else 0.0
        out["cli.load_config_s"] = self.load_config_s * per
        return out
