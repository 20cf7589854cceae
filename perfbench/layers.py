"""Outside-in tracing of catlink's layers.

``Tracer`` wraps the public functions of each catlink module with timing
spans, from outside the package: every module attribute that holds one of
the listed functions is replaced, so callers that imported a function by
name (``transducer.integrate_rk45``, ``catqubit.evolve``,
``pulseopt.evolve``, ``scenarios.crossover``, ``cli.monte_carlo_time``) are
traced as well as those that look it up on its home module.  Callables
passed into a layer (RK45 right-hand sides, crossover rate curves) are
wrapped too, so their evaluations are counted where the work happens.
Leaving the ``with`` block puts every original back.

``summarize`` folds the recorded spans into per-layer busy time, self time
and calls; ``per_layer_metrics`` adds the counters and names the metrics
that ``run.py`` reports.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (module, function) pairs; the span name is "<module>.<function>" with the
# "catlink." prefix dropped.  qcore's functions are listed in QCORE_FUNCS
# and summarized as one layer.
LAYER_FUNCS = [
    ("catlink.dynamics", "integrate_rk45"),
    ("catlink.dynamics", "evolve"),
    ("catlink.pulseopt", "grape_optimize"),
    ("catlink.pulseopt", "evaluate_pulse"),
    ("catlink.catqubit", "drive"),
    ("catlink.catqubit", "undrive"),
    ("catlink.catqubit", "gate_x"),
    ("catlink.catqubit", "gate_z"),
    ("catlink.catqubit", "gate_g"),
    ("catlink.catqubit", "cnot"),
    ("catlink.transducer", "spin_transfer_efficiency"),
    ("catlink.repeater", "monte_carlo_time"),
    ("catlink.repeater", "crossover"),
    ("catlink.scenarios", "operation_budget"),
    ("catlink.config", "load_config"),
]

QCORE_FUNCS = ["annihilation", "creation", "number_operator", "identity",
               "parity_operator", "fock_state", "coherent_state", "cat_state",
               "tensor", "partial_trace", "state_fidelity", "expectation",
               "parity_expectation", "to_density_matrix"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans; -1 for a root span


@dataclass
class Tracer:
    """Records spans and counters while its wrappers are installed."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``hook(bound_args)`` may swap arguments
        before the call and returns a callback run on the result."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_result = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result = hook(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timed_calls(self, prefix: str, fn: Callable) -> Callable:
        """``fn`` counted into ``<prefix>.evals`` and ``<prefix>.busy_s``."""
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(prefix + ".busy_s", time.perf_counter() - t0)
                self.count(prefix + ".evals")
        return wrapper

    def counted_calls(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- per-layer hooks ------------------------------------------------------

    def _hook_rk45(self, arguments):
        arguments["rhs"] = self.timed_calls("dynamics.integrate_rk45.rhs", arguments["rhs"])

    def _hook_grape(self, arguments):
        def on_result(result):
            self.count("pulseopt.grape_optimize.iterations", result.n_iterations)
            self.count("pulseopt.grape_optimize.cap_hits", 0 if result.converged else 1)
        return on_result

    def _hook_crossover(self, arguments):
        # gap(L) evaluates the scheme rate exactly once
        arguments["scheme_rate"] = self.counted_calls("repeater.crossover.gap_evals",
                                                      arguments["scheme_rate"])

    def _hook_monte_carlo(self, arguments):
        self.count("repeater.monte_carlo_time.trials", int(arguments["trials"]))

    def _hooks(self) -> dict[str, Callable]:
        return {"dynamics.integrate_rk45": self._hook_rk45,
                "pulseopt.grape_optimize": self._hook_grape,
                "repeater.crossover": self._hook_crossover,
                "repeater.monte_carlo_time": self._hook_monte_carlo}

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` under every catlink module name that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "catlink" and not mod_name.startswith("catlink."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import catlink.cli as cli
        import catlink.qcore as qcore

        hooks = self._hooks()
        for mod_name, func in LAYER_FUNCS:
            original = getattr(sys.modules[mod_name], func)
            name = f"{mod_name.removeprefix('catlink.')}.{func}"
            self._patch_everywhere(original, self.traced(name, original, hooks.get(name)))
        for func in QCORE_FUNCS:
            original = getattr(qcore, func)
            self._patch_everywhere(original, self.traced(f"qcore.{func}", original))

        original_write = cli._Report.write

        def write(report, *args, **kwargs):
            index = self._enter("cli.write")
            try:
                out_dir = original_write(report, *args, **kwargs)
            finally:
                self._exit(index)
            self.count("cli.write.bytes", sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)))
            return out_dir

        self._patched.append((cli._Report, "write", original_write))
        cli._Report.write = write

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def patched_sites(self) -> list[str]:
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, _ in self._patched]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- summaries ----------------------------------------------------------------


def _layer_of(name: str) -> str:
    return "qcore" if name.startswith("qcore.") else name


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per-layer busy time, self time and call counts.

    Busy time sums the spans of a layer that are not nested inside another
    span of the same layer, so recursion is not counted twice.  Self time is
    a span's duration minus the durations of its direct children.
    """
    layers: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]

    def outer(i: int) -> bool:
        layer, parent = _layer_of(spans[i]["name"]), spans[i]["parent"]
        while parent >= 0:
            if _layer_of(spans[parent]["name"]) == layer:
                return False
            parent = spans[parent]["parent"]
        return True

    for i, sp in enumerate(spans):
        entry = layers.setdefault(_layer_of(sp["name"]),
                                  {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        duration = sp["end"] - sp["start"]
        entry["self_s"] += duration - child_time[i]
        if outer(i):
            entry["busy_s"] += duration
            entry["calls"] += 1
    return layers


def per_layer_metrics(spans: list[dict], counters: dict[str, float],
                      import_s: float) -> dict[str, float]:
    layers = summarize(spans)
    zero = {"busy_s": 0.0, "self_s": 0.0, "calls": 0}

    def layer(name: str) -> dict:
        return layers.get(name, zero)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rk45 = layer("dynamics.integrate_rk45")
    rhs_evals = counters.get("dynamics.integrate_rk45.rhs.evals", 0)
    grape = layer("pulseopt.grape_optimize")
    iterations = counters.get("pulseopt.grape_optimize.iterations", 0)
    mc = layer("repeater.monte_carlo_time")
    out = {
        "dynamics.integrate_rk45.busy_s": rk45["busy_s"],
        "dynamics.integrate_rk45.calls": rk45["calls"],
        "dynamics.integrate_rk45.rhs_evals": rhs_evals,
        "dynamics.integrate_rk45.us_per_rhs": 1e6 * ratio(
            counters.get("dynamics.integrate_rk45.rhs.busy_s", 0.0), rhs_evals),
        "dynamics.evolve.self_s": layer("dynamics.evolve")["self_s"],
        "pulseopt.grape_optimize.busy_s": grape["busy_s"],
        "pulseopt.grape_optimize.calls": grape["calls"],
        "pulseopt.grape_optimize.iterations": iterations,
        "pulseopt.grape_optimize.s_per_iteration": ratio(grape["busy_s"], iterations),
        "pulseopt.grape_optimize.cap_hit_frac": ratio(
            counters.get("pulseopt.grape_optimize.cap_hits", 0), grape["calls"]),
    }
    for name in ("pulseopt.evaluate_pulse", "catqubit.drive", "catqubit.undrive",
                 "catqubit.gate_x", "catqubit.gate_z", "catqubit.gate_g",
                 "catqubit.cnot", "transducer.spin_transfer_efficiency",
                 "scenarios.operation_budget"):
        out[f"{name}.busy_s"] = layer(name)["busy_s"]
        out[f"{name}.self_s"] = layer(name)["self_s"]
    out.update({
        "repeater.monte_carlo_time.busy_s": mc["busy_s"],
        "repeater.monte_carlo_time.trials_per_s": ratio(
            counters.get("repeater.monte_carlo_time.trials", 0), mc["busy_s"]),
        "repeater.crossover.busy_s": layer("repeater.crossover")["busy_s"],
        "repeater.crossover.gap_evals": counters.get("repeater.crossover.gap_evals", 0),
        "qcore.busy_s": layer("qcore")["busy_s"],
        "qcore.calls": layer("qcore")["calls"],
        "import.busy_s": import_s,
        "config.load_config.busy_s": layer("config.load_config")["busy_s"],
        "cli.write.busy_s": layer("cli.write")["busy_s"],
        "cli.write.bytes": counters.get("cli.write.bytes", 0),
    })
    return out
