"""Per-layer tracing of depolcap from outside the package.

``install`` wraps the public functions of ``depolcap.optimize``, ``capacity``,
``bounds``, ``core``, ``decomposition``, ``report`` and ``cli`` (and
``numpy.linalg.eigh``) in place, after the package is imported. A wrapped
function is rebound in every depolcap module that imported it by name, so
calls made through ``from .x import f`` are traced too.

Each traced call is a span. A span records its calls and inclusive seconds;
a layer entered again from inside itself (``random_density_matrix`` within
``random_bipartite_state``) is counted once, at the outermost entry. Spans
nest on a stack, and a span's self time is its duration minus that of its
direct traced children. ``numpy.eigh`` and ``core.channel_apply`` are
counted leaves: they sit under nearly every layer, so they take no part in
the stack and leave their callers' self time alone.

Spans are kept as totals in memory and read once, after the round.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.self_seconds: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._active: dict = defaultdict(int)

    def wrap(self, name: str, fn, on_result=None, leaf: bool = False):
        """``fn`` traced as layer ``name``. ``on_result(tracer, result, args,
        kwargs)`` runs after each outermost call, to record counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            frame = [0.0]
            if not leaf:
                self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._active[name] -= 1
                self.calls[name] += 1
                self.seconds[name] += elapsed
                if not leaf:
                    self._stack.pop()
                    self.self_seconds[name] += elapsed - frame[0]
                    if self._stack:
                        self._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        return traced


def _count_attr(key: str, attr: str):
    def record(tracer, result, args, kwargs):
        tracer.counts[key] += getattr(result, attr)
    return record


def _maximize_starts(fn):
    signature = inspect.signature(fn)

    def record(tracer, result, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        extra = bound.arguments["extra_starts"] or ()
        tracer.counts["optimize.maximize.starts"] += bound.arguments["restarts"] + len(extra)
    return record


def _render_bytes(tracer, result, args, kwargs):
    tracer.counts["report.bytes"] += len(result.encode())


def _objective_factory(tracer: Tracer, name: str, factory):
    """Wrap an objective factory so that every objective it returns is
    traced as layer ``name``."""
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return tracer.wrap(name, factory(*args, **kwargs))
    return make


def install(tracer: Tracer) -> None:
    """Trace the layers of an imported depolcap; patches it in place."""
    import numpy as np
    from depolcap import bounds, capacity, cli, core, decomposition, optimize, report

    functions = {
        optimize.ascend_on_sphere: ("optimize.ascend",
                                    _count_attr("optimize.ascend.iterations", "iterations")),
        optimize.maximize_over_pure_states: ("optimize.maximize",
                                             _maximize_starts(optimize.maximize_over_pure_states)),
        capacity.holevo_quantity: ("capacity.holevo",
                                   _count_attr("capacity.holevo.outer_iterations",
                                               "outer_iterations")),
        capacity.chi_additivity_check: ("capacity.chi_additivity", None),
        capacity.tensor_relative_entropy_bound: ("capacity.relent_bound", None),
        capacity.shannon_capacity_fixed: ("capacity.blahut_arimoto",
                                          _count_attr("capacity.blahut_arimoto.iterations",
                                                      "iterations")),
        bounds.lieb_thirring_check: ("bounds.lieb_thirring", None),
        bounds.tensor_output_norm_bound: ("bounds.norm_bound", None),
        bounds.local_unitary_invariance_check: ("bounds.invariance", None),
        bounds.multiplicativity_check: ("bounds.multiplicativity", None),
        bounds.max_output_p_norm: ("bounds.max_output_p_norm", None),
        core.tensor_channel: ("core.tensor_channel", None),
        core.schatten_p_norm: ("core.schatten_p_norm", None),
        core.relative_entropy: ("core.relative_entropy", None),
        core.superoperator_from_action: ("core.superoperator_from_action", None),
        core.random_pure_state: ("core.random_inputs", None),
        core.random_density_matrix: ("core.random_inputs", None),
        core.random_bipartite_state: ("core.random_inputs", None),
        core.random_unitary: ("core.random_inputs", None),
        core.random_isometry: ("core.random_inputs", None),
        core.random_channel: ("core.random_inputs", None),
        decomposition.full_decomposition: ("decomposition.build", None),
        decomposition.omega_split_check: ("decomposition.identity_checks", None),
        decomposition.phase_average_check: ("decomposition.identity_checks", None),
        decomposition.diophantine_solutions: ("decomposition.census", None),
    }
    for cmd in cli._COMMANDS.values():
        functions[cmd] = ("cli.command", None)
    replacement = {fn: tracer.wrap(name, fn, hook)
                   for fn, (name, hook) in functions.items()}
    replacement[capacity.relative_entropy_objective] = _objective_factory(
        tracer, "capacity.objective", capacity.relative_entropy_objective)
    replacement[bounds.pnorm_power_objective] = _objective_factory(
        tracer, "bounds.objective", bounds.pnorm_power_objective)
    replacement[bounds.neg_entropy_objective] = _objective_factory(
        tracer, "bounds.objective", bounds.neg_entropy_objective)

    by_id = {id(fn): wrapper for fn, wrapper in replacement.items()}
    for module in [m for n, m in sys.modules.items()
                   if n == "depolcap" or n.startswith("depolcap.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
    for key, cmd in cli._COMMANDS.items():
        cli._COMMANDS[key] = replacement[cmd]

    core.Channel.apply_matrix = tracer.wrap("core.channel_apply",
                                            core.Channel.apply_matrix, leaf=True)
    decomposition.ConvexDecomposition.reconstruction_error = tracer.wrap(
        "decomposition.reconstruction",
        decomposition.ConvexDecomposition.reconstruction_error)
    report.Report.render = tracer.wrap("report.render", report.Report.render,
                                       _render_bytes)
    np.linalg.eigh = tracer.wrap("numpy.eigh", np.linalg.eigh, leaf=True)


# Layers reported with calls and seconds, and those reported with seconds only.
CALLS_AND_SECONDS = (
    "optimize.ascend", "optimize.maximize", "capacity.objective",
    "bounds.objective", "numpy.eigh", "capacity.holevo",
    "bounds.lieb_thirring", "bounds.norm_bound", "bounds.invariance",
    "bounds.multiplicativity", "bounds.max_output_p_norm",
    "capacity.relent_bound", "core.tensor_channel", "core.channel_apply",
    "core.random_inputs", "core.schatten_p_norm", "core.relative_entropy",
    "core.superoperator_from_action", "decomposition.build",
)
SECONDS_ONLY = (
    "capacity.chi_additivity", "decomposition.reconstruction",
    "decomposition.identity_checks", "decomposition.census",
    "capacity.blahut_arimoto", "report.render", "cli.command",
)
COUNTS = (
    "optimize.ascend.iterations", "optimize.maximize.starts",
    "capacity.holevo.outer_iterations", "capacity.blahut_arimoto.iterations",
    "report.bytes",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Flat {metric name: (value, unit)} for one traced round."""
    out = {}
    for name in CALLS_AND_SECONDS:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in CALLS_AND_SECONDS + SECONDS_ONLY:
        out[f"{name}.s"] = (tracer.seconds[name], "s")
    for key in COUNTS:
        out[key] = (tracer.counts[key], "B" if key == "report.bytes" else "count")
    calls = tracer.calls["capacity.objective"]
    out["capacity.objective.us_per_call"] = (
        1e6 * tracer.seconds["capacity.objective"] / calls if calls else 0.0, "us")
    out["capacity.holevo.self_s"] = (tracer.self_seconds["capacity.holevo"], "s")
    out["cli.self_s"] = (tracer.self_seconds["cli.command"], "s")
    return out
