"""Span tracer that times calls into the package's layers from outside.

`Tracer.install` replaces every public function (each layer module's
`__all__`) in every `mdiqkd` module namespace that binds it, so calls
between layers go through the wrapper too. Spans stay in memory as
(name, start, end, parent) tuples; a span's self time is its duration
minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "mdiqkd"
LAYERS = ("pauli_core", "channel", "gbound", "estimator", "sweep", "cli")

# public functions of each layer at the commit that defined the benchmark;
# one that a later refactor removes is reported as absent, with zero counts
LAYER_FUNCTIONS = (
    "pauli_core.make_reference_state",
    "pauli_core.bloch_vector",
    "pauli_core.two_qubit_bloch",
    "pauli_core.build_S_matrix",
    "pauli_core.build_virtual",
    "channel.build_bsm_povm",
    "channel.transmission_rates",
    "channel.reference_yields",
    "gbound.g_lower",
    "gbound.g_upper",
    "estimator.build_estimation_inputs",
    "estimator.omega_ref_direct",
    "estimator.omega_ref_matrix",
    "estimator.omega_ref_upper",
    "estimator.delta_vir_lower",
    "estimator.omega_upper",
    "estimator.bit_error_rate",
    "estimator.phase_error_rate",
    "estimator.key_rate",
    "estimator.binary_entropy",
    "estimator.estimate",
    "sweep.load_config",
    "sweep.run_loss_sweep",
    "sweep.run_frequency_sweep",
    "sweep.emit_table",
    "sweep.curve_summaries",
    "cli.main",
    "cli.build_parser",
)

# functions whose distinct arguments count redundant work: the tomography
# matrices depend only on the reference states (the delta triple), the
# relay POVM only on its ChannelParams
DISTINCT_ARGS = ("pauli_core.build_S_matrix", "pauli_core.build_virtual",
                 "channel.build_bsm_povm")


def _freeze(value):
    # hashable stand-in for call arguments
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if hasattr(value, "tobytes"):
        return (getattr(value, "shape", None), value.tobytes())
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """Collects spans, distinct-argument sets and escaped exceptions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.distinct = {name: set() for name in DISTINCT_ARGS}
        self.raised = {}  # id -> exception, so a re-raise counts once
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock, raised = self.spans, self._stack, self.clock, self.raised
        keys = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_freeze((args, kwargs)))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised.setdefault(id(exc), exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self):
        """Wrap the layers' public functions; return the names found."""
        targets = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    targets[id(fn)] = (fn, name, self.wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[2])
        return sorted(name for _, name, _ in targets.values())

    def totals(self):
        """{name: (calls, self seconds)} over all finished spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - covered)
        return out

    def distinct_counts(self):
        return {name: len(keys) for name, keys in self.distinct.items()}

    def error_classes(self):
        """Exception class name -> count, each escaped exception once."""
        counts = {}
        for exc in self.raised.values():
            name = type(exc).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts
