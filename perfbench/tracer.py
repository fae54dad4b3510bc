"""Layer spans recorded from outside the program.

The benchmark may not edit the package, so tracing works by replacing each
public function of a layer module with a wrapper at every place the
function is looked up: the module attribute (what `runner` reaches through
`cat_free.attenuation_exact`, and what the function-level import inside
`oracle.lindblad_bloch_deviation` reads) and every by-name binding in
another module (`runner.write_table`, `oracle.nbar`, `cli.run`, ...).
`output` is the one module whose own attribute stays untouched: no other
module reaches it by attribute, and its `_format_row` looks `format_float`
up once per written number, which is inside the layer, not a boundary.

A call opens a span only when it crosses into its layer from another one.
A call from inside the same layer runs the original function directly,
apart from the few probed functions whose counts and times the benchmark
reports (RK4 steps, Lindblad right-hand sides, quadrature evaluations,
tables and bytes written); those are timed and counted on every call.

Spans live in flat arrays in memory (name, start, end, parent, command
id) and are written once, by `save`, when the run ends.
"""

import inspect
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "config",
    "runner",
    "cat_free",
    "cat_oscillator",
    "spin_bloch",
    "oracle",
    "output",
    "selftest",
)

# the layer whose own module attribute is not patched (see the module docstring)
_UNPATCHED_HOME = "output"


# probes: (counters, function, result, args, kwargs, seconds inside the call)
def _rk4_steps(counters, fn, result, args, kwargs, seconds):
    counters["oracle.rk4_steps"] += len(result.times) - 1


def _lindblad_rhs(counters, fn, result, args, kwargs, seconds):
    counters["oracle.lindblad_rhs_calls"] += 1


def _lindblad_integration(counters, fn, result, args, kwargs, seconds):
    counters["oracle.lindblad_busy_s"] += seconds


def _quadrature(counters, fn, result, args, kwargs, seconds):
    counters["oracle.quad_calls"] += 1
    counters["oracle.quad_evals"] += result.evaluations
    counters["oracle.quad_busy_s"] += seconds


def _table(counters, fn, result, args, kwargs, seconds):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    counters["output.tables"] += 1
    counters["output.rows"] += len(bound["rows"])
    counters["output.bytes"] += os.path.getsize(bound["path"])


def _sections(counters, fn, result, args, kwargs, seconds):
    path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
    counters["output.bytes"] += os.path.getsize(path)


_PROBES = {
    ("oracle", "integrate_rk4"): _rk4_steps,
    ("oracle", "lindblad_rhs"): _lindblad_rhs,
    ("oracle", "integrate_lindblad"): _lindblad_integration,
    ("oracle", "integrate_adaptive"): _quadrature,
    ("output", "write_table"): _table,
    ("output", "write_sections"): _sections,
}


def public_functions():
    """{layer: {name: function}} for the plain functions each layer defines."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"decolab.{layer}"]
        found[layer] = {
            name: obj
            for name, obj in vars(module).items()
            if inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        }
    return found


class Tracer:
    """Span and counter store; `installed()` patches the package while open."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.command = array("i")
        self.outermost = array("b")
        self.command_id = -1
        self.counters = defaultdict(int)
        self._stack = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._wrappers = None

    def take_counters(self):
        """Counters since the last call, as a plain dict; resets them."""
        taken = dict(self.counters)
        self.counters.clear()
        return taken

    @contextmanager
    def installed(self):
        """Wrap every public layer function at each place it is looked up."""
        if self._wrappers is None:
            self._wrappers = {
                id(fn): (fn, self._wrap(layer, name, fn))
                for layer, named in public_functions().items()
                for name, fn in named.items()
            }
        wrappers = self._wrappers
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "decolab" and not mod_name.startswith("decolab."):
                continue
            home = mod_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is None or (home == _UNPATCHED_HOME and value.__module__ == mod_name):
                    continue
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def _wrap(self, layer, name, fn):
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        probe = _PROBES.get((layer, name))
        stack, depth, counters = self._stack, self._depth, self.counters
        span_name, start, end = self.span_name, self.start, self.end
        parent, command, outermost = self.parent, self.command, self.outermost
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                if probe is None:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                probe(counters, fn, result, args, kwargs, perf_counter() - t0)
                return result
            index = len(start)
            span_name.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            command.append(tracer.command_id)
            outermost.append(depth[layer] == 0)
            end.append(0.0)
            depth[layer] += 1
            stack.append((index, layer))
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[index] = t1
                stack.pop()
                depth[layer] -= 1
            if probe is not None:
                probe(counters, fn, result, args, kwargs, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def layer_totals(self, command_ids):
        """calls, busy and self seconds per layer over the given commands.

        busy counts only a layer's outermost spans, so re-entry through
        another layer is not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        n = len(self.start)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        begin = np.frombuffer(self.start, dtype=np.float64)
        finish = np.frombuffer(self.end, dtype=np.float64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        commands = np.frombuffer(self.command, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        duration = finish - begin
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=n)
        own = duration - child_time
        selected = np.isin(commands, list(command_ids))
        layer_ids = np.array([LAYERS.index(name.split(".", 1)[0]) for name in self.names], dtype=int)
        span_layer = layer_ids[names]
        totals = {}
        for k, layer in enumerate(LAYERS):
            mine = selected & (span_layer == k)
            totals[layer] = {
                "calls": int(np.count_nonzero(mine)),
                "busy_s": float(duration[mine & outer].sum()),
                "self_s": float(own[mine].sum()),
            }
        return totals

    def save(self, path):
        """Write every recorded span to one numpy archive."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            command=np.frombuffer(self.command, dtype=np.int32),
        )
