"""Span tracing of the library's public functions, installed from outside.

``Tracer.install`` rebinds every public function of the traced modules,
in the defining module and in every ``uavwpt`` module that imported the
name (for example ``uavwpt.link.neumann_mutual``), to a wrapper that
records one span per call: name, start, end, parent span and the id of
the benchmark's top-level call. ``uninstall`` restores the originals.
Nothing under ``src/`` is edited.

Spans are appended to flat arrays in memory. ``fold`` turns the spans of
complete top-level calls into per-layer totals and frees them; the
benchmark folds between calls only when the arrays grow large, and once at
the end. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans add up to the summed
duration of the root spans.
"""

import functools
import importlib
import sys
import time
import types
from array import array

TRACED_MODULES = (
    "numerics", "coils", "coupling", "link", "touchstone", "mission", "sustainability",
)

# Layer of each traced function; functions not listed fall into
# "mission", "sustainability" or "<module>.other", so every function,
# including one added later, lands in one of LAYERS. The names match the
# per-layer metrics in BENCHMARK.json.
LAYER_OF = {
    "elliptic_k": "numerics.elliptic",
    "elliptic_e": "numerics.elliptic",
    "coaxial_mutual_inductance": "coils.coaxial_mutual",
    "coil_self_inductance": "coils.self_inductance",
    "winding_self_inductance": "coils.self_inductance",
    "skin_factor": "coils.self_inductance",
    "neumann_mutual": "coupling.neumann",
    "misalignment_grid": "coupling.sweep",
    "coupling_vs_distance": "coupling.sweep",
    "coupling_factor": "coupling.sweep",
    "solve_link": "link.solve",
    "max_efficiency_map": "link.map",
    "parse_touchstone": "touchstone.parse",
    "s_to_z": "touchstone.convert",
    "z_to_s": "touchstone.convert",
    "coupling_from_z": "touchstone.convert",
    "serialize_touchstone": "touchstone.serialize",
}
MODULE_LAYERS = {"mission": "mission", "sustainability": "sustainability"}

LAYERS = (
    "numerics.elliptic", "numerics.other",
    "coils.coaxial_mutual", "coils.self_inductance", "coils.other",
    "coupling.neumann", "coupling.sweep", "coupling.other",
    "link.solve", "link.map", "link.other",
    "touchstone.parse", "touchstone.convert", "touchstone.serialize", "touchstone.other",
    "mission", "sustainability",
)

# functions whose individual span durations are kept (for percentiles)
KEEP_DURATIONS = ("coupling.neumann_mutual",)
# functions whose call count is reported on its own
COUNTED = ("sustainability.breakeven",)


def layer_of(qualified_name):
    module, func = qualified_name.split(".", 1)
    return LAYER_OF.get(func) or MODULE_LAYERS.get(module) or f"{module}.other"


class Totals:
    """Per-layer aggregates of folded spans."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counted = dict.fromkeys(COUNTED, 0)
        self.durations = {n: [] for n in KEEP_DURATIONS}
        self.errors = dict.fromkeys(TRACED_MODULES, 0)
        self.root_s = 0.0
        self.spans = 0
        self.min_self_s = 0.0

    def merge(self, other):
        for k, v in other.calls.items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in other.self_s.items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in other.counted.items():
            self.counted[k] += v
        for k, v in other.durations.items():
            self.durations[k].extend(v)
        for k, v in other.errors.items():
            self.errors[k] += v
        self.root_s += other.root_s
        self.spans += other.spans
        self.min_self_s = min(self.min_self_s, other.min_self_s)

    def as_dict(self):
        return dict(vars(self))

    @classmethod
    def from_dict(cls, doc):
        t = cls()
        for k, v in doc.items():
            setattr(t, k, v)
        return t


class Tracer:
    def __init__(self):
        self.names = []  # "module.function", indexed by name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.call = array("q")
        self.totals = Totals()
        self.call_id = -1
        self._stack = [-1]
        self._patches = []  # (module object, attribute, wrapper, original)
        self._wrapped = False

    def _wrap(self, fn, module, error_type):
        nid = len(self.names)
        self.names.append(f"{module}.{fn.__name__}")
        start, end, parent, name, call = self.start, self.end, self.parent, self.name, self.call
        stack, errors, clock = self._stack, self.totals.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            call.append(self.call_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                # count each typed error once, in the module that raised it
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[module] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _prepare(self):
        error_type = importlib.import_module("uavwpt.errors").WptError
        wrappers = {}
        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(f"uavwpt.{mod_name}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, mod_name, error_type)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "uavwpt" or mod_name.startswith("uavwpt."):
                for attr, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._patches.append((mod, attr, wrappers[value], value))
        self._wrapped = True

    def install(self):
        if not self._wrapped:
            self._prepare()
        for mod, attr, wrapper, _ in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, _, original in self._patches:
            setattr(mod, attr, original)

    def pending(self):
        return len(self.start)

    def fold(self):
        """Aggregate all recorded spans into ``totals`` and free them.

        Call only between top-level calls, so every span's parent is
        among the spans folded together.
        """
        import numpy as np

        n = len(self.start)
        if n == 0:
            return
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n).astype(np.int64)
        self_t = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_t, parent[has_parent], dur[has_parent])
        lidx = {ln: i for i, ln in enumerate(LAYERS)}
        span_layer = np.array([lidx[layer_of(q)] for q in self.names], dtype=np.int64)[name]
        parent_layer = np.full(n, -1, dtype=np.int64)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        self_sum = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
        entries = np.bincount(span_layer[span_layer != parent_layer], minlength=len(LAYERS))
        part = Totals()
        part.calls = {ln: int(entries[i]) for ln, i in lidx.items()}
        part.self_s = {ln: float(self_sum[i]) for ln, i in lidx.items()}
        for i, q in enumerate(self.names):
            if q in part.durations:
                part.durations[q] = dur[name == i].tolist()
            if q in part.counted:
                part.counted[q] = int(np.count_nonzero(name == i))
        part.root_s = float(dur[~has_parent].sum())
        part.spans = n
        part.min_self_s = float(self_t.min())
        del start, dur, parent, name  # drop the views, or the arrays cannot shrink
        self.totals.merge(part)  # errors are counted live by the wrappers
        for arr in (self.start, self.end, self.parent, self.name, self.call):
            del arr[:]
