"""Per-layer tracing of frameport, installed from outside the package.

A layer is one module of the package (`_kernels` covers the kernel package).
The tracer wraps every public function of each layer and every public method
of its classes, and rebinds each name any layer module looks it up by, so
`channel.conj_superop_sums` and `encoding.sample_su2` are traced like the
originals.  It also wraps the sampler and decoder that each encoding scheme
carries, and times the import of each layer module.

A span is (id, name, parent id, start, end, work); spans stay in memory until
the caller takes them.  Work is a count recorded at the boundary, such as the
samples a sampler returned.  A span opened in a pool thread with nothing open
below it takes the main thread's innermost open span as its parent.

Self time splits wall time among the innermost open spans, evenly when
several threads run at once, so the self times of a phase sum to the wall
time its root spans cover.  Only the standard library is imported here.
"""
from __future__ import annotations

import functools
import importlib.machinery
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "frameport"
LAYERS = ("qmat", "groups", "ueb", "encoding", "channel", "optimize", "cli",
          "_kernels")
# Dunder methods that do a layer's work when a caller uses its classes.
_METHOD_DUNDERS = ("__call__", "__post_init__", "__matmul__")


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != PACKAGE or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return shape[0] if shape else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.wrapped = set()          # names of the wrappers installed
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._finder = None

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _cross_thread_parent(self):
        if threading.get_ident() == self._main:
            return None
        try:
            return self._main_stack[-1][0]
        except IndexError:
            return None

    def add_work(self, n: int) -> None:
        """Add n to the work count of the innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1][1] += n

    def wrap(self, name: str, fn, measure=None):
        """fn wrapped in a span; measure(args, kwargs, result) gives work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else tracer._cross_thread_parent()
            entry = [next(tracer._ids), 0]
            stack.append(entry)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    entry[1] += measure(args, kwargs, out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((entry[0], name, parent, t0, t1, entry[1]))

        traced.__traced__ = True
        self.wrapped.add(name)
        return traced

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    # -- installation -----------------------------------------------------

    def trace_imports(self) -> None:
        """Time the import of each layer module from now on."""
        tracer = self

        class Finder:
            @staticmethod
            def find_spec(fullname, path, target=None):
                layer = layer_of(fullname)
                if layer is None:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(fullname, path)
                if spec is not None and spec.loader is not None:
                    spec.loader.exec_module = tracer.wrap(
                        f"{layer}.import", spec.loader.exec_module)
                return spec

        self._finder = Finder()
        sys.meta_path.insert(0, self._finder)

    def install(self) -> list:
        """Wrap every loaded layer; returns the hooked names that no longer
        exist, which are reported as absent rather than failing the trace."""
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and layer_of(n)]
        wrappers = {}                 # id(original) -> (original, wrapper)
        for mod in modules:
            layer = layer_of(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isroutine(obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap_hooked(name, obj))

        def rebind(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if rebind(obj) is not None:
                    setattr(mod, attr, rebind(obj))
                elif type(obj) is dict:
                    # Registries such as cli._UEBS look functions up by key.
                    for key, value in list(obj.items()):
                        if rebind(value) is not None:
                            obj[key] = rebind(value)
        return sorted(set(_HOOKS) - self.wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (not attr.startswith("_")
                                            or attr in _METHOD_DUNDERS):
                name = f"{layer}.{cls.__name__}.{attr}"
                setattr(cls, attr, self._wrap_hooked(name, obj))

    def _wrap_hooked(self, name: str, fn):
        hook = _HOOKS.get(name)
        if hook is None:
            return self.wrap(name, fn)
        return hook(self, name, fn)

    def instrument_scheme(self, scheme) -> None:
        """Trace the sampler and decoder an encoding scheme carries.  The
        sampler's own decode calls go through its closure, so the closure
        cell holding the decoder is rebound too."""
        decode, sample = scheme.decode_fn, scheme.sample_fn
        if getattr(sample, "__traced__", False):
            return
        traced_decode = self.wrap("encoding.decode_fn", decode,
                                  lambda a, k, out: _rows(a[0]))
        traced_sample = self.wrap("encoding.sample_fn", sample,
                                  lambda a, k, out: _rows(out))
        for cell in sample.__closure__ or ():
            if cell.cell_contents is decode:
                cell.cell_contents = traced_decode
        object.__setattr__(scheme, "decode_fn", traced_decode)
        object.__setattr__(scheme, "sample_fn", traced_sample)


# ---------------------------------------------------------------------------
# Work counts recorded at specific boundaries
# ---------------------------------------------------------------------------

def _measured(measure):
    return lambda tracer, name, fn: tracer.wrap(name, fn, measure)


def _counting_quadrature(tracer, name, fn):
    @functools.wraps(fn)
    def quadrature_average(f, *args, **kwargs):
        def counted(theta):
            tracer.add_work(_rows(theta))
            return f(theta)
        return fn(counted, *args, **kwargs)
    return tracer.wrap(name, quadrature_average)


def _scheme_constructor(tracer, name, fn):
    def instrument(args, kwargs, scheme):
        tracer.instrument_scheme(scheme)
        return 0
    return tracer.wrap(name, fn, instrument)


_HOOKS = {
    "groups.sample_su2": _measured(lambda a, k, out: _arg(a, k, 1, "n")),
    "groups.nearest_indices": _measured(lambda a, k, out: _rows(a[0])),
    "groups.quadrature_average": _counting_quadrature,
    "encoding.decode_batch": _measured(lambda a, k, out: _rows(a[1])),
    "encoding.ReadingSpace.sample": _measured(
        lambda a, k, out: _arg(a, k, 2, "n")),
    "encoding.tight_matched_scheme": _scheme_constructor,
    "encoding.perfect_matched_scheme": _scheme_constructor,
    "encoding.rod_scheme": _scheme_constructor,
    "_kernels.conj_superop_sums": _measured(lambda a, k, out: _rows(a[0])),
    "optimize.nelder_mead": _measured(
        lambda a, k, out: out.trace.evaluations),
}


# ---------------------------------------------------------------------------
# Attribution and per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list) -> dict:
    """Span id -> self time.  Each stretch of wall time is split evenly among
    the open spans that have no open child."""
    parent_of = {s[0]: s[2] for s in spans}
    events = sorted([(s[3], 1, s[0]) for s in spans]
                    + [(s[4], 0, s[0]) for s in spans])
    open_children = defaultdict(int)
    active, leaves = set(), set()
    out = defaultdict(float)
    last = None
    for t, starts, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        parent = parent_of[sid]
        if starts:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def summarize(spans: list) -> dict:
    """Per-name totals of one phase: calls, inclusive and self seconds, work,
    and the work of spans grouped by their parent's name or layer."""
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    by_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                   "work": 0})
    under = defaultdict(int)          # "child<parent" -> child work
    parents = set()                   # (parent id, child name)
    for sid, name, parent, t0, t1, work in spans:
        row = by_name[name]
        row["calls"] += 1
        row["incl_s"] += t1 - t0
        row["self_s"] += selfs[sid]
        row["work"] += work
        pname = names.get(parent)
        if pname is not None:
            under[f"{name}<{pname}"] += work
            under[f"{name}<{pname.split('.')[0]}"] += work
            parents.add((parent, name))
    for sid, name, _, _, _, work in spans:
        # "parent>child" -> work of the parent spans that had such a child
        for child in _PARENT_WORK.get(name, ()):
            if (sid, child) in parents:
                under[f"{name}>{child}"] += work
    return {"names": dict(by_name), "under": dict(under)}


# Parent spans whose work is also counted by whether they had a given child:
# sampler calls that drew rejection candidates.
_PARENT_WORK = {"encoding.sample_fn": ("encoding.ReadingSpace.sample",)}


def _per_layer(summary: dict, field: str) -> dict:
    out = {layer: 0 for layer in LAYERS}
    for name, row in summary["names"].items():
        out[name.split(".")[0]] += row[field]
    return out


def combine(summaries: list, scale: float = 1.0) -> dict:
    """The sum of several phase summaries, times scale."""
    out = {"names": defaultdict(lambda: {"calls": 0, "incl_s": 0.0,
                                         "self_s": 0.0, "work": 0}),
           "under": defaultdict(float)}
    for summary in summaries:
        for name, row in summary["names"].items():
            for field, value in row.items():
                out["names"][name][field] += value * scale
        for key, value in summary["under"].items():
            out["under"][key] += value * scale
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: dict, reps: list) -> tuple[dict, dict]:
    """The per-layer metrics of one traced command sequence: set-up (import
    and bundle builds) once, plus one warm run of the workload's operations,
    averaged over the traced runs.  Rates use the warm runs only.  Returns
    the metrics, each as (value, unit), and the base of every ratio."""
    rep = combine(reps, 1.0 / len(reps))
    sequence = combine([setup, rep])
    names = rep["names"]

    def get(name, field, source=names):
        return source[name][field] if name in source else 0

    metrics, bases = {}, {}
    self_s = _per_layer(sequence, "self_s")
    calls = _per_layer(sequence, "calls")
    for layer in LAYERS:
        # Metric names start with a letter, so `_kernels` reports as kernels.
        key = layer.lstrip("_")
        metrics[f"{key}.self_s"] = (self_s[layer], "s")
        metrics[f"{key}.calls"] = (calls[layer], "count")

    def rate(metric, name, unit):
        work = get(name, "work")
        metrics[metric] = (_ratio(get(name, "incl_s") * 1e9, work), unit)
        bases[metric] = {"seconds": get(name, "incl_s"), "work": work}

    rate("groups.sample_su2.ns_per_sample", "groups.sample_su2", "ns/sample")
    rate("groups.nearest_indices.ns_per_query", "groups.nearest_indices",
         "ns/query")
    rate("encoding.decode_batch.ns_per_reading", "encoding.decode_batch",
         "ns/reading")
    rate("kernels.conj_superop_sums.ns_per_sample",
         "_kernels.conj_superop_sums", "ns/sample")
    accumulated = get("_kernels.conj_superop_sums", "work")
    channel_self = _per_layer(rep, "self_s")["channel"]
    metrics["channel.ns_per_sample"] = (
        _ratio(channel_self * 1e9, accumulated), "ns/sample")
    bases["channel.ns_per_sample"] = {"seconds": channel_self,
                                      "work": accumulated}

    metrics["groups.quadrature_average.points"] = (
        get("groups.quadrature_average", "work"), "count")

    under = rep["under"]
    candidates = under.get("encoding.ReadingSpace.sample<encoding.sample_fn",
                           0)
    accepted = under.get("encoding.sample_fn>encoding.ReadingSpace.sample", 0)
    returned = get("encoding.sample_fn", "work")
    decoded = get("encoding.decode_fn", "work")
    metrics["encoding.sample_fn.accept_ratio"] = (
        _ratio(accepted, candidates), "ratio")
    bases["encoding.sample_fn.accept_ratio"] = {"returned": accepted,
                                                "candidates": candidates}
    metrics["encoding.decodes_per_sample"] = (_ratio(decoded, returned),
                                              "1/sample")
    bases["encoding.decodes_per_sample"] = {"decoded": decoded,
                                            "samples": returned}

    for name in ("channel.tight_result_estimates", "qmat.map_purity",
                 "optimize.su2_conventional_purity"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    metrics["ueb.equivariance_analysis.calls"] = (
        get("ueb.equivariance_analysis", "calls", sequence["names"]), "count")
    metrics["optimize.haar_draws"] = (
        under.get("groups.sample_su2<optimize", 0), "count")
    metrics["optimize.nelder_mead.evaluations"] = (
        get("optimize.nelder_mead", "work"), "count")
    return metrics, bases
