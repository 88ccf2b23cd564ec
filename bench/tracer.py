"""In-memory span recorder and the wrappers that put spans around spherekern's modules.

A span is (name, start, end, parent, op id). Spans are recorded at the
boundary of every call into a layer, where a layer is one module of the
package. The wrappers live here, not in the package: `install` replaces
module attributes (and every other module's reference to the same
function object) with a recording wrapper, and `uninstall` puts the
originals back. A module or function that no longer exists is reported
as absent instead of failing, so the benchmark outlives refactors of the
package it measures.

Self time of a layer is the duration of its spans minus the part covered
by their child spans, computed online with a stack, so aggregates stay
exact even after the stored span list reaches its cap.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

#: The package's modules, in the order reports list them. "bench" is the
#: harness itself: op bookkeeping and output checks.
LAYERS = ("gegenbauer", "sphere", "kernel_core", "expansion", "addition",
          "lp_bound", "_simplex", "cli")

#: Private functions wrapped in addition to the public ones, because a
#: per-layer counter reads them.
PRIVATE_HOOKS = {"lp_bound": ("_solve_on_grid",)}

#: Spans kept for the trace file; aggregates keep counting past the cap.
MAX_STORED_SPANS = 200_000

_WRAPPED = "__bench_traced__"


def layer_label(module_name: str) -> str:
    """'spherekern._simplex' -> 'simplex'; anything outside the package -> 'bench'."""
    head, _, tail = module_name.rpartition(".")
    if head != "spherekern" or tail.lstrip("_") == "":
        return "bench"
    return tail.lstrip("_")


class Tracer:
    """Span stack, stored spans, and per-name and per-layer aggregates."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.root_ns = 0
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self._basis_cache = None
        self._basis_start = (0, 0)

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str, layer: str):
        parent = self._stack[-1][4] if self._stack else -1
        frame = [name, layer, time.perf_counter_ns(), 0, -1, parent]
        if len(self.spans) < MAX_STORED_SPANS:
            frame[4] = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, layer, start, child_ns, idx, parent = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child_ns
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.root_ns += dur
        if idx >= 0:
            self.spans[idx] = (self._name_id(name), start, end, parent, self.op_id)

    def count(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one currently being closed."""
        return self._stack[-1][0] if self._stack else None

    # -- wrapping the package --------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if hook is not None:
                hook(tracer, out)
            return out

        setattr(traced, _WRAPPED, True)
        return traced

    def install(self, package) -> None:
        """Wrap every public function and method of each layer module."""
        layers = {}
        for short in LAYERS:
            try:
                layers[short] = importlib.import_module(f"{package.__name__}.{short}")
            except ModuleNotFoundError:
                self.absent.append(short)
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in list(sys.modules.items())
                               if n.startswith(prefix) and m is not None]
        for short, mod in layers.items():
            label = layer_label(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_HOOKS.get(short, ()):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, label)
                elif callable(obj) and not getattr(obj, _WRAPPED, False):
                    wrapper = self._wrap(obj, f"{label}.{attr}", label)
                    if short == "gegenbauer" and attr == "basis_for" and hasattr(obj, "cache_info"):
                        self._basis_cache = obj
                    for m in modules:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._patches.append((m, k, obj))
                                setattr(m, k, wrapper)
            for name in PRIVATE_HOOKS.get(short, ()):
                if not hasattr(mod, name):
                    self.absent.append(f"{short}.{name}")
        self._wrap_kernel_call(package)
        if self._basis_cache is None:
            self.absent.append("gegenbauer.basis_for.cache_info")

    def _wrap_class(self, cls, label: str):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or getattr(obj, _WRAPPED, False):
                continue
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(obj, f"{label}.{cls.__name__}.{attr}", label))

    def _wrap_kernel_call(self, package):
        """Time each kernel's evaluator as a child span of Kernel.__call__.

        The evaluator is a closure defined in whichever module built the
        kernel (expansion for synthesized kernels), so its time belongs to
        that module's layer, not to kernel_core. The evaluator is wrapped
        lazily on a kernel's first traced call, which covers kernels built
        before tracing started.
        """
        Kernel = getattr(package, "Kernel", None)
        call = getattr(Kernel, "__call__", None) if Kernel is not None else None
        if call is None:
            self.absent.append("kernel_core.Kernel.__call__")
            return
        tracer = self

        @functools.wraps(call)
        def traced_call(kernel, *args, **kwargs):
            if tracer.active:
                fn = getattr(kernel, "fn", None)
                if fn is not None and not getattr(fn, _WRAPPED, False):
                    label = layer_label(getattr(fn, "__module__", None) or "")
                    try:
                        kernel.fn = tracer._wrap(fn, f"{label}.evaluator", label)
                    except AttributeError:
                        pass
            return call(kernel, *args, **kwargs)

        setattr(traced_call, _WRAPPED, True)
        self._patches.append((Kernel, "__call__", call))
        Kernel.__call__ = traced_call

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- phases ----------------------------------------------------------

    def start(self):
        if self._basis_cache is not None:
            info = self._basis_cache.cache_info()
            self._basis_start = (info.hits, info.misses)
        self.active = True

    def stop(self):
        self.active = False
        if self._basis_cache is not None:
            info = self._basis_cache.cache_info()
            self.count("gegenbauer.basis_hits", info.hits - self._basis_start[0])
            self.count("gegenbauer.basis_misses", info.misses - self._basis_start[1])

    # -- export ----------------------------------------------------------

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns), "counters": dict(self.counters),
                "maxima": dict(self.maxima), "root_ns": self.root_ns,
                "absent": list(self.absent)}

    def merge(self, agg: dict, spans: list, names: list, op_id: int) -> None:
        """Fold a child process's aggregates and spans into this tracer.

        The child's top-level spans count as children of the span open
        here, so waiting for the child is not self time of this process.
        """
        for key in ("calls", "total_ns", "self_ns", "counters"):
            mine = getattr(self, key)
            for k, v in agg[key].items():
                mine[k] = mine.get(k, 0) + v
        for k, v in agg["maxima"].items():
            self.maximum(k, v)
        if self._stack:
            self._stack[-1][3] += agg["root_ns"]
        for a in agg["absent"]:
            if a not in self.absent:
                self.absent.append(a)
        base = len(self.spans)
        for nid, start, end, parent, _ in spans:
            if len(self.spans) >= MAX_STORED_SPANS:
                self.dropped += 1
                continue
            self.spans.append((self._name_id(names[nid]), start, end,
                               parent + base if parent >= 0 else -1, op_id))

    def write(self, path) -> None:
        """Write stored spans as gzipped JSON: names table plus span rows."""
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "names": self.names, "spans": [s for s in self.spans if s is not None],
               "dropped": self.dropped}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Counters read from a call's return value, keyed by span name. Reading
# results (shapes, dataclass fields) instead of arguments keeps them
# independent of signatures.

def _table_points(tracer, out):
    shape = getattr(out, "shape", ())
    if shape:
        tracer.count("gegenbauer.table_points", out.size // shape[0])


def _gram_entries(tracer, out):
    m = getattr(out, "shape", (0,))[0]
    tracer.count("kernel_core.gram_entries", m * (m + 1) // 2)


def _simplex_iterations(tracer, out):
    tracer.count("simplex.iterations", getattr(out, "iterations", 0))


def _lp_certificate(tracer, out):
    tracer.count("lp_bound.refined_points", getattr(out, "refined_points", 0))
    v = getattr(out, "max_violation", None)
    if v is not None:
        tracer.maximum("lp_bound.max_violation", float(v))


def _addition_samples(tracer, out):
    tracer.count("addition.accepted", getattr(out, "samples", 0))


def _config_drawn(tracer, out):
    if tracer.parent_name() == "addition.verify_addition":
        tracer.count("addition.drawn")


_RESULT_HOOKS = {
    "gegenbauer.gegenbauer_table": _table_points,
    "kernel_core.gram": _gram_entries,
    "simplex.simplex_max": _simplex_iterations,
    "lp_bound.delsarte_lp": _lp_certificate,
    "addition.verify_addition": _addition_samples,
    "sphere.random_config": _config_drawn,
}
