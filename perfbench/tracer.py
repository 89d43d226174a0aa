"""Outside-in tracer for gray_stability, installed by the benchmark's child.

The library is left untouched.  Each traced function is replaced by a
wrapper in every ``gray_stability`` module namespace that holds a
reference to it (``stability.coclosed_dim`` and ``fourier.coclosed_dim``
are the same object under two names), so calls are caught whichever
name the caller uses.  Spans are kept in memory as flat tuples and
reduced to per-boundary figures once, by :meth:`Tracer.summary`.

A boundary that no longer exists (module or attribute gone, or not
callable) is recorded as absent and reads 0; it never raises.

Per boundary ``<module>.<function>`` the summary holds:

* ``.calls``    number of calls;
* ``.total_s``  wall time inside the outermost active call;
* ``.self_s``   wall time minus the time of traced calls it made;
* ``.misses``   ``cache_info().misses`` during the traced run, for the
  ``lru_cache`` boundaries.

and, as counts: ``linalg.rref.cells_max``/``cells_sum`` (rows x columns
of each matrix passed to ``rref``), ``scalars.mul_calls``,
``scalars.add_calls`` (``Scalar`` additions and subtractions),
``scalars.inverse_calls`` and ``sympoly.mul_calls``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "gray_stability"

BOUNDARIES = (
    ("linalg", ("rref", "nullspace", "solve", "inverse", "det3", "adjugate3", "mat_mul")),
    ("lie", ("build_space", "validate_space")),
    ("reps", ("weight_system", "enumerate_labels", "explicit_rep", "casimir_bruteforce")),
    ("branching", ("restrict", "hom_dim")),
    ("forms", ("lambda11_0",)),
    ("fourier", ("hom_basis", "proto_delta", "coclosed_dim")),
    ("stability", ("coindex_report",)),
    ("sympoly", ("sym_inner",)),
    ("obstruction", ("nabla_h", "obstruction_terms", "obstruction_pairing", "rigidity_verdict")),
    ("render", ("dumps",)),
    ("cli", ("branch_doc", "coindex_doc", "obstruction_doc", "validate_doc", "reproduce_all_doc")),
)

# Boundaries memoized with functools.lru_cache; their misses are reported.
CACHED = ("lie.build_space", "forms.lambda11_0", "stability.coindex_report", "obstruction.nabla_h")

# (module, class, methods counted together, metric name)
COUNTERS = (
    ("scalars", "Scalar", ("__mul__",), "scalars.mul_calls"),
    ("scalars", "Scalar", ("__add__", "__sub__"), "scalars.add_calls"),
    ("scalars", "Scalar", ("inverse",), "scalars.inverse_calls"),
    ("sympoly", "SymPoly", ("__mul__",), "sympoly.mul_calls"),
)

RREF = "linalg.rref"


def boundary_names(boundaries=BOUNDARIES) -> list:
    return [f"{mod}.{fn}" for mod, fns in boundaries for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric the summary reports, with its unit, in order."""
    units = {}
    for name in boundary_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in CACHED:
        units[f"{name}.misses"] = "count"
    units[f"{RREF}.cells_max"] = "count"
    units[f"{RREF}.cells_sum"] = "count"
    for *_, metric in COUNTERS:
        units[metric] = "count"
    return units


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _rebind(namespaces, original, replacement) -> None:
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)


class Tracer:
    def __init__(self, boundaries=BOUNDARIES):
        self.names = boundary_names(boundaries)
        self.absent: list = []
        self.spans: list = []          # (boundary index, start, end, parent span or -1, outermost)
        self.cells: list = []          # rows x columns of each rref argument
        self.counts = {metric: 0 for *_, metric in COUNTERS}
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._cached: dict = {}        # name -> (wrapped lru function, misses at install)

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        # Resolve every boundary first: that imports its module, so the
        # namespace snapshot below includes it and its names get rebound.
        found = [self._lookup(name) for name in self.names]
        namespaces = _package_modules()
        for index, (name, fn) in enumerate(zip(self.names, found)):
            if fn is None:
                self.absent.append(name)
                continue
            if name in CACHED and hasattr(fn, "cache_info"):
                self._cached[name] = (fn, fn.cache_info().misses)
            _rebind(namespaces, fn, self._span_wrapper(fn, index, name == RREF))
        for mod, cls_name, methods, metric in COUNTERS:
            cls = getattr(self._module(mod), cls_name, None)
            if cls is None:
                self.absent.append(f"{mod}.{cls_name}")
                continue
            for method in methods:
                fn = vars(cls).get(method)
                if fn is None:
                    self.absent.append(f"{mod}.{cls_name}.{method}")
                    continue
                _rebind([cls], fn, self._counting_wrapper(fn, metric))
        return self

    @staticmethod
    def _module(mod: str):
        try:
            return importlib.import_module(f"{PACKAGE}.{mod}")
        except ImportError:
            return None

    def _lookup(self, name: str):
        mod, fn = name.split(".")
        fn = getattr(self._module(mod), fn, None)
        return fn if callable(fn) else None

    def _span_wrapper(self, fn, index: int, record_cells: bool):
        spans, stack, active, cells, clock = (
            self.spans, self._stack, self._active, self.cells, time.perf_counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_cells:
                a = args[0] if args else kwargs["a"]
                cells.append(len(a) * len(a[0]) if a else 0)
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            active[index] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[index] -= 1
                stack.pop()
                spans[me] = (index, start, end, parent, active[index] == 0)

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _counting_wrapper(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        child_time = [0.0] * len(self.spans)
        for k in range(len(self.spans) - 1, -1, -1):
            index, start, end, parent, outermost = self.spans[k]
            duration = end - start
            calls[index] += 1
            if outermost:
                total[index] += duration
            self_s[index] += duration - child_time[k]
            if parent >= 0:
                child_time[parent] += duration
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_s"] = total[i]
            out[f"{name}.self_s"] = self_s[i]
        for name in CACHED:
            fn, misses0 = self._cached.get(name, (None, 0))
            out[f"{name}.misses"] = fn.cache_info().misses - misses0 if fn else 0
        out[f"{RREF}.cells_max"] = max(self.cells, default=0)
        out[f"{RREF}.cells_sum"] = sum(self.cells)
        out.update(self.counts)
        return {"metrics": out, "absent": sorted(set(self.absent)), "spans": len(self.spans)}
