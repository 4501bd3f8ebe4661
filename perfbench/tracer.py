"""In-memory span recorder that times calls into nlasso from outside.

The recorder replaces every binding of the traced public functions in the
loaded modules with a timing wrapper, so calls are seen whichever
way the caller reaches them:

* ``generators`` imports ``build_graph`` by name,
* the ``nlasso`` package re-exports ``run`` and friends,
* ``cli`` calls through the module aliases ``slv.``, ``gen.``, ``gc.``,
  ``cert.`` and ``obj.``,
* ``fiedler_vector`` calls the module-global ``laplacian``,
* ``LaplacianOperator.apply`` is a method and is wrapped on the class.

Nothing under ``src/`` changes; ``uninstall`` puts every binding back.
Each span keeps its name, start, end, parent span and operation id in
memory until the run ends.  A span's self time is its duration minus the
part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# layer module -> public functions timed as "<layer>.<function>" spans
TRACED = {
    "graph": ("build_graph", "read_edge_list", "read_node_set", "is_connected"),
    "generators": ("grid_from_image", "sbm_graph", "read_pgm", "write_pgm",
                   "chain_graph", "sample_seeds"),
    "objectives": ("duality_gap",),
    "solver": ("run",),
    "certificates": ("extract_cluster", "kkt_residuals", "boundary_conditions",
                     "reach_bound_check"),
    "baselines": ("fiedler_vector", "laplacian"),
    "cli": ("main",),
}
# (layer module, class, method) -> span name
TRACED_METHODS = {("baselines", "LaplacianOperator", "apply"): "baselines.laplacian_apply"}
LAYERS = tuple(TRACED)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solver_info(args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    return (p.graph.n, p.graph.num_edges, int(result.iters_run), p, result)


def _edge_count(args, kwargs, result):
    return int(result.num_edges)


def _output_bytes(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" not in argv:
        return 0
    out = argv[argv.index("--out") + 1]
    total = 0
    for dirpath, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


# span name -> function(args, kwargs, result) giving the span's `info`
_INFO = {
    "solver.run": _solver_info,
    "graph.build_graph": _edge_count,
    "cli.main": _output_bytes,
}


class Tracer:
    """Collects spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _open(self, name) -> Span:
        sp = Span(name, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        sp = self._open(name)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            sp.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                self._stack.pop()
            if info is not None:
                sp.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of the traced functions and methods.

        A traced name that the package no longer has raises, so that a
        renamed or removed binding fails the run instead of reading 0.
        """
        targets = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"nlasso.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    raise LookupError(f"nlasso.{layer} has no {fname} to trace")
                targets[id(fn)] = (fn, f"{layer}.{fname}")
        for (layer, cls_name, meth), span_name in TRACED_METHODS.items():
            cls = getattr(importlib.import_module(f"nlasso.{layer}"), cls_name, None)
            if cls is None or meth not in vars(cls):
                raise LookupError(f"nlasso.{layer} has no {cls_name}.{meth} to trace")
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrapper_for(fn, span_name))
        # every loaded module, so that by-name imports outside the package
        # (the test oracle's build_graph) are timed as well
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self._wrapper_for(value, hit[1]))

    def _wrapper_for(self, fn, name):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
        return self._wrappers[id(fn)][1]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Totals:
    """Calls, busy seconds and self seconds per span name over a span range."""

    def __init__(self, spans: list[Span], lo: int, hi: int):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.info: dict[str, list] = {}
        covered = [0.0] * (hi - lo)
        for k in range(lo, hi):
            sp = spans[k]
            if sp.parent >= lo:
                covered[sp.parent - lo] += sp.duration
        for k in range(lo, hi):
            sp = spans[k]
            self.calls[sp.name] = self.calls.get(sp.name, 0) + 1
            self.busy[sp.name] = self.busy.get(sp.name, 0.0) + sp.duration
            self.self_s[sp.name] = self.self_s.get(sp.name, 0.0) + sp.duration - covered[k - lo]
            if sp.info is not None:
                self.info.setdefault(sp.name, []).append(sp.info)
