"""Outside-in span tracer for ccrlab.

The tracer never edits ccrlab's source. After the package is imported it
rebinds, in every ccrlab module, each public function the package
defines, plus the suite table ``reports._SUITE_FUNCS``, the
``ExactScalar`` arithmetic methods and the ``NormalForm`` methods
``__mul__``, ``__pow__`` and ``to_matrix``. Each call then records a
span: its name, start, end and parent. A span's self time is its
duration minus the durations of its child spans.

Eigensolver calls a layer makes through its ``np.linalg`` binding are
counted (calls and the computed sum of d^3) but are not spans, so their
time stays in the self time of the ccrlab function that made them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("fock", "analytic", "weyl", "schrodinger", "interval", "symbolic", "exact", "reports")

# method name -> span name; reflected operators share their operator's span
_EXACT_METHODS = {
    "__add__": "exact.add",
    "__radd__": "exact.add",
    "__neg__": "exact.neg",
    "__sub__": "exact.sub",
    "__rsub__": "exact.sub",
    "__mul__": "exact.mul",
    "__rmul__": "exact.mul",
    "__truediv__": "exact.div",
    "__rtruediv__": "exact.div",
    "inverse": "exact.inverse",
    "conjugate": "exact.conjugate",
}
_NORMALFORM_METHODS = {
    "__mul__": "symbolic.NormalForm.mul",
    "__pow__": "symbolic.NormalForm.pow",
    "to_matrix": "symbolic.NormalForm.to_matrix",
}
_EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")


class Tracer:
    """Spans kept in flat in-memory arrays, summarised at the end."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, dim3_key: str | None = None):
        """fn wrapped to record one span per call. With dim3_key, the
        first argument's leading dimension cubed is added to that counter."""
        nid = self._name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends, open_spans = (
            self._name, self._parent, self._start, self._end, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if dim3_key is not None:
                self.count(dim3_key, len(args[0]) ** 3)
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    def summary(self) -> dict:
        """{span name: [calls, self_s, outermost inclusive s]} and counters."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += dur[i]
        spans: dict[str, list] = {}
        for i in range(n):
            nid = self._name[i]
            row = spans.setdefault(self._names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i] - covered[i]
            if not self._inside_same_name(i, nid):
                row[2] += dur[i]
        return {"spans": spans, "counters": dict(self.counters)}

    def _inside_same_name(self, i: int, nid: int) -> bool:
        p = self._parent[i]
        while p >= 0:
            if self._name[p] == nid:
                return True
            p = self._parent[p]
        return False


class _Rebound:
    """Attribute proxy: overrides first, everything else from the target."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _modules() -> list:
    return [m for key, m in sorted(sys.modules.items()) if key == "ccrlab" or key.startswith("ccrlab.")]


def rebind_public_functions(wrap) -> dict:
    """Rebind, in every imported ccrlab module, each public function the
    package defines to wrap(function), one wrapper per function.
    Returns {id(function): wrapper}."""
    wrapped: dict[int, object] = {}
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith("ccrlab.")):
                continue
            if id(value) not in wrapped:
                wrapped[id(value)] = wrap(value)
            setattr(module, attr, wrapped[id(value)])
    return wrapped


def install(tracer: Tracer) -> None:
    """Rebind ccrlab's functions and methods to traced wrappers."""
    import numpy as np

    from ccrlab import reports, symbolic
    from ccrlab.exact import ExactScalar

    def span(fn):
        name = f"{fn.__module__.split('.')[1]}.{fn.__name__}"
        return tracer.span(name, fn, "weyl.expm.dim3_sum" if name == "weyl.expm" else None)

    wrapped = rebind_public_functions(span)
    for module in _modules():
        if getattr(module, "np", None) is np:
            module.np = _counting_numpy(tracer, np, module.__name__.rpartition(".")[2])
    for suite, fn in list(reports._SUITE_FUNCS.items()):
        reports._SUITE_FUNCS[suite] = wrapped[id(fn)]

    for cls, methods in ((ExactScalar, _EXACT_METHODS), (symbolic.NormalForm, _NORMALFORM_METHODS)):
        originals = {attr: vars(cls)[attr] for attr in methods}
        by_function: dict[int, object] = {}
        for attr, span_name in methods.items():
            fn = originals[attr]
            if id(fn) not in by_function:
                by_function[id(fn)] = tracer.span(span_name, fn)
            setattr(cls, attr, by_function[id(fn)])


def _counting_numpy(tracer: Tracer, np, layer: str) -> _Rebound:
    def counted(fn):
        @functools.wraps(fn)
        def call(a, *args, **kwargs):
            tracer.count(f"{layer}.eig.calls", 1)
            tracer.count(f"{layer}.eig.dim3_sum", int(np.shape(a)[-1]) ** 3)
            return fn(a, *args, **kwargs)

        return call

    linalg = _Rebound(np.linalg, {name: counted(getattr(np.linalg, name)) for name in _EIGENSOLVERS})
    return _Rebound(np, {"linalg": linalg})
