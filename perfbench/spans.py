"""Spans around the calls into insiderlab's layers, recorded from outside the package.

`Tracer.install` wraps every public module-level function of each layer
module and rebinds the wrapper in every `insiderlab.*` namespace that holds
the same function object.  The package imports by name (`cli.sample_paths`,
`bsde.mean_se`, `strategies.partial_signals`, `bsde.pi_small_insider_robust`),
so rebinding only the defining module would let those calls bypass the span.

A span is `[name, start, end, parent index, op id]`.  Spans stay in memory
until the pass ends; self time is a span's duration minus the durations of its
direct children.  The program is single-threaded at every wrapped boundary
(only the private RNG block fill runs on worker threads), so one stack holds
the open spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# package module -> layer name used in metric names
LAYERS = {
    "cli": "cli",
    "model": "model",
    "paths": "paths",
    "strategies": "strategies",
    "simulate": "simulate",
    "bsde": "bsde",
    "anticipating": "anticipating",
    "analysis": "analysis",
    "_csvio": "csvio",
}

MB = 1e6


def _batch_mb(counts: Counter, args, kwargs, batch) -> None:
    # arrays the batch owns; a view (dWH without a signal) shares dW's memory
    arrays = (batch.dW, batch.Y0, batch.phi, batch.dWH)
    size = sum(a.nbytes for a in arrays if a.base is None) / MB
    counts["paths.batch_mb"] = max(counts["paths.batch_mb"], size)


def _mean_se_elements(counts: Counter, args, kwargs, result) -> None:
    x = args[0] if args else kwargs["x"]
    counts["simulate.mean_se.elements"] += x.size if hasattr(x, "size") else len(x)


def _sweeps(n: int, counts: Counter, args, kwargs) -> None:
    batch = args[0] if args else kwargs["batch"]
    counts["bsde.sweeps"] += n
    counts["bsde.regressions"] += 2 * batch.grid.index_T * n


def _linear_sweeps(counts: Counter, args, kwargs, result) -> None:
    _sweeps(1, counts, args, kwargs)


def _quadratic_sweeps(counts: Counter, args, kwargs, result) -> None:
    _sweeps(len(result.trace), counts, args, kwargs)


def _csv_bytes(counts: Counter, args, kwargs, path) -> None:
    counts["csvio.bytes"] += os.path.getsize(path)


# counts computed from the arguments or result of a wrapped call
_OBSERVERS = {
    "paths.sample_paths": _batch_mb,
    "simulate.mean_se": _mean_se_elements,
    "bsde.solve_linear_lsmc": _linear_sweeps,
    "bsde.solve_quadratic_lsmc": _quadratic_sweeps,
    "csvio.write_csv": _csv_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def install(self) -> None:
        """Wrap and rebind every public function of every layer."""
        wrappers = {}
        for module, layer in LAYERS.items():
            mod = importlib.import_module(f"insiderlab.{module}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "insiderlab" and not name.startswith("insiderlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id: int, command: str):
        """The root span `cli.op.<command>` of one CLI op."""
        self._op = op_id
        span = self._open(f"cli.op.{command}")
        try:
            yield
        finally:
            self._close(span)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def summary(self) -> dict[str, float]:
        """Per name: `.s` inclusive time (outermost span of a name only, so
        recursion is not counted twice), `.self_s` and `.calls`; plus the
        computed counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.s"] += end - start
        out.update(self.counts)
        return dict(out)
