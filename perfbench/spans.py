"""Span tracing of riplab's public functions, installed from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records a span, in every riplab module namespace that
holds a reference to it, and restores the originals on exit.  Nothing under
``src/`` is edited.  Spans stay in memory as ``[name, start, end, parent,
op, info]`` and are written out once, at the end of a run.

A span's self time is its duration minus the durations of its direct
children; single-threaded calls nest, so the self times of one op's spans
add up to the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: the layers: package modules whose public functions get spans
LAYERS = ("lp", "verify", "recovery", "models", "sketch", "fileio")

NAME, START, END, PARENT, OP, INFO = range(6)


def _solve_min_info(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *_, **__):
    """(rows, KiB) of the tableau ``lp.solve_min`` allocates, computed from
    the argument shapes: one row per constraint plus the objective, one
    column per variable, slack, artificial and the right-hand side."""
    n_ub = 0 if a_ub is None else np.shape(a_ub)[0]
    n_eq = 0 if a_eq is None else np.shape(a_eq)[0]
    flipped = 0 if b_ub is None else int(np.count_nonzero(np.asarray(b_ub) < 0))
    rows = n_ub + n_eq
    cols = np.size(c) + n_ub + n_eq + flipped + 1
    return rows, (rows + 1) * cols * 8 / 1024.0


def _l1_fit_info(a, *_, **__):
    """Rows of the regression that reach the LP (rows with a nonzero entry)."""
    return int(np.count_nonzero(np.abs(np.atleast_2d(a)).sum(axis=1)))


#: per-function argument summaries stored in the span's info slot
INFO_HOOKS = {"lp.solve_min": _solve_min_info, "lp.l1_fit": _l1_fit_info}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = None

    def begin(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, info])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def _wrap(self, name: str, fn):
        hook = INFO_HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            # time spent inside the generator: one span per next()
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.begin(name)
                    try:
                        item = next(it)
                        self.spans[idx][INFO] = 1  # counts as yielded
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, hook(*args, **kwargs) if hook else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    @contextmanager
    def installed(self):
        """Route every call of a layer's public function through a span."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"riplab.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "riplab" and not modname.startswith("riplab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list) -> list:
    """Per span: duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
