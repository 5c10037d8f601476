"""Span tracer for the tschur layers.

`Tracer.install` replaces every public function of the layer modules (and the
TruncatedSeries arithmetic) by a wrapper that records a span (name, start,
end, parent) per call, and per `next()` for generator functions.  It rebinds
the function wherever a tschur module imported it by name, so calls between
modules are traced too.  `uninstall` restores the originals.  Without
`install` nothing is wrapped and the library runs untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("partitions", "series", "symfunc", "rsk", "measure", "numerics", "asymptotics",
          "airy", "tracy_widom", "cli")
METHODS = {"series": {"TruncatedSeries": ("__mul__", "__pow__", "inverse")}}
MARK = "_perfbench_span"  # attribute that tells a wrapper from a library function


def _letters(args, kwargs):
    return sum(e.value for row in args[0].entries for e in row if e is not None)


# name -> (count name, function of the call's arguments)
COUNTERS = {
    "airy.airy_ai": ("points", lambda args, kwargs: int(np.size(args[0]))),
    "measure.sample_lambda1": ("samples", lambda args, kwargs: int(
        kwargs["samples"] if "samples" in kwargs else args[1])),
    "rsk.rsk": ("letters", _letters),
}


def _targets():
    """(span name, function) for every function to wrap."""
    for layer in LAYERS:
        mod = importlib.import_module(f"tschur.{layer}")
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{layer}.{attr}", fn
        for cls_name, methods in METHODS.get(layer, {}).items():
            for attr in methods:
                yield f"{layer}.{cls_name}.{attr}", vars(getattr(mod, cls_name))[attr]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx)
                        self.counts[f"{name}.items"] += 1
                        yield item
                finally:
                    gen.close()
        else:
            counter = COUNTERS.get(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter:
                    self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {id(fn): (fn, self._wrap(name, fn)) for name, fn in _targets()}
        # every namespace that holds one of the functions: the defining module,
        # modules that imported it by name, the package, and the classes
        owners = [m for n, m in list(sys.modules.items()) if n == "tschur" or n.startswith("tschur.")]
        owners += [c for m in owners for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.startswith("tschur.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapped[id(value)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} plus the recorded counts.

        A span's self time is its duration minus that of its direct children.
        """
        out = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), inner in zip(self.spans, child):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - inner
        return out, dict(self.counts)


def installed():
    """Names of the wrappers currently bound anywhere in the tschur package."""
    found = []
    for n, mod in list(sys.modules.items()):
        if n == "tschur" or n.startswith("tschur."):
            for value in vars(mod).values():
                if hasattr(value, MARK):
                    found.append(getattr(value, MARK))
                if inspect.isclass(value):
                    found += [getattr(v, MARK) for v in vars(value).values() if hasattr(v, MARK)]
    return found
