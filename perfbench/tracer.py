"""Outside-in span tracer for funcbo.

The tracer wraps named module functions in memory; it never edits the
program's files.  A span (name, start, end, parent, run id) is recorded
for every wrapped call made while a top-level span opened with
``Tracer.span`` is active, so work outside the measured region (checks,
reference runs) leaves no spans.  Spans stay in memory until
``write_jsonl`` is called at the end of the run.

Only the standard library is imported here, so the tracer can be loaded
before the program it observes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``paths`` name the functions to wrap, relative to ``package``, as
    ``module.function`` or ``module.Class.method``; every path records
    under the layer's ``name``.  ``counters`` maps a counter name to a
    function of (args, kwargs, result) giving the amount to add per call.
    """

    name: str
    paths: tuple[str, ...]
    counters: dict = field(default_factory=dict)


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run: int


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._run = 0
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self._run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str, run: int):
        """Top-level span; wrapped calls record only while one is open."""
        self._run = run
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, layer: Layer, fn):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts = self.counts[layer.name]
            for counter, amount in layer.counters.items():
                try:
                    counts[counter] += amount(args, kwargs, result)
                except (LookupError, TypeError, AttributeError, OSError):
                    # The call's signature or result changed: report the
                    # counter as absent instead of failing the run.
                    self._mark_absent(f"{layer.name}.{counter}")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer.name)
        return traced

    # --- installing wrappers ---------------------------------------------

    def install(self, layers, package: str) -> None:
        """Wrap every layer path that exists; record the missing ones.

        A module function is replaced wherever the package holds a
        reference to it: module attributes (including names imported
        with ``from x import f``) and values of module-level dicts, such
        as a table of runner functions.
        """
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for layer in layers:
            for path in layer.paths:
                if not self._install_path(layer, package, path, modules):
                    self._mark_absent(path)

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def _install_path(self, layer, package, path, modules) -> bool:
        module_name, _, attr = path.rpartition(".")
        owner = sys.modules.get(f"{package}.{module_name}")
        if owner is None and "." in module_name:
            module_name, _, cls_name = module_name.rpartition(".")
            module = sys.modules.get(f"{package}.{module_name}")
            owner = getattr(module, cls_name, None) if module is not None else None
            if not isinstance(owner, type) or attr not in owner.__dict__:
                return False
            self._replace(owner, attr, self.wrap(layer, owner.__dict__[attr]))
            return True
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            return False
        traced = self.wrap(layer, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, key, traced)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            self._restore.append((value, dkey, fn))
                            value[dkey] = traced
        return True

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._restore):
            if type(owner) is dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._restore.clear()

    # --- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Wrapped calls nest on one thread, so children of one span never
        overlap and their durations can be summed.
        """
        selfs = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                selfs[span.parent] -= span.end - span.start
        return selfs

    def root_fit(self) -> list[tuple[str, float, float]]:
        """Per top-level span: (name, summed self time of its descendants,
        duration).  The sum can exceed the duration only if spans overlap."""
        selfs = self.self_times()
        root_of: list[int] = []
        inner: dict[int, float] = {}
        for i, span in enumerate(self.spans):
            root = i if span.parent is None else root_of[span.parent]
            root_of.append(root)
            inner[root] = inner.get(root, 0.0) + (selfs[i] if root != i else 0.0)
        return [
            (self.spans[i].name, inner[i], self.spans[i].end - self.spans[i].start)
            for i in inner
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and the layer counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(self.spans, self.self_times()):
            stats = out[span.name]
            stats["calls"] += 1
            stats["self_s"] += self_s
        for name, counts in self.counts.items():
            out[name].update(counts)
        return {name: dict(stats) for name, stats in out.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "run": span.run,
                        }
                    )
                    + "\n"
                )
