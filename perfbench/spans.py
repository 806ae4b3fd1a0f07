"""In-memory span tracer for umebkit, installed from outside the package.

`Tracer.install` wraps every public function defined in umebkit's modules
and rebinds the wrapper under each name that refers to the original in any
loaded umebkit module, so calls between modules (cli -> packing,
channels -> umeb, hadamard -> numth, ...) are traced too.  `uninstall`
puts the originals back.

Each call records one span: name, start, end and the index of the
enclosing span.  Times are `time.perf_counter_ns`, which is
CLOCK_MONOTONIC on Linux, so spans written by a child process can be
nested under a span of the process that started it.  Spans stay in memory
until `write` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("numth", "hadamard", "matcore", "packing", "umeb", "channels", "cli")

# Per-call counters recorded next to the span, keyed by traced name.
COUNTERS = {
    "cli.write_json": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    counters: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap umebkit's public functions wherever a module binds them."""
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"umebkit.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        loaded = [m for n, m in sys.modules.items() if n == "umebkit" or n.startswith("umebkit.")]
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counters = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code; yields its index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def adopt(self, spans: list[Span], parent: int) -> None:
        """Append spans recorded elsewhere, nesting their roots under `parent`."""
        offset = len(self.spans)
        for s in spans:
            up = parent if s.parent is None else s.parent + offset
            self.spans.append(Span(s.name, s.start, s.end, up, dict(s.counters)))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.counters] for s in self.spans], fh)


def read_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


@dataclass
class Totals:
    """Per-name sums: inclusive time of the outermost calls, self time, calls."""

    ns: int = 0
    self_ns: int = 0
    calls: int = 0
    counters: dict[str, int] = field(default_factory=dict)


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Aggregate spans by name.

    A recursive call (construct -> construct) adds to the calls and self
    time of its name but not to its inclusive time, which would otherwise
    be counted twice.
    """
    own = self_times(spans)
    out: dict[str, Totals] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.self_ns += own[i]
        for key, value in s.counters.items():
            t.counters[key] = t.counters.get(key, 0) + value
        up = s.parent
        while up is not None and spans[up].name != s.name:
            up = spans[up].parent
        if up is None:
            t.ns += s.end - s.start
    return out
