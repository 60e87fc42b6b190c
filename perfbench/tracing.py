"""Spans around calls into kbtopics layers, recorded from outside the library.

``Tracer.install`` replaces public functions and methods of kbtopics
modules with timing wrappers and ``Tracer.uninstall`` puts the originals
back. Nothing in the library changes. A target that no longer exists is
reported as unmeasured instead of failing the run, so later refactors that
rename or delete a layer leave the benchmark working.

Times come from ``clock``, ``time.perf_counter`` by default; the benchmark
passes one that leaves out the time its speed sampler spends (speed.py).

A span is (name, start, end, parent span id, document id). The benchmark is
single-threaded, so child spans nest strictly inside their parent and a
layer's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, str | None] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.doc: str | None = None
        self.enabled = False
        self.unmeasured: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.doc)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def install(self, owner: Any, attr: str, name: str,
                observe: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (module function, method, or classmethod)."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.unmeasured.add(name)
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__, observe))
        elif callable(raw):
            replacement = self._wrap(name, raw, observe)
        else:
            self.unmeasured.add(name)
            return
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus time spent in direct child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for sid, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child_time[sid]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span is not None:
                out[span[0]] += 1
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, doc = span
                    fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent, "doc": doc}) + "\n")
