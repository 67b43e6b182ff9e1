"""In-memory span tracer that wraps the program's public functions.

``Tracer.install()`` rebinds each traced function, under every name that
refers to it, in the namespaces of the given modules (so calls between
modules go through the wrapper too); ``uninstall()`` puts the originals
back.  A span is ``(name_id, start, end, parent, op, tag)``: ``parent`` is
the index of the enclosing span or -1, ``op`` the benchmark op it belongs
to, and ``tag`` whatever the optional per-function hook derived from the
call's arguments and result.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self, modules, traced: dict[str, Callable], hooks: Optional[dict] = None):
        """``traced`` maps span names to the original functions."""
        self.modules = list(modules)
        self.names = list(traced)
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        hooks = hooks or {}
        self._wrappers = {
            id(fn): self._wrap(fn, index, hooks.get(name))
            for index, (name, fn) in enumerate(traced.items())
        }
        self._originals = {id(fn): fn for fn in traced.values()}
        self._saved: list = []

    def _wrap(self, fn, name_id: int, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tag = hook(args, result) if hook is not None and result is not None else None
                spans[index] = (name_id, start, end, parent, self.op, tag)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in self._wrappers and value is self._originals[id(value)]:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    def totals(self, scale: list[float]) -> dict[str, dict]:
        """Per span name: call count, self ms (minus child spans) and tags.
        Times are multiplied by ``scale[op]`` of the span's op."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {
            name: {"calls": 0, "self_ms": 0.0, "tags": []} for name in self.names
        }
        for index, (name_id, start, end, _, op, tag) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child[index]) * scale[op] * 1000
            if tag is not None:
                entry["tags"].append(tag)
        return out

    def durations_by_tag(self, name: str, scale: list[float]) -> dict:
        """Span ms of one traced function, times ``scale[op]``, grouped by tag."""
        name_id = self.names.index(name)
        groups: dict = defaultdict(list)
        for span_name, start, end, _, op, tag in self.spans:
            if span_name == name_id:
                groups[tag].append((end - start) * scale[op] * 1000)
        return groups

    def repeat_ratio(self, name: str, group: list) -> float:
        """Share of the spans of ``name`` whose tag an earlier span of the
        same ``group[op]`` already had."""
        name_id = self.names.index(name)
        seen, calls, repeats = set(), 0, 0
        for span_name, _, _, _, op, tag in self.spans:
            if span_name == name_id:
                calls += 1
                repeats += (group[op], tag) in seen
                seen.add((group[op], tag))
        return repeats / calls if calls else 0.0

    def write(self, path) -> None:
        """Spans as gzip CSV: name,start_us,end_us,parent,op,tag."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_us,end_us,parent,op,tag\n")
            for name_id, start, end, parent, op, tag in self.spans:
                tag_text = "" if tag is None or isinstance(tag, tuple) else str(tag)
                fh.write(
                    f"{self.names[name_id]},{(start - origin) * 1e6:.1f},"
                    f"{(end - origin) * 1e6:.1f},{parent},{op},{tag_text}\n"
                )
