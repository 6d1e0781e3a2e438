"""In-memory span tracer that wraps the program's layers from outside.

The program under ``src/`` is never edited: :meth:`Tracer.install`
replaces each traced function or method with a wrapper, in every loaded
``repro`` module that holds a reference to it, so a name imported
directly into a caller (``from repro.core.simkernel import
plan_dispatch``) is wrapped where that caller looks it up.
:meth:`Tracer.uninstall` puts every original back.

Each wrapper records one span: its layer, start, duration and the span
that called it (the innermost open span).  A layer's *self time* is the
sum over its spans of the span duration minus the time covered by its
child spans, so self times of nested layers never double-count and add
up to the time covered by root spans.  Counts computed from argument and
result shapes (bytes gathered, MACs, converter samples) ride on the same
wrappers; they are computed, not measured.

Spans stay in memory and :meth:`Tracer.write_chrome_trace` writes them as
Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` load.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

MAX_KEPT_SPANS = 100_000
"""Spans kept for the trace file; later spans still count in the totals."""


@dataclass(frozen=True)
class Target:
    """One traced callable.

    Attributes:
        layer: the layer key its spans are charged to.
        module: the module that defines it.
        name: ``"function"`` or ``"Class.method"``.
        count: optional ``(counter_name, fn(args, result) -> int)``.
    """

    layer: str
    module: str
    name: str
    count: tuple[str, Callable[[tuple, Any], int]] | None = None


class Tracer:
    """Collects spans while :attr:`enabled`; a no-op pass-through otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[list[float]] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._names: list[tuple[str, str]] = []  # (label, category)
        self._name_index: dict[str, int] = {}
        self._origin = perf_counter()
        self._outer = -1
        self.reset()

    def reset(self) -> None:
        """Drop every total and kept span (wrappers stay installed)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.dropped = 0
        self._next_id = 0

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def recording(self, name: str) -> Iterator[None]:
        """Record spans inside the block, under one outer span ``name``.

        The outer span (a set-up or a pass) is bookkeeping, not a layer:
        layer spans inside it count as root spans for self time and
        coverage, and name it only as their parent in the trace file.
        """
        name_id = self._label_id(name, "perfbench")
        span_id = self._next_id
        self._next_id += 1
        self._outer = span_id
        self.enabled = True
        start = perf_counter()
        try:
            yield
        finally:
            self.enabled = False
            self._outer = -1
            self._keep(name_id, start, perf_counter() - start, span_id, -1)

    def _label_id(self, label: str, category: str) -> int:
        if label not in self._name_index:
            self._name_index[label] = len(self._names)
            self._names.append((label, category))
        return self._name_index[label]

    def _keep(self, name_id: int, start: float, duration: float, span_id: int,
              parent: int) -> None:
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((name_id, start, duration, span_id, parent))
        else:
            self.dropped += 1

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        layer = target.layer
        name_id = self._label_id(f"{target.module}.{target.name}", layer)
        counter = target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = None
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, layer, name_id)
                if counter is not None and result is not None:
                    tracer.counts[counter[0]] += counter[1](args, result)

        return traced

    def _open(self) -> list[float]:
        # [start, child time, span id, parent id]
        parent = self._stack[-1][2] if self._stack else self._outer
        frame = [0.0, 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _close(self, frame: list[float], layer: str, name_id: int) -> None:
        duration = perf_counter() - frame[0]
        self._stack.pop()
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration
        self._keep(name_id, frame[0], duration, int(frame[2]), int(frame[3]))

    # -- installation ---------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target where the program's modules look it up.

        Every ``repro`` module is imported first, so a module that would
        otherwise load later cannot keep an unwrapped reference.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        repro_modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.name:
                self._install_method(target, module)
            else:
                self._install_function(target, module, repro_modules)

    def _install_function(self, target: Target, module, repro_modules) -> None:
        original = getattr(module, target.name)
        wrapped = self._wrap(target, original)
        for holder in repro_modules:
            for attribute, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attribute, value))
                    setattr(holder, attribute, wrapped)

    def _install_method(self, target: Target, module) -> None:
        class_name, method = target.name.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, raw)
        self._undo.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest wrapper first."""
        while self._undo:
            holder, attribute, value = self._undo.pop()
            setattr(holder, attribute, value)

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto)."""
        events = []
        for name_id, start, duration, span_id, parent in self.spans:
            label, category = self._names[name_id]
            events.append(
                {
                    "name": label,
                    "cat": category,
                    "ph": "X",
                    "ts": (start - self._origin) * 1e6,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": span_id, "parent": parent},
                }
            )
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "dropped_spans": self.dropped},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
