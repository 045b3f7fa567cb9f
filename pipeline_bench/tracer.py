"""Call tracing for the benchmark's traced run, installed from outside the package.

Each public function is replaced at the name its callers look up (for
example ``hisekt.pathscore.graph_distance``, which ``centrality`` and
``render_scoring_prompt`` read from their own module), so no program code
changes.  Every wrapped function gets a call count, total (inclusive) time
and self time, the latter being its time minus the time of wrapped calls
nested inside it on the same thread.  Stage-level functions also record a
span (id, parent id, name, start, end, thread); hot leaf calls such as
``graph_distance``, ``encode`` and ``complete`` keep only aggregates.
Counters are shared by the ``map_bounded`` worker threads, so every update
takes the tracer's lock.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._next_span = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.last: dict[str, float] = {}
        self.spans: list[dict] = []
        self.origin = time.perf_counter()

    # -- per-thread call stack ------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        spans = getattr(self._local, "spans", None)
        return spans[-1] if spans else getattr(self._local, "root", None)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, key: str, span: bool = False, on_call=None):
        """Timed stand-in for ``fn``; ``on_call(args, kwargs, result, seconds)`` sees each call."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = None
            if span:
                with tracer._lock:
                    span_id = tracer._next_span
                    tracer._next_span += 1
                parent = tracer._parent()
                spans = getattr(tracer._local, "spans", None)
                if spans is None:
                    spans = tracer._local.spans = []
                spans.append(span_id)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if span:
                    tracer._local.spans.pop()
                with tracer._lock:
                    tracer.calls[key] += 1
                    tracer.total_s[key] += elapsed
                    tracer.self_s[key] += elapsed - nested
                    if span:
                        tracer.spans.append(
                            {
                                "id": span_id,
                                "parent": parent,
                                "name": key,
                                "start_s": start - tracer.origin,
                                "end_s": end - tracer.origin,
                                "self_s": elapsed - nested,
                                "thread": threading.get_ident(),
                            }
                        )
            if on_call is not None:
                on_call(args, kwargs, result, elapsed)
            return result

        return traced

    def patch(self, owner, attr: str, key: str, span: bool = False, on_call=None) -> None:
        """Replace ``owner.attr`` (module global, class attribute or dict entry) with a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, key, span, on_call)
            self._patches.append((owner, attr, original))
            return
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, key, span, on_call)))
        else:
            setattr(owner, attr, self.wrap(getattr(owner, attr), key, span, on_call))
        self._patches.append((owner, attr, raw))

    def patch_map_bounded(self, module) -> None:
        """Trace ``module.map_bounded``: a span, plus each item's wait between entry and start."""
        original = module.map_bounded
        tracer = self

        def map_bounded(fn, items, *args, **kwargs):
            entered = time.perf_counter()
            parent = tracer._parent()

            def timed(value):
                waited = time.perf_counter() - entered
                with tracer._lock:
                    tracer.counts["llm.wait_s"] += waited
                    tracer.counts["llm.queued"] += 1
                previous = getattr(tracer._local, "root", None)
                tracer._local.root = parent
                try:
                    return fn(value)
                finally:
                    tracer._local.root = previous

            return original(timed, items, *args, **kwargs)

        module.map_bounded = self.wrap(map_bounded, "llm.map_bounded", span=True)
        self._patches.append((module, "map_bounded", original))

    def patch_peak_memory(self, module, attr: str, key: str) -> None:
        """Record the largest tracemalloc peak (MB) over calls of ``module.attr`` under ``key``."""
        original = getattr(module, attr)
        tracer = self

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                result = original(*args, **kwargs)
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            with tracer._lock:
                tracer.last[key] = max(tracer.last.get(key, 0.0), peak_mb)
            return result

        setattr(module, attr, measured)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write spans and per-function aggregates as JSON."""
        functions = {
            key: {"calls": self.calls[key], "total_s": self.total_s[key], "self_s": self.self_s[key]}
            for key in sorted(self.calls)
        }
        payload = {"functions": functions, "spans": sorted(self.spans, key=lambda s: s["start_s"])}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
