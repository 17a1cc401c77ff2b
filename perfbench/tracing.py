"""Instruments the benchmark attaches from outside the program.

- ``Tracer``: one span per call into a layer (name, start, end, parent, run
  id), kept in memory and written out once at the end.
- ``ExecutionCounter``: counts Ray Data Dataset executions started from
  this process, by wrapping the streaming executor's ``execute``.
- ``RssSampler``: peak resident set size of this process over a window.

None of them touches the package under test.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import resource
import threading
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "run_id": self.run_id, **attrs})

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def last(self, name: str) -> dict | None:
        return next((s for s in reversed(self.spans) if s["name"] == name), None)

    def child_seconds(self, span: dict) -> float:
        """Summed durations of the spans directly below ``span``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == span["id"])

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


class ExecutionCounter:
    """Counts ``StreamingExecutor.execute`` calls on a real operator DAG —
    the same condition under which Ray Data logs "Starting execution of
    Dataset". Executions can start on several driver threads at once."""

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()
        self._orig = None

    def install(self) -> None:
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer)
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor)
        orig = StreamingExecutor.execute
        counter = self

        def execute(executor, dag, *args, **kwargs):
            if not isinstance(dag, InputDataBuffer):
                with counter._lock:
                    counter.count += 1
            return orig(executor, dag, *args, **kwargs)

        self._orig = orig
        StreamingExecutor.execute = execute

    def uninstall(self) -> None:
        if self._orig is not None:
            from ray.data._internal.execution.streaming_executor import (
                StreamingExecutor)
            StreamingExecutor.execute = self._orig
            self._orig = None


class RssSampler:
    """Samples this process's RSS every ``interval`` seconds between
    ``start()`` and ``stop()``; ``stop()`` returns the peak in MB."""

    _PAGE = resource.getpagesize()

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self._peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _rss(self) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self._PAGE

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._peak = max(self._peak, self._rss())

    def start(self) -> None:
        self._peak = self._rss()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5)
        self._peak = max(self._peak, self._rss())
        return self._peak / 2**20
