"""Spans, self time, GC pauses and call counters for the benchmark.

Everything here instruments the program from the outside: a
:class:`Tracer` replaces a module function or class attribute with a
wrapper that records one span per call and puts the original back on
:meth:`Tracer.restore`.  The program's own code is unchanged.

A span is ``[span_id, name, start, end, parent_id, rid, self_s]``.
Calls nest synchronously (asyncio tasks never yield inside a wrapped
call), so the tracer keeps one stack: a span's parent is the span open
when it started, and its self time is its duration minus the durations
of its direct children.  ``rid`` is the request or run id current when
the span opened: the run id, or the request number a wrapper installed
with ``starts_request`` set.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import time
from collections import defaultdict

_perf = time.perf_counter


class Patcher:
    """Replaces program attributes with wrappers and puts them back."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, make_wrapper) -> None:
        """Replace ``owner.attribute`` with ``make_wrapper(function)``.

        Class attributes that are classmethods stay classmethods.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else (
            getattr(owner, attribute)
        )
        is_classmethod = isinstance(original, classmethod)
        target = original.__func__ if is_classmethod else original
        wrapper = functools.wraps(target)(make_wrapper(target))
        setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class Tracer(Patcher):
    """In-memory span recorder that patches calls into the program."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.rid: object = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []

    # -- recording ----------------------------------------------------------

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        # [span_id, name, start, end, parent_id, rid, child_s]; child_s
        # becomes self_s when the span closes.
        span = [
            len(self.spans),
            name,
            0.0,
            0.0,
            None if parent is None else parent[0],
            self.rid,
            0.0,
        ]
        self.spans.append(span)
        stack.append(span)
        span[2] = _perf()
        try:
            return function(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            duration = end - span[2]
            span[3] = end
            span[6] = duration - span[6]
            if parent is not None:
                parent[6] += duration

    def record(self, name: str, start: float, end: float, rid: object) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([len(self.spans), name, start, end, None, rid, end - start])

    def wrap(
        self, owner, attribute: str, name, starts_request: bool = False
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``name`` is the span name, or a callable of the call's arguments
        returning it.  With ``starts_request`` every call opens a new
        request: the rid becomes the next request number (0, 1, ...).
        """
        tracer = self
        requests = itertools.count()

        def make_wrapper(target):
            def wrapper(*args, **kwargs):
                if starts_request:
                    tracer.rid = next(requests)
                label = name(*args, **kwargs) if callable(name) else name
                return tracer.call(label, target, *args, **kwargs)

            return wrapper

        self.patch(owner, attribute, make_wrapper)

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[1]] += span[6]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, rid, self_s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "rid": rid,
                            "run": self.run_id,
                            "self_s": self_s,
                        }
                    )
                )
                handle.write("\n")


class GCRecorder:
    """Interpreter GC pauses, recorded through ``gc.callbacks``."""

    def __init__(self):
        self.pauses: list[tuple[int, float]] = []
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = _perf()
        else:
            self.pauses.append((info["generation"], _perf() - self._started))

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def summary(self) -> dict[str, float]:
        return {
            "python.gc.gen2_pauses": sum(
                1 for generation, _ in self.pauses if generation == 2
            ),
            "python.gc.pause_s": sum(pause for _, pause in self.pauses),
            "python.gc.max_pause_ms": 1000.0
            * max((pause for _, pause in self.pauses), default=0.0),
        }


class CallCounter(Patcher):
    """Counts calls to a few low-frequency program functions.

    One dict update per call, so it stays on in every pass, traced or
    not, and the operation counts are recorded everywhere.
    """

    def __init__(self):
        super().__init__()
        self.counts: dict[str, int] = defaultdict(int)

    def count(self, owner, attribute: str, key: str) -> None:
        counts = self.counts

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        self.patch(owner, attribute, make_wrapper)
