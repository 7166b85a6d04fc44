"""In-memory span recorder and the monkey-patching that feeds it.

A span is ``[span_id, parent_id, name, start, end]`` with ``perf_counter``
times.  Spans nest per thread; a root span opened on another thread (the
service's event loop or a scheduler worker) is parented to the client
request span that is open at that moment, so one request's server-side
work hangs under it.  The benchmark is closed loop with one connection, so
at most one request is in flight and that attribution is exact.

Nothing here touches the program's sources: :class:`Patcher` swaps a
public function on the module or class that *binds* it for the duration of
a traced pass and puts the original back afterwards.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_START, SPAN_END = range(5)


class Tracer:
    """Collects spans and named counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request_span: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][SPAN_NAME] if stack else None

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][SPAN_ID] if stack else self.request_span
        span = [next(self._ids), parent, name, time.perf_counter(), None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[SPAN_END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    covered by its children (children on other threads may overlap each
    other, so the covered part is the union of their clipped intervals)."""
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        if span[SPAN_PARENT] is not None:
            children[span[SPAN_PARENT]].append(span)
    result = {}
    for span in spans:
        start, end = span[SPAN_START], span[SPAN_END]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span[SPAN_ID], ()),
                            key=lambda c: c[SPAN_START]):
            lo = max(child[SPAN_START], reach)
            hi = min(child[SPAN_END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span[SPAN_ID]] = (end - start) - covered
    return result


def nesting_errors(spans: List[list]) -> List[str]:
    """Spans that end before they start or stick out of their parent."""
    by_id = {span[SPAN_ID]: span for span in spans}
    errors = []
    for span in spans:
        if span[SPAN_END] < span[SPAN_START]:
            errors.append(f"{span[SPAN_NAME]} ends before it starts")
        parent = by_id.get(span[SPAN_PARENT])
        if parent is not None and not (
                parent[SPAN_START] <= span[SPAN_START]
                and span[SPAN_END] <= parent[SPAN_END]):
            errors.append(f"{span[SPAN_NAME]} is not inside its parent "
                          f"{parent[SPAN_NAME]}")
    return errors


class Patcher:
    """Replaces attributes and restores them; use as a context manager."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, tracer: Tracer, owner, attr: str, name: str,
             reentrant: bool = True, on_call=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        ``name`` may be a callable of the call's arguments (per-kind span
        names).  With ``reentrant=False`` a call made from inside a span of
        the same name is not recorded again (the generic sampling descent
        calls ``probability`` thousands of times under one ``sample``).
        ``on_call(args, result)`` may count work at the boundary.
        """
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                label = name(*args) if callable(name) else name
                if not reentrant and tracer.current_name() == label:
                    return original(*args, **kwargs)
                span = tracer.open(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if on_call is not None:
                    on_call(args, result)
                return result
            return wrapper
        self.replace(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
