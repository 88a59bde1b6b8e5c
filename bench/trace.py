"""In-memory span tracer for ``--trace`` runs.

Spans are recorded from outside the program.  :meth:`Tracer.hook` replaces a
public callable at the name its caller looks it up by (a module function, a
class method or an attribute of one instance) with a wrapper that records one
span per call; :meth:`Tracer.restore` puts every original back.  A hook whose
target no longer exists is reported as absent rather than failing the run.

A span is the tuple ``(id, parent, name, start, end, thread, tag)`` with
times from ``time.perf_counter``.  The parent is the innermost open span of
the same thread; spans measured elsewhere (a request's due time to its
result) are added with :meth:`Tracer.record`.  Spans are tuples of atoms so
the garbage collector stops tracking them: a traced run keeps hundreds of
thousands, and tracked ones would lengthen every full collection.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

#: Field order of a span, also written into ``spans.json``.
FIELDS = ("id", "parent", "name", "start", "end", "thread", "tag")

_MISSING = object()


class Tracer:
    """Collects spans in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._hooks: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        """Open a span on the calling thread; close it with :meth:`end`."""
        stack = self._stack()
        token = (next(self._ids), stack[-1][0] if stack else None, name,
                 time.perf_counter())
        stack.append(token)
        return token

    def end(self, token: tuple, tag: Any = None) -> None:
        """Close the innermost open span of the calling thread."""
        self.spans.append(token + (time.perf_counter(), threading.get_ident(),
                                   tag))
        self._stack().pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, tag: Any = None) -> int:
        """Add a span whose interval was measured elsewhere; returns its id."""
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start, end, None, tag))
        return span_id

    def hook(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[int, Any], Any]] = None) -> bool:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``on_result(span_id, result)`` runs before the span closes and
        returns the span's tag (e.g. a batch size).  Returns False, and lists
        ``name`` as absent, when ``owner`` has no such attribute.
        """
        if not hasattr(owner, attr):
            self.absent.append(name)
            return False
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(token)
                raise
            tracer.end(token, on_result(token[0], result)
                       if on_result is not None else None)
            return result

        self._hooks.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)
        return True

    def restore(self) -> None:
        """Undo every hook, newest first."""
        while self._hooks:
            owner, attr, own = self._hooks.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def of(self, name: str) -> List[tuple]:
        """Every closed span called ``name``."""
        return [span for span in self.spans if span[2] == name]

    def write(self, path: str) -> None:
        """Write ``spans.json``: the field names and one row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(FIELDS), "spans": self.spans}, handle)


def self_times(spans: Iterable[tuple]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part its children cover."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span[3]
        for child in sorted(children.get(span[0], ()), key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], span[4])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[0]] = (span[4] - span[3]) - covered
    return out


def durations_ms(spans: Iterable[tuple]) -> np.ndarray:
    """Span durations in milliseconds."""
    return np.asarray([(span[4] - span[3]) * 1e3 for span in spans],
                      dtype=np.float64)
