"""In-memory spans recorded around calls into the program's layers.

The benchmark measures each layer from outside: :meth:`SpanRecorder.wrap`
replaces a public function or method with a timing wrapper for the
length of a traced phase and :meth:`SpanRecorder.restore` puts the
original back.  A span has a name, start, end, parent span and a
per-request id (submission id, trace name or job name).  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

now = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "rid", "start", "end", "attrs")

    def __init__(self, sid, parent, name, rid, start, attrs) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.rid = rid
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class SpanRecorder:
    """Collects spans from any thread; parents follow each thread's own
    stack of open spans, or the request's root span when a thread opens
    a span with nothing open (work handed across threads)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: Dict[str, Span] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(
        self, name: str, rid: Optional[str] = None, push: bool = True, **attrs: Any
    ) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        if parent is None and rid is not None:
            parent = self.roots.get(rid)
        span = Span(
            next(self._ids), parent.id if parent else None, name, rid, now(), attrs
        )
        if push:
            stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end = now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        return span

    def root(self, name: str, rid: str, **attrs: Any) -> Span:
        """Open the root span of request ``rid`` (not pushed: it may be
        closed from another thread)."""
        span = self.begin(name, rid, push=False, **attrs)
        self.roots[rid] = span
        return span

    # -- patching -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid: Optional[Callable[..., Optional[str]]] = None,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
        done: Optional[Callable[[Span, Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``rid(*args, **kwargs)`` names the request when the calling
        thread has no open span to inherit it from; ``attrs(*args,
        **kwargs)`` adds attributes from the arguments and ``done(span,
        result)`` from the return value.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = recorder.begin(
                name,
                rid(*args, **kwargs) if rid else None,
                **(attrs(*args, **kwargs) if attrs else {}),
            )
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if done is not None:
                done(span, result)
            return result

        self.patch(owner, attr, timed)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Time a generator method: the span covers the whole iteration
        and its ``busy`` attribute only the time spent inside it."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = recorder.begin(name, push=False)
            busy = 0.0
            items = 0
            try:
                it = original(*args, **kwargs)
                while True:
                    t0 = now()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += now() - t0
                        return
                    busy += now() - t0
                    items += 1
                    yield item
            finally:
                span.attrs["busy"] = busy
                span.attrs["items"] = items
                recorder.end(span)

        self.patch(owner, attr, timed)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write every span as one JSON line, times in seconds from the
        first span's start; returns the number written."""
        spans = sorted(self.spans, key=lambda s: (s.start, s.id))
        origin = spans[0].start if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "rid": s.rid,
                            "start": round(s.start - origin, 7),
                            "end": round(s.end - origin, 7),
                            "attrs": s.attrs,
                        },
                        separators=(",", ":"),
                        default=str,
                    )
                )
                fh.write("\n")
        return len(spans)


class TracerAdapter:
    """The program's duck-typed tracer interface (``span``,
    ``start_span``, ``end_span``, ``ingest``), recording into
    a :class:`SpanRecorder`.  Worker-side span records the program ships
    back are ignored: this benchmark times layers from outside.  A span
    opened with a ``job`` attribute belongs to that job's request."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def start_span(self, name: str, **attrs: Any) -> Span:
        rid = attrs.get("job")
        return self.recorder.begin(name, None if rid is None else str(rid),
                                   push=False, **attrs)

    def end_span(self, span: Span) -> Span:
        return self.recorder.end(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.recorder.begin(name, **attrs)
        try:
            yield span
        finally:
            self.recorder.end(span)

    def ingest(self, records: Any, at: Any = None, job: Any = None) -> None:
        return None
