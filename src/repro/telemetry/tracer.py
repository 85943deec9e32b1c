"""The recording tracer: span lifecycle, parenting, thread mapping.

One :class:`Tracer` exists per telemetry session.  It hands out spans through
three entry points:

* :meth:`Tracer.span` — a context manager bracketing a code region;
* :meth:`Tracer.record` — an already-timed span (used by call sites that
  measured ``start`` themselves, e.g. the protocol transcript, whose phase
  boundaries are the *gaps between* ``record_phase`` calls);
* :meth:`Tracer.event` — a zero-duration marker.

Parenting uses a :class:`contextvars.ContextVar`: within one thread, spans
nest lexically.  The sweep substrate's thread executor runs each task in a
copy of the submitting context, so spans opened there nest under the span
open around the sweep (``network.execution``, ``service.send``), and the
delivery runtime's workers run each request in a copy of the context it was
submitted from, so its ``runtime.execute`` span nests under the span open
around ``DeliveryEngine.submit``.  A thread started any other way begins
with an empty context, so its spans attach to the synthetic root span — the
trace stays one connected tree whatever runs the workload.
All tracer state is mutated under one lock; the clock is only read by the
thread owning the span, so a deterministic :class:`~repro.telemetry.clock.TickClock`
yields reproducible timestamps under the serial executor.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.telemetry.clock import Clock
from repro.telemetry.spans import ROOT_SPAN_ID, Span

__all__ = ["Tracer"]

#: The innermost open span of the current execution context (per thread /
#: context); ``None`` means "attach to the root".
_CURRENT_SPAN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_telemetry_current_span", default=None
)


class Tracer:
    """Span factory and collector for one telemetry session."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self._lock = threading.Lock()
        self._next_id = ROOT_SPAN_ID + 1
        self._threads: dict[int, int] = {}
        self._finished: list[Span] = []
        self.root = Span(
            span_id=ROOT_SPAN_ID,
            parent_id=None,
            name="trace",
            category="root",
            start=clock.now(),
            thread=self._thread_index(),
        )

    # -- internals ---------------------------------------------------------------
    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            index = self._threads.get(ident)
            if index is None:
                index = len(self._threads)
                self._threads[ident] = index
            return index

    def _allocate(self, name: str, category: str, attributes: dict[str, Any]) -> Span:
        parent = _CURRENT_SPAN.get()
        parent_id = ROOT_SPAN_ID if parent is None else parent.span_id
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            category=category,
            thread=self._thread_index(),
            attributes=attributes,
        )

    def _commit(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # -- public API --------------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, category: str = "span", attributes: "dict[str, Any] | None" = None
    ) -> Iterator[Span]:
        """Open a child span of the current context; close it on exit.

        The yielded :class:`Span` is live — callers may add attributes while
        it is open.  The span is committed (appended to the finished list)
        when the block exits, including on exceptions, in which case an
        ``error`` attribute records the exception type.
        """
        span = self._allocate(name, category, dict(attributes or {}))
        token = _CURRENT_SPAN.set(span)
        span.start = self.clock.now()
        try:
            yield span
        except BaseException as error:
            span.attributes.setdefault("error", type(error).__name__)
            raise
        finally:
            span.end = self.clock.now()
            _CURRENT_SPAN.reset(token)
            self._commit(span)

    def record(
        self,
        name: str,
        category: str = "span",
        *,
        start: "float | None" = None,
        end: "float | None" = None,
        attributes: "dict[str, Any] | None" = None,
    ) -> Span:
        """Record an already-timed span as a child of the current context.

        ``start``/``end`` default to "now" (making the span an instant); a
        caller that held its own start mark passes it explicitly.
        """
        if end is None:
            end = self.clock.now()
        if start is None:
            start = end
        span = self._allocate(name, category, dict(attributes or {}))
        span.start = float(start)
        span.end = float(end)
        self._commit(span)
        return span

    def event(self, name: str, category: str = "event", **attributes: Any) -> Span:
        """Record a zero-duration marker at the current time."""
        return self.record(name, category, attributes=attributes)

    def current_span(self) -> "Span | None":
        """The innermost open span of this execution context (None = root)."""
        return _CURRENT_SPAN.get()

    def snapshot(self) -> list[Span]:
        """Copy of the committed spans so far (root excluded, still open)."""
        with self._lock:
            return list(self._finished)

    def finish(self) -> list[Span]:
        """Close the root span and return every span, root first.

        Finished spans keep commit order (which is deterministic under the
        serial executor); the root is prepended so ``spans[0]`` is always the
        trace envelope.
        """
        with self._lock:
            if self.root.end is None:
                self.root.end = self.clock.now()
            return [self.root, *self._finished]
