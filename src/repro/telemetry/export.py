"""Trace documents and exporters: native JSON, Chrome trace events, folded
stacks, plain-text summaries, and trace diffs.

A :class:`TraceDocument` is the unit of persistence: the span list (flat,
parent-linked), the metrics snapshot, and clock metadata, serialised through
the artifacts layer's canonical JSON (sorted keys, stable float formatting)
so a deterministic workload produces a byte-identical trace file.

Exporters re-tree the flat span list on demand:

* :func:`to_chrome_trace` — Chrome trace-event JSON (``ph: "X"`` complete
  events) loadable in Perfetto / ``chrome://tracing``; tick clocks export one
  tick per microsecond.
* :func:`to_folded_stacks` — ``root;child;leaf self_µs`` lines for
  ``flamegraph.pl``-style tooling, aggregated over identical stacks.
* :func:`summarize` — human-readable span tree with durations plus the
  metrics tables, for terminal inspection.
* :func:`span_rollup` — per-span-name count, total, max and self time.
* :func:`diff_documents` — per-span-name count/total/self comparison and
  counter deltas between two documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import TelemetryError
from repro.telemetry.spans import ROOT_SPAN_ID, Span

__all__ = [
    "TraceDocument",
    "to_chrome_trace",
    "to_folded_stacks",
    "summarize",
    "span_rollup",
    "diff_documents",
]

SCHEMA_VERSION = 1

#: Export scale: clock units → Chrome-trace microseconds.
_UNIT_TO_MICROSECONDS = {"s": 1e6, "ticks": 1.0}


@dataclass
class TraceDocument:
    """A finished capture: spans + metrics + clock metadata."""

    clock_kind: str
    clock_unit: str
    spans: list[Span]
    metrics: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "clock": {"kind": self.clock_kind, "unit": self.clock_unit},
            "spans": [span.to_dict() for span in self.spans],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceDocument":
        if not isinstance(data, dict) or "spans" not in data:
            raise TelemetryError("not a trace document: missing 'spans'")
        clock = data.get("clock", {})
        return cls(
            clock_kind=str(clock.get("kind", "wall")),
            clock_unit=str(clock.get("unit", "s")),
            spans=[Span.from_dict(item) for item in data["spans"]],
            metrics=dict(data.get("metrics", {})),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
        )

    def dumps(self, *, indent: "int | None" = 2) -> str:
        from repro.artifacts.schema import canonical_dumps

        return canonical_dumps(self.to_dict(), indent=indent)

    @classmethod
    def loads(cls, text: str) -> "TraceDocument":
        from repro.artifacts.schema import ArtifactSchemaError, canonical_loads

        try:
            data = canonical_loads(text)
        except (ValueError, ArtifactSchemaError) as error:
            raise TelemetryError(f"invalid trace JSON: {error}") from error
        return cls.from_dict(data)

    def children_index(self) -> dict[int, list[Span]]:
        """Map span id → children, in document (commit) order."""
        index: dict[int, list[Span]] = {span.span_id: [] for span in self.spans}
        for span in self.spans:
            if span.parent_id is not None:
                index.setdefault(span.parent_id, []).append(span)
        return index

    def root(self) -> Span:
        for span in self.spans:
            if span.parent_id is None:
                return span
        raise TelemetryError("trace document has no root span")


# -- Chrome trace events -------------------------------------------------------
def to_chrome_trace(document: TraceDocument) -> dict[str, Any]:
    """Render as a Chrome trace-event JSON object (``ph: "X"`` events)."""
    scale = _UNIT_TO_MICROSECONDS.get(document.clock_unit, 1e6)
    events = []
    for span in document.spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * scale,
                "dur": span.duration * scale,
                "pid": 1,
                "tid": span.thread,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": document.clock_kind, "unit": document.clock_unit},
    }


# -- folded stacks -------------------------------------------------------------
def to_folded_stacks(document: TraceDocument) -> str:
    """Render as folded-stack lines (``a;b;c self_time``), one per stack.

    Self time is the span's duration minus its children's durations, in
    integer microseconds (ticks export 1:1); stacks repeat-aggregate so the
    output feeds flamegraph tooling directly.
    """
    scale = _UNIT_TO_MICROSECONDS.get(document.clock_unit, 1e6)
    children = document.children_index()
    totals: dict[str, float] = {}

    def walk(span: Span, prefix: str) -> None:
        stack = f"{prefix};{span.name}" if prefix else span.name
        child_time = sum(child.duration for child in children.get(span.span_id, []))
        self_time = max(0.0, span.duration - child_time) * scale
        totals[stack] = totals.get(stack, 0.0) + self_time
        for child in children.get(span.span_id, []):
            walk(child, stack)

    walk(document.root(), "")
    return "\n".join(f"{stack} {int(round(value))}" for stack, value in totals.items())


# -- plain-text summary --------------------------------------------------------
def span_rollup(document: TraceDocument) -> dict[str, Any]:
    """Aggregate spans by name: count, total/max duration and self time (clock units).

    A span's self time is its duration minus the union of its direct
    children's intervals, clipped to the span: children on other threads
    may overlap, and time two of them share counts once.  In a serial trace
    the self times of all spans add up to the root's duration.

    This is the compact shape attached to run artifacts — small, stable and
    diff-friendly, unlike the full span list.
    """
    children = document.children_index()
    rollup: dict[str, dict[str, float]] = {}
    for span in document.spans:
        entry = rollup.setdefault(
            span.name, {"count": 0, "total": 0.0, "max": 0.0, "self": 0.0}
        )
        duration = span.duration
        entry["count"] += 1
        entry["total"] += duration
        entry["max"] = max(entry["max"], duration)
        entry["self"] += duration - _covered(span, children.get(span.span_id, []))
    return {name: rollup[name] for name in sorted(rollup)}


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the finished *children*'s intervals inside *span*."""
    if span.end is None:
        return 0.0
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end is not None
    )
    covered = 0.0
    reach = span.start
    for low, high in intervals:
        low = max(low, reach)
        if high > low:
            covered += high - low
            reach = high
    return covered


def _format_duration(value: float, unit: str) -> str:
    if unit == "ticks":
        return f"{value:.0f}t"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1e3:.3f}ms"


def summarize(document: TraceDocument, *, max_depth: "int | None" = None) -> str:
    """Human-readable span tree plus metrics tables."""
    children = document.children_index()
    unit = document.clock_unit
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        indent = "  " * depth
        attrs = ""
        if span.attributes:
            rendered = ", ".join(
                f"{key}={span.attributes[key]}" for key in sorted(span.attributes)
            )
            attrs = f"  [{rendered}]"
        lines.append(
            f"{indent}{span.name} ({_format_duration(span.duration, unit)}){attrs}"
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    lines.append(f"trace: clock={document.clock_kind} unit={unit} spans={len(document.spans)}")
    walk(document.root(), 0)

    metrics = document.metrics
    for kind in ("counters", "gauges"):
        table = metrics.get(kind, {})
        if table:
            lines.append("")
            lines.append(f"{kind}:")
            for name in sorted(table):
                for label, value in table[name].items():
                    suffix = f"{{{label}}}" if label else ""
                    lines.append(f"  {name}{suffix} = {value:g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name in sorted(histograms):
            for label, stats in histograms[name].items():
                suffix = f"{{{label}}}" if label else ""
                lines.append(
                    f"  {name}{suffix}: count={stats['count']} sum={stats['sum']:g}"
                    f" min={stats['min']} max={stats['max']}"
                )
    dropped = metrics.get("dropped_series", 0)
    if dropped:
        lines.append("")
        lines.append(f"dropped_series: {dropped}")
    return "\n".join(lines)


# -- diff ----------------------------------------------------------------------
def diff_documents(before: TraceDocument, after: TraceDocument) -> str:
    """Compare two documents: span-name rollups and counter deltas."""
    unit = after.clock_unit
    lines = []
    rollup_a, rollup_b = span_rollup(before), span_rollup(after)
    names = sorted(set(rollup_a) | set(rollup_b))
    lines.append("spans (count, total, self):")
    empty = {"count": 0, "total": 0.0, "self": 0.0}
    for name in names:
        a, b = rollup_a.get(name, empty), rollup_b.get(name, empty)
        d_count = int(b["count"] - a["count"])
        unchanged = all(abs(b[key] - a[key]) < 1e-12 for key in ("total", "self"))
        marker = "=" if d_count == 0 and unchanged else "~"
        lines.append(
            f"  {marker} {name}: count {int(a['count'])} -> {int(b['count'])}"
            f" ({d_count:+d}), total {_format_duration(a['total'], unit)}"
            f" -> {_format_duration(b['total'], unit)}, self"
            f" {_format_duration(a['self'], unit)} -> {_format_duration(b['self'], unit)}"
        )

    def flat_counters(doc: TraceDocument) -> dict[str, float]:
        out = {}
        for name, table in doc.metrics.get("counters", {}).items():
            for label, value in table.items():
                out[f"{name}{{{label}}}" if label else name] = value
        return out

    counters_a, counters_b = flat_counters(before), flat_counters(after)
    keys = sorted(set(counters_a) | set(counters_b))
    if keys:
        lines.append("counters:")
        for key in keys:
            a, b = counters_a.get(key, 0.0), counters_b.get(key, 0.0)
            marker = "=" if a == b else "~"
            lines.append(f"  {marker} {key}: {a:g} -> {b:g} ({b - a:+g})")
    return "\n".join(lines)
