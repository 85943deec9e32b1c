"""Exporter tests: Chrome trace events, folded stacks, summaries, diffs.

The Chrome-trace schema round-trip is property-based (Hypothesis): any span
tree the tracer can legally produce exports to a ``traceEvents`` list that
is valid JSON, covers every span exactly once, and preserves ids, parents,
names and (scaled) timings through ``json.dumps``/``loads``.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.export import (
    TraceDocument,
    diff_documents,
    span_rollup,
    summarize,
    to_chrome_trace,
    to_folded_stacks,
)
from repro.telemetry.spans import ROOT_SPAN_ID, Span

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _document(spans: list[Span], unit: str = "ticks") -> TraceDocument:
    return TraceDocument(clock_kind=unit, clock_unit=unit, spans=spans)


def _tree() -> TraceDocument:
    return _document(
        [
            Span(span_id=0, parent_id=None, name="trace", category="root", start=0.0, end=10.0),
            Span(span_id=1, parent_id=0, name="send", category="service", start=1.0, end=9.0),
            Span(span_id=2, parent_id=1, name="phase.a", category="phase", start=2.0, end=5.0),
            Span(span_id=3, parent_id=1, name="phase.b", category="phase", start=5.0, end=8.0),
        ]
    )


# -- Hypothesis: random span forests ------------------------------------------------
@st.composite
def span_lists(draw) -> list[Span]:
    """A root span plus children whose parents always precede them."""
    count = draw(st.integers(min_value=0, max_value=12))
    spans = [
        Span(span_id=ROOT_SPAN_ID, parent_id=None, name="trace", category="root",
             start=0.0, end=float(draw(st.integers(min_value=0, max_value=1000))))
    ]
    for index in range(1, count + 1):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        start = float(draw(st.integers(min_value=0, max_value=500)))
        length = float(draw(st.integers(min_value=0, max_value=500)))
        spans.append(
            Span(
                span_id=index,
                parent_id=parent,
                name=draw(st.sampled_from(["send", "phase.x", "hop", "sim"])),
                category=draw(st.sampled_from(["service", "phase", "network"])),
                start=start,
                end=start + length,
                thread=draw(st.integers(min_value=0, max_value=3)),
                attributes={"k": draw(st.integers(min_value=-5, max_value=5))},
            )
        )
    return spans


class TestChromeTrace:
    @SETTINGS
    @given(spans=span_lists(), unit=st.sampled_from(["s", "ticks"]))
    def test_round_trip_preserves_every_span(self, spans, unit):
        document = TraceDocument(clock_kind=unit, clock_unit=unit, spans=spans)
        chrome = json.loads(json.dumps(to_chrome_trace(document)))
        events = chrome["traceEvents"]
        assert len(events) == len(spans)
        scale = 1e6 if unit == "s" else 1.0
        by_id = {event["args"]["span_id"]: event for event in events}
        for span in spans:
            event = by_id[span.span_id]
            assert event["name"] == span.name
            assert event["cat"] == span.category
            assert event["ph"] == "X"
            assert event["args"]["parent_id"] == span.parent_id
            assert event["ts"] == pytest.approx(span.start * scale)
            assert event["dur"] == pytest.approx(span.duration * scale)

    @SETTINGS
    @given(spans=span_lists())
    def test_native_document_round_trip(self, spans):
        document = _document(spans)
        text = document.dumps()
        clone = TraceDocument.loads(text)
        assert clone.dumps() == text
        assert [s.to_dict() for s in clone.spans] == [s.to_dict() for s in spans]

    def test_loads_rejects_non_documents(self):
        with pytest.raises(TelemetryError):
            TraceDocument.loads("[1, 2, 3]")
        with pytest.raises(TelemetryError):
            TraceDocument.loads("{not json")


class TestFoldedStacks:
    def test_self_time_subtracts_children(self):
        folded = to_folded_stacks(_tree())
        lines = dict(
            line.rsplit(" ", 1) for line in folded.splitlines()
        )
        assert lines["trace"] == "2"  # 10 - 8
        assert lines["trace;send"] == "2"  # 8 - (3 + 3)
        assert lines["trace;send;phase.a"] == "3"
        assert lines["trace;send;phase.b"] == "3"

    def test_seconds_scale_to_microseconds(self):
        document = TraceDocument(
            clock_kind="wall",
            clock_unit="s",
            spans=[
                Span(span_id=0, parent_id=None, name="trace", category="root",
                     start=0.0, end=0.001)
            ],
        )
        assert to_folded_stacks(document) == "trace 1000"


class TestSummaryAndDiff:
    def test_summary_lists_tree_and_metrics(self):
        document = _tree()
        document.metrics = {
            "counters": {"hits": {"": 3.0}},
            "gauges": {},
            "histograms": {},
            "dropped_series": 0,
        }
        text = summarize(document)
        assert "send" in text and "phase.a" in text
        assert "hits = 3" in text

    def test_rollup_aggregates_by_name(self):
        rollup = span_rollup(_tree())
        assert rollup["phase.a"]["count"] == 1
        assert rollup["send"]["total"] == 8.0

    def test_rollup_self_time_of_a_hand_built_tree(self):
        # send [1, 9] has phases [2, 5] and [5, 8]; phase.a's two children on
        # other threads overlap on [3, 4] and one runs past its parent.
        document = _tree()
        document.spans += [
            Span(span_id=4, parent_id=2, name="worker", start=2.5, end=4.0, thread=1),
            Span(span_id=5, parent_id=2, name="worker", start=3.0, end=6.0, thread=2),
            Span(span_id=6, parent_id=3, name="open", start=6.0),
        ]
        rollup = span_rollup(document)
        assert {name: entry["self"] for name, entry in rollup.items()} == {
            "trace": 10.0 - 8.0,
            "send": 8.0 - 6.0,
            "phase.a": 3.0 - 2.5,  # the union [2.5, 5] clipped to [2, 5]
            "phase.b": 3.0,  # an open child covers nothing
            "worker": 1.5 + 3.0,
            "open": 0.0,
        }

    def test_rollup_self_times_add_up_to_a_serial_traces_root(self):
        from repro import telemetry
        from repro.experiments.registry import run_experiment

        with telemetry.capture(clock="ticks") as session:
            run_experiment("e2e", quick=True)
        document = session.document
        rollup = span_rollup(document)
        assert {"protocol.session", "phase.encoding"} <= set(rollup)
        assert sum(entry["self"] for entry in rollup.values()) == document.root().duration
        for entry in rollup.values():
            assert 0.0 <= entry["self"] <= entry["total"]

    def test_diff_reports_count_and_counter_deltas(self):
        before, after = _tree(), _tree()
        after.spans.append(
            Span(span_id=4, parent_id=1, name="phase.b", category="phase",
                 start=8.0, end=9.0)
        )
        before.metrics = {"counters": {"retries": {"": 1.0}}}
        after.metrics = {"counters": {"retries": {"": 4.0}}}
        text = diff_documents(before, after)
        assert "phase.b: count 1 -> 2 (+1), total 3t -> 4t, self 3t -> 4t" in text
        assert "send: count 1 -> 1 (+0), total 8t -> 8t, self 2t -> 1t" in text
        assert "retries: 1 -> 4 (+3)" in text

    def test_root_is_required(self):
        with pytest.raises(TelemetryError):
            _document([Span(span_id=1, parent_id=0, name="x")]).root()
