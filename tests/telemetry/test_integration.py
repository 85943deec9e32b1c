"""Integration tests: tracing the real service/network stacks.

The three guarantees the ISSUE pins:

* **Determinism** — a fixed-seed workload traced with the tick clock under
  the serial executor produces a byte-identical trace document every run;
* **Disabled-mode bit-identity** — results with telemetry on equal results
  with telemetry off (tracing observes, never perturbs);
* **Coverage** — a network simulation's trace covers every executed session,
  every hop and every protocol phase.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import telemetry
from repro.api.config import ServiceConfig
from repro.api.service import MessagingService
from repro.experiments.network_scale import run_network_scale
from repro.network import PoissonTraffic, SessionParameters, grid_topology, simulate_network


def _traced_send(payload: str) -> tuple:
    service = MessagingService(ServiceConfig.ideal(seed=11))
    with telemetry.capture(clock="ticks") as session:
        report = service.send(payload)
    return report, session.document


class TestDeterminism:
    def test_identical_sends_yield_byte_identical_traces(self):
        report_a, doc_a = _traced_send("determinism")
        report_b, doc_b = _traced_send("determinism")
        assert report_a.delivered_payload == report_b.delivered_payload
        assert doc_a.dumps() == doc_b.dumps()

    def test_network_trace_is_deterministic_under_serial_executor(self):
        def run():
            with telemetry.capture(clock="ticks") as session:
                run_network_scale(
                    rows=2,
                    cols=2,
                    num_sessions=4,
                    message_length=4,
                    check_pairs=8,
                    qubit_capacity=200,
                    executor="serial",
                    seed=3,
                )
            return session.document.dumps()

        assert run() == run()


class TestThreadedParenting:
    @staticmethod
    def _trace(executor: str):
        with telemetry.capture(clock="ticks") as session:
            simulate_network(
                grid_topology(2, 2, qubit_capacity=200),
                PoissonTraffic(num_sessions=4, rate=400.0, message_length=4),
                session_params=SessionParameters(identity_pairs=1, check_pairs_per_round=8),
                seed=3,
                executor=executor,
                max_workers=2,
            )
        return session.document

    def test_thread_executor_spans_nest_under_the_simulation(self):
        serial, threaded = self._trace("serial"), self._trace("thread")
        assert Counter(span.name for span in threaded.spans) == Counter(
            span.name for span in serial.spans
        )
        by_id = {span.span_id: span for span in threaded.spans}
        sessions = [span for span in threaded.spans if span.name == "network.session"]
        assert sessions
        for span in sessions:
            ancestors = []
            while span.parent_id in by_id:
                span = by_id[span.parent_id]
                ancestors.append(span.name)
            assert "network.simulate" in ancestors

    @staticmethod
    def _engine_sends(traced: bool) -> tuple:
        """Four sends through a two-worker engine, submitted inside one span."""
        from repro.runtime.engine import DeliveryEngine

        payloads = [f"engine {index}" for index in range(4)]
        if not traced:
            with DeliveryEngine(ServiceConfig.ideal(), max_workers=2, seed=17) as engine:
                return [future.result() for future in map(engine.submit, payloads)], None
        with telemetry.capture(clock="ticks") as session:
            with telemetry.span("load.submit") as outer:
                with DeliveryEngine(ServiceConfig.ideal(), max_workers=2, seed=17) as engine:
                    futures = [engine.submit(payload) for payload in payloads]
                deliveries = [future.result() for future in futures]
        return deliveries, (session.document, outer.span_id)

    def test_delivery_engine_spans_nest_under_the_submitting_span(self):
        deliveries, (document, outer_id) = self._engine_sends(traced=True)
        executes = [span for span in document.spans if span.name == "runtime.execute"]
        assert len(executes) == 4
        assert {span.parent_id for span in executes} == {outer_id}
        # Every send's own spans hang below its runtime.execute span.
        by_id = {span.span_id: span for span in document.spans}
        sends = [span for span in document.spans if span.name == "service.send"]
        assert len(sends) == 4
        assert {by_id[span.parent_id].name for span in sends} == {"runtime.execute"}

        # The same sends without the engine give the same spans, less the
        # engine's own.
        service = MessagingService(ServiceConfig.ideal())
        with telemetry.capture(clock="ticks") as session:
            with telemetry.span("load.submit"):
                for delivery in deliveries:
                    request = delivery.request
                    service.send(request.payload, kind=request.kind, seed=request.seed)
        serial = Counter(span.name for span in session.document.spans)
        serial["runtime.execute"] += 4
        assert Counter(span.name for span in document.spans) == serial

    def test_delivery_engine_outcomes_equal_with_and_without_telemetry(self):
        traced, _ = self._engine_sends(traced=True)
        plain, _ = self._engine_sends(traced=False)
        assert [
            (d.request.seed, d.status, d.report.delivered_payload, d.report.summary())
            for d in traced
        ] == [
            (d.request.seed, d.status, d.report.delivered_payload, d.report.summary())
            for d in plain
        ]


class TestDisabledModeBitIdentity:
    def test_send_results_identical_with_and_without_telemetry(self):
        service = MessagingService(ServiceConfig.ideal(seed=23))
        plain = service.send("bit identical")
        with telemetry.capture():
            traced = service.send("bit identical")
        assert plain.success == traced.success
        assert plain.delivered_payload == traced.delivered_payload
        assert plain.num_fragments == traced.num_fragments
        assert [f.delivered for f in plain.fragments] == [
            f.delivered for f in traced.fragments
        ]

    def test_network_results_identical_with_and_without_telemetry(self):
        kwargs = dict(
            rows=2,
            cols=2,
            num_sessions=3,
            message_length=4,
            check_pairs=8,
            qubit_capacity=200,
            executor="serial",
            seed=5,
        )
        plain = run_network_scale(**kwargs)
        with telemetry.capture():
            traced = run_network_scale(**kwargs)
        assert [r.summary() for r in plain.records] == [
            r.summary() for r in traced.records
        ]


class TestCoverage:
    @pytest.fixture(scope="class")
    def network_trace(self):
        with telemetry.capture(clock="ticks") as session:
            result = run_network_scale(
                rows=2,
                cols=2,
                num_sessions=5,
                message_length=4,
                check_pairs=8,
                qubit_capacity=200,
                executor="serial",
                seed=9,
            )
        yield result, session.document

    def test_every_executed_session_has_a_span(self, network_trace):
        result, document = network_trace
        executed = {
            record.session_id
            for record in result.records
            if record.status is not None and record.hop_reports
        }
        traced = {
            span.attributes["session_id"]
            for span in document.spans
            if span.name == "network.session"
        }
        assert executed and traced == executed

    def test_every_hop_has_a_span(self, network_trace):
        result, document = network_trace
        expected_hops = sum(
            len(record.hop_reports) for record in result.records
        )
        hop_spans = [s for s in document.spans if s.name == "network.hop"]
        assert len(hop_spans) == expected_hops

    def test_hops_nest_in_sessions_and_phases_in_protocol_sessions(self, network_trace):
        _, document = network_trace
        by_id = {span.span_id: span for span in document.spans}
        hop_spans = [s for s in document.spans if s.name == "network.hop"]
        assert hop_spans
        for hop in hop_spans:
            assert by_id[hop.parent_id].name == "network.session"
        phase_spans = [s for s in document.spans if s.name.startswith("phase.")]
        assert phase_spans
        for phase in phase_spans:
            assert by_id[phase.parent_id].name == "protocol.session"

    def test_every_protocol_session_records_its_phases(self, network_trace):
        _, document = network_trace
        children = document.children_index()
        protocol_spans = [
            s for s in document.spans if s.name == "protocol.session"
        ]
        assert protocol_spans
        for span in protocol_spans:
            phases = [
                child.name
                for child in children[span.span_id]
                if child.name.startswith("phase.")
            ]
            # Every session at least shares entanglement and runs the first
            # DI check before any abort can terminate it.
            assert "phase.entanglement_sharing" in phases
            assert "phase.round1_security_check" in phases

    def test_scheduler_metrics_present(self, network_trace):
        _, document = network_trace
        counters = document.metrics["counters"]
        assert counters["scheduler.admitted"][""] >= 1


class TestArtifactAttachment:
    def test_traced_experiment_attaches_rollup_and_metrics(self):
        from repro.artifacts import last_artifact
        from repro.experiments.registry import get_experiment

        experiment = get_experiment("e2e")
        with telemetry.capture():
            experiment.run(quick=True)
        artifact = last_artifact("e2e")
        attachment = artifact.timings["telemetry"]
        assert "service.send" in attachment["spans"]
        assert "counters" in attachment["metrics"]

    def test_untraced_experiment_has_no_attachment_and_same_canonical_payload(self):
        from repro.artifacts import last_artifact
        from repro.experiments.registry import get_experiment

        experiment = get_experiment("e2e")
        experiment.run(quick=True)
        plain = last_artifact("e2e")
        assert "telemetry" not in plain.timings
        with telemetry.capture():
            experiment.run(quick=True)
        traced = last_artifact("e2e")
        assert plain.canonical_payload() == traced.canonical_payload()
