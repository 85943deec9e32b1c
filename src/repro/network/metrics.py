"""Network-wide metrics: per-session records and the :class:`NetworkResult`.

The scheduler produces one :class:`SessionRecord` per traffic request —
covering both the *scheduling* view (arrival, admission wait, start/finish
times, capacity rejections) and the *quantum* view (per-hop protocol
reports, aborts, end-to-end error rate).  :class:`NetworkResult` aggregates
them into the quantities a network operator tracks:

* **throughput** — delivered sessions (and delivered message bits) per unit
  of simulated time;
* **latency** — arrival-to-finish time of delivered sessions (waiting time
  included);
* **abort rate** — fraction of *admitted* sessions whose security machinery
  fired on some hop (eavesdropping, compromised relays, decohered memories
  and plain noise all land here);
* **rejection rate** — fraction of all requests dropped by admission control
  (capacity exhausted for longer than the patience window);
* **QBER** — mean check-bit error rate observed across successful hops, the
  network-wide quality-of-service figure.

Every aggregate is computed in session-id order from the records alone, so
two simulations with identical records produce identical results — the
property the determinism tests (serial vs. threaded execution) assert via
:meth:`NetworkResult.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.network.sessions import (
    STATUS_ABORTED,
    STATUS_DELIVERED,
    STATUS_DELIVERED_WITH_ERRORS,
    STATUS_REJECTED,
    HopReport,
)
from repro.runtime.loadgen import percentile

__all__ = ["SessionRecord", "NetworkResult"]


@dataclass
class SessionRecord:
    """Everything the network learned about one traffic request.

    ``start_time``/``finish_time`` are None for rejected sessions;
    quantum-execution fields are filled only for admitted sessions.
    """

    session_id: int
    source: str
    target: str
    message_length: int
    arrival_time: float
    status: str = STATUS_REJECTED
    route_nodes: tuple[str, ...] | None = None
    start_time: float | None = None
    finish_time: float | None = None
    hold_time: float = 0.0
    failed_hop: int | None = None
    abort_reason: str | None = None
    end_to_end_error_rate: float | None = None
    sent_message: str | None = None
    delivered_message: str | None = None
    hop_reports: list[HopReport] = field(default_factory=list)
    priority: str = "bulk"
    rerouted: bool = False

    @property
    def admitted(self) -> bool:
        """True if the session was scheduled (i.e. not rejected)."""
        return self.start_time is not None

    @property
    def delivered(self) -> bool:
        """True if the message reached the target (bit errors allowed)."""
        return self.status in (STATUS_DELIVERED, STATUS_DELIVERED_WITH_ERRORS)

    @property
    def wait_time(self) -> float | None:
        """Admission queueing delay (None for rejected sessions)."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    @property
    def latency(self) -> float | None:
        """Arrival-to-finish time (None unless the session finished)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def summary(self) -> dict[str, Any]:
        """Canonical JSON-friendly view (the determinism-comparison unit)."""
        return {
            "session_id": self.session_id,
            "source": self.source,
            "target": self.target,
            "message_length": self.message_length,
            "arrival_time": self.arrival_time,
            "status": self.status,
            "route": None if self.route_nodes is None else list(self.route_nodes),
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "hold_time": self.hold_time,
            "failed_hop": self.failed_hop,
            "abort_reason": self.abort_reason,
            "end_to_end_error_rate": self.end_to_end_error_rate,
            "sent_message": self.sent_message,
            "delivered_message": self.delivered_message,
            "hops": [report.summary() for report in self.hop_reports],
            "priority": self.priority,
            "rerouted": self.rerouted,
        }


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


@dataclass
class NetworkResult:
    """Aggregate outcome of one network simulation."""

    topology_name: str
    num_nodes: int
    num_links: int
    routing_policy: str
    sim_time: float
    records: list[SessionRecord] = field(default_factory=list)

    # -- per-status counts ------------------------------------------------------------
    def count(self, status: str) -> int:
        """Number of sessions that finished with the given status."""
        return sum(1 for record in self.records if record.status == status)

    @property
    def num_sessions(self) -> int:
        return len(self.records)

    @property
    def admitted_count(self) -> int:
        return sum(1 for record in self.records if record.admitted)

    @property
    def delivered_count(self) -> int:
        """Sessions whose message reached its target (bit errors allowed)."""
        return sum(1 for record in self.records if record.delivered)

    @property
    def aborted_count(self) -> int:
        return self.count(STATUS_ABORTED)

    @property
    def rejected_count(self) -> int:
        return self.count(STATUS_REJECTED)

    # -- rates ------------------------------------------------------------------------
    @property
    def abort_rate(self) -> float:
        """Aborted fraction of *admitted* sessions (the security-fired rate)."""
        admitted = self.admitted_count
        return self.aborted_count / admitted if admitted else 0.0

    @property
    def rejection_rate(self) -> float:
        """Capacity-rejected fraction of all requests."""
        return self.rejected_count / self.num_sessions if self.records else 0.0

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of all requests (exact + with-errors)."""
        return self.delivered_count / self.num_sessions if self.records else 0.0

    # -- throughput and latency ---------------------------------------------------------
    @property
    def throughput_sessions(self) -> float:
        """Delivered sessions per unit of simulated time."""
        return self.delivered_count / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def throughput_bits(self) -> float:
        """Delivered message bits per unit of simulated time."""
        bits = sum(
            record.message_length for record in self.records if record.delivered
        )
        return bits / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def mean_latency(self) -> float | None:
        """Mean arrival-to-finish time of delivered sessions."""
        return _mean([r.latency for r in self.records if r.delivered])

    @property
    def mean_wait(self) -> float | None:
        """Mean admission queueing delay of admitted sessions."""
        return _mean([r.wait_time for r in self.records if r.admitted])

    # -- quality ----------------------------------------------------------------------
    @property
    def mean_qber(self) -> float | None:
        """Mean check-bit error rate over every *successful* hop session."""
        rates = [
            report.check_bit_error_rate
            for record in self.records
            for report in record.hop_reports
            if report.success and report.check_bit_error_rate is not None
        ]
        return _mean(rates)

    @property
    def mean_chsh(self) -> float | None:
        """Mean round-1 CHSH value over every hop that reached the check."""
        values = [
            report.chsh_round1
            for record in self.records
            for report in record.hop_reports
            if report.chsh_round1 is not None
        ]
        return _mean(values)

    @property
    def mean_hops(self) -> float | None:
        """Mean route length (hops) of admitted sessions."""
        return _mean(
            [
                float(len(record.route_nodes) - 1)
                for record in self.records
                if record.admitted and record.route_nodes is not None
            ]
        )

    # -- breakdowns -------------------------------------------------------------------
    def route_stats(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Per-(source, target) delivery/abort/QBER statistics."""
        stats: dict[tuple[str, str], dict[str, Any]] = {}
        for record in self.records:
            entry = stats.setdefault(
                (record.source, record.target),
                {"sessions": 0, "delivered": 0, "aborted": 0, "rejected": 0,
                 "qber_samples": []},
            )
            entry["sessions"] += 1
            if record.delivered:
                entry["delivered"] += 1
            elif record.status == STATUS_ABORTED:
                entry["aborted"] += 1
            elif record.status == STATUS_REJECTED:
                entry["rejected"] += 1
            entry["qber_samples"].extend(
                report.check_bit_error_rate
                for report in record.hop_reports
                if report.success and report.check_bit_error_rate is not None
            )
        for entry in stats.values():
            samples = entry.pop("qber_samples")
            entry["mean_qber"] = _mean(samples)
        return stats

    def link_utilisation(self) -> dict[tuple[str, str], int]:
        """Number of hop sessions each link carried."""
        usage: dict[tuple[str, str], int] = {}
        for record in self.records:
            for report in record.hop_reports:
                key = tuple(sorted((report.sender, report.receiver)))
                usage[key] = usage.get(key, 0) + 1
        return usage

    def abort_reasons(self) -> dict[str, int]:
        """Histogram of abort reasons across aborted sessions."""
        histogram: dict[str, int] = {}
        for record in self.records:
            if record.status == STATUS_ABORTED and record.abort_reason:
                histogram[record.abort_reason] = histogram.get(record.abort_reason, 0) + 1
        return histogram

    # -- QoS breakdowns ----------------------------------------------------------------
    def priority_classes(self) -> list[str]:
        """Sorted distinct priority classes present in the traffic."""
        return sorted({record.priority for record in self.records})

    def class_counts(self) -> dict[str, dict[str, int]]:
        """Per-class session/admitted/delivered/aborted/rejected counts."""
        counts: dict[str, dict[str, int]] = {}
        for record in self.records:
            entry = counts.setdefault(
                record.priority,
                {"sessions": 0, "admitted": 0, "delivered": 0, "aborted": 0, "rejected": 0},
            )
            entry["sessions"] += 1
            if record.admitted:
                entry["admitted"] += 1
            if record.delivered:
                entry["delivered"] += 1
            elif record.status == STATUS_ABORTED:
                entry["aborted"] += 1
            elif record.status == STATUS_REJECTED:
                entry["rejected"] += 1
        return {name: counts[name] for name in sorted(counts)}

    def class_shares(self) -> dict[str, float]:
        """Each class's share of admitted capacity-time (the fairness figure).

        Work is measured as ``message_length × reservation duration`` per
        admitted session — the quantity weighted-fair queueing divides under
        saturation, so under sustained backlog the shares approach the QoS
        weight ratios (the invariant battery asserts this with tolerance).
        """
        work: dict[str, float] = {}
        for record in self.records:
            if not record.admitted or record.finish_time is None:
                continue
            span = record.finish_time - record.start_time
            work[record.priority] = work.get(record.priority, 0.0) + (
                record.message_length * span
            )
        total = sum(work.values())
        if total <= 0:
            return {}
        return {name: work[name] / total for name in sorted(work)}

    def class_latency_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[str, dict[str, float]]:
        """Nearest-rank latency percentiles of delivered sessions, per class."""
        samples: dict[str, list[float]] = {}
        for record in self.records:
            if record.delivered and record.latency is not None:
                samples.setdefault(record.priority, []).append(record.latency)
        result: dict[str, dict[str, float]] = {}
        for name in sorted(samples):
            result[name] = {
                f"p{pct:g}": percentile(samples[name], pct / 100.0)
                for pct in percentiles
            }
        return result

    def outage_decomposition(self) -> dict[str, int]:
        """Why sessions did not deliver, as a ``status:reason`` histogram.

        Splits the non-delivered tail into scheduling losses (``rejected:*``
        — no route, capacity exhaustion, patience expiry, outage-blocked
        patience expiry) and quantum losses (``aborted:*`` — per abort
        reason), the decomposition the SLA experiment reports.
        """
        histogram: dict[str, int] = {}
        for record in self.records:
            if record.delivered:
                continue
            reason = record.abort_reason or "unknown"
            key = f"{record.status}:{reason}"
            histogram[key] = histogram.get(key, 0) + 1
        return {key: histogram[key] for key in sorted(histogram)}

    @property
    def reroute_count(self) -> int:
        """Sessions that left their originally prepared route (outage re-routing)."""
        return sum(1 for record in self.records if record.rerouted)

    def summary(self) -> dict[str, Any]:
        """Canonical JSON-friendly view of the whole simulation.

        Two runs with the same seed must produce *equal* summaries whatever
        executor ran the sessions — the determinism contract the tests pin.
        """
        return {
            "topology": self.topology_name,
            "num_nodes": self.num_nodes,
            "num_links": self.num_links,
            "routing_policy": self.routing_policy,
            "sim_time": self.sim_time,
            "num_sessions": self.num_sessions,
            "delivered": self.delivered_count,
            "delivered_exact": self.count(STATUS_DELIVERED),
            "delivered_with_errors": self.count(STATUS_DELIVERED_WITH_ERRORS),
            "aborted": self.aborted_count,
            "rejected": self.rejected_count,
            "abort_rate": self.abort_rate,
            "rejection_rate": self.rejection_rate,
            "throughput_sessions": self.throughput_sessions,
            "throughput_bits": self.throughput_bits,
            "mean_latency": self.mean_latency,
            "mean_wait": self.mean_wait,
            "mean_qber": self.mean_qber,
            "mean_chsh": self.mean_chsh,
            "abort_reasons": self.abort_reasons(),
            "class_counts": self.class_counts(),
            "class_latency_percentiles": self.class_latency_percentiles(),
            "outage_decomposition": self.outage_decomposition(),
            "reroutes": self.reroute_count,
            "records": [record.summary() for record in self.records],
        }
