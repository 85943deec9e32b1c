"""The benchmark's four closed-loop workloads.

Each workload turns ``(seed, seconds)`` into a fixed list of *calls* — the
blocking program calls one client makes, one after another — and knows how
to set the program up, run one call and check its output.  Inputs are plain
data derived from the seed alone (payloads, traffic, circuits); the program
only ever receives those inputs.

The length of the call list is ``seconds`` times a nominal rate measured on
a 2-core Xeon container at the commit that introduced the benchmark, so a run
lasts about ``seconds`` there.  The list never depends on how fast the
program runs, which is what makes every count-derived metric exact.

No module of ``repro`` is imported here at module level: ``setup`` imports
what a workload needs, so set-up time includes the import.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Tally", "Workload", "WORKLOADS", "make_workload"]

#: The two-bit message symbols of the paper's dense coding (Fig. 2).
SYMBOLS = ("00", "01", "10", "11")


@dataclass
class Tally:
    """What the output check of one call found.

    ``ops`` are the call's timed operations and ``failed`` those that raised
    or failed a check.  ``delivered``/``offered`` count the unit
    ``delivered_frac`` is defined over (sends, sessions or shots), and
    ``good_bits`` the verified payload or message bits.  ``counts`` holds
    outcome counts read from the returned results.
    """

    ops: int
    failed: int = 0
    delivered: int = 0
    offered: int = 0
    good_bits: int = 0
    counts: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


class Workload:
    """One workload: seeded call list, program set-up, calls and checks."""

    name = ""
    #: The timed operation, as reported next to ``ops_per_s``.
    op_unit = ""

    def __init__(self, seed: int, seconds: float):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.calls: list[Any] = []

    def rng(self, *stream: int) -> np.random.Generator:
        """An input generator for one named stream of this workload's seed."""
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> None:
        """Import the program and build everything the calls need."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation, so lazy imports and first-use work finish."""
        raise NotImplementedError

    def execute(self, call: Any) -> Any:
        """Run one call and return the program's result (this is timed)."""
        raise NotImplementedError

    def size(self, call: Any) -> int:
        """Timed operations one call carries."""
        raise NotImplementedError

    def check(self, call: Any, result: Any) -> Tally:
        """Check one call's output (not timed)."""
        raise NotImplementedError


# -- paper_send ------------------------------------------------------------------------


class PaperSend(Workload):
    """Paper-default ``MessagingService.send`` of fixed-size payloads.

    η=10 identity-gate channel, l=8 identity pairs, d=256 check pairs, on the
    local backend: each 32-byte payload travels as four 64-bit frames.
    """

    name = "paper_send"
    op_unit = "send"
    PAYLOAD_BYTES = 32
    NOMINAL_OPS_PER_S = 10.0

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        count = max(1, round(self.seconds * self.NOMINAL_OPS_PER_S))
        rng = self.rng(1)
        self.warm_call = self._draw(rng)
        self.calls = [self._draw(rng) for _ in range(count)]

    def _draw(self, rng: np.random.Generator) -> tuple[bytes, int]:
        payload = rng.integers(0, 256, self.PAYLOAD_BYTES, dtype=np.uint8).tobytes()
        return payload, int(rng.integers(0, 2**62))

    def setup(self) -> None:
        from repro import MessagingService, ServiceConfig

        config = ServiceConfig.paper_default(seed=self.seed).with_executor("serial")
        self.service = MessagingService(config)

    def warm_up(self) -> None:
        self.execute(self.warm_call)

    def execute(self, call: tuple[bytes, int]) -> Any:
        payload, send_seed = call
        return self.service.send(payload, seed=send_seed)

    def size(self, call: tuple[bytes, int]) -> int:
        return 1

    def check(self, call: tuple[bytes, int], report: Any) -> Tally:
        payload = call[0]
        tally = Tally(ops=1, offered=1)
        if report.success:
            if report.delivered_payload == payload:
                tally.delivered = 1
                tally.good_bits = 8 * len(payload)
            else:
                tally.fail("delivered payload differs from the sent one")
        elif report.delivered_payload is not None:
            tally.fail("a failed send returned a payload")
        attempts = sum(len(fragment.attempts) for fragment in report.fragments)
        tally.counts["api.fragments"] += len(report.fragments)
        tally.counts["api.fragment_attempts"] += attempts
        tally.counts["api.retransmissions"] += attempts - len(report.fragments)
        tally.counts["api.frames_delivered"] += sum(
            1 for fragment in report.fragments if fragment.delivered
        )
        return tally


# -- relay_static / relay_sla ----------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One traffic cell: a seeded Poisson session list at one offered rate."""

    seed: int
    rate: float
    #: ``(arrival, source, target, message, session seed, priority)`` rows.
    sessions: tuple[tuple[float, str, str, str, int, str], ...]


class _FixedTraffic:
    """Traffic that hands the scheduler a prepared request list."""

    def __init__(self, requests: list[Any]):
        self.requests = requests

    def generate(self, topology: Any, rng: Any = None) -> list[Any]:
        return list(self.requests)


class RelayStatic(Workload):
    """Back-to-back ``NetworkScheduler.run`` calls on a frozen 4×4 relay grid.

    Cells alternate between a light rate (0.6×) and an overloaded rate (3×)
    of the ``fig_sla`` capacity anchor for this grid and session size
    (≈3,530 sessions/s).  Patience is 8× the mean session duration (2.79 ms).
    """

    name = "relay_static"
    op_unit = "offered session"
    ROWS = COLS = 4
    QUBIT_CAPACITY = 256
    IDENTITY_PAIRS = 2
    CHECK_PAIRS = 32
    MESSAGE_BITS = 16
    SESSIONS_PER_CELL = 200
    RATES = (2100.0, 10600.0)
    MEAN_SESSION_S = 0.00279
    MAX_WAIT_S = 8 * MEAN_SESSION_S
    #: Wall seconds of one light + one overloaded cell at the nominal rate.
    NOMINAL_PAIR_S = 5.2
    PRIORITY_MIX = (("control", 1.0), ("interactive", 1.0), ("bulk", 2.0))

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.nodes = [f"n{row}_{col}" for row in range(self.ROWS) for col in range(self.COLS)]
        pairs = max(1, round(self.seconds / self.NOMINAL_PAIR_S))
        self.calls = [
            self._cell((index,), self.RATES[index % 2], self.SESSIONS_PER_CELL)
            for index in range(2 * pairs)
        ]
        self.warm_call = self._cell((), self.RATES[0], 1)

    def _cell(self, stream: tuple[int, ...], rate: float, count: int) -> Cell:
        rng = self.rng(2, *stream)
        # Priorities come from their own stream, so relay_static and
        # relay_sla see identical arrivals, endpoints, messages and seeds.
        priority_rng = self.rng(3, *stream)
        classes = [name for name, _ in self.PRIORITY_MIX]
        weights = np.array([weight for _, weight in self.PRIORITY_MIX])
        clock = 0.0
        sessions = []
        for _ in range(count):
            clock += float(rng.exponential(1.0 / rate))
            source, target = rng.choice(len(self.nodes), size=2, replace=False)
            message = "".join(map(str, rng.integers(0, 2, self.MESSAGE_BITS)))
            session_seed = int(rng.integers(0, 2**31 - 1))
            priority = classes[int(priority_rng.choice(len(classes), p=weights / weights.sum()))]
            sessions.append(
                (clock, self.nodes[source], self.nodes[target], message, session_seed, priority)
            )
        return Cell(seed=int(rng.integers(0, 2**31 - 1)), rate=rate, sessions=tuple(sessions))

    def build_topology(self) -> Any:
        from repro.network.topology import build_topology

        return build_topology(
            "grid", rows=self.ROWS, cols=self.COLS, qubit_capacity=self.QUBIT_CAPACITY
        )

    def conditions(self, cell: Cell) -> dict[str, Any]:
        """Scheduler keyword arguments beyond the frozen configuration."""
        return {}

    def requests(self, cell: Cell) -> list[Any]:
        from repro.network.sessions import SessionRequest

        return [
            SessionRequest(
                session_id=session_id,
                source=source,
                target=target,
                message_length=self.MESSAGE_BITS,
                arrival_time=arrival,
                message=message,
                seed=session_seed,
                priority=self.priority(priority),
            )
            for session_id, (arrival, source, target, message, session_seed, priority)
            in enumerate(cell.sessions)
        ]

    def priority(self, drawn: str) -> str:
        return "bulk"

    def setup(self) -> None:
        from repro.network.scheduler import NetworkScheduler
        from repro.network.sessions import SessionParameters

        self._scheduler = NetworkScheduler
        self.topology = self.build_topology()
        self.params = SessionParameters(
            identity_pairs=self.IDENTITY_PAIRS, check_pairs_per_round=self.CHECK_PAIRS
        )
        self.prepared = {
            id(cell): (_FixedTraffic(self.requests(cell)), self.conditions(cell))
            for cell in [self.warm_call, *self.calls]
        }

    def warm_up(self) -> None:
        self.execute(self.warm_call)

    def execute(self, cell: Cell) -> Any:
        traffic, conditions = self.prepared[id(cell)]
        scheduler = self._scheduler(
            self.topology,
            session_params=self.params,
            max_wait=self.MAX_WAIT_S,
            seed=cell.seed,
            executor="serial",
            **conditions,
        )
        return scheduler.run(traffic)

    def size(self, cell: Cell) -> int:
        return len(cell.sessions)

    def check(self, cell: Cell, result: Any) -> Tally:
        offered = len(cell.sessions)
        tally = Tally(ops=offered, offered=offered)
        records = {record.session_id: record for record in result.records}
        if len(result.records) != offered or set(records) != set(range(offered)):
            tally.fail(f"{len(result.records)} records for {offered} offered sessions")
            tally.failed = offered
            return tally
        counts = tally.counts
        for session_id, (_, _, _, message, _, _) in enumerate(cell.sessions):
            record = records[session_id]
            status = record.status
            counts[f"network.status.{status}"] += 1
            if status == "rejected":
                if record.admitted:
                    tally.fail(f"session {session_id} rejected after admission")
                    continue
                counts[f"network.rejected.{record.abort_reason}"] += 1
                continue
            if not record.admitted:
                tally.fail(f"session {session_id} is {status} but was never admitted")
                continue
            counts["network.admitted"] += 1
            counts["network.hops"] += len(record.hop_reports)
            counts["network.reroutes"] += int(record.rerouted)
            if status == "delivered":
                if record.sent_message != message or record.delivered_message != message:
                    tally.fail(f"session {session_id} delivered a different message")
                    continue
                tally.delivered += 1
                tally.good_bits += self.MESSAGE_BITS
            elif status == "delivered_with_errors":
                if record.delivered_message is None or record.delivered_message == message:
                    tally.fail(f"session {session_id} mislabelled as delivered_with_errors")
            elif status == "aborted":
                if record.delivered_message is not None:
                    tally.fail(f"aborted session {session_id} carries a message")
            else:
                tally.fail(f"session {session_id} ended in unknown status {status!r}")
        return tally


class RelaySLA(RelayStatic):
    """``relay_static``'s cells under drift/outage conditions, QoS and an attacker.

    Adds ``condition_profile("drift_outage")``, weighted-fair QoS over a
    control:interactive:bulk = 1:1:2 mix, and an intercept-resend attack on
    the interior relay ``n1_1``.  The condition schedule belongs to the
    workload, like the grid: it comes from a fixed seed (one schedule per
    offered rate), so the benchmark seed varies only the traffic: with
    per-cell seeded schedules the overloaded cell took 2.7 to 3.9 s across
    five seeds.
    """

    name = "relay_sla"
    COMPROMISED = "n1_1"
    PROFILE = "drift_outage"
    CONDITIONS_SEED = 7
    NOMINAL_PAIR_S = 5.7

    def build_topology(self) -> Any:
        from repro.attacks.intercept_resend import InterceptResendAttack

        topology = super().build_topology()
        topology.compromise(self.COMPROMISED, lambda rng: InterceptResendAttack(rng=rng))
        return topology

    def priority(self, drawn: str) -> str:
        return drawn

    def conditions(self, cell: Cell) -> dict[str, Any]:
        from repro.network.dynamics import condition_profile
        from repro.network.scheduler import QoSPolicy

        # fig_sla's horizon: arrivals plus a service tail.
        horizon = 1.5 * self.SESSIONS_PER_CELL / cell.rate + 4 * self.MEAN_SESSION_S
        return {
            "dynamics": condition_profile(
                self.PROFILE, self.topology, seed=self.CONDITIONS_SEED, horizon=horizon
            ),
            "qos": QoSPolicy(),
        }


# -- device_emulation ------------------------------------------------------------------


@dataclass(frozen=True)
class Submission:
    """One backend submission: how it is sent, at which η, with which symbols."""

    kind: str
    eta: int
    symbols: tuple[str, ...]


class DeviceEmulation(Workload):
    """The paper's §IV message-transfer circuits submitted to ``NoisyBackend``.

    Per η, one round submits: each symbol through ``run`` on ``ibm_brisbane``
    (dense per-gate path), the four symbols as one ``run_batch`` on the same
    device (compiled propagators), each symbol twice through ``run`` on the
    Pauli-only device (serial stabilizer), and one 64-circuit ``run_batch``
    wave on the Pauli-only device (batched tableau).
    """

    name = "device_emulation"
    op_unit = "circuit at 1024 shots"
    SHOTS = 1024
    ETAS = (10, 50, 100)
    WAVE = 64
    STABILIZER_REPEATS = 2
    #: Wall seconds of one round over every η at the nominal rate.
    NOMINAL_ROUND_S = 0.6
    #: Submission kind -> (device, backend the dispatcher must choose).
    KINDS = {
        "dense_run": ("thermal", "dense"),
        "dense_batch": ("thermal", "dense"),
        "pauli_run": ("pauli", "stabilizer"),
        "pauli_wave": ("pauli", "stabilizer_batched"),
    }

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        rounds = max(1, round(self.seconds / self.NOMINAL_ROUND_S))
        rng = self.rng(4)
        for _ in range(rounds):
            for eta in self.ETAS:
                self.calls.extend(self._round(rng, eta))
        self.warm_calls = [
            Submission(kind, self.ETAS[0], (SYMBOLS[0],)) for kind in self.KINDS
        ]

    def _round(self, rng: np.random.Generator, eta: int) -> list[Submission]:
        def order(repeats: int = 1) -> list[str]:
            return [SYMBOLS[i] for i in rng.permutation(np.repeat(np.arange(4), repeats))]

        calls = [Submission("dense_run", eta, (symbol,)) for symbol in order()]
        calls.append(Submission("dense_batch", eta, tuple(order())))
        calls.extend(
            Submission("pauli_run", eta, (symbol,))
            for symbol in order(self.STABILIZER_REPEATS)
        )
        wave = rng.integers(0, 4, self.WAVE)
        calls.append(Submission("pauli_wave", eta, tuple(SYMBOLS[i] for i in wave)))
        return calls

    def setup(self) -> None:
        from repro.device.backend import NoisyBackend
        from repro.device.device_model import DeviceModel
        from repro.protocol.encoding import decode_bell_state_to_bits, encode_bits_to_pauli
        from repro.quantum.circuit import QuantumCircuit
        from repro.quantum.measurement import BELL_BITS_TO_STATE
        from repro.utils.bits import bitstring_to_bits

        rng = self.rng(5)
        self.backends = {
            "thermal": NoisyBackend(
                DeviceModel.ibm_brisbane(), seed=int(rng.integers(0, 2**62))
            ),
            "pauli": NoisyBackend(
                DeviceModel.ibm_brisbane(include_thermal_relaxation=False),
                seed=int(rng.integers(0, 2**62)),
            ),
        }
        self.decoded = {
            outcome: "".join(map(str, decode_bell_state_to_bits(state)))
            for outcome, state in BELL_BITS_TO_STATE.items()
        }

        def message_circuit(symbol: str, eta: int) -> QuantumCircuit:
            circuit = QuantumCircuit(2, name=f"message_{symbol}_eta{eta}")
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.barrier()
            label = encode_bits_to_pauli(bitstring_to_bits(symbol))
            if label == "I":
                circuit.id(0)
            else:
                circuit.pauli(label, [0])
            circuit.barrier()
            circuit.repeat("id", 0, eta)
            circuit.barrier()
            circuit.cx(0, 1)
            circuit.h(0)
            circuit.measure_all()
            return circuit

        # Every submission gets its own circuit objects, as a client building
        # the paper's circuits per request would; only the structure repeats.
        self.circuits = {
            id(call): [message_circuit(symbol, call.eta) for symbol in call.symbols]
            for call in [*self.warm_calls, *self.calls]
        }

    def warm_up(self) -> None:
        for call in self.warm_calls:
            self.execute(call)

    def execute(self, call: Submission) -> Any:
        backend = self.backends[self.KINDS[call.kind][0]]
        circuits = self.circuits[id(call)]
        if call.kind.endswith("_run"):
            return [backend.run(circuits[0], shots=self.SHOTS)]
        return backend.run_batch(circuits, shots=self.SHOTS)

    def size(self, call: Submission) -> int:
        return len(call.symbols)

    def check(self, call: Submission, histograms: Any) -> Tally:
        device, expected_backend = self.KINDS[call.kind]
        jobs = self.backends[device].jobs[-len(call.symbols):]
        tally = Tally(ops=len(call.symbols))
        if len(histograms) != len(call.symbols):
            tally.fail(f"{len(histograms)} histograms for {len(call.symbols)} circuits")
            tally.failed = tally.ops
            return tally
        for symbol, counts, job in zip(call.symbols, histograms, jobs):
            tally.offered += self.SHOTS
            tally.counts["device.jobs"] += 1
            tally.counts[f"device.dispatch.{job.metadata.get('backend')}"] += 1
            decoded: Counter = Counter()
            valid = True
            for outcome, count in counts.items():
                if outcome not in self.decoded or count < 0:
                    valid = False
                    break
                decoded[self.decoded[outcome]] += int(count)
            if not valid or sum(decoded.values()) != self.SHOTS:
                tally.fail(f"{call.kind} eta={call.eta}: counts are not {self.SHOTS} valid shots")
                continue
            if job.metadata.get("backend") != expected_backend:
                tally.fail(f"{call.kind} ran on {job.metadata.get('backend')!r}")
                continue
            top = decoded.most_common(1)[0][0]
            if top != symbol:
                tally.fail(f"{call.kind} eta={call.eta}: sent {symbol}, decoded {top} most")
                continue
            tally.delivered += decoded[symbol]
            tally.good_bits += 2 * decoded[symbol]
        return tally


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSend, RelayStatic, RelaySLA, DeviceEmulation)
}


def make_workload(name: str, seed: int, seconds: float) -> Workload:
    """Build the named workload's call list from the seed."""
    return WORKLOADS[name](seed, seconds)
