"""Bad inputs to the session configs raise ``repro`` errors, never bare ones.

Every public constructor that fixes a protocol session — ``ProtocolConfig``,
``ServiceConfig`` (and ``MessagingService.send``'s seed), ``NetworkScheduler``
and ``SessionRequest`` — either succeeds or raises a
:class:`~repro.exceptions.ReproError`: ``ConfigurationError`` from the
configs, ``NetworkError`` from the scheduler and the request.  So do the
noise channels of :mod:`repro.quantum.channels` (``NoiseModelError``, or
``DimensionError`` for a shape error), the traffic generators and QoS policy
of the scheduler (``NetworkError``) and ``fragment_payload`` (``ReproError``),
and ``NoisyBackend`` with its run entries (``DeviceError``, or a
``SimulationError`` for shots and ineligible forced backends).
Each explicit case below used to escape as a bare ``TypeError``/
``ValueError``/``AttributeError`` or to be accepted (a fractional seed was
truncated, ``max_workers=0`` meant the default, a fractional qubit count built
a one-qubit channel); the derandomized Hypothesis suite then builds each
constructor from mixed valid and invalid values and runs one tiny session, or
applies the channel, generates the traffic, frames the payload or runs the
backend once.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import numpy as np

from repro.api import MessagingService, ServiceConfig
from repro.api.fragmentation import fragment_payload
from repro.channel.quantum_channel import DepolarizingChannel, NoiselessChannel
from repro.device import DeviceModel, NoisyBackend
from repro.exceptions import (
    ConfigurationError,
    DeviceError,
    DimensionError,
    NetworkError,
    NoiseModelError,
    ReproError,
)
from repro.network import NetworkScheduler, SessionRequest, line_topology
from repro.network.scheduler import PoissonTraffic, QoSPolicy, TraceTraffic
from repro.protocol import (
    CHSHSettings,
    EntanglementSource,
    Identity,
    ProtocolConfig,
    SessionParameters,
    UADIQSDCProtocol,
)
from repro.quantum import channels
from repro.quantum.batch import PropagatorCache
from repro.quantum.channels import KrausChannel, depolarizing_channel, phase_damping_channel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix
from repro.quantum.dispatch import BACKEND_CHOICES

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

BAD_SEEDS = ["x", math.nan, 1.5, -1]
BAD_WORKERS = [-1, 0, 1.5, "x"]


def _noiseless_line():
    return line_topology(3, channel_factory=lambda length: NoiselessChannel())


def _tiny_service_config(**changes) -> ServiceConfig:
    config = (
        ServiceConfig.ideal(seed=1)
        .with_session(identity_pairs=1, check_pairs_per_round=8)
        .with_fragment_bits(8)
        .with_retries(0)
        .with_executor("serial")
    )
    return replace(config, **changes)


class TestServiceConfig:
    def test_fractional_fragment_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="fragment_bits"):
            MessagingService(_tiny_service_config(fragment_bits=2.5))

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_bad_config_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            MessagingService(_tiny_service_config(seed=seed))

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_bad_send_seed_rejected(self, seed):
        service = MessagingService(_tiny_service_config())
        with pytest.raises(ConfigurationError, match="seed"):
            service.send(b"x", seed=seed)

    @pytest.mark.parametrize("max_workers", BAD_WORKERS, ids=repr)
    def test_bad_worker_count_rejected(self, max_workers):
        config = _tiny_service_config(executor="thread", max_workers=max_workers)
        with pytest.raises(ConfigurationError, match="max_workers"):
            MessagingService(config)

    @pytest.mark.parametrize(
        "name", ["channel", "distribution_channel", "memory_decoherence", "alice_identity"]
    )
    def test_wrong_type_single_link_field_rejected(self, name):
        with pytest.raises(ConfigurationError, match=name):
            MessagingService(_tiny_service_config(**{name: "not an object"}))

    def test_wrong_type_session_rejected(self):
        with pytest.raises(ConfigurationError, match="session"):
            MessagingService(_tiny_service_config(session={"identity_pairs": 2}))


class TestProtocolConfig:
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            UADIQSDCProtocol(ProtocolConfig.default(8, seed=seed))

    @pytest.mark.parametrize(
        "name",
        [
            "channel",
            "distribution_channel",
            "source",
            "chsh_settings",
            "memory_decoherence",
            "alice_identity",
            "bob_identity",
        ],
    )
    @pytest.mark.parametrize("value", ["x", 3], ids=repr)
    def test_wrong_type_object_field_rejected(self, name, value):
        config = ProtocolConfig.default(8, seed=1)
        setattr(config, name, value)
        with pytest.raises(ConfigurationError, match=name):
            UADIQSDCProtocol(config)

    @pytest.mark.parametrize("name", ["channel", "source", "chsh_settings"])
    def test_required_object_field_rejects_none(self, name):
        config = ProtocolConfig.default(8, seed=1)
        setattr(config, name, None)
        with pytest.raises(ConfigurationError, match=name):
            UADIQSDCProtocol(config)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("authentication_tolerance", "x"),
            ("check_bit_tolerance", None),
            ("memory_hold_time", "1"),
        ],
    )
    def test_non_numeric_fractions_rejected(self, name, value):
        config = ProtocolConfig.default(8, seed=1)
        setattr(config, name, value)
        with pytest.raises(ConfigurationError, match=name):
            UADIQSDCProtocol(config)


class TestNetwork:
    @pytest.mark.parametrize("seed", BAD_SEEDS + [None], ids=repr)
    def test_bad_scheduler_seed_rejected(self, seed):
        with pytest.raises(NetworkError, match="seed"):
            NetworkScheduler(_noiseless_line(), seed=seed)

    @pytest.mark.parametrize("max_workers", BAD_WORKERS, ids=repr)
    def test_bad_scheduler_worker_count_rejected(self, max_workers):
        with pytest.raises(NetworkError, match="max_workers"):
            NetworkScheduler(_noiseless_line(), executor="thread", max_workers=max_workers)

    def test_wrong_type_session_params_rejected(self):
        with pytest.raises(NetworkError, match="session_params"):
            NetworkScheduler(_noiseless_line(), session_params={"identity_pairs": 2})

    @pytest.mark.parametrize(
        "name, value",
        [("hop_overhead", "x"), ("hold_time_unit", None), ("max_wait", "1")],
    )
    def test_non_numeric_durations_rejected(self, name, value):
        with pytest.raises(NetworkError, match=name):
            NetworkScheduler(_noiseless_line(), **{name: value})

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_bad_request_seed_rejected(self, seed):
        with pytest.raises(NetworkError, match="seed"):
            SessionRequest(0, "n0", "n2", 8, 0.0, seed=seed)

    @pytest.mark.parametrize(
        "changes",
        [{"arrival_time": "0"}, {"arrival_time": None}, {"message": 5}],
        ids=repr,
    )
    def test_non_numeric_request_fields_rejected(self, changes):
        fields = dict(
            session_id=0, source="n0", target="n2", message_length=1, arrival_time=0.0
        )
        with pytest.raises(NetworkError):
            SessionRequest(**{**fields, **changes})


class TestChannelConstructors:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: KrausChannel(["a"]),
            lambda: KrausChannel([[["a", "b"], ["c", "d"]]]),
            lambda: channels.depolarizing_channel("x"),
            lambda: channels.depolarizing_channel(0.1, num_qubits=1.5),
            lambda: channels.depolarizing_channel(0.1, num_qubits="x"),
            lambda: channels.identity_channel(1.5),
            lambda: channels.thermal_relaxation_channel(1e-4, 1e-4, 1e-6, "x"),
            lambda: channels.thermal_relaxation_channel("x", 1e-4, 1e-6),
            lambda: channels.thermal_relaxation_channel(1e-4, None, 1e-6),
            lambda: channels.thermal_relaxation_channel(1e-4, 1e-4, "x"),
        ],
        ids=[
            "kraus-string",
            "kraus-string-matrix",
            "depolarizing-string",
            "depolarizing-fractional-qubits",
            "depolarizing-string-qubits",
            "identity-fractional-qubits",
            "thermal-string-population",
            "thermal-string-t1",
            "thermal-none-t2",
            "thermal-string-time",
        ],
    )
    def test_non_numbers_raise_noise_model_error(self, build):
        with pytest.raises(NoiseModelError):
            build()

    @pytest.mark.parametrize(
        "operators",
        [[np.eye(2), np.eye(4)], [np.ones(2)], np.zeros((1, 3, 3)), 5, np.zeros((1, 0, 0))],
        ids=["ragged", "vectors", "dimension-3", "scalar", "dimension-0"],
    )
    def test_shape_errors_raise_dimension_error(self, operators):
        with pytest.raises(DimensionError):
            KrausChannel(operators)

    def test_an_operator_array_is_accepted(self):
        operators = np.array(depolarizing_channel(0.2).kraus_operators)
        assert KrausChannel(operators).num_qubits == 1
        with pytest.raises(NoiseModelError, match="at least one"):
            KrausChannel(operators[:0])


class TestTrafficAndFragments:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: PoissonTraffic(4, rate="x"),
            lambda: PoissonTraffic(4, rate=None),
            lambda: PoissonTraffic(4, priority_mix={"a": "x"}),
            lambda: PoissonTraffic(4, priority_mix={"a": None}),
            lambda: TraceTraffic([("x", "a", "b", 1)]),
            lambda: TraceTraffic([(None, "a", "b", 1)]),
            lambda: QoSPolicy({"control": "x"}),
            lambda: QoSPolicy({"control": None}),
        ],
        ids=[
            "rate-string",
            "rate-none",
            "weight-string",
            "weight-none",
            "trace-time-string",
            "trace-time-none",
            "qos-weight-string",
            "qos-weight-none",
        ],
    )
    def test_non_numbers_raise_network_error(self, build):
        with pytest.raises(NetworkError):
            build()

    @pytest.mark.parametrize("fragment_bits", [1.5, "x", None, 0, 2**16])
    def test_bad_fragment_bits_raise_repro_error(self, fragment_bits):
        with pytest.raises(ReproError, match="fragment_bits"):
            fragment_payload((1, 0, 1), fragment_bits)


def _bell() -> QuantumCircuit:
    return QuantumCircuit(2, name="bell").h(0).cx(0, 1).measure_all()


class TestNoisyBackend:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DeviceError, match="seed"):
            NoisyBackend(DeviceModel.ideal(2), seed=seed)

    def test_a_generator_is_still_a_seed(self):
        runs = [
            NoisyBackend(DeviceModel.ideal(2), seed=seed).run(_bell(), shots=64)
            for seed in (np.random.default_rng(5), 5)
        ]
        assert dict(runs[0]) == dict(runs[1])

    @pytest.mark.parametrize("device", ["x", 3, DeviceModel.ideal])
    def test_wrong_type_device_rejected(self, device):
        with pytest.raises(DeviceError, match="device"):
            NoisyBackend(device, seed=1)

    def test_wrong_type_cache_rejected(self):
        with pytest.raises(DeviceError, match="cache"):
            NoisyBackend(DeviceModel.ideal(2), seed=1, cache="x")

    @pytest.mark.parametrize(
        "call",
        [
            lambda backend: backend.run("x"),
            lambda backend: backend.run_batch([_bell(), 3]),
            lambda backend: backend.run_batch(None),
            lambda backend: backend.run_result("x"),
            lambda backend: backend.final_density_matrix(None),
            lambda backend: backend.circuit_duration(3),
        ],
        ids=[
            "run", "run_batch", "run_batch_none", "run_result", "final_density_matrix",
            "circuit_duration",
        ],
    )
    def test_non_circuits_rejected_before_any_job(self, call):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=1)
        with pytest.raises(DeviceError, match="circuit"):
            call(backend)
        assert backend.jobs == []


# -- fuzzing ------------------------------------------------------------------------
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Invalid values of every kind: wrong type, non-finite, negative, fractional,
#: and a two-qubit channel where one qubit is expected.
BAD = st.sampled_from(
    [None, "x", math.nan, math.inf, -math.inf, -1, 0, 0.5, 1.5, (1,),
     depolarizing_channel(0.1, num_qubits=2)]
)


def _mixed(valid: dict) -> st.SearchStrategy:
    """Keyword arguments drawn from *valid*, with up to two replaced by bad values."""
    names = sorted(valid)
    return st.tuples(
        st.fixed_dictionaries(valid), st.dictionaries(st.sampled_from(names), BAD, max_size=2)
    ).map(lambda drawn: {**drawn[0], **drawn[1]})


#: The five tunables; a valid draw keeps a session within 2·3 + 2·24 pairs plus
#: its message.
TUNABLES = {
    "identity_pairs": st.integers(1, 3),
    "check_pairs_per_round": st.integers(1, 24),
    "num_check_bits": st.one_of(st.none(), st.integers(0, 6)),
    "authentication_tolerance": st.floats(0.0, 0.99),
    "check_bit_tolerance": st.floats(0.0, 0.99),
}
SEEDS = st.one_of(st.none(), st.integers(0, 2**64))
CHANNELS = st.sampled_from([NoiselessChannel(), DepolarizingChannel(0.05)])
MEMORIES = st.sampled_from([None, phase_damping_channel(0.1)])
#: None, or an identity whose length may not match the drawn identity_pairs.
IDENTITIES = st.one_of(
    st.none(),
    st.sampled_from([Identity.random(pairs, owner="alice", rng=pairs) for pairs in (1, 2, 3)]),
)


def _runs_or_raises_repro_error(action) -> None:
    try:
        action()
    except ReproError:
        pass


class _Requests:
    """A traffic generator that replays a fixed request list."""

    def __init__(self, requests):
        self.requests = requests

    def generate(self, topology, rng=None):
        return list(self.requests)


class TestFuzz:
    @FUZZ
    @given(
        kwargs=_mixed(
            {
                **TUNABLES,
                # Even n and c, so that n + c is even unless a bad value lands.
                "message_length": st.integers(1, 6).map(lambda half: 2 * half),
                "num_check_bits": st.integers(0, 2).map(lambda half: 2 * half),
                "seed": SEEDS,
                "channel": CHANNELS,
                "distribution_channel": st.one_of(st.none(), CHANNELS),
                "source": st.just(EntanglementSource()),
                "chsh_settings": st.just(CHSHSettings()),
                "memory_decoherence": MEMORIES,
                "memory_hold_time": st.floats(0.0, 3.0),
                "alice_identity": IDENTITIES,
                "raise_on_abort": st.booleans(),
            }
        )
    )
    def test_protocol_config(self, kwargs):
        def session():
            protocol = UADIQSDCProtocol(ProtocolConfig(**kwargs))
            protocol.run("0" * protocol.config.message_length)

        _runs_or_raises_repro_error(session)

    @FUZZ
    @given(
        tunables=_mixed(TUNABLES),
        kwargs=_mixed(
            {
                "backend": st.sampled_from(["local", "batch", "network"]),
                "fragment_bits": st.integers(1, 16),
                "max_retries": st.integers(0, 1),
                "seed": SEEDS,
                "executor": st.sampled_from(["serial", "thread"]),
                "max_workers": st.one_of(st.none(), st.integers(1, 2)),
                "channel": CHANNELS,
                "memory_decoherence": MEMORIES,
                "memory_hold_time": st.floats(0.0, 3.0),
                "max_wait": st.one_of(st.none(), st.floats(0.0, 10.0)),
                "routing_policy": st.sampled_from(["hops", "loss"]),
            }
        ),
        send_seed=st.one_of(SEEDS, BAD),
    )
    def test_service_config_and_send(self, tunables, kwargs, send_seed):
        def send():
            config = ServiceConfig(
                session=SessionParameters(**tunables), topology=_noiseless_line(), **kwargs
            )
            MessagingService(config).send("1", kind="bits", seed=send_seed)

        _runs_or_raises_repro_error(send)

    @FUZZ
    @given(
        tunables=st.one_of(st.none(), _mixed(TUNABLES)),
        request=_mixed(
            {
                "message_length": st.integers(1, 8),
                "arrival_time": st.floats(0.0, 1.0),
                "message": st.sampled_from([None, "1", "10", "2"]),
                "seed": SEEDS,
                "priority": st.sampled_from(["bulk", "control"]),
            }
        ),
        kwargs=_mixed(
            {
                "seed": st.integers(0, 2**64),
                "executor": st.sampled_from(["serial", "thread"]),
                "max_workers": st.one_of(st.none(), st.integers(1, 2)),
                "routing_policy": st.sampled_from(["hops", "loss"]),
                "hop_overhead": st.floats(0.0, 1.0),
                "hold_time_unit": st.floats(1e-6, 1.0),
                "max_wait": st.one_of(st.none(), st.floats(0.0, 10.0)),
            }
        ),
    )
    def test_scheduler_and_request(self, tunables, request, kwargs):
        def run():
            session = SessionRequest(session_id=0, source="n0", target="n2", **request)
            params = None if tunables is None else SessionParameters(**tunables)
            scheduler = NetworkScheduler(_noiseless_line(), session_params=params, **kwargs)
            scheduler.run(_Requests([session]))

        _runs_or_raises_repro_error(run)


#: Each channel factory with strategies for its valid arguments.
PROBABILITY = st.floats(0.0, 1.0)
CHANNEL_FACTORIES = {
    "kraus": (
        KrausChannel,
        {
            "kraus_operators": st.sampled_from(
                [
                    depolarizing_channel(0.2).kraus_operators,
                    np.array(phase_damping_channel(0.3).kraus_operators),
                    [np.eye(4)],
                ]
            ),
            "validate": st.booleans(),
        },
    ),
    "identity": (channels.identity_channel, {"num_qubits": st.integers(1, 2)}),
    "depolarizing": (
        channels.depolarizing_channel,
        {"probability": PROBABILITY, "num_qubits": st.integers(1, 2)},
    ),
    "bit_flip": (channels.bit_flip_channel, {"probability": PROBABILITY}),
    "phase_flip": (channels.phase_flip_channel, {"probability": PROBABILITY}),
    "bit_phase_flip": (channels.bit_phase_flip_channel, {"probability": PROBABILITY}),
    "pauli": (
        channels.pauli_channel,
        {"p_x": st.floats(0.0, 0.3), "p_y": st.floats(0.0, 0.3), "p_z": st.floats(0.0, 0.3)},
    ),
    "amplitude_damping": (channels.amplitude_damping_channel, {"gamma": PROBABILITY}),
    "phase_damping": (channels.phase_damping_channel, {"lambda_pd": PROBABILITY}),
    "thermal_relaxation": (
        channels.thermal_relaxation_channel,
        {
            "t1": st.floats(1e-6, 1e-3),
            "t2": st.floats(1e-6, 1e-3),
            "gate_time": st.floats(0.0, 1e-5),
            "excited_state_population": PROBABILITY,
        },
    ),
}


class TestConstructorFuzz:
    @FUZZ
    @given(
        drawn=st.sampled_from(sorted(CHANNEL_FACTORIES)).flatmap(
            lambda name: st.tuples(st.just(name), _mixed(CHANNEL_FACTORIES[name][1]))
        )
    )
    def test_channels(self, drawn):
        name, kwargs = drawn

        def build_and_apply():
            channel = CHANNEL_FACTORIES[name][0](**kwargs)
            channel.apply(DensityMatrix.maximally_mixed(channel.num_qubits))
            wider = DensityMatrix.maximally_mixed(channel.num_qubits + 1)
            channel.compose(channel).apply(wider, range(1, channel.num_qubits + 1))

        _runs_or_raises_repro_error(build_and_apply)

    @FUZZ
    @given(
        poisson=_mixed(
            {
                "num_sessions": st.integers(1, 4),
                "rate": st.floats(0.1, 100.0),
                "message_length": st.integers(1, 8),
                "priority_mix": st.sampled_from([None, {"bulk": 1.0, "control": 2.0}]),
            }
        ),
        entry=_mixed(
            {
                "time": st.floats(0.0, 1.0),
                "source": st.just("n0"),
                "target": st.just("n2"),
                "length": st.integers(1, 8),
            }
        ),
        weight=st.one_of(st.floats(0.1, 4.0), BAD),
        fragment=_mixed({"fragment_bits": st.integers(1, 8)}),
    )
    def test_traffic_and_fragments(self, poisson, entry, weight, fragment):
        topology = _noiseless_line()
        entry = tuple(entry[field] for field in ("time", "source", "target", "length"))
        _runs_or_raises_repro_error(lambda: PoissonTraffic(**poisson).generate(topology, rng=1))
        _runs_or_raises_repro_error(lambda: TraceTraffic([entry]).generate(topology))
        _runs_or_raises_repro_error(lambda: QoSPolicy({"control": weight}).selector())
        _runs_or_raises_repro_error(lambda: fragment_payload((1, 0, 1), **fragment))


#: Circuits for the backend fuzz: coupled, uncoupled on ``ibm_brisbane``,
#: non-Clifford, mid-circuit measured, and wider than the ideal device.
BACKEND_CIRCUITS = [
    _bell(),
    QuantumCircuit(6, name="uncoupled").cx(0, 5).measure_all(),
    QuantumCircuit(2, name="rotated").h(0).rx(0.3, 1).cx(0, 1).measure_all(),
    QuantumCircuit(2, num_clbits=3, name="mid").h(0).measure([0], [2]).cx(0, 1).measure_all(),
    QuantumCircuit(3, name="wide").h(0).measure_all(),
]


class TestBackendFuzz:
    @FUZZ
    @given(
        kwargs=_mixed(
            {
                "device": st.sampled_from(
                    [None, DeviceModel.ideal(2), DeviceModel.ibm_brisbane(False)]
                ),
                "seed": st.one_of(SEEDS, st.integers(0, 9).map(np.random.default_rng)),
                "simulator_backend": st.sampled_from(BACKEND_CHOICES),
                "cache": st.sampled_from([None, PropagatorCache()]),
            }
        ),
        # Three valid draws to one bad value.
        circuits=st.lists(
            st.one_of(*[st.sampled_from(BACKEND_CIRCUITS)] * 3, BAD), min_size=1, max_size=3
        ),
        shots=st.one_of(st.integers(0, 64), BAD),
        entry=st.sampled_from(["run", "run_batch", "run_result", "circuit_duration"]),
    )
    def test_backend_and_one_run(self, kwargs, circuits, shots, entry):
        def run():
            backend = NoisyBackend(**kwargs)
            if entry == "run_batch":
                backend.run_batch(circuits, shots=shots)
                return
            if entry == "circuit_duration":
                backend.circuit_duration(circuits[0])
            else:
                getattr(backend, entry)(circuits[0], shots=shots)

        _runs_or_raises_repro_error(run)
