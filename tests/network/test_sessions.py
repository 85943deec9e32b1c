"""Multi-hop session execution: relaying, error accounting, compromised relays."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.attacks.intercept_resend import InterceptResendAttack
from repro.channel.quantum_channel import NoiselessChannel
from repro.exceptions import ConfigurationError, NetworkError
from repro.network.routing import find_route
from repro.network.sessions import (
    STATUS_ABORTED,
    STATUS_DELIVERED,
    SessionParameters,
    SessionRequest,
    run_session,
)
from repro.network.topology import line_topology
from repro.quantum.channels import depolarizing_channel


def _noiseless_line(num_nodes: int):
    return line_topology(num_nodes, channel_factory=lambda length: NoiselessChannel())


def _request(topology, message_length=8, session_id=0):
    names = topology.node_names
    return SessionRequest(
        session_id=session_id,
        source=names[0],
        target=names[-1],
        message_length=message_length,
        arrival_time=0.0,
    )


PARAMS = SessionParameters(identity_pairs=2, check_pairs_per_round=48)


class TestSessionRequest:
    def test_validation(self):
        with pytest.raises(NetworkError):
            SessionRequest(0, "a", "a", 8, 0.0)
        with pytest.raises(NetworkError):
            SessionRequest(0, "a", "b", 0, 0.0)
        with pytest.raises(NetworkError):
            SessionRequest(0, "a", "b", 8, -1.0)

    @pytest.mark.parametrize(
        "message_length, arrival_time",
        [(math.nan, 0.0), (2.5, 0.0), (8, math.nan), (8, math.inf)],
        ids=["length-nan", "length-fractional", "arrival-nan", "arrival-inf"],
    )
    def test_non_integer_length_and_non_finite_arrival_rejected(
        self, message_length, arrival_time
    ):
        # These used to construct and fail inside simulate_network with a
        # bare TypeError or a misleading memory_hold_time error.
        with pytest.raises(NetworkError):
            SessionRequest(0, "a", "b", message_length, arrival_time)

    def test_explicit_message_validation(self):
        with pytest.raises(NetworkError):
            SessionRequest(0, "a", "b", 8, 0.0, message="10x10010")
        with pytest.raises(NetworkError):
            SessionRequest(0, "a", "b", 8, 0.0, message="1011")  # length mismatch
        request = SessionRequest(0, "a", "b", 4, 0.0, message="1011", seed=9)
        assert request.message == "1011" and request.seed == 9


class TestExplicitMessageAndSeed:
    def test_explicit_message_is_delivered(self):
        topology = _noiseless_line(3)
        request = SessionRequest(0, "n0", "n2", 8, 0.0, message="10110010")
        outcome = run_session(
            topology, find_route(topology, "n0", "n2"), request, PARAMS, seed=11
        )
        assert outcome.status == STATUS_DELIVERED
        assert outcome.sent_message == "10110010"
        assert outcome.delivered_message == "10110010"

    def test_explicit_message_keeps_hop_randomness(self):
        """Supplying the random-path message explicitly must not perturb seeds.

        The per-hop RNG derivation consumes parent state in a fixed
        sequence; a request carrying the exact bits the random path would
        have drawn must reproduce the random-path outcome bit for bit.
        """
        topology = _noiseless_line(3)
        route = find_route(topology, "n0", "n2")
        implicit = run_session(
            topology, route, _request(topology), PARAMS, seed=23
        )
        explicit_request = SessionRequest(
            0, "n0", "n2", 8, 0.0, message=implicit.sent_message
        )
        explicit = run_session(topology, route, explicit_request, PARAMS, seed=23)
        assert explicit.summary() == implicit.summary()


class TestSessionParameters:
    def test_check_bits_parity_rule(self):
        params = SessionParameters()
        for length in (4, 8, 9, 16, 33):
            check_bits = params.protocol_config(length, NoiselessChannel(), 0).num_check_bits
            assert (length + check_bits) % 2 == 0
            assert check_bits >= 2

    def test_pairs_per_hop(self):
        params = SessionParameters(identity_pairs=2, check_pairs_per_round=16)
        # n=8 -> c=2 -> N=5; total = 5 + 2*2 + 2*16 = 41
        assert params.pairs_per_hop(8) == 41

    def test_explicit_check_bits_respected(self):
        params = SessionParameters(num_check_bits=4)
        for length, check_bits in ((8, 4), (9, 5)):  # parity adjustment on 9
            config = params.protocol_config(length, NoiselessChannel(), 0)
            assert config.num_check_bits == check_bits
            assert params.pairs_per_hop(length) == config.total_pairs

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(identity_pairs=math.nan),
            dict(identity_pairs=0),
            dict(identity_pairs=1.5),
            dict(check_pairs_per_round=-1),
            dict(check_pairs_per_round=0),
            dict(check_pairs_per_round=2.5),
            dict(check_pairs_per_round=math.inf),
            dict(num_check_bits=-2),
            dict(num_check_bits=math.nan),
            dict(authentication_tolerance=math.nan),
            dict(authentication_tolerance=1.0),
            dict(check_bit_tolerance=-0.1),
        ],
        ids=repr,
    )
    def test_invalid_parameters_fail_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            SessionParameters(**kwargs)

    def test_numpy_integer_pair_counts_pass(self):
        params = SessionParameters(identity_pairs=np.int64(2), check_pairs_per_round=np.int64(16))
        assert params.pairs_per_hop(8) == 41


class TestSingleHop:
    def test_delivers_exact_message(self):
        topology = _noiseless_line(2)
        route = find_route(topology, "n0", "n1")
        outcome = run_session(topology, route, _request(topology), PARAMS, seed=101)
        assert outcome.status == STATUS_DELIVERED
        assert outcome.delivered
        assert outcome.end_to_end_error_rate == 0.0
        assert outcome.delivered_message == outcome.sent_message
        assert len(outcome.hop_reports) == 1
        assert outcome.hop_reports[0].success

    def test_deterministic_for_seed(self):
        topology = _noiseless_line(2)
        route = find_route(topology, "n0", "n1")
        first = run_session(topology, route, _request(topology), PARAMS, seed=7)
        second = run_session(topology, route, _request(topology), PARAMS, seed=7)
        assert first.summary() == second.summary()
        third = run_session(topology, route, _request(topology), PARAMS, seed=8)
        assert third.sent_message != first.sent_message  # message derives from seed

    def test_route_must_match_request(self):
        topology = _noiseless_line(3)
        route = find_route(topology, "n0", "n1")
        with pytest.raises(NetworkError):
            run_session(topology, route, _request(topology), PARAMS, seed=1)


class TestTrustedRelay:
    def test_two_hop_relay_delivers(self):
        topology = _noiseless_line(3)
        route = find_route(topology, "n0", "n2")
        outcome = run_session(topology, route, _request(topology), PARAMS, seed=21)
        assert outcome.status == STATUS_DELIVERED
        assert [r.sender for r in outcome.hop_reports] == ["n0", "n1"]
        assert [r.receiver for r in outcome.hop_reports] == ["n1", "n2"]

    def test_sender_memory_and_first_hop_hold_reach_hop_configs(self, monkeypatch):
        """Each hop runs with its sender's memory model; only hop 0 holds."""
        topology = _noiseless_line(3)
        models = {"n0": depolarizing_channel(0.01), "n1": depolarizing_channel(0.02)}
        for name, model in models.items():
            topology.node(name).memory_decoherence = model
        calls = []
        protocol_config = SessionParameters.protocol_config

        def recording_protocol_config(self, *args, **kwargs):
            config = protocol_config(self, *args, **kwargs)
            calls.append((config.memory_decoherence, config.memory_hold_time))
            return config

        monkeypatch.setattr(SessionParameters, "protocol_config", recording_protocol_config)
        route = find_route(topology, "n0", "n2")
        outcome = run_session(
            topology, route, _request(topology), PARAMS, seed=21, hold_time=3.0
        )
        assert outcome.status == STATUS_DELIVERED
        assert calls == [(models["n0"], 3.0), (models["n1"], 0.0)]

    def test_abort_stops_at_failed_hop(self):
        # A relay mounting a full intercept-resend attack breaks the CHSH
        # correlations of the pairs it forwards; the session must stop at
        # that hop and never execute the next one.
        topology = _noiseless_line(4)
        topology.compromise("n2", lambda rng: InterceptResendAttack(rng=rng))
        route = find_route(topology, "n0", "n3")
        outcome = run_session(topology, route, _request(topology), PARAMS, seed=3)
        assert outcome.status == STATUS_ABORTED
        assert outcome.failed_hop is not None
        # hop 1 (n1->n2) is the first hop touching the compromised relay
        assert outcome.failed_hop == 1
        assert len(outcome.hop_reports) == outcome.failed_hop + 1
        assert outcome.delivered_message is None


class TestCompromisedRelayDetection:
    def test_intercept_resend_relay_is_detected(self):
        """The headline security property: a malicious relay cannot hide.

        Intercept-resend destroys entanglement, so the DI security check of
        every hop adjacent to the compromised relay should fire with
        overwhelming probability (the paper's §III-B analysis); across many
        seeded sessions the detection rate must be near one.
        """
        topology = _noiseless_line(3)
        topology.compromise("n1", lambda rng: InterceptResendAttack(rng=rng))
        route = find_route(topology, "n0", "n2")
        trials = 12
        detected = 0
        for seed in range(trials):
            outcome = run_session(
                topology, route, _request(topology), PARAMS, seed=500 + seed
            )
            if outcome.status == STATUS_ABORTED:
                detected += 1
                assert outcome.hop_reports[outcome.failed_hop].attack is not None
        assert detected >= trials - 1

    def test_honest_network_mostly_delivers(self):
        topology = _noiseless_line(3)
        route = find_route(topology, "n0", "n2")
        delivered = sum(
            run_session(topology, route, _request(topology), PARAMS, seed=900 + s).delivered
            for s in range(8)
        )
        assert delivered >= 6
