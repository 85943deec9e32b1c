"""Unit tests for the quantum and classical channels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channel.classical_channel import Announcement, ClassicalChannel
from repro.channel.quantum_channel import (
    FiberLossChannel,
    IdentityChainChannel,
    NoiselessChannel,
)
from repro.exceptions import ChannelError
from repro.quantum.bell import BellState, bell_state, chsh_value
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix
from repro.quantum.states import Statevector


class TestNoiselessChannel:
    def test_preserves_state(self):
        state = bell_state(BellState.PHI_PLUS).density_matrix()
        after = NoiselessChannel().transmit(state, 0)
        assert after.fidelity(state) == pytest.approx(1.0)

    def test_survival_probability(self):
        assert NoiselessChannel().survival_probability() == 1.0


class TestIdentityChainChannel:
    def test_paper_parameters_are_defaults(self):
        channel = IdentityChainChannel(eta=10)
        assert channel.gate_error == pytest.approx(2.41e-4)
        assert channel.gate_duration == pytest.approx(60e-9)
        assert channel.duration() == pytest.approx(0.6e-6)

    def test_survival_probability_formula(self):
        channel = IdentityChainChannel(eta=100, gate_error=1e-3)
        assert channel.survival_probability() == pytest.approx((1 - 1e-3) ** 100)

    def test_extend_circuit_appends_eta_identities(self):
        qc = QuantumCircuit(2)
        IdentityChainChannel(eta=7).extend_circuit(qc, 1)
        assert qc.count_ops() == {"id": 7}
        assert all(instr.qubits == (1,) for instr in qc.instructions)

    def test_zero_eta_is_identity(self):
        state = bell_state(BellState.PHI_PLUS).density_matrix()
        channel = IdentityChainChannel(eta=0)
        assert channel.transmit(state, 0).fidelity(state) == pytest.approx(1.0)

    def test_longer_channel_degrades_fidelity_monotonically(self):
        ideal = bell_state(BellState.PHI_PLUS)
        fidelities = []
        for eta in (10, 100, 400, 700):
            channel = IdentityChainChannel(eta=eta)
            after = channel.transmit(ideal.density_matrix(), 0)
            fidelities.append(after.fidelity(ideal))
        assert all(a > b for a, b in zip(fidelities, fidelities[1:]))

    def test_longer_channel_degrades_chsh(self):
        ideal = bell_state(BellState.PHI_PLUS).density_matrix()
        short = IdentityChainChannel(eta=10).transmit(ideal, 0)
        long = IdentityChainChannel(eta=700).transmit(ideal, 0)
        assert chsh_value(long) < chsh_value(short) <= 2 * math.sqrt(2)

    def test_with_eta_copy(self):
        base = IdentityChainChannel(eta=10, gate_error=1e-3)
        longer = base.with_eta(500)
        assert longer.eta == 500
        assert longer.gate_error == pytest.approx(1e-3)
        assert base.eta == 10

    def test_thermal_relaxation_toggle_changes_noise(self):
        ideal = bell_state(BellState.PHI_PLUS)
        with_relax = IdentityChainChannel(eta=700, include_thermal_relaxation=True)
        without_relax = IdentityChainChannel(eta=700, include_thermal_relaxation=False)
        f_with = with_relax.transmit(ideal.density_matrix(), 0).fidelity(ideal)
        f_without = without_relax.transmit(ideal.density_matrix(), 0).fidelity(ideal)
        assert f_with < f_without

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ChannelError):
            IdentityChainChannel(eta=-1)
        with pytest.raises(ChannelError):
            IdentityChainChannel(eta=1, gate_error=2.0)
        with pytest.raises(ChannelError):
            IdentityChainChannel(eta=1, gate_duration=-1e-9)
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            {"eta": nan},
            {"eta": 2.5},
            {"eta": inf},
            {"eta": "10"},
            {"gate_duration": nan},
            {"gate_duration": inf},
            {"t1": 0.0},
            {"t1": nan},
            {"t1": inf},
            {"t2": -1e-6},
            {"t2": nan},
            {"t2": inf},
        ):
            with pytest.raises(ChannelError):
                IdentityChainChannel(**kwargs)

    def test_integer_eta_of_any_integer_type_passes(self):
        assert IdentityChainChannel(eta=np.int64(12)).name == "identity_chain(eta=12)"
        assert IdentityChainChannel(eta=0).duration() == 0.0


class TestFiberLossChannel:
    def test_transmission_probability(self):
        channel = FiberLossChannel(length_km=50, attenuation_db_per_km=0.2)
        assert channel.transmission_probability() == pytest.approx(10 ** (-1.0))

    def test_zero_length_is_lossless(self):
        channel = FiberLossChannel(length_km=0)
        state = DensityMatrix(Statevector.from_label("+"))
        assert channel.transmit(state, 0).fidelity(state) == pytest.approx(1.0)

    def test_longer_fiber_lower_fidelity(self):
        state = bell_state(BellState.PHI_PLUS)
        short = FiberLossChannel(length_km=5).transmit(state.density_matrix(), 0)
        long = FiberLossChannel(length_km=100).transmit(state.density_matrix(), 0)
        assert long.fidelity(state) < short.fidelity(state)

    def test_duration_is_propagation_delay(self):
        channel = FiberLossChannel(length_km=200, speed_km_per_s=2e5)
        assert channel.duration() == pytest.approx(1e-3)

    def test_dephasing_parameter(self):
        channel = FiberLossChannel(length_km=10, attenuation_db_per_km=0.0, dephasing_per_km=0.05)
        state = DensityMatrix(Statevector.from_label("+"))
        after = channel.transmit(state, 0)
        assert after.fidelity(state) < 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ChannelError):
            FiberLossChannel(length_km=-1)
        with pytest.raises(ChannelError):
            FiberLossChannel(length_km=1, dephasing_per_km=2.0)
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            {"length_km": nan},
            {"length_km": inf},
            {"attenuation_db_per_km": -0.1},
            {"attenuation_db_per_km": nan},
            {"attenuation_db_per_km": inf},
            {"dephasing_per_km": nan},
            {"speed_km_per_s": nan},
            {"speed_km_per_s": inf},
            {"speed_km_per_s": 0.0},
            {"speed_km_per_s": -2.0e5},
        ):
            with pytest.raises(ChannelError):
                FiberLossChannel(**kwargs)


class TestClassicalChannel:
    def test_taps_see_every_field(self):
        channel = ClassicalChannel()
        seen = []
        channel.add_tap(seen.append)
        channel.send("alice", "bob", "check_positions", [1, 5, 9])
        channel.broadcast("bob", "bsm_results", ["phi_plus"])
        assert seen == [
            Announcement("alice", "bob", "check_positions", [1, 5, 9], 0),
            Announcement("bob", "broadcast", "bsm_results", ["phi_plus"], 1),
        ]

    def test_sequence_numbers_count_every_send(self):
        channel = ClassicalChannel()
        channel.send("alice", "bob", "a", 1)  # nobody listens yet
        seen = []
        channel.add_tap(seen.append)
        channel.send("bob", "alice", "b", 2)
        channel.send("alice", "bob", "c", 3)
        assert [announcement.sequence for announcement in seen] == [1, 2]

    def test_announcements_are_built_only_for_taps(self, monkeypatch):
        import repro.channel.classical_channel as classical

        built = []

        def recording_announcement(*args):
            built.append(args)
            return Announcement(*args)

        monkeypatch.setattr(classical, "Announcement", recording_announcement)
        channel = ClassicalChannel()
        channel.send("alice", "bob", "bases", [0])
        assert built == []
        channel.add_tap(lambda announcement: None)
        channel.send("alice", "bob", "bases", [1])
        assert built == [("alice", "bob", "bases", [1], 1)]

    def test_empty_topic_rejected(self):
        with pytest.raises(ChannelError):
            ClassicalChannel().send("alice", "bob", "", None)

    def test_taps_receive_copies_of_announcements(self):
        channel = ClassicalChannel()
        seen = []
        channel.add_tap(seen.append)
        channel.send("alice", "bob", "bases", [0, 1, 2])
        assert len(seen) == 1
        assert seen[0].topic == "bases"

    def test_remove_tap(self):
        channel = ClassicalChannel()
        seen = []
        channel.add_tap(seen.append)
        channel.remove_tap(seen.append)
        channel.send("alice", "bob", "bases", [])
        assert seen == []

    def test_remove_unregistered_tap_raises(self):
        with pytest.raises(ChannelError):
            ClassicalChannel().remove_tap(print)

    def test_add_non_callable_tap_raises(self):
        with pytest.raises(ChannelError):
            ClassicalChannel().add_tap("not callable")
