"""Per-object channel maps, memoised Kraus embeddings and memoised session maps.

Every cached path is held byte for byte to its uncached reference:
``state.apply_kraus(channel.single_use_channel().kraus_operators, [qubit])``
for transmits, ``state.evolve(pauli_operator(label), [qubit])`` for the
parties' Pauli plans and repeated ``decoherence.apply`` for the memory hold.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.channel.quantum_channel import (
    DepolarizingChannel,
    FiberLossChannel,
    IdentityChainChannel,
    NoiselessChannel,
)
from repro.exceptions import DimensionError
from repro.network.dynamics import evolve_channel
from repro.protocol.config import ProtocolConfig
from repro.protocol.encoding import pauli_operator
from repro.protocol.parties import ALICE_QUBIT, BOB_QUBIT, Alice, Bob
from repro.protocol.runner import UADIQSDCProtocol
from repro.protocol.transcript import ProtocolTranscript
from repro.quantum import density
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import (
    amplitude_damping_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
)
from repro.quantum.density import DensityMatrix, PairTable
from repro.quantum.operators import embedded_operator


def _random_mixed(num_qubits: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def _pair_states() -> list[DensityMatrix]:
    return [bell_state(bell).density_matrix() for bell in BellState] + [
        _random_mixed(2, seed=5)
    ]


def _channels() -> dict[str, object]:
    return {
        "noiseless": NoiselessChannel(),
        "depolarizing": DepolarizingChannel(probability=0.07),
        "chain-thermal": IdentityChainChannel(eta=10),
        "chain-depolarizing": IdentityChainChannel(
            eta=40, include_thermal_relaxation=False
        ),
        "fiber-dephasing": FiberLossChannel(length_km=3.0, dephasing_per_km=0.02),
        "with-eta": IdentityChainChannel(eta=10, gate_error=1e-3).with_eta(70),
        "drifted": evolve_channel(
            IdentityChainChannel(eta=25), error_scale=3.0, t1_scale=0.5, t2_scale=0.4
        ),
    }


def _reference(channel, state: DensityMatrix, qubit: int) -> bytes:
    kraus = channel.single_use_channel().kraus_operators
    return state.apply_kraus(kraus, [qubit]).matrix.tobytes()


@pytest.fixture
def empty_memo():
    density._STATISTICS.clear()
    yield density._STATISTICS
    density._STATISTICS.clear()


class TestTransmitBitIdentity:
    @pytest.mark.parametrize("name", list(_channels()))
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_first_and_repeat_call_match_apply_kraus(self, empty_memo, name, qubit):
        channel = _channels()[name]
        for state in _pair_states():
            expected = _reference(channel, state, qubit)
            first = channel.transmit(state, qubit)
            repeat = channel.transmit(DensityMatrix(state), qubit)
            assert first.matrix.tobytes() == expected
            assert repeat.matrix.tobytes() == expected

    @pytest.mark.parametrize("name", list(_channels()))
    def test_transmit_batch_matches_apply_kraus(self, empty_memo, name):
        channel = _channels()[name]
        states = _pair_states() * 2
        outputs = channel.transmit_batch(states, 0)
        assert [out.matrix.tobytes() for out in outputs] == [
            _reference(channel, state, 0) for state in states
        ]

    @pytest.mark.parametrize("name", list(_channels()))
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_transmit_is_the_one_state_batch(self, empty_memo, name, qubit):
        channel = _channels()[name]
        for state in _pair_states():
            batch = channel.transmit_batch([state], qubit)[0].matrix.tobytes()
            density._STATISTICS.clear()
            assert channel.transmit(state, qubit).matrix.tobytes() == batch

    def test_memoised_outputs_are_read_only(self, empty_memo):
        state = bell_state(BellState.PSI_MINUS).density_matrix()
        output = IdentityChainChannel(eta=10).transmit(state, 0)
        assert not output.matrix.flags.writeable
        with pytest.raises(ValueError):
            output.matrix[0, 0] = 0.0

    def test_map_is_built_once_per_channel_object(self):
        channel = IdentityChainChannel(eta=10)
        assert channel.single_use_channel() is channel.single_use_channel()
        assert IdentityChainChannel(eta=10).single_use_channel() is not (
            channel.single_use_channel()
        )

    def test_equal_maps_share_memoised_outputs(self, empty_memo):
        state = bell_state(BellState.PHI_PLUS).density_matrix()
        first = IdentityChainChannel(eta=10).transmit(state, 0)
        assert IdentityChainChannel(eta=10).transmit(state, 0) is first
        assert IdentityChainChannel(eta=11).transmit(state, 0) is not first
        assert IdentityChainChannel(eta=10).transmit(state, 1) is not first


class TestSessionMaps:
    @pytest.mark.parametrize(
        "party, qubit", [(Alice, ALICE_QUBIT), (Bob, BOB_QUBIT)], ids=["alice", "bob"]
    )
    def test_pauli_plans_match_evolve(self, empty_memo, party, qubit):
        labels = ["I", "X", "Y", "Z", "x"]
        # Each state object sits at ten positions, so every label meets it twice.
        pairs = dict(enumerate(s for s in _pair_states() for _ in range(2 * len(labels))))
        plan = {index: labels[index % len(labels)] for index in pairs}
        for _ in range(2):  # a miss, then a memo hit
            applied = party.apply_plan(pairs, plan)
            for index, state in pairs.items():
                if plan[index] == "I":
                    assert applied[index] is state
                    continue
                expected = state.evolve(pauli_operator(plan[index]), [qubit])
                assert applied[index].matrix.tobytes() == expected.matrix.tobytes()
                assert not applied[index].matrix.flags.writeable

    @pytest.mark.parametrize("hold_time", [1.0, 2.7])
    def test_memory_hold_matches_repeated_apply(self, empty_memo, hold_time):
        decoherence = thermal_relaxation_channel(100e-6, 80e-6, 5e-6)
        protocol = UADIQSDCProtocol(
            ProtocolConfig.default(8, seed=1).with_memory(decoherence, hold_time)
        )
        pairs = dict(enumerate(_pair_states() * 2))
        for _ in range(2):  # a miss, then a memo hit
            held = protocol._memory_hold(PairTable.of(pairs), ProtocolTranscript())
            for index, state in pairs.items():
                expected = state
                for _ in range(int(hold_time)):
                    expected = decoherence.apply(expected, [ALICE_QUBIT])
                assert held[index].matrix.tobytes() == expected.matrix.tobytes()
                assert not held[index].matrix.flags.writeable


def _two_qubit_map():
    # Not symmetric under swapping its qubits, so (0, 2) and (2, 0) differ.
    return amplitude_damping_channel(0.3).tensor(phase_damping_channel(0.2))


class TestKrausEmbedding:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    @pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (2, 0)])
    def test_apply_matches_apply_kraus(self, num_qubits, targets):
        kraus_channel = (
            thermal_relaxation_channel(100e-6, 80e-6, 5e-6)
            if len(targets) == 1
            else _two_qubit_map()
        )
        state = _random_mixed(num_qubits, seed=num_qubits)
        if max(targets) >= num_qubits:
            for _ in range(2):
                with pytest.raises(DimensionError):
                    kraus_channel.apply(state, targets)
            return
        expected = state.apply_kraus(kraus_channel.kraus_operators, targets)
        for _ in range(2):
            applied = kraus_channel.apply(state, targets)
            assert applied.matrix.tobytes() == expected.matrix.tobytes()

    def test_repeated_targets_raise_on_every_call(self):
        kraus_channel = _two_qubit_map()
        state = _random_mixed(3, seed=1)
        for _ in range(2):
            with pytest.raises(DimensionError):
                kraus_channel.apply(state, (1, 1))

    def test_cached_embeddings_are_read_only(self):
        kraus_channel = thermal_relaxation_channel(100e-6, 80e-6, 5e-6)
        kraus_channel.apply(_random_mixed(3, seed=2), [1])
        embedded = [embedded_operator(k, (1,), 3) for k in kraus_channel.kraus_operators]
        assert len(embedded) == len(kraus_channel.kraus_operators)
        for matrix in embedded:
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0


class TestFrozenChannels:
    @pytest.mark.parametrize(
        "channel, field",
        [
            (DepolarizingChannel(0.1), "probability"),
            (IdentityChainChannel(eta=10), "eta"),
            (FiberLossChannel(length_km=2.0), "length_km"),
        ],
        ids=["depolarizing", "identity-chain", "fiber"],
    )
    def test_fields_cannot_be_assigned(self, channel, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(channel, field, 0.5)

    def test_names_follow_parameters(self):
        assert DepolarizingChannel(0.1).name == "depolarizing(p=0.1)"
        assert IdentityChainChannel(eta=12).name == "identity_chain(eta=12)"
        assert FiberLossChannel(length_km=2.0).name == "fiber(length=2.0km)"

    def test_copies_of_a_warm_channel_use_their_own_parameters(self, empty_memo):
        state = bell_state(BellState.PHI_PLUS).density_matrix()
        warm = IdentityChainChannel(eta=10, gate_error=1e-3)
        warm_output = warm.transmit(state, 0).matrix.tobytes()
        copies = [
            (dataclasses.replace(warm, eta=50), IdentityChainChannel(eta=50, gate_error=1e-3)),
            (warm.with_eta(80), IdentityChainChannel(eta=80, gate_error=1e-3)),
            (
                evolve_channel(warm, error_scale=4.0),
                IdentityChainChannel(eta=10, gate_error=1e-3 * 4.0),
            ),
        ]
        for copy, fresh in copies:
            output = copy.transmit(state, 0).matrix.tobytes()
            assert output == _reference(fresh, state, 0)
            assert output != warm_output
        assert warm.transmit(state, 0).matrix.tobytes() == warm_output


class TestPickling:
    @pytest.mark.parametrize("name", list(_channels()))
    def test_warm_channel_round_trips(self, empty_memo, name):
        channel = _channels()[name]
        states = _pair_states()
        before = [channel.transmit(state, 0).matrix.tobytes() for state in states]
        restored = pickle.loads(pickle.dumps(channel))
        density._STATISTICS.clear()
        after = [restored.transmit(state, 0).matrix.tobytes() for state in states]
        assert after == before
        embedded = [
            embedded_operator(k, (0,), 2)
            for k in restored.single_use_channel().kraus_operators
        ]
        assert not any(matrix.flags.writeable for matrix in embedded)


class TestConcurrency:
    def test_threads_sharing_one_fresh_channel_match_serial(self, empty_memo):
        """8 threads race the first map build, embedding and memo misses."""
        states = _pair_states()
        reference = IdentityChainChannel(eta=10)
        expected = [_reference(reference, state, qubit) for qubit in (0, 1) for state in states]
        density._STATISTICS.clear()
        channel = IdentityChainChannel(eta=10)
        results: list[list[bytes]] = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait(timeout=30)
            for _ in range(20):
                results.append(
                    [
                        channel.transmit(DensityMatrix(state), qubit).matrix.tobytes()
                        for qubit in (0, 1)
                        for state in states
                    ]
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 * 20
        assert all(result == expected for result in results)
