"""Session results pinned to literals and checked against per-pair references.

Every protocol session runs one code path, which shares work between pair
states through :mod:`repro.quantum.density`: pairs are grouped by object
(``group_by_object``), and every per-pair map (transmits, Pauli plans, the
memory hold) and statistic is memoised per distinct object by
``state_statistic``, through ``map_distinct`` for the maps.  The checks
here hold it to:

* fingerprints of whole sessions recorded before the sharing was
  centralised (``SESSION_PINS``), whatever the memo state;
* digests of the announcements a tap hears (``ANNOUNCEMENT_PINS``);
* ``DISecurityCheck.estimate`` and ``Bob.bell_measure`` must match
  test-local per-pair loops over the public references
  (``measure_observable``, ``bell_measurement``), RNG consumption included.
"""

import hashlib

import numpy as np
import pytest

from repro.attacks.information_leakage import ClassicalEavesdropper
from repro.attacks.intercept_resend import InterceptResendAttack
from repro.channel.quantum_channel import IdentityChainChannel
from repro.protocol.chsh import CHSHSettings, DISecurityCheck
from repro.protocol.config import ProtocolConfig
from repro.protocol.identity import Identity
from repro.protocol.parties import Bob
from repro.protocol.runner import UADIQSDCProtocol
from repro.protocol.source import EntanglementSource
from repro.quantum import density
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import depolarizing_channel
from repro.quantum.measurement import (
    bell_measurement,
    equatorial_observable,
    measure_observable,
)
from repro.quantum.operators import PAULI_X, PAULI_Z
from repro.utils.bits import bits_to_str
from repro.utils.memo import BoundedMemo


def _session_fingerprint(result):
    return (
        result.success,
        result.abort_reason.value,
        None if result.delivered_message is None else bits_to_str(result.delivered_message),
        None if result.chsh_round1 is None else result.chsh_round1.value,
        None if result.chsh_round2 is None else result.chsh_round2.value,
        result.bob_authentication_error,
        result.alice_authentication_error,
        result.check_bit_error_rate,
        result.message_bit_error_rate,
    )


def _honest(seed):
    message = "0110" * 8
    return ProtocolConfig.default(len(message), seed=seed), None, message


def _intercepted(seed=11):
    message = "10" * 8
    return (
        ProtocolConfig.default(len(message), seed=seed),
        InterceptResendAttack(rng=seed),
        message,
    )


def _noisy_channel(seed=3):
    message = "1100" * 4
    return ProtocolConfig.default(len(message), seed=seed, eta=50), None, message


def _pauli_channel(seed=5):
    channel = IdentityChainChannel(eta=20, include_thermal_relaxation=False)
    return ProtocolConfig.default(8, seed=seed).with_channel(channel), None, "01010101"


#: ``(session factory, fingerprint)`` recorded from the per-session code
#: that predates the shared helpers (unmemoised and memoised alike).
SESSION_PINS = {
    "honest-0": (
        lambda: _honest(0),
        (True, "none", "0110" * 8, 2.94510547035666, 2.840909090909091, 0.0, 0.0, 0.0, 0.0),
    ),
    "honest-1": (
        lambda: _honest(1),
        (True, "none", "0110" * 8, 2.475950486295314, 2.6594451687672027, 0.0, 0.0, 0.0, 0.0),
    ),
    "honest-7": (
        lambda: _honest(7),
        (True, "none", "0110" * 8, 2.5601049906377775, 2.9020448993497787, 0.0, 0.0, 0.0, 0.0),
    ),
    "honest-2024": (
        lambda: _honest(2024),
        (True, "none", "0110" * 8, 2.71205522971652, 3.024863294600137, 0.0, 0.0, 0.0, 0.0),
    ),
    "intercept-resend-11": (
        _intercepted,
        (
            False,
            "alice_authentication_failed",
            None,
            2.8592638216389603,
            None,
            0.125,
            0.375,
            None,
            None,
        ),
    ),
    "eta50-3": (
        _noisy_channel,
        (True, "none", "1100" * 4, 2.8216754006227687, 2.9851755956619934, 0.0, 0.0, 0.0, 0.0),
    ),
    "pauli-channel-5": (
        _pauli_channel,
        (True, "none", "01010101", 2.7415620457248577, 2.8701762599766893, 0.0, 0.0, 0.0, 0.0),
    ),
}


def _run(factory):
    config, attack, message = factory()
    return UADIQSDCProtocol(config, attack=attack).run(message)


class TestSessionPins:
    @pytest.mark.parametrize("name", sorted(SESSION_PINS))
    def test_session_matches_pin(self, name):
        factory, pinned = SESSION_PINS[name]
        assert _session_fingerprint(_run(factory)) == pinned


#: ``(attack factory, seed, message, topics, SHA-256 of what the tap heard)``
#: recorded while the classical channel still kept its own log: taps must
#: keep hearing the same announcements, payload types included.
ANNOUNCEMENT_PINS = {
    "passive-7": (
        ClassicalEavesdropper,
        7,
        "0110" * 8,
        [
            "round1_check_positions",
            "round1_chsh_value",
            "bob_identity_positions",
            "authentication_bsm_results",
            "alice_identity_positions",
            "round2_check_positions",
            "round2_chsh_value",
            "check_bit_disclosure",
        ],
        "e264d97734bf475cf04d2412ee8126da879673d1ce01c08f444a44fa5fb0a4d5",
    ),
    "intercept-resend-11": (
        lambda: InterceptResendAttack(rng=11),
        11,
        "10" * 8,
        [
            "round1_check_positions",
            "round1_chsh_value",
            "bob_identity_positions",
            "authentication_bsm_results",
            "alice_identity_positions",
        ],
        "3ff61bf8d34846a3ff9ee552b0e7267387c3ca0849726398f30e93957a82fef7",
    ),
}


class TestAnnouncementPins:
    @pytest.mark.parametrize("name", sorted(ANNOUNCEMENT_PINS))
    def test_tap_hears_pinned_announcements(self, name):
        make_attack, seed, message, topics, digest = ANNOUNCEMENT_PINS[name]
        attack = make_attack()
        config = ProtocolConfig.default(len(message), seed=seed)
        UADIQSDCProtocol(config, attack=attack).run(message)
        heard = [
            (a.sender, a.receiver, a.topic, a.payload, a.sequence)
            for a in attack.overheard_announcements
        ]
        assert [topic for _, _, topic, _, _ in heard] == topics
        assert [sequence for *_, sequence in heard] == list(range(len(topics)))
        assert hashlib.sha256(repr(heard).encode()).hexdigest() == digest


def _mixed_pairs(count):
    """Pairs taking a few distinct values, both kinds of state object."""
    phi_plus = bell_state(BellState.PHI_PLUS)
    clean = phi_plus.density_matrix()
    noisy = depolarizing_channel(0.05).apply(clean, [0])
    flipped = clean.evolve(PAULI_X, [0])
    cycle = [clean, noisy, phi_plus, flipped, bell_state(BellState.PSI_MINUS)]
    return [cycle[index % len(cycle)] for index in range(count)]


def _reference_estimate(settings, pairs, generator):
    """The CHSH estimate from two ``measure_observable`` calls per pair."""
    sums = {(j, k): 0 for j in (1, 2) for k in (1, 2)}
    counts = {(j, k): 0 for j in (1, 2) for k in (1, 2)}
    for pair in pairs:
        low = 0 if settings.use_a0 else 1
        alice_setting = int(generator.integers(low, 3))
        bob_setting = int(generator.integers(1, 3))
        alice_observable = equatorial_observable(settings.alice_angles[alice_setting])
        bob_observable = equatorial_observable(
            settings.bob_angles[bob_setting - 1], conjugate=settings.conjugate_bob
        )
        alice_outcome, post = measure_observable(pair, alice_observable, [0], rng=generator)
        bob_outcome, _ = measure_observable(post, bob_observable, [1], rng=generator)
        if alice_setting == 0:
            continue
        sums[(alice_setting, bob_setting)] += alice_outcome * bob_outcome
        counts[(alice_setting, bob_setting)] += 1
    correlations = {key: sums[key] / counts[key] if counts[key] else 0.0 for key in counts}
    value = (
        correlations[(1, 1)]
        + correlations[(1, 2)]
        + correlations[(2, 1)]
        - correlations[(2, 2)]
    )
    return value, correlations, counts


class TestDISecurityCheckReference:
    @pytest.mark.parametrize(
        "settings", [CHSHSettings(), CHSHSettings(use_a0=True)], ids=["paper", "use-a0"]
    )
    @pytest.mark.parametrize("seed", [9, 42])
    def test_estimate_matches_per_pair_reference(self, settings, seed):
        pairs = _mixed_pairs(64)
        generator = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        estimate = DISecurityCheck(settings).estimate(pairs, rng=generator)
        value, correlations, counts = _reference_estimate(settings, pairs, reference)
        assert estimate.value == value
        assert estimate.correlations == correlations
        assert estimate.counts == counts
        # Both consumed exactly the same draws.
        assert generator.integers(0, 2**31) == reference.integers(0, 2**31)


class TestBobBellMeasureReference:
    def _bob(self, seed):
        identity = Identity.random(2, owner="bob", rng=np.random.default_rng(0))
        peer = Identity.random(2, owner="alice", rng=np.random.default_rng(1))
        return Bob(identity=identity, peer_identity=peer, rng=seed)

    def test_bell_measure_matches_per_pair_reference(self):
        clean = bell_state(BellState.PHI_PLUS).density_matrix()
        noisy = depolarizing_channel(0.2).apply(clean, [0])
        cycle = [clean, noisy, clean.evolve(PAULI_Z, [0]), noisy.evolve(PAULI_X, [0])]
        pairs = {index: cycle[index % len(cycle)] for index in range(48)}
        positions = tuple(reversed(pairs))
        bob = self._bob(seed=4)
        reference = np.random.default_rng(4)
        expected = {
            position: bell_measurement(pairs[position], [0, 1], rng=reference).bell_state
            for position in positions
        }
        assert bob.bell_measure(pairs, positions) == expected
        assert bob.rng.integers(0, 2**31) == reference.integers(0, 2**31)


class TestNetworkBackendPlumbing:
    def test_network_delivery_matches_pin(self):
        """A networked send over default η=10 links gives the recorded delivery.

        Seed 5 aborts statistically on the small per-hop check-pair count
        (the documented quick-mode behaviour), which pins the abort
        accounting as well as the round-1 CHSH values of every hop.
        """
        from repro.api.config import ServiceConfig
        from repro.api.service import MessagingService
        from repro.network.topology import line_topology

        config = ServiceConfig.networked(line_topology(3), seed=5).with_executor("serial")
        report = MessagingService(config).send("1010", kind="bits")
        assert (report.success, report.delivered_payload) == (False, None)
        assert report.summary()["abort_reasons"] == {
            "frame_verification_failed": 2,
            "round1_chsh_failed": 1,
        }
        assert report.summary()["mean_chsh_round1"] == 2.3925685425685423


class TestDeviceNoiseModelMemo:
    def test_memo_invalidates_on_calibration_swap(self):
        from repro.device.calibration import (
            DeviceCalibration,
            GateCalibration,
            QubitCalibration,
        )
        from repro.device.device_model import DeviceModel

        def calibration(readout):
            return DeviceCalibration(
                qubit_defaults=QubitCalibration(
                    t1=2e-4, t2=1e-4, readout_error=readout
                ),
                gates={"id": GateCalibration("id", 1e-4, 6e-8, num_qubits=1)},
            )

        device = DeviceModel("swap_test", 2, calibration=calibration(0.01))
        first = device.noise_model()
        device.calibration = calibration(0.3)  # fresh object, same version=0
        second = device.noise_model()
        assert second is not first
        assert second.readout_error_for(0).prob_1_given_0 == pytest.approx(0.3)

    def test_memo_invalidates_on_version_bump(self):
        from repro.device.calibration import GateCalibration
        from repro.device.device_model import DeviceModel

        device = DeviceModel.ibm_brisbane()
        first = device.noise_model()
        assert device.noise_model() is first  # stable while unchanged
        device.calibration.add_gate(GateCalibration("id", 0.5, 6e-8, num_qubits=1))
        assert device.noise_model() is not first


class TestSourceEmissionSharing:
    def test_emit_many_shares_one_deterministic_state(self):
        source = EntanglementSource()
        pairs = source.emit_many(10)
        assert len(pairs) == 10
        assert source.emitted == 10
        assert all(pair is pairs[0] for pair in pairs)

    def test_override_keeps_per_index_emission(self):
        calls = []

        def override(index):
            calls.append(index)
            return bell_state(BellState.PHI_PLUS).density_matrix()

        source = EntanglementSource(override=override)
        pairs = source.emit_many(4)
        assert calls == [0, 1, 2, 3]
        assert len({id(pair) for pair in pairs}) == 4

    def test_noisy_source_emission_matches_single_emit(self):
        noisy = EntanglementSource(preparation_noise=depolarizing_channel(0.1))
        shared = noisy.emit_many(3)[0]
        single = EntanglementSource(
            preparation_noise=depolarizing_channel(0.1)
        ).emit(0)
        assert np.array_equal(shared.matrix, single.matrix)


class TestWarmMemo:
    """Sessions sharing the process-wide statistic memo stay bit-identical.

    A cold memo computes every statistic from the session's own states; a
    warm one hands over the entries earlier sessions left.  Either way the
    session draws the same floats.
    """

    @pytest.mark.parametrize("name", ["honest-1", "intercept-resend-11", "eta50-3"])
    def test_cold_and_warm_memo_sessions_identical(self, name):
        factory, pinned = SESSION_PINS[name]
        density._STATISTICS.clear()
        cold = _session_fingerprint(_run(factory))
        warm = _session_fingerprint(_run(factory))
        assert cold == warm == pinned

    def test_second_session_adds_no_memo_entries(self):
        factory, _ = SESSION_PINS["honest-0"]
        density._STATISTICS.clear()
        _run(factory)
        entries = len(density._STATISTICS)
        assert entries > 0
        _run(factory)
        assert len(density._STATISTICS) == entries

    def test_bound_smaller_than_a_session_keeps_results(self, monkeypatch):
        monkeypatch.setattr(density, "_STATISTICS", BoundedMemo(2))
        for name in ("honest-2024", "pauli-channel-5"):
            factory, pinned = SESSION_PINS[name]
            assert _session_fingerprint(_run(factory)) == pinned
            assert len(density._STATISTICS) <= 2
