"""Orchestration of the full UA-DI-QSDC protocol (paper §II, steps 1–6).

:class:`UADIQSDCProtocol` wires together the source, the channels, the two
parties, the DI security checks and the transcript, and executes one complete
session:

1. entanglement sharing of ``N + 2l + 2d`` pairs;
2. first DI security check (CHSH) on ``d`` random pairs;
3. Alice's encoding (message on ``M_A``, ``id_A`` on ``C_A``, cover
   operations on ``D_A``);
4. transmission of Alice's qubits to Bob, then mutual identity
   authentication (Bob encodes ``id_B`` on ``D_B``, measures and announces;
   Bob then verifies ``id_A`` on ``C_A`` without announcing);
5. second DI security check on the reserved ``d`` pairs;
6. Bell-state decoding of the message and check-bit verification.

Every abort point of the paper maps onto an
:class:`~repro.protocol.results.AbortReason`.  Attack models plug in through
four optional hooks (see :class:`repro.attacks.base.Attack`): source
interception, transmission interception, classical-channel observation and
party impersonation.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import (
    AuthenticationFailure,
    ProtocolAbort,
    ProtocolError,
    SecurityCheckFailure,
)
from repro.protocol.chsh import DISecurityCheck
from repro.protocol.config import ProtocolConfig
from repro.protocol.encoding import MessageEncoder
from repro.protocol.pairs import EPRPairRegister
from repro.protocol.parties import ALICE_QUBIT, Alice, Bob
from repro.protocol.results import AbortReason, ProtocolResult
from repro.protocol.transcript import ProtocolTranscript
from repro.quantum.density import DensityMatrix, PairTable, map_distinct
from repro.telemetry import runtime as telemetry
from repro.utils.bits import Bits, bitstring_to_bits, hamming_distance, validate_bits
from repro.utils.rng import as_rng, derive_rng

__all__ = ["UADIQSDCProtocol"]

#: The exception ``raise_on_abort`` raises for each abort reason.
_ABORT_ERRORS = {
    AbortReason.ROUND1_CHSH_FAILED: SecurityCheckFailure,
    AbortReason.ROUND2_CHSH_FAILED: SecurityCheckFailure,
    AbortReason.BOB_AUTHENTICATION_FAILED: AuthenticationFailure,
    AbortReason.ALICE_AUTHENTICATION_FAILED: AuthenticationFailure,
    AbortReason.MESSAGE_INTEGRITY_FAILED: ProtocolAbort,
}


class UADIQSDCProtocol:
    """One configurable, runnable instance of the UA-DI-QSDC protocol.

    Parameters
    ----------
    config:
        The session parameters (validated on construction).
    attack:
        Optional attack model implementing any subset of the hooks documented
        in :class:`repro.attacks.base.Attack`.  ``None`` runs an honest session.
    """

    def __init__(self, config: ProtocolConfig, attack: Any | None = None):
        self.config = config.validate()
        self.attack = attack

    # -- public API ----------------------------------------------------------------
    def run(self, message: "str | Bits") -> ProtocolResult:
        """Execute the protocol end to end for the given secret message."""
        with telemetry.span("protocol.session", "protocol") as span:
            result = self._run(message)
            span.attributes["success"] = result.success
            if result.abort_reason is not AbortReason.NONE:
                span.attributes["abort_reason"] = result.abort_reason.value
        return result

    def _run(self, message: "str | Bits") -> ProtocolResult:
        message_bits = self._coerce_message(message)
        rng = as_rng(self.config.seed)
        alice_rng = derive_rng(rng, "alice")
        bob_rng = derive_rng(rng, "bob")
        chsh_rng = derive_rng(rng, "chsh")
        attack_rng = derive_rng(rng, "attack")

        # An explicit attack object wins; otherwise a declarative scenario on
        # the config builds one per run from seed-derived randomness, which is
        # what makes scenario-driven sessions exactly reproducible.  Scenario
        # construction only touches attack_rng, so scenario-less sessions stay
        # bit-identical to the historical path.
        attack = self.attack
        if attack is None:
            schedule = self.config.resolved_scenario()
            if schedule is not None:
                attack = schedule.build(attack_rng)

        identity_alice, identity_bob = self.config.materialise_identities(rng)
        encoding_identity_alice, encoding_identity_bob = self._apply_impersonation(
            identity_alice, identity_bob, attack_rng, attack
        )

        alice = Alice(
            identity=encoding_identity_alice, peer_identity=identity_bob, rng=alice_rng
        )
        bob = Bob(
            identity=encoding_identity_bob, peer_identity=identity_alice, rng=bob_rng
        )

        transcript = ProtocolTranscript()
        if attack is not None and hasattr(attack, "observe_announcement"):
            transcript.classical_channel.add_tap(attack.observe_announcement)

        register = EPRPairRegister(
            num_message_pairs=self.config.num_message_pairs,
            num_identity_pairs=self.config.identity_pairs,
            num_check_pairs=self.config.check_pairs_per_round,
        )
        # The ProtocolResult fields the session reaches, filled in as it goes.
        reached: dict[str, Any] = {}
        reason = self._steps(
            message_bits, alice, bob, chsh_rng, attack, transcript, register, reached
        )
        if reason is not AbortReason.NONE and self.config.raise_on_abort:
            raise _ABORT_ERRORS[reason](reason.value, f"protocol aborted: {reason.value}")
        return ProtocolResult(
            success=reason is AbortReason.NONE,
            abort_reason=reason,
            sent_message=message_bits,
            phases=transcript.phases,
            pair_summary=register.summary(),
            metadata=self._metadata(attack),
            **reached,
        )

    def _steps(
        self, message_bits: Bits, alice: Alice, bob: Bob, chsh_rng, attack,
        transcript: ProtocolTranscript, register: EPRPairRegister, reached: dict[str, Any],
    ) -> AbortReason:
        """Run steps 1–6 into *reached*; return the abort reason (NONE on delivery)."""
        alice_rng = alice.rng

        # ----- Step 1: entanglement sharing -------------------------------------------
        pairs = self._share_entanglement(register, attack)
        transcript.record_phase(
            "entanglement_sharing", True, num_pairs=register.total_pairs
        )

        # ----- Step 2: first DI security check ------------------------------------------
        round1_positions = register.assign_round1_check(rng=alice_rng)
        transcript.announce("alice", "round1_check_positions", list(round1_positions))
        security_check = DISecurityCheck(self.config.chsh_settings)
        chsh_round1 = security_check.estimate(pairs.take(round1_positions), rng=chsh_rng)
        reached["chsh_round1"] = chsh_round1
        transcript.announce("both", "round1_chsh_value", chsh_round1.value)
        transcript.record_phase(
            "round1_security_check",
            chsh_round1.passed(),
            chsh_value=chsh_round1.value,
            epsilon=chsh_round1.epsilon,
        )
        pairs = pairs.drop(round1_positions)
        if not chsh_round1.passed():
            return AbortReason.ROUND1_CHSH_FAILED

        # ----- Hold period: Alice stores her halves between check and encoding ---------------
        pairs = self._memory_hold(pairs, transcript)

        # ----- Step 3: Alice's encoding -----------------------------------------------------
        round2_positions = register.assign_round2_check(rng=alice_rng)
        message_positions = register.assign_message(rng=alice_rng)
        alice_id_positions = register.assign_alice_identity(rng=alice_rng)
        bob_id_positions = register.assign_bob_identity(rng=alice_rng)

        encoder = MessageEncoder(self.config.num_check_bits)
        encoded = encoder.encode(message_bits, rng=alice_rng)
        if encoded.num_pairs != len(message_positions):
            raise ProtocolError(
                f"encoded message needs {encoded.num_pairs} pairs but "
                f"{len(message_positions)} were reserved"
            )
        encoding_plan = {}
        encoding_plan.update(alice.message_pauli_plan(encoded.pauli_labels, message_positions))
        encoding_plan.update(alice.identity_pauli_plan(alice_id_positions))
        encoding_plan.update(alice.cover_plan(bob_id_positions))
        pairs = Alice.apply_plan(pairs, encoding_plan)
        transcript.record_phase(
            "encoding",
            True,
            message_pairs=len(message_positions),
            identity_pairs=len(alice_id_positions),
            cover_pairs=len(bob_id_positions),
        )

        # ----- Step 4: transmission and authentication -----------------------------------------
        pairs = self._transmit(pairs, attack)
        transcript.record_phase(
            "transmission", True, channel=self.config.channel.name,
            transmitted_pairs=len(pairs),
        )

        transcript.announce("alice", "bob_identity_positions", list(bob_id_positions))
        pairs = Bob.apply_plan(pairs, bob.identity_pauli_plan(bob_id_positions))
        announced_outcomes = bob.bell_measure(pairs, bob_id_positions)
        transcript.announce(
            "bob",
            "authentication_bsm_results",
            {position: outcome.value for position, outcome in announced_outcomes.items()},
        )
        pairs = pairs.drop(bob_id_positions)
        bob_auth_error = alice.verify_bob(announced_outcomes, bob_id_positions)
        reached["bob_authentication_error"] = bob_auth_error
        bob_auth_passed = bob_auth_error <= self.config.authentication_tolerance
        transcript.record_phase(
            "bob_authentication", bob_auth_passed, error_rate=bob_auth_error
        )
        if not bob_auth_passed:
            return AbortReason.BOB_AUTHENTICATION_FAILED

        transcript.announce("alice", "alice_identity_positions", list(alice_id_positions))
        alice_id_outcomes = bob.bell_measure(pairs, alice_id_positions)
        # The C_A outcomes are deliberately NOT announced so id_A stays reusable.
        pairs = pairs.drop(alice_id_positions)
        alice_auth_error = bob.verify_alice(alice_id_outcomes, alice_id_positions)
        reached["alice_authentication_error"] = alice_auth_error
        alice_auth_passed = alice_auth_error <= self.config.authentication_tolerance
        transcript.record_phase(
            "alice_authentication", alice_auth_passed, error_rate=alice_auth_error
        )
        if not alice_auth_passed:
            return AbortReason.ALICE_AUTHENTICATION_FAILED

        # ----- Step 5: second DI security check -----------------------------------------------------
        transcript.announce("alice", "round2_check_positions", list(round2_positions))
        chsh_round2 = security_check.estimate(pairs.take(round2_positions), rng=chsh_rng)
        reached["chsh_round2"] = chsh_round2
        transcript.announce("bob", "round2_chsh_value", chsh_round2.value)
        transcript.record_phase(
            "round2_security_check",
            chsh_round2.passed(),
            chsh_value=chsh_round2.value,
            epsilon=chsh_round2.epsilon,
        )
        pairs = pairs.drop(round2_positions)
        if not chsh_round2.passed():
            return AbortReason.ROUND2_CHSH_FAILED

        # ----- Step 6: message decoding ----------------------------------------------------------------
        message_outcomes = bob.bell_measure(pairs, message_positions)
        combined = Bob.decode_message_bits(message_outcomes, message_positions)
        transcript.announce(
            "alice",
            "check_bit_disclosure",
            {
                "positions": list(encoded.check_positions),
                "values": list(encoded.check_bits),
            },
        )
        decoded_message, decoded_check = MessageEncoder.split_message_and_check(
            combined, encoded.check_positions
        )
        if encoded.check_bits:
            check_bit_error = hamming_distance(decoded_check, encoded.check_bits) / len(
                encoded.check_bits
            )
        else:
            check_bit_error = 0.0
        reached["check_bit_error_rate"] = check_bit_error
        integrity_passed = check_bit_error <= self.config.check_bit_tolerance
        transcript.record_phase(
            "message_decoding", integrity_passed, check_bit_error_rate=check_bit_error
        )
        if not integrity_passed:
            return AbortReason.MESSAGE_INTEGRITY_FAILED

        reached["delivered_message"] = decoded_message
        reached["message_bit_error_rate"] = (
            hamming_distance(decoded_message, message_bits) / len(message_bits)
        )
        return AbortReason.NONE

    # -- helpers -----------------------------------------------------------------------
    @staticmethod
    def _coerce_message(message: "str | Bits") -> Bits:
        if isinstance(message, str):
            return bitstring_to_bits(message)
        return validate_bits(message)

    def _apply_impersonation(self, identity_alice, identity_bob, attack_rng, attack):
        """Swap in the attacker's guessed identity when Eve impersonates a party."""
        encoding_alice, encoding_bob = identity_alice, identity_bob
        if attack is None:
            return encoding_alice, encoding_bob
        impersonates = getattr(attack, "impersonates", None)
        if impersonates == "alice":
            encoding_alice = attack.forged_identity(
                identity_alice.num_pairs, rng=attack_rng
            )
        elif impersonates == "bob":
            encoding_bob = attack.forged_identity(
                identity_bob.num_pairs, rng=attack_rng
            )
        return encoding_alice, encoding_bob

    def _share_entanglement(self, register: EPRPairRegister, attack) -> PairTable:
        """Emit every pair and distribute Bob's halves in one channel pass.

        The attack's source hook (if any) then sees every pair, in index
        order, after distribution.
        """
        emitted = self.config.source.emit_many(register.total_pairs)
        if self.config.distribution_channel is not None:
            emitted = self.config.distribution_channel.transmit_batch(emitted, 1)
        if attack is not None and hasattr(attack, "intercept_source"):
            emitted = emitted.map_pairs(attack.intercept_source)
        return emitted

    def _memory_hold(self, pairs: PairTable, transcript: ProtocolTranscript) -> PairTable:
        """Hold Alice's halves in quantum memory while the round-1 check runs.

        The storage-decoherence channel is applied to Alice's qubit once per
        whole unit of ``config.memory_hold_time``, once per distinct pair
        state.  With the default ideal memory (no decoherence channel, zero
        hold time) the pairs pass through untouched and no phase is recorded.
        """
        decoherence = self.config.memory_decoherence
        hold_time = self.config.memory_hold_time
        steps = int(hold_time)
        held = pairs
        if decoherence is not None and steps > 0:

            def hold(state: DensityMatrix) -> DensityMatrix:
                for _ in range(steps):
                    state = decoherence.apply(state, [ALICE_QUBIT])
                return state

            tag = ("hold", ALICE_QUBIT, steps, *decoherence.content_key())
            held = map_distinct(tag, held, hold)
        if decoherence is not None or hold_time > 0:
            transcript.record_phase(
                "memory_hold",
                True,
                hold_time=hold_time,
                ideal=decoherence is None,
                stored_pairs=len(held),
            )
        return held

    def _transmit(self, pairs: PairTable, attack) -> PairTable:
        """Send Alice's halves through the quantum channel in one pass.

        The attack's transmission hook (if any) then intercepts each
        transmitted pair in position order.
        """
        transmitted = self.config.channel.transmit_batch(pairs, ALICE_QUBIT)
        if attack is not None and hasattr(attack, "intercept_transmission"):
            transmitted = transmitted.map_pairs(attack.intercept_transmission)
        return transmitted

    def _metadata(self, attack) -> dict[str, Any]:
        return {
            "channel": self.config.channel.name,
            "attack": None if attack is None else getattr(attack, "name", "attack"),
            "identity_pairs": self.config.identity_pairs,
            "check_pairs_per_round": self.config.check_pairs_per_round,
            "message_length": self.config.message_length,
            "num_check_bits": self.config.num_check_bits,
        }
