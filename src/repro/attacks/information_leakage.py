"""Information-leakage analysis of the classical channel (paper §III-E).

The only data Eve can obtain without touching the quantum channel is what is
announced publicly: check-qubit positions, measurement bases/outcomes of the
DI checks, the positions of the ``D_A``/``C_A`` sets, Bob's authentication
Bell-measurement results and the check-bit disclosure.  None of these depend
on the secret message — the Bell outcomes of the message pairs are never
announced — so Eve's view is statistically independent of the message.

This module makes that claim testable:

* :class:`ClassicalEavesdropper` is an :class:`~repro.attacks.base.Attack`
  that only listens to the classical channel and summarises its view.
* :func:`run_leakage_experiment` runs the protocol repeatedly with two fixed,
  different messages, collects Eve's views, and reports the total-variation
  distance between the two view distributions together with the implied upper
  bound on Eve's mutual information about which message was sent.  For the
  honest protocol both numbers are statistically indistinguishable from 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.attacks.base import Attack
from repro.exceptions import AttackError
from repro.protocol.config import ProtocolConfig
from repro.protocol.runner import UADIQSDCProtocol
from repro.utils.rng import as_rng

__all__ = ["ClassicalEavesdropper", "LeakageReport", "run_leakage_experiment"]

#: Topics whose payloads could conceivably carry message information; the
#: protocol never announces message-pair measurement outcomes, so this list is
#: exactly what the leakage experiment fingerprints.
_VIEW_TOPICS = (
    "round1_chsh_value",
    "round2_chsh_value",
    "authentication_bsm_results",
    "check_bit_disclosure",
)


class ClassicalEavesdropper(Attack):
    """A passive attacker that only records public classical announcements."""

    name = "classical_eavesdropper"

    def view_fingerprint(self) -> tuple:
        """A hashable summary of everything message-relevant Eve has heard.

        Positions are excluded (they are uniformly random by construction and
        independent of everything); announced values are kept.  The
        fingerprint is the object whose distribution the leakage experiment
        compares across different messages.
        """
        fingerprint: list = []
        for announcement in self.overheard_announcements:
            if announcement.topic not in _VIEW_TOPICS:
                continue
            payload = announcement.payload
            if announcement.topic == "authentication_bsm_results":
                fingerprint.append(
                    (announcement.topic, tuple(sorted(str(v) for v in payload.values())))
                )
            elif announcement.topic == "check_bit_disclosure":
                fingerprint.append(
                    (announcement.topic, tuple(int(v) for v in payload["values"]))
                )
            else:
                # CHSH values: bucket to one decimal so the fingerprint is discrete.
                fingerprint.append((announcement.topic, round(float(payload), 1)))
        return tuple(fingerprint)

    def heard_message_outcomes(self) -> bool:
        """True if any announcement topic ever exposes message-pair outcomes.

        The protocol never announces them; this is the direct, structural
        statement of §III-E and is asserted by the test suite.
        """
        return any(
            announcement.topic in ("message_bsm_results", "message_outcomes")
            for announcement in self.overheard_announcements
        )


@dataclass
class LeakageReport:
    """Outcome of the information-leakage experiment.

    Eve's per-session view is high-entropy even for a fixed message (check-bit
    values, positions and CHSH estimates are all randomised), so the raw
    empirical distance between two finite samples of views is dominated by
    sampling sparsity.  The report therefore pairs the *between-message*
    distance with a *within-message* null distance computed from two halves of
    the same message's sessions; genuine message leakage shows up as the
    between-message distance exceeding the null, i.e. a large
    :attr:`excess_tv_distance`.

    Attributes
    ----------
    sessions_per_message:
        Number of protocol runs performed for each of the two messages.
    total_variation_distance:
        Empirical TV distance between Eve's view distributions under the two
        messages (computed on equal-sized sub-samples).
    within_message_tv_distance:
        The null reference: TV distance between two halves of the sessions
        that used the *same* message.
    mutual_information_upper_bound:
        Bound (in bits) on Eve's information about which of the two messages
        was sent, derived from the excess TV distance (``I ≤ TVD_excess`` for
        a uniform binary message choice; a coarse but sound bound).
    distinct_views:
        Number of distinct fingerprints observed overall.
    message_outcomes_announced:
        True if any run announced message-pair measurement outcomes (must be
        False for the honest protocol).
    """

    sessions_per_message: int
    total_variation_distance: float
    within_message_tv_distance: float
    mutual_information_upper_bound: float
    distinct_views: int
    message_outcomes_announced: bool
    view_counts: dict = field(default_factory=dict)

    @property
    def excess_tv_distance(self) -> float:
        """Between-message distance minus the within-message null (≈ 0 if no leakage)."""
        return max(0.0, self.total_variation_distance - self.within_message_tv_distance)


def run_leakage_experiment(
    config: ProtocolConfig,
    message_a: str,
    message_b: str,
    sessions_per_message: int = 20,
    rng=None,
) -> LeakageReport:
    """Compare Eve's classical view under two different secret messages.

    Runs the protocol ``sessions_per_message`` times for each message with a
    fresh passive eavesdropper per run, fingerprints every view, and reports
    the total-variation distance between the two empirical view distributions.
    """
    if sessions_per_message < 1:
        raise AttackError("sessions_per_message must be at least 1")
    if len(message_a) != len(message_b):
        raise AttackError("both messages must have the same length")
    generator = as_rng(rng)

    raw_views: dict[str, list] = {"a": [], "b": []}
    announced_message_outcomes = False
    for label, message in (("a", message_a), ("b", message_b)):
        for _ in range(sessions_per_message):
            eavesdropper = ClassicalEavesdropper(rng=generator)
            session_config = config.with_seed(int(generator.integers(0, 2**31 - 1)))
            protocol = UADIQSDCProtocol(session_config, attack=eavesdropper)
            protocol.run(message)
            raw_views[label].append(eavesdropper.view_fingerprint())
            announced_message_outcomes = (
                announced_message_outcomes or eavesdropper.heard_message_outcomes()
            )

    def _tv_distance(sample_a: list, sample_b: list) -> float:
        counts_a, counts_b = Counter(sample_a), Counter(sample_b)
        support = set(counts_a) | set(counts_b)
        if not sample_a or not sample_b:
            return 0.0
        return 0.5 * sum(
            abs(counts_a[view] / len(sample_a) - counts_b[view] / len(sample_b))
            for view in support
        )

    # Compare equal-sized sub-samples so the between-message distance and the
    # within-message null carry the same sparsity bias.
    half = max(1, sessions_per_message // 2)
    between = _tv_distance(raw_views["a"][:half], raw_views["b"][:half])
    within = _tv_distance(raw_views["a"][:half], raw_views["a"][half:half * 2])
    excess = max(0.0, between - within)

    all_views = raw_views["a"] + raw_views["b"]
    return LeakageReport(
        sessions_per_message=sessions_per_message,
        total_variation_distance=between,
        within_message_tv_distance=within,
        mutual_information_upper_bound=min(1.0, excess),
        distinct_views=len(set(all_views)),
        message_outcomes_announced=announced_message_outcomes,
        view_counts={
            "a": dict(Counter(raw_views["a"])),
            "b": dict(Counter(raw_views["b"])),
        },
    )
