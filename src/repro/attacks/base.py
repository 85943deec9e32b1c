"""Attack interface.

The security analysis of the paper (§III) and its simulated attack study
(§IV) consider an eavesdropper Eve who may control the entanglement source,
intercept the quantum channel, read the public classical channel and attempt
to impersonate either party.  :class:`Attack` is the pluggable interface the
protocol runner understands; each concrete attack implements only the hooks it
needs.

Hooks (all optional — the runner checks ``hasattr``):

``intercept_source(index, state) -> DensityMatrix``
    Called for every emitted pair before it is handed to the parties.  Models
    an adversarial source or tampering with the initial distribution.

``intercept_transmission(position, state) -> DensityMatrix``
    Called for every pair after Alice's (encoded) qubit has traversed the
    quantum channel on its way to Bob.  Models attacks on the quantum channel:
    intercept-and-resend, man-in-the-middle substitution, entangling probes.

``observe_announcement(announcement)``
    Read-only tap on the public classical channel.

``impersonates`` / ``forged_identity(num_pairs, rng)``
    If ``impersonates`` is ``"alice"`` or ``"bob"``, the runner replaces that
    party's *encoding* identity with ``forged_identity(...)`` while the honest
    verifier keeps the genuine pre-shared secret — exactly the situation of an
    impersonation attack.
"""

from __future__ import annotations

import math
import numbers

from repro.channel.classical_channel import Announcement
from repro.exceptions import AttackError
from repro.protocol.identity import Identity
from repro.quantum.density import DensityMatrix
from repro.utils.rng import as_rng

__all__ = ["Attack"]


class Attack:
    """Base class for eavesdropping strategies.

    The base class implements every hook as a pass-through / no-op so concrete
    attacks override only what they need.  It also records basic statistics
    (how many pairs were touched, how many announcements were overheard) that
    experiment harnesses report.
    """

    #: Human-readable attack name (appears in result metadata).
    name: str = "attack"

    #: Which party Eve impersonates: None, "alice" or "bob".
    impersonates: str | None = None

    def __init__(self, rng=None):
        self.rng = as_rng(rng)
        self.intercepted_pairs = 0
        self.overheard_announcements: list[Announcement] = []

    # -- partial-strength helpers --------------------------------------------------------
    @staticmethod
    def validate_fraction(value: float, name: str = "attack_fraction") -> float:
        """Validate a per-pair probability knob (shared by the partial attacks)."""
        if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
            raise AttackError(f"{name} must lie in [0, 1]")
        return float(value)

    @staticmethod
    def validate_finite(value: float, name: str) -> float:
        """*value* as a float; :class:`AttackError` unless it is a finite real number."""
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise AttackError(f"{name} must be a finite real number, got {value!r}")
        return float(value)

    def attacks_this_pair(self, attack_fraction: float) -> bool:
        """Bernoulli gate for partial-strength attacks: attack this pair?

        Draws from ``self.rng`` *only* when ``attack_fraction < 1`` so that
        full-strength attacks consume exactly the same RNG stream as before
        the knob existed — the property the pinned detection-rate tests rely
        on.
        """
        if attack_fraction >= 1.0:
            return True
        return self.rng.random() <= attack_fraction

    # -- quantum hooks -----------------------------------------------------------------
    def intercept_source(self, index: int, state: DensityMatrix) -> DensityMatrix:
        """Tamper with a freshly emitted pair (default: leave it untouched)."""
        return state

    def intercept_transmission(self, position: int, state: DensityMatrix) -> DensityMatrix:
        """Tamper with a pair whose Alice-half is in transit to Bob (default: no-op)."""
        return state

    # -- classical hook ------------------------------------------------------------------
    def observe_announcement(self, announcement: Announcement) -> None:
        """Record an overheard classical announcement."""
        self.overheard_announcements.append(announcement)

    # -- impersonation -------------------------------------------------------------------
    def forged_identity(self, num_pairs: int, rng=None) -> Identity:
        """Eve's guess at the impersonated party's identity.

        Without knowledge of the pre-shared secret the best strategy is a
        uniformly random guess, which matches the ``(1/4)**l`` survival
        probability of the paper's analysis.
        """
        if self.impersonates not in ("alice", "bob"):
            raise AttackError(f"{self.name!r} does not impersonate anyone")
        return Identity.random(num_pairs, owner=f"eve-as-{self.impersonates}", rng=rng or self.rng)

    # -- reporting ------------------------------------------------------------------------
    def overheard_topics(self) -> list[str]:
        """Distinct classical topics Eve overheard, in order of first appearance."""
        seen: dict[str, None] = {}
        for announcement in self.overheard_announcements:
            seen.setdefault(announcement.topic, None)
        return list(seen)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
