"""Attack scheduling and composition: onset, duty cycles and multi-adversary stacks.

The paper's §IV simulations run every attack at full strength from the first
pair to the last.  Real adversaries are rarely that polite: Eve may switch on
mid-session (after the first DI check has already sampled clean pairs), attack
in bursts to dilute her disturbance signature, or coordinate several
strategies at once (a partial man-in-the-middle plus a passive classical tap).
This module supplies the two combinators the scenario engine
(:mod:`repro.attacks.scenarios`) uses to express those behaviours on top of
the concrete strategy classes:

* :class:`ScheduledAttack` wraps any :class:`~repro.attacks.base.Attack` and
  gates its quantum hooks by pair index — an *onset* (first attacked index)
  and a *duty cycle* (fraction of each period the attack is live).  Gating is
  purely positional, so a scheduled attack is exactly reproducible under a
  pinned seed and independent of execution order.
* :class:`ComposedAttack` stacks several attacks into one: quantum hooks chain
  in order (each adversary sees the state the previous one left behind),
  classical taps fan out to every member, and at most one member may
  impersonate a party.

Both combinators satisfy the full hook protocol of
:class:`~repro.attacks.base.Attack`, so the protocol runner, the messaging
facade and the network relay layer treat them like any single attack.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

from repro.attacks.base import Attack
from repro.channel.classical_channel import Announcement
from repro.exceptions import AttackError, ConfigurationError
from repro.protocol.config import check_count
from repro.protocol.identity import Identity
from repro.quantum.density import DensityMatrix

__all__ = ["ScheduledAttack", "ComposedAttack", "check_schedule"]


def check_schedule(onset, duty_cycle, duty_period) -> tuple[int, float, int]:
    """The schedule as ``(int, float, int)``; :class:`AttackError` unless it is valid.

    *onset* must be an integer ≥ 0 and *duty_period* an integer ≥ 1, checked
    as :func:`~repro.protocol.config.check_count` checks counts (NaN, ±∞,
    fractions and strings fail); *duty_cycle* must be a real in (0, 1].
    """
    try:
        onset = check_count(onset, "onset", minimum=0)
        duty_period = check_count(duty_period, "duty_period")
    except ConfigurationError as error:
        raise AttackError(str(error)) from None
    if not (isinstance(duty_cycle, numbers.Real) and 0.0 < duty_cycle <= 1.0):
        raise AttackError("duty_cycle must lie in (0, 1]")
    return onset, float(duty_cycle), duty_period


class ScheduledAttack(Attack):
    """Gate an inner attack's quantum hooks by pair index.

    Parameters
    ----------
    inner:
        The wrapped attack (any object implementing the
        :class:`~repro.attacks.base.Attack` hooks).
    onset:
        First pair index at which the attack becomes live.  Everything before
        it passes through untouched — the "Eve arrives late" scenario in
        which the round-1 DI check may sample only clean pairs.
    duty_cycle:
        Fraction of each *duty_period*-sized window (counted from *onset*)
        during which the attack is live.  ``1.0`` is continuous operation;
        ``0.25`` attacks the first quarter of every window — the intermittent
        attacker who hopes to stay below the abort thresholds.
    duty_period:
        Window length (in pair indices) over which *duty_cycle* is applied.

    Notes
    -----
    The classical tap (:meth:`observe_announcement`) and impersonation hooks
    are *not* gated: listening and identity forgery are not per-pair
    activities.  Gating is deterministic — ``active(index)`` depends only on
    the index — so scheduled scenarios inherit the engine's reproducibility
    guarantee with no extra RNG draws.
    """

    def __init__(
        self,
        inner: Attack,
        onset: int = 0,
        duty_cycle: float = 1.0,
        duty_period: int = 16,
    ):
        super().__init__(rng=getattr(inner, "rng", None))
        self.inner = inner
        self.onset, self.duty_cycle, self.duty_period = check_schedule(
            onset, duty_cycle, duty_period
        )
        self._active_slots = min(
            self.duty_period, int(math.ceil(self.duty_cycle * self.duty_period))
        )
        inner_name = getattr(inner, "name", "attack")
        self.name = (
            f"scheduled({inner_name}, onset={self.onset}, "
            f"duty={self.duty_cycle:g}/{self.duty_period})"
        )

    # -- gating ------------------------------------------------------------------------
    def active(self, index: int) -> bool:
        """True if the attack is live for pair *index* (purely positional)."""
        if index < self.onset:
            return False
        return (index - self.onset) % self.duty_period < self._active_slots

    # -- hook delegation ---------------------------------------------------------------
    def intercept_source(self, index: int, state: DensityMatrix) -> DensityMatrix:
        """Delegate to the inner attack when the schedule is live for *index*."""
        if not self.active(index):
            return state
        state = self.inner.intercept_source(index, state)
        self.intercepted_pairs = getattr(self.inner, "intercepted_pairs", 0)
        return state

    def intercept_transmission(self, position: int, state: DensityMatrix) -> DensityMatrix:
        """Delegate to the inner attack when the schedule is live for *position*."""
        if not self.active(position):
            return state
        state = self.inner.intercept_transmission(position, state)
        self.intercepted_pairs = getattr(self.inner, "intercepted_pairs", 0)
        return state

    def observe_announcement(self, announcement: Announcement) -> None:
        """Forward the announcement (listening is never gated by the schedule)."""
        self.overheard_announcements.append(announcement)
        if hasattr(self.inner, "observe_announcement"):
            self.inner.observe_announcement(announcement)

    # -- impersonation pass-through ----------------------------------------------------
    @property
    def impersonates(self) -> "str | None":
        """The inner attack's impersonation target (scheduling does not gate it)."""
        return getattr(self.inner, "impersonates", None)

    def forged_identity(self, num_pairs: int, rng=None) -> Identity:
        """The inner attack's forged identity, unchanged by the schedule."""
        return self.inner.forged_identity(num_pairs, rng=rng)

    def __repr__(self) -> str:
        return f"ScheduledAttack({self.inner!r}, onset={self.onset}, duty={self.duty_cycle:g})"


class ComposedAttack(Attack):
    """Several adversarial strategies acting on the same session.

    Quantum hooks chain in member order — the second attacker intercepts the
    state the first one resent — which models colluding (or independently
    co-located) eavesdroppers.  Classical announcements are forwarded to every
    member.  At most one member may impersonate a party: two simultaneous
    impersonators of the *same* session are not a meaningful threat model and
    are rejected at construction time.
    """

    def __init__(self, attacks: Sequence[Attack]):
        super().__init__(rng=None)
        members = list(attacks)
        if not members:
            raise AttackError("a composed attack needs at least one member")
        impersonators = [
            member
            for member in members
            if getattr(member, "impersonates", None) in ("alice", "bob")
        ]
        if len(impersonators) > 1:
            raise AttackError(
                "a composed attack may contain at most one impersonating member"
            )
        self.attacks = members
        self._impersonator = impersonators[0] if impersonators else None
        self.name = "composed(" + " + ".join(
            getattr(member, "name", "attack") for member in members
        ) + ")"

    # -- hook chaining -----------------------------------------------------------------
    def intercept_source(self, index: int, state: DensityMatrix) -> DensityMatrix:
        """Chain every member's source hook in order over the emitted pair."""
        for member in self.attacks:
            if hasattr(member, "intercept_source"):
                state = member.intercept_source(index, state)
        self._sync_counters()
        return state

    def intercept_transmission(self, position: int, state: DensityMatrix) -> DensityMatrix:
        """Chain every member's transmission hook in order over the pair."""
        for member in self.attacks:
            if hasattr(member, "intercept_transmission"):
                state = member.intercept_transmission(position, state)
        self._sync_counters()
        return state

    def observe_announcement(self, announcement: Announcement) -> None:
        """Fan the announcement out to every listening member."""
        self.overheard_announcements.append(announcement)
        for member in self.attacks:
            if hasattr(member, "observe_announcement"):
                member.observe_announcement(announcement)

    def _sync_counters(self) -> None:
        self.intercepted_pairs = sum(
            getattr(member, "intercepted_pairs", 0) for member in self.attacks
        )

    # -- impersonation pass-through ----------------------------------------------------
    @property
    def impersonates(self) -> "str | None":
        """The single impersonating member's target, or None."""
        if self._impersonator is None:
            return None
        return self._impersonator.impersonates

    def forged_identity(self, num_pairs: int, rng=None) -> Identity:
        """The impersonating member's forged identity."""
        if self._impersonator is None:
            raise AttackError(f"{self.name!r} does not impersonate anyone")
        return self._impersonator.forged_identity(num_pairs, rng=rng)

    def __repr__(self) -> str:
        return f"ComposedAttack({self.attacks!r})"
