"""Bookkeeping of the shared EPR pairs.

The protocol consumes ``N + 2l + 2d`` EPR pairs: ``d`` for each of the two
DI security-check rounds, ``N`` for the message, ``l`` for Alice's identity
(``C_A``) and ``l`` for Bob's identity (``D_A``/``D_B``).
:class:`EPRPairRegister` tracks which pair index belongs to which role so the
runner, the attack models and the transcript all agree on positions, exactly
as the classical announcements of positions do in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.exceptions import ProtocolError
from repro.utils.rng import as_rng

__all__ = ["PairRole", "EPRPairRegister"]


class PairRole(Enum):
    """What a shared EPR pair is used for."""

    UNASSIGNED = "unassigned"
    ROUND1_CHECK = "round1_check"
    ROUND2_CHECK = "round2_check"
    MESSAGE = "message"
    ALICE_IDENTITY = "alice_identity"  # the C_A set
    BOB_IDENTITY = "bob_identity"      # the D_A / D_B set


#: The roles a pair can be assigned, in declaration order.
_ASSIGNED_ROLES = tuple(role for role in PairRole if role is not PairRole.UNASSIGNED)


@dataclass
class EPRPairRegister:
    """Role assignment for the ``N + 2l + 2d`` shared pairs.

    Parameters
    ----------
    num_message_pairs:
        ``N`` — pairs carrying the check-bit-augmented message.
    num_identity_pairs:
        ``l`` — pairs per identity (Alice's and Bob's each consume ``l``).
    num_check_pairs:
        ``d`` — pairs per DI security-check round.
    """

    num_message_pairs: int
    num_identity_pairs: int
    num_check_pairs: int
    #: Each assigned role's positions in increasing order, kept as roles are
    #: assigned; the unassigned positions are the index array ``_available``.
    _positions: dict[PairRole, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.num_message_pairs < 1:
            raise ProtocolError("the protocol needs at least one message pair")
        if self.num_identity_pairs < 1:
            raise ProtocolError("the protocol needs at least one identity pair per party")
        if self.num_check_pairs < 1:
            raise ProtocolError("the protocol needs at least one check pair per round")
        self._positions = dict.fromkeys(_ASSIGNED_ROLES, ())
        self._available = np.arange(self.total_pairs)

    # -- sizes -----------------------------------------------------------------------
    @property
    def total_pairs(self) -> int:
        """``N + 2l + 2d``."""
        return (
            self.num_message_pairs
            + 2 * self.num_identity_pairs
            + 2 * self.num_check_pairs
        )

    # -- assignment ------------------------------------------------------------------
    def assign_round1_check(self, rng=None) -> tuple[int, ...]:
        """Pick the first-round check positions among all unassigned pairs."""
        return self._assign(PairRole.ROUND1_CHECK, self.num_check_pairs, rng)

    def assign_round2_check(self, rng=None) -> tuple[int, ...]:
        """Pick the second-round check positions among the remaining pairs."""
        return self._assign(PairRole.ROUND2_CHECK, self.num_check_pairs, rng)

    def assign_message(self, rng=None) -> tuple[int, ...]:
        """Pick the message positions (the set ``M_A``)."""
        return self._assign(PairRole.MESSAGE, self.num_message_pairs, rng)

    def assign_alice_identity(self, rng=None) -> tuple[int, ...]:
        """Pick the ``C_A`` positions carrying Alice's identity."""
        return self._assign(PairRole.ALICE_IDENTITY, self.num_identity_pairs, rng)

    def assign_bob_identity(self, rng=None) -> tuple[int, ...]:
        """Pick the ``D_A`` positions reserved for Bob's identity."""
        return self._assign(PairRole.BOB_IDENTITY, self.num_identity_pairs, rng)

    def _assign(self, role: PairRole, count: int, rng) -> tuple[int, ...]:
        available = self._available
        if count > len(available):
            raise ProtocolError(
                f"cannot assign {count} pairs to {role.value}: only "
                f"{len(available)} unassigned pairs remain"
            )
        chosen = np.zeros(len(available), dtype=bool)
        chosen[as_rng(rng).choice(len(available), size=count, replace=False)] = True
        self._available = available[~chosen]
        # ``available`` is increasing, so the chosen positions come out sorted.
        positions = tuple(available[chosen].tolist())
        assigned = self._positions[role]
        self._positions[role] = tuple(sorted(assigned + positions)) if assigned else positions
        return positions

    # -- queries ---------------------------------------------------------------------
    def role_of(self, position: int) -> PairRole:
        """Role of the pair at *position*."""
        if position in self._available.tolist():
            return PairRole.UNASSIGNED
        for role, positions in self._positions.items():
            if position in positions:
                return role
        raise ProtocolError(f"pair position {position} does not exist")

    def positions(self, role: PairRole) -> tuple[int, ...]:
        """All positions currently assigned to *role*, in increasing order."""
        if role is PairRole.UNASSIGNED:
            return tuple(self._available.tolist())
        return self._positions[role]

    def assignment_complete(self) -> bool:
        """True once every pair has a role."""
        return not len(self._available)

    def summary(self) -> dict[str, int]:
        """Number of pairs per role (for transcripts and reports)."""
        counts = {PairRole.UNASSIGNED.value: len(self._available)}
        counts.update(
            (role.value, len(positions)) for role, positions in self._positions.items()
        )
        return counts
