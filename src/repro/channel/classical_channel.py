"""Authenticated public classical channel.

The UA-DI-QSDC protocol exchanges several classical announcements: check-qubit
positions, measurement bases and outcomes for the DI security checks, the
positions of the ``D_A`` and ``C_A`` sets, Bob's Bell-measurement results
during authentication and the check-bit verification.  The paper assumes this
channel is authenticated (Eve can read but not modify messages).

:class:`ClassicalChannel` keeps no record of its own: it is heard only through
taps registered with :meth:`ClassicalChannel.add_tap`, which receive every
announcement in order.  That is how the attack models listen in, and how the
information-leakage analysis (§III-E) quantifies what an eavesdropper reading
the channel learns about the secret message (nothing, because
message-decoding outcomes are never announced).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ChannelError

__all__ = ["Announcement", "ClassicalChannel"]


@dataclass(frozen=True)
class Announcement:
    """One message on the public classical channel.

    Attributes
    ----------
    sender, receiver:
        Party names ("alice", "bob", or "broadcast" receivers).
    topic:
        Machine-readable label of what is being announced
        (e.g. ``"round1_check_positions"``).
    payload:
        The announced data (positions, bases, outcomes, ...).
    sequence:
        Monotonic index assigned by the channel: the number of announcements
        sent on it before this one.
    """

    sender: str
    receiver: str
    topic: str
    payload: Any
    sequence: int


class ClassicalChannel:
    """An authenticated, public classical channel, heard through taps.

    The channel keeps no log: an :class:`Announcement` is built only when a
    tap listens, and every tap sees each one as it is sent.  Sequence
    numbers count every send, heard or not.
    """

    def __init__(self, name: str = "classical"):
        self.name = name
        self._sequence = 0
        self._taps: list[Callable[[Announcement], None]] = []

    # -- messaging ------------------------------------------------------------------
    def send(self, sender: str, receiver: str, topic: str, payload: Any) -> None:
        """Send an announcement to every tap.

        The channel is authenticated: the library never mutates payloads in
        transit, and attack models may only *read* them through taps.
        """
        if not topic:
            raise ChannelError("announcements need a non-empty topic")
        sequence = self._sequence
        self._sequence += 1
        if self._taps:
            announcement = Announcement(sender, receiver, topic, payload, sequence)
            for tap in self._taps:
                tap(announcement)

    def broadcast(self, sender: str, topic: str, payload: Any) -> None:
        """Announce to every listener (receiver recorded as ``"broadcast"``)."""
        self.send(sender, "broadcast", topic, payload)

    # -- eavesdropping -------------------------------------------------------------------
    def add_tap(self, tap: Callable[[Announcement], None]) -> None:
        """Register a read-only tap invoked for every future announcement."""
        if not callable(tap):
            raise ChannelError("a tap must be callable")
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[Announcement], None]) -> None:
        """Unregister a previously added tap."""
        try:
            self._taps.remove(tap)
        except ValueError as exc:
            raise ChannelError("tap was not registered") from exc

    def __repr__(self) -> str:
        return f"ClassicalChannel(name={self.name!r}, sent={self._sequence})"
