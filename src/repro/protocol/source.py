"""Entanglement source.

In the device-independent threat model the EPR source is untrusted — Eve may
even control it.  :class:`EntanglementSource` therefore supports three modes:

* the honest source emitting perfect ``|Φ+⟩`` pairs (qubit 0 → Alice,
  qubit 1 → Bob);
* a noisy-but-honest source that applies a configurable preparation-noise
  channel to each emitted pair (state-preparation errors of the NISQ
  emulation);
* an adversarial source whose emission is overridden by an attack hook.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import ProtocolError
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import KrausChannel
from repro.quantum.density import DensityMatrix, PairTable

__all__ = ["EntanglementSource"]


class EntanglementSource:
    """Emits two-qubit entangled pairs for the protocol.

    Parameters
    ----------
    bell_state_kind:
        Which Bell state the honest source emits (the paper uses ``|Φ+⟩``).
    preparation_noise:
        Optional :class:`~repro.quantum.channels.KrausChannel` (1- or 2-qubit)
        applied to every emitted pair to model state-preparation error.
    override:
        Optional callable ``(pair_index) -> DensityMatrix`` replacing the
        emission entirely; used by attack models that control the source.
    """

    def __init__(
        self,
        bell_state_kind: BellState = BellState.PHI_PLUS,
        preparation_noise: KrausChannel | None = None,
        override: Callable[[int], DensityMatrix] | None = None,
    ):
        if not isinstance(bell_state_kind, BellState):
            raise ProtocolError("bell_state_kind must be a BellState")
        if preparation_noise is not None and preparation_noise.num_qubits not in (1, 2):
            raise ProtocolError("preparation noise must act on one or two qubits")
        self.bell_state_kind = bell_state_kind
        self.preparation_noise = preparation_noise
        self.override = override
        self.emitted = 0

    def emit(self, pair_index: int = 0) -> DensityMatrix:
        """Emit one pair (qubit 0 is Alice's half, qubit 1 is Bob's half)."""
        self.emitted += 1
        if self.override is not None:
            state = self.override(pair_index)
            if not isinstance(state, DensityMatrix) or state.num_qubits != 2:
                raise ProtocolError("source override must return a two-qubit DensityMatrix")
            return state
        state = bell_state(self.bell_state_kind).density_matrix()
        if self.preparation_noise is None:
            return state
        if self.preparation_noise.num_qubits == 2:
            return self.preparation_noise.apply(state)
        noisy = self.preparation_noise.apply(state, [0])
        return self.preparation_noise.apply(noisy, [1])

    def emit_many(self, count: int) -> PairTable:
        """Emit *count* pairs in order, as a :class:`~repro.quantum.density.PairTable`.

        Without an override hook the emission is a deterministic CPTP map, so
        every pair carries an identical state: it is prepared once and the
        (immutable — :class:`DensityMatrix` operations never mutate in place)
        instance is the table's one state, with every id 0.  Attack overrides
        keep the per-index emission path.
        """
        if count < 0:
            raise ProtocolError("count must be non-negative")
        if self.override is not None or count == 0:
            return PairTable.of([self.emit(index) for index in range(count)])
        state = self.emit(0)
        self.emitted += count - 1
        return PairTable(np.zeros(count, dtype=np.intp), [state], count)

    def __repr__(self) -> str:
        mode = "override" if self.override else (
            "noisy" if self.preparation_noise else "ideal"
        )
        return f"EntanglementSource(state={self.bell_state_kind.name}, mode={mode})"
