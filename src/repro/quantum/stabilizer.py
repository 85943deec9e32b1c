"""Stabilizer (CHP tableau) fast path for Clifford circuits with Pauli noise.

The UA-DI-QSDC circuits are almost entirely Clifford — Bell-pair
preparation, Pauli-frame encoding, identity-gate channels, Bell-basis
measurement — and every stochastic noise primitive the paper's emulation
needs (depolarizing, bit/phase flip, general Pauli channels) is a mixture of
Pauli unitaries.  For that class this module simulates in polynomial time
what the dense simulators pay exponential cost for, while reproducing their
sampling contract exactly:

* :class:`CliffordTableau` — the one Aaronson–Gottesman CHP engine: ``B``
  tableaus (destabilizer + stabilizer rows over :math:`F_2`) that share one
  bit-packed symplectic block and differ only in their signs, with the full
  Clifford gate set of :class:`~repro.quantum.circuit.QuantumCircuit`,
  computational-basis measurement, reset and masked Pauli frames.  A batch
  of one can track measurement outcomes *symbolically*: every random outcome
  becomes a fresh binary symbol and all later signs stay affine in those
  symbols, which turns one tableau pass into the **exact joint outcome
  distribution** (uniform over an affine subspace) instead of one sample.
* :class:`StabilizerSimulator` — the same ``run`` / ``run_batch`` /
  :class:`~repro.quantum.simulator.SimulationResult` contract as the dense
  simulators, with ``run`` the one-circuit case of ``run_batch``.
  Terminal-measurement circuits take the **analytic path**: one symbolic
  tableau pass yields the exact probability vector over the measured qubits,
  Pauli noise is folded in exactly via an XOR-convolution of error masks
  (each error component is conjugated through the remaining circuit; only
  its X-action on measured qubits can affect counts), and readout errors
  apply through the very same
  :meth:`~repro.quantum.noise_model.NoiseModel.apply_readout_errors` code
  the dense path uses.  That distribution is cached per circuit structure,
  and each circuit's counts are one ``multinomial`` draw from it — the
  dense simulators' draw, so a circuit's counts are bit-identical to theirs
  on a fresh generator of the same seed.  Circuits outside the analytic
  envelope run **Pauli-noise trajectories**: a batch of one tableau per
  shot, advanced by one update per instruction.

Eligibility (Clifford-only gates, Pauli-diagonal noise) is decided by
:mod:`repro.quantum.dispatch`; the simulator asks it only where its
distribution memo computes and on the paths that skip the memo.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.batch import (
    BatchResult,
    _noise_token,
    check_shots,
    circuit_measure_map,
    circuit_structure_key,
    measurements_are_terminal,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.dispatch import CLIFFORD_GATE_NAMES, stabilizer_mixtures
from repro.quantum.simulator import (
    SimulationResult,
    _format_clbits,
    renormalize_readout_probabilities,
)
from repro.telemetry import runtime as telemetry
from repro.utils.memo import BoundedMemo
from repro.utils.rng import as_rng

__all__ = [
    "ANALYTIC_MAX_MEASURED_QUBITS",
    "ANALYTIC_MAX_SYMBOLS",
    "CLIFFORD_GATE_NAMES",
    "CliffordTableau",
    "StabilizerSimulator",
    "popcount",
]

#: Order of each Clifford gate (G**order = identity); run-length-encoded
#: repetitions reduce modulo this, so an η-identity chain costs O(1).
_GATE_ORDER = {
    "id": 1, "x": 2, "y": 2, "z": 2, "h": 2,
    "s": 4, "sdg": 4, "cx": 2, "cz": 2, "cy": 2, "swap": 2,
}

#: Analytic-path cap on measured qubits: the exact probability vector has
#: ``2**m`` entries (the same quantity the dense samplers materialise).
#: The bound is INCLUSIVE — exactly 12 measured qubits still runs
#: analytically, 13 falls back — matching the "measured qubits ≤ 12" error
#: message; both sides of the boundary are pinned by
#: ``tests/quantum/test_analytic_envelope.py``.
ANALYTIC_MAX_MEASURED_QUBITS = 12

#: Analytic-path cap on random measurement outcomes (symbols): enumerating
#: the affine outcome subspace costs ``2**r`` rows.  Inclusive like the
#: measured-qubit cap: exactly 16 symbols still runs analytically, 17 falls
#: back ("random outcomes ≤ 16"); boundary pinned by
#: ``tests/quantum/test_analytic_envelope.py``.
ANALYTIC_MAX_SYMBOLS = 16

#: Bits per packed word of the symplectic bit matrix.
WORD_BITS = 64

_ONE = np.uint64(1)
_ZERO = np.uint64(0)


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Portable SWAR popcount for ``uint64`` arrays (no ``bitwise_count``)."""
        v = words.copy()
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = np.uint64(0x0101010101010101)
        v -= (v >> _ONE) & m1
        v = (v & m2) + ((v >> np.uint64(2)) & m2)
        v = (v + (v >> np.uint64(4))) & m4
        return (v * h01) >> np.uint64(56)


def _phase_exponents(x1, z1, x2, z2) -> np.ndarray:
    """Per-row phase exponent (mod 4) of multiplying Paulis ``(x1, z1)`` into ``(x2, z2)``.

    CHP's ``g`` sum on packed words: per qubit the product contributes +1 on
    the ``plus`` bit patterns and −1 on the ``minus`` ones, so the sum over a
    row is ``popcount(plus) − popcount(minus)``.  Arguments broadcast over
    leading row axes; the last axis holds a row's words.
    """
    plus = (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
    minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2)
    return popcount(plus).sum(axis=-1, dtype=np.int64) - popcount(minus).sum(
        axis=-1, dtype=np.int64
    )


class CliffordTableau:
    """``B`` n-qubit stabilizer states in CHP form, sharing one symplectic block.

    Rows ``0..n-1`` are destabilizer generators and rows ``n..2n-1``
    stabilizer generators.  The X/Z symplectic bits are packed into
    ``uint64`` words of shape ``(2n, W)`` with ``W = ceil(n / 64)`` (qubit
    ``q`` is bit ``q % 64`` of word ``q // 64``) and shared by the batch; the
    sign exponents ``r`` carry the batch axis as a ``(B, 2n)`` ``uint8``
    array (row ``i`` of element ``b`` has sign ``(-1)**r[b, i]``).

    Sharing is valid because every operation keeps the symplectic part
    common: Clifford gates act identically on all elements, Pauli frames
    (:meth:`apply_pauli_masked`) flip only signs, a measurement in a common
    instruction stream is random (or deterministic) for all elements at once
    and differs only in the outcome signs, and reset corrections are sign
    conditionals.  A batch is therefore many runs of one circuit, not a pool
    of arbitrary states; ``batch_size=1`` is a single tableau.

    With ``track_symbols=True`` (a batch of one only) every random outcome
    of :meth:`measure_symbolic` becomes a fresh binary symbol and row signs
    become affine forms ``r ⊕ (rsym · s)`` over the symbol vector ``s``;
    ``rsym`` holds each row's symbol mask as a Python int.  Every operation
    keeps the forms affine, so one pass yields each outcome as an affine
    function of uniformly random symbols — the exact joint distribution.
    """

    __slots__ = (
        "n", "batch_size", "x", "z", "r", "rsym", "num_symbols",
        "_word", "_shift",
    )

    def __init__(
        self, num_qubits: int, batch_size: int = 1, track_symbols: bool = False
    ):
        if num_qubits < 1:
            raise SimulationError("a tableau needs at least one qubit")
        if batch_size < 1:
            raise SimulationError("a batched tableau needs at least one element")
        if track_symbols and batch_size != 1:
            raise SimulationError("symbolic tracking needs a batch of one")
        n = int(num_qubits)
        self.n = n
        self.batch_size = int(batch_size)
        words = (n + WORD_BITS - 1) // WORD_BITS
        self.x = np.zeros((2 * n, words), dtype=np.uint64)
        self.z = np.zeros((2 * n, words), dtype=np.uint64)
        self.r = np.zeros((self.batch_size, 2 * n), dtype=np.uint8)
        self.rsym = np.zeros(2 * n, dtype=object) if track_symbols else None
        self.num_symbols = 0
        qubits = np.arange(n)
        self._word = qubits // WORD_BITS
        self._shift = (qubits % WORD_BITS).astype(np.uint64)
        # Destabilizer row q starts as X_q, stabilizer row n+q as Z_q.
        self.x[qubits, self._word] = _ONE << self._shift
        self.z[n + qubits, self._word] = _ONE << self._shift

    # -- packed-bit access ------------------------------------------------------------
    def _col(self, words: np.ndarray, q: int) -> np.ndarray:
        """The 0/1 bit column of qubit *q* across all rows, as ``uint64``."""
        return (words[:, self._word[q]] >> self._shift[q]) & _ONE

    def _flip_rows(self, label: str, qubits: Sequence[int]) -> np.ndarray:
        """Rows anticommuting with a Pauli string (the sign-flip vector)."""
        if len(label) != len(qubits):
            raise SimulationError(
                f"Pauli label {label!r} has {len(label)} characters for "
                f"{len(qubits)} qubits"
            )
        flip = np.zeros(2 * self.n, dtype=np.uint8)
        for ch, qubit in zip(label.lower(), qubits):
            if ch == "i":
                continue
            if ch not in ("x", "y", "z"):
                raise SimulationError(f"unknown Pauli character {ch!r}")
            if ch in ("x", "y"):
                flip ^= self._col(self.z, qubit).astype(np.uint8)
            if ch in ("z", "y"):
                flip ^= self._col(self.x, qubit).astype(np.uint8)
        return flip

    # -- gates ------------------------------------------------------------------------
    def h(self, q: int) -> None:
        w, s = self._word[q], self._shift[q]
        xq = (self.x[:, w] >> s) & _ONE
        zq = (self.z[:, w] >> s) & _ONE
        self.r ^= (xq & zq).astype(np.uint8)
        diff = (xq ^ zq) << s
        self.x[:, w] ^= diff
        self.z[:, w] ^= diff

    def s(self, q: int) -> None:
        w, s = self._word[q], self._shift[q]
        xq = (self.x[:, w] >> s) & _ONE
        zq = (self.z[:, w] >> s) & _ONE
        self.r ^= (xq & zq).astype(np.uint8)
        self.z[:, w] ^= xq << s

    def sdg(self, q: int) -> None:
        self.z_gate(q)
        self.s(q)

    def x_gate(self, q: int) -> None:
        self.r ^= self._col(self.z, q).astype(np.uint8)

    def y_gate(self, q: int) -> None:
        self.r ^= (self._col(self.x, q) ^ self._col(self.z, q)).astype(np.uint8)

    def z_gate(self, q: int) -> None:
        self.r ^= self._col(self.x, q).astype(np.uint8)

    def cx(self, control: int, target: int) -> None:
        wc, sc = self._word[control], self._shift[control]
        wt, st = self._word[target], self._shift[target]
        xc = (self.x[:, wc] >> sc) & _ONE
        zc = (self.z[:, wc] >> sc) & _ONE
        xt = (self.x[:, wt] >> st) & _ONE
        zt = (self.z[:, wt] >> st) & _ONE
        self.r ^= (xc & zt & (xt ^ zc ^ _ONE)).astype(np.uint8)
        self.x[:, wt] ^= xc << st
        self.z[:, wc] ^= zt << sc

    def cz(self, control: int, target: int) -> None:
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def cy(self, control: int, target: int) -> None:
        self.sdg(target)
        self.cx(control, target)
        self.s(target)

    def swap(self, a: int, b: int) -> None:
        wa, sa = self._word[a], self._shift[a]
        wb, sb = self._word[b], self._shift[b]
        for words in (self.x, self.z):
            ca = (words[:, wa] >> sa) & _ONE
            cb = (words[:, wb] >> sb) & _ONE
            diff = ca ^ cb
            words[:, wa] ^= diff << sa
            words[:, wb] ^= diff << sb

    def apply_gate(self, name: str, qubits: Sequence[int], repetitions: int = 1) -> None:
        """Apply a named Clifford gate ``repetitions`` times (reduced mod its order)."""
        order = _GATE_ORDER.get(name)
        if order is None:
            raise SimulationError(
                f"gate {name!r} is not Clifford; the stabilizer backend supports "
                f"{sorted(CLIFFORD_GATE_NAMES)}"
            )
        for _ in range(repetitions % order if order > 1 else 0):
            if name == "h":
                self.h(qubits[0])
            elif name == "s":
                self.s(qubits[0])
            elif name == "sdg":
                self.sdg(qubits[0])
            elif name == "x":
                self.x_gate(qubits[0])
            elif name == "y":
                self.y_gate(qubits[0])
            elif name == "z":
                self.z_gate(qubits[0])
            elif name == "cx":
                self.cx(qubits[0], qubits[1])
            elif name == "cz":
                self.cz(qubits[0], qubits[1])
            elif name == "cy":
                self.cy(qubits[0], qubits[1])
            elif name == "swap":
                self.swap(qubits[0], qubits[1])

    # -- Pauli frames (noise injection) ---------------------------------------------------
    def apply_pauli(self, label: str, qubits: Sequence[int]) -> None:
        """Apply a Pauli string (one character per listed qubit) to every element."""
        self.r ^= self._flip_rows(label, qubits)

    def apply_pauli_masked(
        self, label: str, qubits: Sequence[int], element_mask: np.ndarray
    ) -> None:
        """Apply a Pauli string only to the batch elements selected by *element_mask*.

        This is the trajectory-noise primitive: one sampled Pauli realisation
        per element becomes one masked sign flip per distinct label, instead
        of ``B`` separate tableau updates.
        """
        flip = self._flip_rows(label, qubits)
        self.r ^= element_mask.astype(np.uint8)[:, None] & flip[None, :]

    # -- measurement ----------------------------------------------------------------------
    def _collapse(self, q: int, column: np.ndarray) -> int:
        """Collapse qubit *q* for a random-outcome measurement; return row p.

        Performs the CHP update — row p multiplied into every other row
        anticommuting with ``Z_q`` (signs per element, symbol masks along),
        destabilizer replacement, fresh ``Z_q`` stabilizer — but leaves the
        new stabilizer's sign to the caller: sampled in :meth:`measure`,
        symbolic in :meth:`measure_symbolic`.
        """
        n = self.n
        p = n + int(np.argmax(column[n:]))
        rows = np.flatnonzero(column)
        rows = rows[rows != p]
        if rows.size:
            g = _phase_exponents(self.x[p], self.z[p], self.x[rows], self.z[rows])
            total = 2 * self.r[:, rows].astype(np.int64) + 2 * self.r[:, p, None] + g
            self.r[:, rows] = (total % 4) // 2
            self.x[rows] ^= self.x[p]
            self.z[rows] ^= self.z[p]
            if self.rsym is not None:
                self.rsym[rows] ^= self.rsym[p]
        d = p - n
        self.x[d] = self.x[p]
        self.z[d] = self.z[p]
        self.r[:, d] = self.r[:, p]
        if self.rsym is not None:
            self.rsym[d] = self.rsym[p]
        self.x[p] = _ZERO
        self.z[p] = _ZERO
        self.z[p, self._word[q]] = _ONE << self._shift[q]
        return p

    def _deterministic(self, column: np.ndarray) -> tuple[np.ndarray, int]:
        """Outcomes ``(B,)`` and symbol mask of a deterministic measurement.

        The outcome is the sign of the product of the stabilizers whose
        destabilizers anticommute with ``Z_q``.  CHP accumulates that product
        row by row in a scratch row; here the scratch row before each factor
        is a prefix XOR, so every factor's phase comes from one vectorised
        :func:`_phase_exponents` call.
        """
        rows = self.n + np.flatnonzero(column[: self.n])
        x1, z1 = self.x[rows], self.z[rows]
        prefix_x = np.bitwise_xor.accumulate(x1, axis=0)
        prefix_z = np.bitwise_xor.accumulate(z1, axis=0)
        g = int(_phase_exponents(x1[1:], z1[1:], prefix_x[:-1], prefix_z[:-1]).sum())
        r_sum = self.r[:, rows].sum(axis=1, dtype=np.int64)
        outcomes = (((2 * r_sum + g) % 4) // 2).astype(np.uint8)
        mask = 0
        if self.rsym is not None:
            for row in rows:
                mask ^= self.rsym[row]
        return outcomes, mask

    def measure(self, q: int, rng: np.random.Generator) -> np.ndarray:
        """Measure qubit *q* on every element; returns a ``(B,)`` outcome array."""
        column = self._col(self.x, q)
        if column[self.n :].any():
            p = self._collapse(q, column)
            outcomes = rng.integers(0, 2, size=self.batch_size).astype(np.uint8)
            self.r[:, p] = outcomes
            if self.rsym is not None:
                self.rsym[p] = 0
            return outcomes
        return self._deterministic(column)[0]

    def measure_symbolic(self, q: int) -> tuple[int, int]:
        """Measure qubit *q*, returning the outcome as ``(constant, symbol_mask)``.

        A random outcome allocates a fresh symbol (bit ``num_symbols - 1`` of
        subsequent masks); a deterministic outcome may still depend on earlier
        symbols through its mask.
        """
        if self.rsym is None:
            raise SimulationError("symbolic measurement requires track_symbols=True")
        column = self._col(self.x, q)
        if column[self.n :].any():
            p = self._collapse(q, column)
            symbol = 1 << self.num_symbols
            self.num_symbols += 1
            self.r[:, p] = 0
            self.rsym[p] = symbol
            return 0, symbol
        outcomes, mask = self._deterministic(column)
        return int(outcomes[0]), mask

    def reset(self, q: int, rng: np.random.Generator) -> np.ndarray:
        """Reset qubit *q* to ``|0>`` on every element; returns the pre-reset bits."""
        outcomes = self.measure(q, rng)
        rows = np.flatnonzero(self._col(self.z, q))
        if rows.size:
            # X-correction on elements that measured 1 (sign flips only).
            self.r[:, rows] ^= outcomes[:, None]
        return outcomes

    def reset_symbolic(self, q: int) -> None:
        """Reset qubit *q* to ``|0>`` with a symbol-conditioned correction.

        The conditional ``X`` correction flips the sign of every generator
        anticommuting with ``X_q`` whenever the (affine) measurement outcome
        is 1 — which keeps all signs affine in the symbols.
        """
        constant, mask = self.measure_symbolic(q)
        if constant == 0 and mask == 0:
            return
        rows = np.flatnonzero(self._col(self.z, q))
        if constant:
            self.r[:, rows] ^= 1
        if mask:
            self.rsym[rows] ^= mask

    # -- introspection ----------------------------------------------------------------------
    def stabilizer_strings(self, element: int = 0) -> list[str]:
        """One element's stabilizer generators as signed Pauli strings."""
        out = []
        for row in range(self.n, 2 * self.n):
            sign = "-" if self.r[element, row] else "+"
            chars = []
            for q in range(self.n):
                xb = bool((self.x[row, self._word[q]] >> self._shift[q]) & _ONE)
                zb = bool((self.z[row, self._word[q]] >> self._shift[q]) & _ONE)
                chars.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
            out.append(sign + "".join(chars))
        return out


# -- Pauli-frame propagation (noise masks) -----------------------------------------------
class _SuffixPauliMap:
    """Conjugation action of a circuit suffix on single-qubit Paulis, mod phase.

    Row ``q`` of ``(xx, xz)`` is the (x-part, z-part) image of ``X_q`` under
    conjugation by the suffix processed so far; ``(zx, zz)`` likewise for
    ``Z_q``.  Built by prepending instructions while walking the circuit in
    reverse, so at any point the map sends a Pauli error *inserted at the
    current position* to its end-of-circuit image — whose X-action on the
    measured qubits is the only thing that can shift computational-basis
    counts.
    """

    def __init__(self, num_qubits: int):
        n = num_qubits
        self.xx = np.eye(n, dtype=bool)
        self.xz = np.zeros((n, n), dtype=bool)
        self.zx = np.zeros((n, n), dtype=bool)
        self.zz = np.eye(n, dtype=bool)

    def prepend(self, name: str, qubits: Sequence[int]) -> bool:
        """Fold one earlier gate into the map; True if the map changed."""
        if name in ("id", "x", "y", "z"):
            return False
        if name == "h":
            q = qubits[0]
            self.xx[q], self.zx[q] = self.zx[q].copy(), self.xx[q].copy()
            self.xz[q], self.zz[q] = self.zz[q].copy(), self.xz[q].copy()
        elif name in ("s", "sdg"):
            q = qubits[0]
            self.xx[q] ^= self.zx[q]
            self.xz[q] ^= self.zz[q]
        elif name == "cx":
            c, t = qubits
            self.xx[c] ^= self.xx[t]
            self.xz[c] ^= self.xz[t]
            self.zx[t] ^= self.zx[c]
            self.zz[t] ^= self.zz[c]
        elif name == "cz":
            c, t = qubits
            self.xx[c] ^= self.zx[t]
            self.xz[c] ^= self.zz[t]
            self.xx[t] ^= self.zx[c]
            self.xz[t] ^= self.zz[c]
        elif name == "cy":
            c, t = qubits
            self.xx[c] ^= self.xx[t] ^ self.zx[t]
            self.xz[c] ^= self.xz[t] ^ self.zz[t]
            self.xx[t] ^= self.zx[c]
            self.xz[t] ^= self.zz[c]
            self.zx[t] ^= self.zx[c]
            self.zz[t] ^= self.zz[c]
        elif name == "swap":
            a, b = qubits
            for rows in (self.xx, self.xz, self.zx, self.zz):
                rows[[a, b]] = rows[[b, a]]
        else:
            raise SimulationError(f"cannot propagate Paulis through gate {name!r}")
        return True

    def prepend_reset(self, qubit: int) -> None:
        """A reset annihilates any error component living on its qubit."""
        self.xx[qubit] = False
        self.xz[qubit] = False
        self.zx[qubit] = False
        self.zz[qubit] = False

    def final_x_mask(self, label: str, qubits: Sequence[int]) -> np.ndarray:
        """X-part (length-n bool vector) of the suffix image of a Pauli string."""
        mask = np.zeros(self.xx.shape[0], dtype=bool)
        for ch, qubit in zip(label.lower(), qubits):
            if ch in ("x", "y"):
                mask ^= self.xx[qubit]
            if ch in ("z", "y"):
                mask ^= self.zx[qubit]
        return mask


def _walsh_hadamard(vector: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform (XOR-convolution becomes pointwise)."""
    out = vector.astype(float).copy()
    size = out.shape[0]
    step = 1
    while step < size:
        for start in range(0, size, 2 * step):
            a = out[start : start + step].copy()
            b = out[start + step : start + 2 * step].copy()
            out[start : start + step] = a + b
            out[start + step : start + 2 * step] = a - b
        step *= 2
    return out


# -- the simulator ------------------------------------------------------------------------
class _OutOfEnvelope:
    """Memo entry of a structure whose random outcomes overflow the envelope.

    It keeps the mixtures the eligibility walk found, so a repeat skips both
    the symbolic pass and the walk and goes straight to trajectories.
    """

    __slots__ = ("mixtures",)

    def __init__(self, mixtures: dict):
        self.mixtures = mixtures


class _AnalyticDistribution:
    """Cached sampling plan of one (circuit structure, noise model) pair.

    ``probabilities`` is the exact outcome distribution over the measured
    qubits with readout errors folded in and renormalised, so a run is one
    ``multinomial`` plus a dict build.  Outcome keys render on first draw
    and are memoised per index (most of the ``2**m`` outcomes of a noisy
    distribution are never drawn).
    """

    __slots__ = ("probabilities", "measured_qubits", "measure_map", "num_clbits", "_keys")

    def __init__(self, probabilities, measured_qubits, measure_map, num_clbits):
        if probabilities is not None:
            probabilities.setflags(write=False)
        self.probabilities = probabilities
        self.measured_qubits = measured_qubits
        self.measure_map = measure_map
        self.num_clbits = num_clbits
        self._keys: dict[int, str] = {}

    def key(self, index: int) -> str:
        """The classical-register bitstring of measured-qubit outcome *index*."""
        key = self._keys.get(index)
        if key is None:
            outcome = format(index, f"0{len(self.measured_qubits)}b")
            values = {
                self.measure_map[qubit]: int(bit)
                for qubit, bit in zip(self.measured_qubits, outcome)
            }
            key = self._keys[index] = _format_clbits(values, self.num_clbits)
        return key


class StabilizerSimulator:
    """Clifford-circuit execution on a stabilizer tableau.

    Drop-in for the dense simulators on the Clifford+Pauli class: the same
    ``run`` / ``run_batch`` signatures, the same
    :class:`~repro.quantum.simulator.SimulationResult`, and — on the
    analytic path — the same single-``multinomial`` draw per circuit, so a
    Clifford circuit's counts are bit-identical to the dense simulators'
    on a fresh generator of the same seed.  ``run`` is the one-circuit case
    of ``run_batch``.

    Parameters
    ----------
    noise_model:
        Optional :class:`~repro.quantum.noise_model.NoiseModel` whose every
        gate error is a Pauli-diagonal channel (checked through
        :func:`repro.quantum.dispatch.stabilizer_mixtures`); readout errors are
        applied classically exactly as the dense path does.
    seed:
        Seed or generator for all sampling performed by this instance.
    """

    def __init__(self, noise_model=None, seed=None):
        self._noise_model = noise_model
        self._rng = as_rng(seed)
        #: Analytic distributions, or out-of-envelope entries, per (circuit
        #: structure, noise token).
        self._distributions = BoundedMemo(256)

    @property
    def noise_model(self):
        """The attached noise model (settable; swapping clears the cache)."""
        return self._noise_model

    @noise_model.setter
    def noise_model(self, noise_model) -> None:
        if noise_model is not self._noise_model:
            self._distributions.clear()
        self._noise_model = noise_model

    # -- public API --------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        initial_state=None,
        rng=None,
        method: str = "auto",
    ) -> SimulationResult:
        """Execute *circuit* and sample *shots* outcomes (a batch of one).

        ``method`` selects the execution strategy: ``"auto"`` (analytic when
        the circuit fits the caps, else trajectories), ``"analytic"``
        (force; raises if out of envelope) or ``"trajectory"`` (force
        Monte Carlo — used by the conformance suite to compare the two noise
        treatments statistically).
        """
        return self.run_batch(
            [circuit], shots=shots, initial_state=initial_state, rng=rng, method=method
        ).results[0]

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        initial_state=None,
        rng=None,
        method: str = "auto",
        structure_keys: "Sequence[tuple] | None" = None,
    ) -> BatchResult:
        """Execute a sequence of circuits, sharing per-structure work.

        Each circuit object is resolved once per call; structurally identical
        circuits under the same noise model share one cached distribution
        across calls.  Every analytic circuit then draws one ``multinomial``
        in submission order.  ``method`` is as for :meth:`run`;
        *structure_keys*, when given, holds each circuit's
        :func:`~repro.quantum.batch.circuit_structure_key` in order (otherwise
        a circuit's key is computed when its memo lookup needs it).
        """
        shots = check_shots(shots)
        if initial_state is not None:
            raise SimulationError(
                "the stabilizer backend always starts from |0...0>; "
                "route circuits with explicit initial states to a dense simulator"
            )
        if method not in ("auto", "analytic", "trajectory"):
            raise SimulationError(f"unknown stabilizer method {method!r}")
        generator = as_rng(rng) if rng is not None else self._rng
        memo = self._distributions
        hits_before, misses_before = memo.hits, memo.misses
        mark = telemetry.clock_mark()

        # Keyed by object identity (the value holds the circuit, so the id
        # stays valid): a repeated object pays its analysis once.
        resolved: dict[int, tuple] = {}
        structures = 0
        results: list[SimulationResult] = []
        for index, circuit in enumerate(circuits):
            entry = resolved.get(id(circuit))
            if entry is None:
                key = None if structure_keys is None else structure_keys[index]
                entry = resolved[id(circuit)] = (circuit, self._resolve(circuit, method, key))
                structures += isinstance(entry[1], _AnalyticDistribution)
            plan = entry[1]
            if isinstance(plan, _AnalyticDistribution):
                results.append(self._sample(plan, shots, generator))
            else:
                results.append(self._run_trajectories(circuit, plan, shots, generator))
        metadata = {
            "method": "stabilizer_batch",
            "noise_model": None if self._noise_model is None else self._noise_model.name,
            "structures": structures,
            "cache_hits": memo.hits - hits_before,
            "cache_misses": memo.misses - misses_before,
        }
        telemetry.record_span(
            "sim.run_batch",
            "sim",
            start=mark,
            attributes={
                "method": "stabilizer_batch",
                "circuits": len(results),
                "structures": structures,
                "cache_hits": metadata["cache_hits"],
                "cache_misses": metadata["cache_misses"],
            },
        )
        return BatchResult(results=results, shots=shots, metadata=metadata)

    def final_tableau(self, circuit: QuantumCircuit) -> CliffordTableau:
        """Tableau after a measurement- and reset-free Clifford circuit."""
        stabilizer_mixtures(None, circuit)  # the Clifford check
        tableau = CliffordTableau(circuit.num_qubits)
        for instruction in circuit.instructions:
            if instruction.kind == "barrier":
                continue
            if instruction.kind != "gate":
                raise SimulationError(
                    "final_tableau requires a measurement- and reset-free circuit"
                )
            tableau.apply_gate(
                instruction.name, instruction.qubits, instruction.repetitions
            )
        return tableau

    def _resolve(self, circuit: QuantumCircuit, method: str, key: "tuple | None"):
        """The cached distribution of *circuit*, else its mixtures for trajectories.

        A memo entry passed eligibility where the memo computed it (the key
        implies it on a hit), and an out-of-envelope entry carries the
        mixtures found there; anything else is checked here, first.
        """
        plan = None if method == "trajectory" else self._analytic(circuit, key)
        if isinstance(plan, _AnalyticDistribution):
            return plan
        mixtures = (
            stabilizer_mixtures(self._noise_model, circuit) if plan is None else plan.mixtures
        )
        if method == "analytic":
            raise SimulationError(
                "circuit exceeds the analytic envelope "
                f"(measured qubits ≤ {ANALYTIC_MAX_MEASURED_QUBITS}, "
                f"random outcomes ≤ {ANALYTIC_MAX_SYMBOLS})"
                if measurements_are_terminal(circuit)
                else "the analytic stabilizer path requires terminal measurements"
            )
        return mixtures

    # -- analytic path -------------------------------------------------------------------
    def _analytic(self, circuit: QuantumCircuit, key: "tuple | None" = None):
        """Exact outcome distribution of *circuit*, an :class:`_OutOfEnvelope`
        entry if its random outcomes overflow, or ``None`` if its
        measurements are not terminal or too many qubits are measured.

        The memo answers first: it keeps an entry only for a structure that
        passed the checks below, so only a miss runs them (and only a miss
        that passes them counts as one).
        """
        token = _noise_token(self._noise_model)
        kept = self._noise_model is None or token is not None  # else no stable key
        if kept:
            memo_key = (circuit_structure_key(circuit) if key is None else key, token)
            plan = self._distributions.peek(memo_key)
            if plan is not None:
                return plan
        if not measurements_are_terminal(circuit):
            return None
        measure_map = circuit_measure_map(circuit)
        measured_qubits = sorted(measure_map)
        # Strict ">" keeps the documented bound inclusive: exactly
        # ANALYTIC_MAX_MEASURED_QUBITS measured qubits stays analytic.
        if len(measured_qubits) > ANALYTIC_MAX_MEASURED_QUBITS:
            return None
        if not kept:
            return self._compute_distribution(circuit, measured_qubits, measure_map)
        return self._distributions.get(
            memo_key, self._compute_distribution, circuit, measured_qubits, measure_map
        )

    def _compute_distribution(
        self,
        circuit: QuantumCircuit,
        measured_qubits: list[int],
        measure_map: dict[int, int],
    ):
        """Eligibility, one symbolic tableau pass, exact Pauli-noise and readout folding.

        A pass whose random outcomes overflow the envelope stops there and
        returns an :class:`_OutOfEnvelope` entry with the mixtures.
        """
        mixtures = stabilizer_mixtures(self._noise_model, circuit)
        if not measure_map:  # nothing to sample: no pass, and no draw later
            return _AnalyticDistribution(None, (), {}, circuit.num_clbits)
        tableau = CliffordTableau(circuit.num_qubits, track_symbols=True)
        forms: dict[int, tuple[int, int]] = {}
        for instruction in circuit.instructions:
            if instruction.kind == "barrier":
                continue
            if instruction.kind == "gate":
                tableau.apply_gate(
                    instruction.name, instruction.qubits, instruction.repetitions
                )
            elif instruction.kind == "reset":
                tableau.reset_symbolic(instruction.qubits[0])
            elif instruction.kind == "measure":
                for qubit in instruction.qubits:
                    forms[qubit] = tableau.measure_symbolic(qubit)
            # Strict ">": exactly ANALYTIC_MAX_SYMBOLS symbols stays analytic.
            if tableau.num_symbols > ANALYTIC_MAX_SYMBOLS:
                return _OutOfEnvelope(mixtures)

        probabilities = self._enumerate_distribution(
            [forms[qubit] for qubit in measured_qubits], tableau.num_symbols
        )
        probabilities = self._convolve_noise(
            circuit, measured_qubits, probabilities, mixtures
        )
        noise_model = self._noise_model
        if noise_model is not None and noise_model.has_readout_error():
            probabilities = renormalize_readout_probabilities(
                noise_model.apply_readout_errors(probabilities, measured_qubits)
            )
        return _AnalyticDistribution(
            probabilities=probabilities,
            measured_qubits=tuple(measured_qubits),
            measure_map=dict(measure_map),
            num_clbits=circuit.num_clbits,
        )

    @staticmethod
    def _enumerate_distribution(
        forms: Sequence[tuple[int, int]], num_symbols: int
    ) -> np.ndarray:
        """Probability vector over measured-qubit bitstrings from affine forms.

        Outcomes are uniform over the affine subspace traced out by the
        symbol vector; every entry is an exact dyadic rational, so the
        resulting float64 vector is exact.
        """
        m = len(forms)
        probabilities = np.zeros(2**m, dtype=float)
        if m == 0:
            return probabilities
        r = num_symbols
        assignments = (np.arange(2**r, dtype=np.int64)[:, None] >> np.arange(r)) & 1
        indices = np.zeros(2**r, dtype=np.int64)
        for position, (constant, mask) in enumerate(forms):
            weight = 1 << (m - 1 - position)
            if r:
                mask_bits = (mask >> np.arange(r)) & 1
                bits = (assignments @ mask_bits) % 2
                bits ^= constant
            else:
                bits = np.full(1, constant, dtype=np.int64)
            indices += bits * weight
        np.add.at(probabilities, indices, 1.0 / (1 << r))
        return probabilities

    def _convolve_noise(
        self,
        circuit: QuantumCircuit,
        measured_qubits: list[int],
        probabilities: np.ndarray,
        mixtures: dict,
    ) -> np.ndarray:
        """Fold every Pauli-noise insertion into the exact distribution.

        Each error component, conjugated through the rest of the circuit,
        acts on the counts only through the X-mask it lands on the measured
        qubits; independent channels therefore XOR-convolve.  The combined
        convolution is evaluated in the Walsh–Hadamard domain, where an
        η-fold repeat of one insertion is a pointwise power — the stabilizer
        analogue of the dense path's ``matrix_power`` run compression.
        """
        if not mixtures:
            return probabilities
        m = len(measured_qubits)
        qubit_weight = {
            qubit: 1 << (m - 1 - position)
            for position, qubit in enumerate(measured_qubits)
        }
        suffix = _SuffixPauliMap(circuit.num_qubits)
        spectrum = np.ones(2**m, dtype=float)
        size = float(2**m)

        def insertion_spectrum(instruction) -> np.ndarray:
            combined = np.ones(2**m, dtype=float)
            for error in self._noise_model.errors_for(
                instruction.name, instruction.qubits
            ):
                labels, probs = mixtures[id(error)]
                if error.num_qubits == len(instruction.qubits):
                    applications = [list(instruction.qubits)]
                elif error.num_qubits == 1:
                    applications = [[qubit] for qubit in instruction.qubits]
                else:
                    raise SimulationError(
                        f"error on {error.num_qubits} qubits cannot be applied to "
                        f"a {len(instruction.qubits)}-qubit instruction"
                    )
                for qubits in applications:
                    distribution = np.zeros(2**m, dtype=float)
                    for label, prob in zip(labels, probs):
                        x_mask = suffix.final_x_mask(label, qubits)
                        index = 0
                        for qubit in np.flatnonzero(x_mask):
                            weight = qubit_weight.get(int(qubit))
                            if weight is not None:
                                index ^= weight
                        distribution[index] += prob
                    combined = combined * _walsh_hadamard(distribution)
            return combined

        for instruction in reversed(circuit.instructions):
            if instruction.kind == "barrier" or instruction.kind == "measure":
                continue
            if instruction.kind == "reset":
                suffix.prepend_reset(instruction.qubits[0])
                continue
            reps = instruction.repetitions
            has_errors = bool(
                self._noise_model.errors_for(instruction.name, instruction.qubits)
            )
            if not has_errors:
                if suffix.prepend(instruction.name, instruction.qubits):
                    for _ in range(reps - 1):
                        suffix.prepend(instruction.name, instruction.qubits)
                continue
            if instruction.name in ("id", "x", "y", "z"):
                # These gates fix the suffix map, so every repetition shares
                # one insertion spectrum: raise it to the run length
                # pointwise (the stabilizer analogue of ``matrix_power``).
                spectrum = spectrum * insertion_spectrum(instruction) ** reps
            else:
                for _ in range(reps):
                    spectrum = spectrum * insertion_spectrum(instruction)
                    suffix.prepend(instruction.name, instruction.qubits)

        noisy = _walsh_hadamard(_walsh_hadamard(probabilities) * spectrum) / size
        noisy = np.clip(noisy, 0.0, None)
        total = noisy.sum()
        if total <= 0:
            raise SimulationError("Pauli-noise convolution produced an empty distribution")
        return noisy / total

    def _sample(
        self,
        distribution: _AnalyticDistribution,
        shots: int,
        generator: np.random.Generator,
    ) -> SimulationResult:
        """One ``multinomial`` from the cached distribution (the dense samplers' draw)."""
        metadata = self._metadata("analytic")
        if not distribution.measure_map:
            return SimulationResult(counts={}, shots=0, metadata=metadata)
        samples = generator.multinomial(shots, distribution.probabilities)
        counts: dict[str, int] = {}
        for index in np.flatnonzero(samples):
            key = distribution.key(int(index))
            counts[key] = counts.get(key, 0) + int(samples[index])
        return SimulationResult(counts=counts, shots=shots, metadata=metadata)

    # -- trajectory path -----------------------------------------------------------------
    def _run_trajectories(
        self,
        circuit: QuantumCircuit,
        mixtures: dict,
        shots: int,
        generator: np.random.Generator,
    ) -> SimulationResult:
        """Monte Carlo with the shot axis as the tableau batch axis.

        One batched tableau update per instruction advances every shot;
        sampled Pauli errors apply as masked sign flips and readout errors as
        vectorised bit flips.  Statistically equivalent to the analytic path
        (chi-squared-tested by the conformance suite), but it consumes the
        generator differently, so it makes no bit-parity claim.
        """
        noise_model = self._noise_model
        metadata = self._metadata("trajectory")
        if not circuit.has_measurements() or shots == 0:
            return SimulationResult(counts={}, shots=0, metadata=metadata)

        tableau = CliffordTableau(circuit.num_qubits, batch_size=shots)
        num_clbits = circuit.num_clbits
        clbit_bits = np.zeros((shots, num_clbits), dtype=np.uint8)
        for instruction in circuit.instructions:
            if instruction.kind == "barrier":
                continue
            if instruction.kind == "gate":
                errors = (
                    noise_model.errors_for(instruction.name, instruction.qubits)
                    if mixtures
                    else ()
                )
                if not errors:
                    tableau.apply_gate(
                        instruction.name, instruction.qubits, instruction.repetitions
                    )
                else:  # each repetition draws its own errors
                    for _ in range(instruction.repetitions):
                        tableau.apply_gate(instruction.name, instruction.qubits)
                        self._apply_sampled_errors(tableau, instruction, mixtures, generator)
            elif instruction.kind == "reset":
                tableau.reset(instruction.qubits[0], generator)
            elif instruction.kind == "measure":
                for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                    bits = tableau.measure(qubit, generator)
                    if noise_model is not None:
                        readout = noise_model.readout_error_for(qubit)
                        if readout is not None:
                            flip_probability = np.where(
                                bits == 0,
                                readout.prob_1_given_0,
                                readout.prob_0_given_1,
                            )
                            flips = generator.random(shots) < flip_probability
                            bits = bits ^ flips.astype(np.uint8)
                    clbit_bits[:, clbit] = bits

        counts: dict[str, int] = {}
        if num_clbits <= 62:
            # Pack each shot's clbit row into one integer (clbit 0 is the
            # most significant character of the formatted key).
            weights = (1 << np.arange(num_clbits - 1, -1, -1)).astype(np.int64)
            codes = clbit_bits.astype(np.int64) @ weights
            unique, tallies = np.unique(codes, return_counts=True)
            for code, tally in zip(unique, tallies):
                counts[format(int(code), f"0{num_clbits}b")] = int(tally)
        else:  # pragma: no cover - no repository circuit carries 63+ clbits
            for row in clbit_bits:
                key = "".join("1" if bit else "0" for bit in row)
                counts[key] = counts.get(key, 0) + 1
        return SimulationResult(counts=counts, shots=shots, metadata=metadata)

    def _apply_sampled_errors(
        self,
        tableau: CliffordTableau,
        instruction,
        mixtures: dict,
        generator: np.random.Generator,
    ) -> None:
        """Draw one Pauli realisation per element from each error and apply it."""
        for error in self._noise_model.errors_for(instruction.name, instruction.qubits):
            labels, probs = mixtures[id(error)]
            if error.num_qubits == len(instruction.qubits):
                applications = [list(instruction.qubits)]
            else:
                applications = [[qubit] for qubit in instruction.qubits]
            cumulative = np.cumsum(probs)
            for qubits in applications:
                draws = generator.random(tableau.batch_size)
                indices = np.searchsorted(cumulative, draws, side="right")
                np.clip(indices, 0, len(labels) - 1, out=indices)
                for position, label in enumerate(labels):
                    if set(label.lower()) <= {"i"}:
                        continue
                    mask = indices == position
                    if mask.any():
                        tableau.apply_pauli_masked(label, qubits, mask)

    def _metadata(self, mode: str) -> dict:
        return {
            "method": "stabilizer",
            "stabilizer_mode": mode,
            "noise_model": None if self._noise_model is None else self._noise_model.name,
        }
