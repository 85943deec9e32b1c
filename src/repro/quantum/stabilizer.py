"""Stabilizer (CHP tableau) fast path for Clifford circuits with Pauli noise.

The UA-DI-QSDC circuits are almost entirely Clifford — Bell-pair
preparation, Pauli-frame encoding, identity-gate channels, Bell-basis
measurement — and every stochastic noise primitive the paper's emulation
needs (depolarizing, bit/phase flip, general Pauli channels) is a mixture of
Pauli unitaries.  For that class this module simulates in polynomial time
what the dense simulators pay exponential cost for, while reproducing their
sampling contract exactly:

* :class:`CliffordTableau` — an Aaronson–Gottesman CHP tableau (destabilizer
  + stabilizer rows over :math:`F_2`) with the full Clifford gate set of
  :class:`~repro.quantum.circuit.QuantumCircuit`, computational-basis
  measurement and reset.  Measurement outcomes can optionally be tracked
  *symbolically*: every random outcome becomes a fresh binary symbol and all
  subsequent phases stay affine in those symbols, which turns one tableau
  pass into the **exact joint outcome distribution** (uniform over an affine
  subspace) instead of one Monte-Carlo sample.
* :class:`StabilizerSimulator` — the same ``run`` / ``run_batch`` /
  :class:`~repro.quantum.simulator.SimulationResult` contract as the dense
  simulators.  Terminal-measurement circuits take the **analytic path**: one
  symbolic tableau pass yields the exact probability vector over the
  measured qubits, Pauli noise is folded in exactly via an XOR-convolution
  of error masks (each error component is conjugated through the remaining
  circuit; only its X-action on measured qubits can affect counts), readout
  errors apply through the very same
  :meth:`~repro.quantum.noise_model.NoiseModel.apply_readout_errors` code
  the dense path uses, and counts are drawn with a single ``multinomial`` —
  the identical RNG consumption pattern as the dense simulators, which is
  what makes noiseless Clifford counts bit-identical under a fixed seed.
  Circuits outside the analytic envelope (too many measured qubits or
  random outcomes) fall back to per-shot **Pauli-noise trajectory
  sampling** on the tableau.

Eligibility (Clifford-only gates, Pauli-diagonal noise) is *checked* here
but *decided* by :mod:`repro.quantum.dispatch`, which routes circuits
between this backend and the dense ones.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.batch import (
    BatchResult,
    _noise_token,
    circuit_structure_key,
    measurements_are_terminal,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import (
    SimulationResult,
    _format_clbits,
    renormalize_readout_probabilities,
)
from repro.telemetry import runtime as telemetry
from repro.utils.rng import as_rng

__all__ = [
    "ANALYTIC_MAX_MEASURED_QUBITS",
    "ANALYTIC_MAX_SYMBOLS",
    "CLIFFORD_GATE_NAMES",
    "CliffordTableau",
    "StabilizerSimulator",
]

#: Gate names the tableau implements (the Clifford subset of ``make_gate``).
CLIFFORD_GATE_NAMES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "cx", "cz", "cy", "swap"}
)

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


class CliffordTableau:
    """An n-qubit stabilizer state in CHP tableau form.

    Rows ``0..n-1`` are destabilizer generators, rows ``n..2n-1`` stabilizer
    generators; ``x``/``z`` hold the symplectic bits and ``r`` the sign
    exponent (the generator carries sign ``(-1)**r``).

    With ``track_symbols=True`` every random measurement outcome becomes a
    fresh binary symbol and row signs become affine forms ``r ⊕ (mask · s)``
    over the symbol vector ``s`` (``mask`` is a Python-int bitmask).  All
    tableau operations keep the forms affine, so one pass computes every
    measurement outcome as an affine function of uniformly random symbols —
    the exact joint distribution.
    """

    __slots__ = ("n", "x", "z", "r", "rsym", "num_symbols")

    def __init__(self, num_qubits: int, track_symbols: bool = False):
        if num_qubits < 1:
            raise SimulationError("a tableau needs at least one qubit")
        n = int(num_qubits)
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[:n, :] = np.eye(n, dtype=bool)
        self.z[n:, :] = np.eye(n, dtype=bool)
        self.rsym: list[int] | None = [0] * (2 * n) if track_symbols else None
        self.num_symbols = 0

    # -- gates ---------------------------------------------------------------------
    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self.z_gate(q)
        self.s(q)

    def x_gate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def y_gate(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def cx(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ True)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, control: int, target: int) -> None:
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def cy(self, control: int, target: int) -> None:
        self.sdg(target)
        self.cx(control, target)
        self.s(target)

    def swap(self, a: int, b: int) -> None:
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

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

    def apply_pauli(self, label: str, qubits: Sequence[int]) -> None:
        """Apply a Pauli string (one character per listed qubit) as a unitary."""
        for ch, qubit in zip(label.lower(), qubits):
            if ch == "i":
                continue
            if ch == "x":
                self.x_gate(qubit)
            elif ch == "y":
                self.y_gate(qubit)
            elif ch == "z":
                self.z_gate(qubit)
            else:
                raise SimulationError(f"unknown Pauli character {ch!r}")

    # -- row algebra ------------------------------------------------------------------
    def _phase_exponent(self, h: int, i: int) -> int:
        """The mod-4 phase exponent contribution of multiplying row i into row h."""
        x1 = self.x[i].astype(np.int8)
        z1 = self.z[i].astype(np.int8)
        x2 = self.x[h].astype(np.int8)
        z2 = self.z[h].astype(np.int8)
        g = (
            (x1 & z1) * (z2 - x2)
            + (x1 & (1 - z1)) * (z2 * (2 * x2 - 1))
            + ((1 - x1) & z1) * (x2 * (1 - 2 * z2))
        )
        return int(g.sum())

    def _rowsum(self, h: int, i: int) -> None:
        """Replace generator h with generator i * generator h (CHP rowsum)."""
        total = 2 * int(self.r[h]) + 2 * int(self.r[i]) + self._phase_exponent(h, i)
        self.r[h] = (total % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]
        if self.rsym is not None:
            self.rsym[h] ^= self.rsym[i]

    # -- measurement -----------------------------------------------------------------
    def _collapse(self, q: int) -> int:
        """Collapse qubit *q* for a random-outcome measurement; return row p.

        Performs the CHP update (rowsums, destabilizer replacement, fresh
        ``Z_q`` stabilizer) but leaves the new stabilizer's sign to the
        caller — sampled in :meth:`measure`, symbolic in
        :meth:`measure_symbolic`.
        """
        p = int(np.flatnonzero(self.x[self.n:, q])[0]) + self.n
        for i in np.flatnonzero(self.x[:, q]):
            if int(i) != p:
                self._rowsum(int(i), p)
        d = p - self.n
        self.x[d] = self.x[p]
        self.z[d] = self.z[p]
        self.r[d] = self.r[p]
        if self.rsym is not None:
            self.rsym[d] = self.rsym[p]
        self.x[p] = False
        self.z[p] = False
        self.z[p, q] = True
        return p

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit *q* in the computational basis, sampling via *rng*."""
        if np.any(self.x[self.n:, q]):
            p = self._collapse(q)
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            if self.rsym is not None:
                self.rsym[p] = 0
            return outcome
        constant, _ = self._deterministic_form(q)
        return constant

    def measure_symbolic(self, q: int) -> tuple[int, int]:
        """Measure qubit *q*, returning the outcome as ``(constant, symbol_mask)``.

        A random outcome allocates a fresh symbol (bit ``num_symbols - 1`` of
        subsequent masks); a deterministic outcome may still depend on earlier
        symbols through its mask.
        """
        if self.rsym is None:
            raise SimulationError("symbolic measurement requires track_symbols=True")
        if np.any(self.x[self.n:, q]):
            p = self._collapse(q)
            symbol = 1 << self.num_symbols
            self.num_symbols += 1
            self.r[p] = 0
            self.rsym[p] = symbol
            return 0, symbol
        return self._deterministic_form(q)

    def _deterministic_form(self, q: int) -> tuple[int, int]:
        """Affine form of a deterministic measurement outcome on qubit *q*."""
        scratch_x = np.zeros(self.n, dtype=bool)
        scratch_z = np.zeros(self.n, dtype=bool)
        phase = 0  # mod 4
        mask = 0
        for i in np.flatnonzero(self.x[: self.n, q]):
            stab = int(i) + self.n
            x1 = self.x[stab].astype(np.int8)
            z1 = self.z[stab].astype(np.int8)
            x2 = scratch_x.astype(np.int8)
            z2 = scratch_z.astype(np.int8)
            g = (
                (x1 & z1) * (z2 - x2)
                + (x1 & (1 - z1)) * (z2 * (2 * x2 - 1))
                + ((1 - x1) & z1) * (x2 * (1 - 2 * z2))
            )
            phase = (phase + 2 * int(self.r[stab]) + int(g.sum())) % 4
            scratch_x ^= self.x[stab]
            scratch_z ^= self.z[stab]
            if self.rsym is not None:
                mask ^= self.rsym[stab]
        return (phase % 4) // 2, mask

    def reset(self, q: int, rng: np.random.Generator) -> None:
        """Reset qubit *q* to ``|0>`` (measure, then flip on outcome 1)."""
        if self.measure(q, rng) == 1:
            self.x_gate(q)

    def reset_symbolic(self, q: int) -> None:
        """Reset qubit *q* to ``|0>`` with a symbol-conditioned correction.

        The conditional ``X`` correction flips the sign of every generator
        anticommuting with ``X_q`` whenever the (affine) measurement outcome
        is 1 — which keeps all signs affine in the symbols.
        """
        constant, mask = self.measure_symbolic(q)
        if constant == 0 and mask == 0:
            return
        rows = np.flatnonzero(self.z[:, q])
        if constant:
            self.r[rows] ^= 1
        if mask and self.rsym is not None:
            for row in rows:
                self.rsym[int(row)] ^= mask

    # -- introspection -----------------------------------------------------------------
    def stabilizer_strings(self) -> list[str]:
        """The stabilizer generators as signed Pauli strings (for tests/debugging)."""
        out = []
        for row in range(self.n, 2 * self.n):
            sign = "-" if self.r[row] else "+"
            chars = []
            for q in range(self.n):
                xb, zb = bool(self.x[row, q]), bool(self.z[row, q])
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
class _AnalyticDistribution:
    """Cached exact outcome distribution of one (circuit, noise-model) pair."""

    __slots__ = ("probabilities", "measured_qubits", "measure_map", "num_clbits")

    def __init__(self, probabilities, measured_qubits, measure_map, num_clbits):
        self.probabilities = probabilities
        self.measured_qubits = measured_qubits
        self.measure_map = measure_map
        self.num_clbits = num_clbits


class StabilizerSimulator:
    """Clifford-circuit execution on a stabilizer tableau.

    Drop-in for the dense simulators on the Clifford+Pauli class: the same
    ``run`` / ``run_batch`` signatures, the same
    :class:`~repro.quantum.simulator.SimulationResult`, and — on the
    analytic path — the same single-``multinomial`` RNG consumption, so
    noiseless Clifford circuits produce bit-identical counts to the dense
    simulators under a fixed seed.

    Parameters
    ----------
    noise_model:
        Optional :class:`~repro.quantum.noise_model.NoiseModel` whose every
        gate error is a Pauli-diagonal channel (checked at run time through
        :func:`repro.quantum.dispatch.noise_model_mixtures`); readout errors are
        applied classically exactly as the dense path does.
    seed:
        Seed or generator for all sampling performed by this instance.
    """

    def __init__(self, noise_model=None, seed=None):
        self._noise_model = noise_model
        self._rng = as_rng(seed)
        self._cache: OrderedDict[tuple, _AnalyticDistribution] = OrderedDict()
        self._cache_max = 256
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def noise_model(self):
        """The attached noise model (settable; swapping clears the cache)."""
        return self._noise_model

    @noise_model.setter
    def noise_model(self, noise_model) -> None:
        if noise_model is not self._noise_model:
            self._cache.clear()
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
        """Execute *circuit* and sample *shots* outcomes.

        ``method`` selects the execution strategy: ``"auto"`` (analytic when
        the circuit fits the caps, else trajectories), ``"analytic"``
        (force; raises if out of envelope) or ``"trajectory"`` (force
        per-shot Monte Carlo — used by the conformance suite to compare the
        two noise treatments statistically).
        """
        if shots < 0:
            raise SimulationError(f"shots must be non-negative, got {shots}")
        if initial_state is not None:
            raise SimulationError(
                "the stabilizer backend always starts from |0...0>; "
                "route circuits with explicit initial states to a dense simulator"
            )
        if method not in ("auto", "analytic", "trajectory"):
            raise SimulationError(f"unknown stabilizer method {method!r}")
        generator = as_rng(rng) if rng is not None else self._rng
        self._require_clifford(circuit)
        self._mixtures(circuit)  # fail fast on non-Pauli noise

        if method != "trajectory":
            analytic = self._analytic(circuit, allow_fail=(method == "auto"))
            if analytic is not None:
                return self._sample_analytic(analytic, shots, generator)
            if method == "analytic":
                raise SimulationError(
                    "circuit exceeds the analytic envelope "
                    f"(measured qubits ≤ {ANALYTIC_MAX_MEASURED_QUBITS}, "
                    f"random outcomes ≤ {ANALYTIC_MAX_SYMBOLS})"
                )
        return self._run_trajectories(circuit, shots, generator)

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        initial_state=None,
        rng=None,
    ) -> BatchResult:
        """Execute a sequence of circuits, sharing analytic-distribution work.

        Structurally identical circuits under the same noise model reuse one
        cached exact distribution, mirroring the compiled-propagator reuse of
        the dense batched path.
        """
        if shots < 0:
            raise SimulationError(f"shots must be non-negative, got {shots}")
        generator = as_rng(rng) if rng is not None else self._rng
        hits_before, misses_before = self.cache_hits, self.cache_misses
        mark = telemetry.clock_mark()
        results = [
            self.run(circuit, shots=shots, initial_state=initial_state, rng=generator)
            for circuit in circuits
        ]
        telemetry.record_span(
            "sim.run_batch",
            "sim",
            start=mark,
            attributes={
                "method": "stabilizer_batch",
                "circuits": len(results),
                "cache_hits": self.cache_hits - hits_before,
                "cache_misses": self.cache_misses - misses_before,
            },
        )
        return BatchResult(
            results=results,
            shots=shots,
            metadata={
                "method": "stabilizer_batch",
                "noise_model": None if self._noise_model is None else self._noise_model.name,
                "cache_hits": self.cache_hits - hits_before,
                "cache_misses": self.cache_misses - misses_before,
            },
        )

    def final_tableau(self, circuit: QuantumCircuit) -> CliffordTableau:
        """Tableau after a measurement- and reset-free Clifford circuit."""
        self._require_clifford(circuit)
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

    # -- eligibility --------------------------------------------------------------------
    @staticmethod
    def _require_clifford(circuit: QuantumCircuit) -> None:
        for instruction in circuit.instructions:
            if instruction.kind == "gate" and instruction.name not in CLIFFORD_GATE_NAMES:
                raise SimulationError(
                    f"gate {instruction.name!r} is not Clifford; use "
                    "repro.quantum.dispatch to route such circuits to a dense simulator"
                )

    def _mixtures(self, circuit: QuantumCircuit) -> dict:
        """Pauli mixtures of the errors attached to *circuit* (raises if any is not).

        See :func:`repro.quantum.dispatch.noise_model_mixtures`; the dispatcher
        filters ineligible circuits to the dense backend beforehand.
        """
        from repro.quantum.dispatch import noise_model_mixtures  # dispatch imports us

        return noise_model_mixtures(self._noise_model, circuit)

    # -- analytic path -------------------------------------------------------------------
    def _analytic(self, circuit: QuantumCircuit, allow_fail: bool):
        """Exact outcome distribution of *circuit*, or ``None`` if out of envelope."""
        if not measurements_are_terminal(circuit):
            if allow_fail:
                return None
            raise SimulationError(
                "the analytic stabilizer path requires terminal measurements"
            )
        measure_map: dict[int, int] = {}
        for instruction in circuit.instructions:
            if instruction.kind == "measure":
                for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                    measure_map[qubit] = clbit
        measured_qubits = sorted(measure_map)
        # Strict ">" keeps the documented bound inclusive: exactly
        # ANALYTIC_MAX_MEASURED_QUBITS measured qubits stays analytic.
        if len(measured_qubits) > ANALYTIC_MAX_MEASURED_QUBITS:
            return None

        token = _noise_token(self._noise_model)
        cacheable = self._noise_model is None or token is not None
        key = (circuit_structure_key(circuit), token) if cacheable else None
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1

        distribution = self._compute_distribution(circuit, measured_qubits, measure_map)
        if distribution is None:
            return None
        if key is not None:
            self._cache[key] = distribution
            while len(self._cache) > self._cache_max:
                self._cache.popitem(last=False)
        return distribution

    def _compute_distribution(
        self,
        circuit: QuantumCircuit,
        measured_qubits: list[int],
        measure_map: dict[int, int],
    ):
        """One symbolic tableau pass + exact Pauli-noise convolution."""
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
                return None

        probabilities = self._enumerate_distribution(
            [forms[qubit] for qubit in measured_qubits], tableau.num_symbols
        )
        if self._noise_model is not None:
            probabilities = self._convolve_noise(
                circuit, measured_qubits, probabilities
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
    ) -> np.ndarray:
        """Fold every Pauli-noise insertion into the exact distribution.

        Each error component, conjugated through the rest of the circuit,
        acts on the counts only through the X-mask it lands on the measured
        qubits; independent channels therefore XOR-convolve.  The combined
        convolution is evaluated in the Walsh–Hadamard domain, where an
        η-fold repeat of one insertion is a pointwise power — the stabilizer
        analogue of the dense path's ``matrix_power`` run compression.
        """
        mixtures = self._mixtures(circuit)
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

    def _sample_analytic(
        self,
        distribution: _AnalyticDistribution,
        shots: int,
        generator: np.random.Generator,
    ) -> SimulationResult:
        """Sample counts from the exact distribution (dense-identical contract)."""
        if not distribution.measure_map:
            return SimulationResult(
                counts={}, shots=0, metadata=self._metadata("analytic")
            )
        probabilities = distribution.probabilities
        if self._noise_model is not None and self._noise_model.has_readout_error():
            probabilities = self._noise_model.apply_readout_errors(
                probabilities, distribution.measured_qubits
            )
            probabilities = renormalize_readout_probabilities(probabilities)
        samples = generator.multinomial(shots, probabilities)
        counts: dict[str, int] = {}
        width = len(distribution.measured_qubits)
        for index, count in enumerate(samples):
            if count == 0:
                continue
            outcome = format(index, f"0{width}b")
            values = {
                distribution.measure_map[qubit]: int(bit)
                for qubit, bit in zip(distribution.measured_qubits, outcome)
            }
            key = _format_clbits(values, distribution.num_clbits)
            counts[key] = counts.get(key, 0) + int(count)
        return SimulationResult(
            counts=counts, shots=shots, metadata=self._metadata("analytic")
        )

    # -- trajectory path -----------------------------------------------------------------
    def _run_trajectories(
        self, circuit: QuantumCircuit, shots: int, generator: np.random.Generator
    ) -> SimulationResult:
        """Per-shot Monte Carlo on the tableau with sampled Pauli errors.

        One Pauli realisation is drawn per noise application per shot; with a
        readout-error model each measured bit is additionally flipped with
        its assignment probability.  This path is statistically equivalent to
        the analytic one (chi-squared-tested by the conformance suite) but
        consumes RNG per shot, so it makes no bit-parity claims.
        """
        mixtures = self._mixtures(circuit)
        noise_model = self._noise_model
        counts: dict[str, int] = {}
        has_measurements = circuit.has_measurements()
        for _ in range(shots):
            tableau = CliffordTableau(circuit.num_qubits)
            clbit_values: dict[int, int] = {}
            for instruction in circuit.instructions:
                if instruction.kind == "barrier":
                    continue
                if instruction.kind == "gate":
                    if instruction.repetitions > 1 and mixtures:
                        errors = noise_model.errors_for(
                            instruction.name, instruction.qubits
                        )
                    else:
                        errors = None
                    if errors:
                        for _ in range(instruction.repetitions):
                            tableau.apply_gate(instruction.name, instruction.qubits)
                            self._apply_sampled_errors(
                                tableau, instruction, mixtures, generator
                            )
                    else:
                        tableau.apply_gate(
                            instruction.name,
                            instruction.qubits,
                            instruction.repetitions,
                        )
                        if mixtures:
                            self._apply_sampled_errors(
                                tableau, instruction, mixtures, generator
                            )
                elif instruction.kind == "reset":
                    tableau.reset(instruction.qubits[0], generator)
                elif instruction.kind == "measure":
                    for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                        bit = tableau.measure(qubit, generator)
                        if noise_model is not None:
                            readout = noise_model.readout_error_for(qubit)
                            if readout is not None:
                                flip = (
                                    readout.prob_1_given_0
                                    if bit == 0
                                    else readout.prob_0_given_1
                                )
                                if flip > 0 and generator.random() < flip:
                                    bit ^= 1
                        clbit_values[clbit] = bit
            if has_measurements:
                key = _format_clbits(clbit_values, circuit.num_clbits)
                counts[key] = counts.get(key, 0) + 1
        if not has_measurements:
            return SimulationResult(
                counts={}, shots=0, metadata=self._metadata("trajectory")
            )
        return SimulationResult(
            counts=counts, shots=shots, metadata=self._metadata("trajectory")
        )

    def _apply_sampled_errors(
        self, tableau: CliffordTableau, instruction, mixtures: dict, generator
    ) -> None:
        """Draw one Pauli realisation from each attached error and apply it."""
        for error in self._noise_model.errors_for(
            instruction.name, instruction.qubits
        ):
            labels, probs = mixtures[id(error)]
            if error.num_qubits == len(instruction.qubits):
                applications = [list(instruction.qubits)]
            else:
                applications = [[qubit] for qubit in instruction.qubits]
            for qubits in applications:
                draw = generator.random()
                cumulative = 0.0
                chosen = labels[-1]
                for label, prob in zip(labels, probs):
                    cumulative += prob
                    if draw < cumulative:
                        chosen = label
                        break
                tableau.apply_pauli(chosen, qubits)

    def _metadata(self, mode: str) -> dict:
        return {
            "method": "stabilizer",
            "stabilizer_mode": mode,
            "noise_model": None if self._noise_model is None else self._noise_model.name,
        }
