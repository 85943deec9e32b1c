"""Vectorized batch-of-tableaus execution for Clifford circuits (bit-packed).

The serial :class:`~repro.quantum.stabilizer.StabilizerSimulator` made a
single session cheap; a 10k-session sweep still pays the Python interpreter
once per session.  This module amortises that cost by advancing **N
identical-structure sessions as one program**:

* :class:`BatchedCliffordTableau` — a batch of ``B`` Aaronson–Gottesman CHP
  tableaus evolving under one common instruction stream.  The symplectic
  X/Z bits are bit-packed into ``uint64`` words (``ceil(n/64)`` words per
  row) and the whole Clifford gate set, measurement and Pauli-frame noise
  injection are whole-batch array ops: XOR/AND on packed words plus
  popcounts through :func:`numpy.bitwise_count` (with a portable SWAR
  fallback for numpy builds without it).

  The layout exploits a structural theorem of the Clifford+Pauli class:
  under a *common* gate stream, per-element randomness (sampled Pauli
  errors, random measurement outcomes, conditional reset corrections) only
  ever flips generator **signs** — the symplectic X/Z part stays identical
  across the batch.  The batch therefore shares one ``(2n, W)`` X/Z block
  while the sign exponents ``r`` carry the batch axis ``(B, 2n)``, so one
  fused update per instruction advances every element at once.

* :class:`BatchedStabilizerSimulator` — the batch front-end the dispatch
  layer routes ``simulator_backend="stabilizer_batched"`` to.  For each
  distinct circuit structure in a submitted batch it resolves the exact
  analytic outcome distribution **once** (sharing the serial simulator's
  symbolic-tableau machinery and cache), pre-renders the outcome keys, and
  then finishes every circuit with the single ``multinomial`` draw of the
  serial contract — in submission order, so counts are **bit-identical** to
  the serial stabilizer and the dense simulators under a fixed seed.
  Circuits outside the analytic envelope fall back to the serial
  per-circuit path (keeping bit-parity unconditional); ``method=
  "trajectory"`` instead runs the vectorized Monte Carlo above with the
  shot axis as the batch axis — statistically equivalent (chi-squared
  tested by the conformance suite), orders of magnitude faster than the
  per-shot Python loop, but with no bit-parity claim.

Eligibility (Clifford gates, Pauli-diagonal noise) is decided by
:mod:`repro.quantum.dispatch`; a forced ``stabilizer_batched`` request on
ineligible input raises there rather than silently degrading.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.batch import BatchResult
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import (
    SimulationResult,
    _format_clbits,
    renormalize_readout_probabilities,
)
from repro.quantum.stabilizer import (
    ANALYTIC_MAX_MEASURED_QUBITS,
    ANALYTIC_MAX_SYMBOLS,
    CLIFFORD_GATE_NAMES,
    _GATE_ORDER,
    StabilizerSimulator,
)
from repro.telemetry import runtime as telemetry
from repro.utils.rng import as_rng

__all__ = [
    "BatchedCliffordTableau",
    "BatchedStabilizerSimulator",
    "popcount",
]

_ONE = np.uint64(1)
_ZERO = np.uint64(0)

#: Bits per packed word of the symplectic bit matrix.
WORD_BITS = 64


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


class BatchedCliffordTableau:
    """``B`` CHP tableaus sharing one symplectic block, batched over signs.

    Rows ``0..n-1`` are destabilizer generators and rows ``n..2n-1``
    stabilizer generators, exactly as in the serial
    :class:`~repro.quantum.stabilizer.CliffordTableau`; the X/Z symplectic
    bits are packed into ``uint64`` words of shape ``(2n, W)`` with
    ``W = ceil(n / 64)`` (qubit ``q`` lives in bit ``q % 64`` of word
    ``q // 64``), shared by the whole batch, while the sign exponents ``r``
    carry the batch axis as a ``(B, 2n)`` ``uint8`` array.

    The sharing is valid because every batched operation this class exposes
    keeps the symplectic part common: Clifford gates act identically on all
    elements, Pauli frames (:meth:`apply_pauli_masked`) flip only signs,
    measurements of a common instruction stream are random/deterministic for
    *all* elements simultaneously (randomness enters only through ``r``),
    and reset corrections are sign conditionals.  Feeding elements through
    *different* gate streams would violate the invariant — the batch is a
    batch of sessions running one circuit, not a pool of arbitrary states.
    """

    __slots__ = ("n", "batch_size", "words", "x", "z", "r", "_word", "_shift")

    def __init__(self, num_qubits: int, batch_size: int):
        if num_qubits < 1:
            raise SimulationError("a tableau needs at least one qubit")
        if batch_size < 1:
            raise SimulationError("a batched tableau needs at least one element")
        n = int(num_qubits)
        self.n = n
        self.batch_size = int(batch_size)
        self.words = (n + WORD_BITS - 1) // WORD_BITS
        self.x = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.z = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.r = np.zeros((self.batch_size, 2 * n), dtype=np.uint8)
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
        flip = np.zeros(2 * self.n, dtype=np.uint8)
        for ch, qubit in zip(label.lower(), qubits):
            if ch == "i":
                continue
            if ch in ("x", "y"):
                flip ^= self._col(self.z, qubit).astype(np.uint8)
            if ch in ("z", "y"):
                flip ^= self._col(self.x, qubit).astype(np.uint8)
            if ch not in ("x", "y", "z"):
                raise SimulationError(f"unknown Pauli character {ch!r}")
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
        """Apply a Pauli string as a unitary to every batch element."""
        self.r ^= self._flip_rows(label, qubits)[None, :]

    def apply_pauli_masked(
        self, label: str, qubits: Sequence[int], element_mask: np.ndarray
    ) -> None:
        """Apply a Pauli string only to the batch elements selected by *element_mask*.

        This is the vectorized trajectory-noise primitive: one sampled Pauli
        realisation per element becomes one masked sign-flip per distinct
        label, instead of ``B`` per-shot tableau updates.
        """
        flip = self._flip_rows(label, qubits)
        self.r ^= element_mask.astype(np.uint8)[:, None] & flip[None, :]

    # -- row algebra ----------------------------------------------------------------------
    def _phase_exponents(self, p: int, rows: np.ndarray) -> np.ndarray:
        """Per-row mod-4 phase exponent of multiplying row *p* into *rows*.

        The serial ``_phase_exponent`` g-sum, recast on packed words: per
        qubit the contribution is +1 on the ``P`` bit pattern and −1 on
        ``M``, so the sum is ``popcount(P) − popcount(M)``.
        """
        x1 = self.x[p][None, :]
        z1 = self.z[p][None, :]
        x2 = self.x[rows]
        z2 = self.z[rows]
        plus = (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
        minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2)
        return (
            popcount(plus).sum(axis=-1).astype(np.int64)
            - popcount(minus).sum(axis=-1).astype(np.int64)
        )

    # -- measurement ----------------------------------------------------------------------
    def measure(self, q: int, rng: np.random.Generator) -> np.ndarray:
        """Measure qubit *q* on every element; returns a ``(B,)`` outcome array.

        Because the symplectic block is shared, the measurement is random for
        all elements or deterministic for all elements; only the outcome
        values differ across the batch.
        """
        column = self._col(self.x, q)
        if column[self.n :].any():
            # Random outcome: one common CHP collapse, batched sign rowsums.
            p = self.n + int(np.argmax(column[self.n :]))
            rows = np.flatnonzero(column.astype(bool))
            rows = rows[rows != p]
            if rows.size:
                g = self._phase_exponents(p, rows)
                rh = self.r[:, rows].astype(np.int64)
                rp = self.r[:, p].astype(np.int64)[:, None]
                self.r[:, rows] = (
                    ((2 * rh + 2 * rp + g[None, :]) % 4) // 2
                ).astype(np.uint8)
                self.x[rows] ^= self.x[p]
                self.z[rows] ^= self.z[p]
            d = p - self.n
            self.x[d] = self.x[p]
            self.z[d] = self.z[p]
            self.r[:, d] = self.r[:, p]
            self.x[p] = _ZERO
            self.z[p] = _ZERO
            self.z[p, self._word[q]] = _ONE << self._shift[q]
            outcomes = rng.integers(0, 2, size=self.batch_size).astype(np.uint8)
            self.r[:, p] = outcomes
            return outcomes
        # Deterministic outcome: common scratch accumulation, per-element signs.
        stab_rows = self.n + np.flatnonzero(column[: self.n].astype(bool))
        scratch_x = np.zeros(self.words, dtype=np.uint64)
        scratch_z = np.zeros(self.words, dtype=np.uint64)
        g_total = 0
        for row in stab_rows:
            x1, z1 = self.x[row], self.z[row]
            x2, z2 = scratch_x, scratch_z
            plus = (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
            minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2)
            g_total += int(popcount(plus).sum()) - int(popcount(minus).sum())
            scratch_x = scratch_x ^ x1
            scratch_z = scratch_z ^ z1
        r_sum = self.r[:, stab_rows].sum(axis=1, dtype=np.int64)
        return (((2 * r_sum + g_total) % 4) // 2).astype(np.uint8)

    def reset(self, q: int, rng: np.random.Generator) -> np.ndarray:
        """Reset qubit *q* to ``|0>`` on every element; returns the pre-reset bits."""
        outcomes = self.measure(q, rng)
        rows = np.flatnonzero(self._col(self.z, q).astype(bool))
        if rows.size:
            # X-correction on elements that measured 1 (sign flips only).
            self.r[:, rows] ^= outcomes[:, None]
        return outcomes

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


class _SamplingPlan:
    """One distinct structure's precomputed per-circuit sampling work.

    Everything the serial ``_sample_analytic`` recomputes per call —
    readout-error folding, clip→renormalize, and the outcome-key strings —
    is a pure function of the distribution, so the batched path hoists it
    here and leaves one ``multinomial`` plus a dict build per circuit.
    """

    __slots__ = ("probabilities", "keys", "empty")

    def __init__(self, distribution, noise_model):
        self.empty = not distribution.measure_map
        if self.empty:
            self.probabilities = None
            self.keys = ()
            return
        probabilities = distribution.probabilities
        if noise_model is not None and noise_model.has_readout_error():
            probabilities = noise_model.apply_readout_errors(
                probabilities, distribution.measured_qubits
            )
            probabilities = renormalize_readout_probabilities(probabilities)
        self.probabilities = probabilities
        width = len(distribution.measured_qubits)
        keys = []
        for index in range(len(probabilities)):
            outcome = format(index, f"0{width}b")
            values = {
                distribution.measure_map[qubit]: int(bit)
                for qubit, bit in zip(distribution.measured_qubits, outcome)
            }
            keys.append(_format_clbits(values, distribution.num_clbits))
        self.keys = tuple(keys)


class BatchedStabilizerSimulator:
    """Batch-of-sessions front-end over the stabilizer engine.

    ``run_batch`` is the contract surface: one :class:`SimulationResult` per
    circuit in submission order, with the analytic path drawing exactly one
    ``multinomial`` per circuit from the same exact distribution the serial
    simulator computes — hence bit-identical counts to
    :class:`~repro.quantum.stabilizer.StabilizerSimulator` (and, on the
    noiseless/Pauli class, to the dense simulators) under a fixed seed.

    Parameters
    ----------
    noise_model:
        Optional Pauli-diagonal noise model (validated per circuit).
    seed:
        Seed or generator for all sampling this instance performs.
    serial:
        Optional serial :class:`StabilizerSimulator` to share analytic
        machinery (and its distribution cache) with; a private one is
        created otherwise.
    """

    def __init__(self, noise_model=None, seed=None, serial: StabilizerSimulator | None = None):
        if serial is None:
            serial = StabilizerSimulator(noise_model=noise_model)
        elif noise_model is not None and serial.noise_model is not noise_model:
            raise SimulationError(
                "pass either a noise model or a serial simulator, not conflicting both"
            )
        self._serial = serial
        self._rng = as_rng(seed)
        # Sampling plans keyed by id() of the serial simulator's cached
        # distribution objects; holding the distribution alongside keeps the
        # id stable for the plan's lifetime.
        self._plans: OrderedDict[int, tuple] = OrderedDict()
        self._plans_max = 256

    @property
    def noise_model(self):
        """The attached noise model (delegated to the serial engine)."""
        return self._serial.noise_model

    @property
    def serial(self) -> StabilizerSimulator:
        """The serial engine whose analytic cache this front-end shares."""
        return self._serial

    # -- public API ------------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        initial_state=None,
        rng=None,
        method: str = "auto",
    ) -> SimulationResult:
        """Execute one circuit (a batch of one; see :meth:`run_batch`)."""
        batch = self.run_batch(
            [circuit], shots=shots, initial_state=initial_state, rng=rng, method=method
        )
        return batch.results[0]

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        initial_state=None,
        rng=None,
        method: str = "auto",
    ) -> BatchResult:
        """Execute a batch of circuits, amortising per-structure work.

        ``method`` selects the strategy: ``"auto"`` resolves each distinct
        structure's exact analytic distribution once and samples one
        ``multinomial`` per circuit (bit-identical to the serial stabilizer;
        out-of-envelope circuits fall back to the serial per-circuit path so
        the parity claim stays unconditional), ``"analytic"`` forces the
        analytic path (raises on out-of-envelope circuits), and
        ``"trajectory"`` runs the vectorized Monte Carlo with the shot axis
        as the batch axis (statistically equivalent, no bit-parity claim).
        """
        if shots < 0:
            raise SimulationError(f"shots must be non-negative, got {shots}")
        if initial_state is not None:
            raise SimulationError(
                "the stabilizer backend always starts from |0...0>; "
                "route circuits with explicit initial states to a dense simulator"
            )
        if method not in ("auto", "analytic", "trajectory"):
            raise SimulationError(f"unknown batched stabilizer method {method!r}")
        generator = as_rng(rng) if rng is not None else self._rng
        serial = self._serial
        hits_before, misses_before = serial.cache_hits, serial.cache_misses
        mark = telemetry.clock_mark()

        # Resolve each circuit's execution plan, keyed by object identity so
        # a repeated circuit object pays its structure analysis exactly once;
        # distinct objects with equal structure still share one distribution
        # through the serial simulator's structure-keyed cache.
        resolved: dict[int, tuple] = {}
        structures = 0
        fallbacks = 0
        results: list[SimulationResult] = []
        for circuit in circuits:
            plan = resolved.get(id(circuit))
            if plan is None:
                plan = self._resolve(circuit, method)
                resolved[id(circuit)] = plan
                if plan[0] == "analytic":
                    structures += 1
                elif plan[0] == "serial":
                    fallbacks += 1
            kind, payload = plan
            if kind == "analytic":
                results.append(self._sample_plan(payload, shots, generator))
            elif kind == "serial":
                results.append(serial.run(circuit, shots=shots, rng=generator))
            else:
                results.append(
                    self._run_trajectories_batched(circuit, shots, generator)
                )
        telemetry.record_span(
            "sim.run_batch",
            "sim",
            start=mark,
            attributes={
                "method": "stabilizer_batched",
                "circuits": len(results),
                "structures": structures,
                "serial_fallbacks": fallbacks,
                "cache_hits": serial.cache_hits - hits_before,
                "cache_misses": serial.cache_misses - misses_before,
            },
        )
        return BatchResult(
            results=results,
            shots=shots,
            metadata={
                "method": "stabilizer_batched",
                "noise_model": None if self.noise_model is None else self.noise_model.name,
                "structures": structures,
                "serial_fallbacks": fallbacks,
                "cache_hits": serial.cache_hits - hits_before,
                "cache_misses": serial.cache_misses - misses_before,
            },
        )

    # -- internals --------------------------------------------------------------------------
    def _resolve(self, circuit: QuantumCircuit, method: str) -> tuple:
        """Eligibility checks plus the (RNG-free) per-structure plan."""
        serial = self._serial
        serial._require_clifford(circuit)
        serial._mixtures(circuit)
        if method == "trajectory":
            return ("trajectory", circuit)
        analytic = serial._analytic(circuit, allow_fail=(method == "auto"))
        if analytic is None:
            if method == "analytic":
                raise SimulationError(
                    "circuit exceeds the analytic envelope "
                    f"(measured qubits ≤ {ANALYTIC_MAX_MEASURED_QUBITS}, "
                    f"random outcomes ≤ {ANALYTIC_MAX_SYMBOLS})"
                )
            return ("serial", circuit)
        cached = self._plans.get(id(analytic))
        if cached is not None and cached[0] is analytic:
            self._plans.move_to_end(id(analytic))
            return ("analytic", cached[1])
        plan = _SamplingPlan(analytic, self.noise_model)
        self._plans[id(analytic)] = (analytic, plan)
        while len(self._plans) > self._plans_max:
            self._plans.popitem(last=False)
        return ("analytic", plan)

    def _sample_plan(
        self, plan: _SamplingPlan, shots: int, generator: np.random.Generator
    ) -> SimulationResult:
        """One multinomial + dict build (the serial per-call tail, hoisted)."""
        metadata = self._metadata("analytic")
        if plan.empty:
            return SimulationResult(counts={}, shots=0, metadata=metadata)
        samples = generator.multinomial(shots, plan.probabilities)
        counts: dict[str, int] = {}
        keys = plan.keys
        for index in np.flatnonzero(samples):
            key = keys[index]
            counts[key] = counts.get(key, 0) + int(samples[index])
        return SimulationResult(counts=counts, shots=shots, metadata=metadata)

    def _run_trajectories_batched(
        self, circuit: QuantumCircuit, shots: int, generator: np.random.Generator
    ) -> SimulationResult:
        """Vectorized Monte Carlo: the shot axis becomes the tableau batch axis.

        One batched tableau update per instruction replaces the serial
        per-shot Python loop; sampled Pauli errors apply as masked sign
        flips and readout errors as vectorized bit flips.  Statistically
        equivalent to the serial trajectory path (chi-squared-tested), but
        the RNG consumption pattern differs, so no bit-parity claim.
        """
        serial = self._serial
        mixtures = serial._mixtures(circuit)
        noise_model = serial.noise_model
        metadata = self._metadata("trajectory")
        has_measurements = circuit.has_measurements()
        if not has_measurements or shots == 0:
            return SimulationResult(counts={}, shots=0, metadata=metadata)

        tableau = BatchedCliffordTableau(circuit.num_qubits, shots)
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
                if errors and instruction.repetitions > 1:
                    for _ in range(instruction.repetitions):
                        tableau.apply_gate(instruction.name, instruction.qubits)
                        self._apply_sampled_errors(
                            tableau, instruction, mixtures, generator
                        )
                else:
                    tableau.apply_gate(
                        instruction.name, instruction.qubits, instruction.repetitions
                    )
                    if errors:
                        self._apply_sampled_errors(
                            tableau, instruction, mixtures, generator
                        )
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
        tableau: BatchedCliffordTableau,
        instruction,
        mixtures: dict,
        generator: np.random.Generator,
    ) -> None:
        """Draw one Pauli realisation per element from each error and apply it."""
        noise_model = self._serial.noise_model
        for error in noise_model.errors_for(instruction.name, instruction.qubits):
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
            "method": "stabilizer_batched",
            "stabilizer_mode": mode,
            "noise_model": None if self.noise_model is None else self.noise_model.name,
        }
