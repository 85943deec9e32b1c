"""Device models: topology + calibration → executable noise model.

:class:`DeviceModel` is the bridge between the static calibration data and the
simulators: it owns the coupling map and calibration and derives the
:class:`~repro.quantum.noise_model.NoiseModel` (per-gate depolarizing error,
thermal relaxation over the gate duration, and readout error) that
:class:`~repro.device.backend.NoisyBackend` feeds to the density-matrix
simulator.

Two presets cover the paper's needs: :meth:`DeviceModel.ibm_brisbane` for the
noisy-hardware emulation and :meth:`DeviceModel.ideal` for the noise-free
reference ("ideal simulation") the figures are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.device.calibration import (
    DeviceCalibration,
    QubitCalibration,
    ibm_brisbane_calibration,
)
from repro.device.topology import (
    EAGLE_NUM_QUBITS,
    CouplingMap,
    heavy_hex_coupling_map,
    linear_coupling_map,
)
from repro.exceptions import DeviceError
from repro.quantum.channels import depolarizing_channel, thermal_relaxation_channel
from repro.quantum.noise_model import NoiseModel, ReadoutError

__all__ = ["DeviceModel"]


@dataclass
class DeviceModel:
    """A NISQ device: name, size, connectivity and calibration.

    Parameters
    ----------
    name:
        Human-readable device name (appears in result metadata).
    num_qubits:
        Number of physical qubits.
    coupling_map:
        Connectivity graph; ``None`` means all-to-all (used by the ideal
        preset and by small logical simulations).
    calibration:
        :class:`~repro.device.calibration.DeviceCalibration`; ``None`` means a
        perfectly calibrated (noise-free) device.
    include_thermal_relaxation:
        If True (default), every gate with a nonzero duration also applies
        T1/T2 relaxation in addition to its depolarizing error.  Exposed so
        the Fig. 3 ablation can separate the two contributions.
    """

    name: str
    num_qubits: int
    coupling_map: CouplingMap | None = None
    calibration: DeviceCalibration | None = None
    include_thermal_relaxation: bool = True
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise DeviceError("a device needs at least one qubit")
        if self.coupling_map is not None:
            if self.coupling_map.num_qubits != self.num_qubits:
                raise DeviceError(
                    f"coupling map has {self.coupling_map.num_qubits} nodes "
                    f"but the device declares {self.num_qubits} qubits"
                )

    # -- presets -----------------------------------------------------------------
    @classmethod
    def ibm_brisbane(cls, include_thermal_relaxation: bool = True) -> "DeviceModel":
        """The 127-qubit Eagle r3 device used by the paper's evaluation."""
        return cls(
            name="ibm_brisbane",
            num_qubits=EAGLE_NUM_QUBITS,
            coupling_map=heavy_hex_coupling_map(),
            calibration=ibm_brisbane_calibration(),
            include_thermal_relaxation=include_thermal_relaxation,
            metadata={
                "processor": "Eagle r3",
                "basis_gates": ["id", "rz", "sx", "x", "ecr"],
                "eplg_100q": 0.045,
            },
        )

    @classmethod
    def ideal(cls, num_qubits: int = 2, name: str = "ideal") -> "DeviceModel":
        """A perfect device with all-to-all connectivity (the paper's ideal reference)."""
        return cls(name=name, num_qubits=num_qubits, coupling_map=None, calibration=None)

    @classmethod
    def linear_chain(
        cls,
        num_qubits: int,
        calibration: DeviceCalibration | None = None,
        name: str = "linear_chain",
    ) -> "DeviceModel":
        """A 1-D chain device (used for EPLG-style layered benchmarks)."""
        return cls(
            name=name,
            num_qubits=num_qubits,
            coupling_map=linear_coupling_map(num_qubits),
            calibration=calibration or ibm_brisbane_calibration(),
        )

    # -- queries -------------------------------------------------------------------
    def is_ideal(self) -> bool:
        """True if the device carries no calibration (and therefore no noise)."""
        return self.calibration is None

    def qubit_calibration(self, qubit: int) -> QubitCalibration:
        """Calibration of one qubit; raises for ideal devices."""
        if self.calibration is None:
            raise DeviceError(f"device {self.name!r} is ideal and has no calibration")
        return self.calibration.qubit(qubit)

    def supports_coupling(self, qubit_a: int, qubit_b: int) -> bool:
        """True if a two-qubit gate between the given qubits is directly available."""
        if self.coupling_map is None:
            return True
        return self.coupling_map.has_edge(qubit_a, qubit_b)

    def validate_qubits(self, qubits: list[int]) -> None:
        """Raise if any listed qubit does not exist on the device."""
        for qubit in qubits:
            if not 0 <= int(qubit) < self.num_qubits:
                raise DeviceError(
                    f"qubit {qubit} does not exist on {self.name!r} "
                    f"({self.num_qubits} qubits)"
                )

    # -- noise model ---------------------------------------------------------------------
    def noise_model(self) -> NoiseModel:
        """Derive the executable noise model from the calibration.

        Each calibrated gate receives a depolarizing channel with the
        calibrated error probability; gates with nonzero duration additionally
        receive thermal relaxation over that duration (if enabled).  Readout
        errors are attached symmetrically with the calibrated probability.

        The derived model is memoised per calibration version: every backend
        built for the same (unchanged) device shares one
        :class:`~repro.quantum.noise_model.NoiseModel` instance, so its cache
        token is stable and compiled propagators can be reused across
        backends.  Mutating the calibration (``add_gate``/``set_qubit``)
        invalidates the memo.
        """
        # The memo pins the calibration *object* (identity, not equality) plus
        # its version counter: DeviceModel is mutable, so both in-place
        # mutation (version bump) and swapping in a different calibration
        # object must invalidate.  Holding the reference keeps the object
        # alive, so an identity check can never alias a recycled id.
        memo = self.__dict__.get("_noise_model_memo")
        if (
            memo is not None
            and memo[0] is self.calibration
            and memo[1] == (None if self.calibration is None else self.calibration.version)
            and memo[2] == self.include_thermal_relaxation
        ):
            return memo[3]
        model = self._build_noise_model()
        self.__dict__["_noise_model_memo"] = (
            self.calibration,
            None if self.calibration is None else self.calibration.version,
            self.include_thermal_relaxation,
            model,
        )
        return model

    def _build_noise_model(self) -> NoiseModel:
        model = NoiseModel(name=f"{self.name}_noise")
        if self.calibration is None:
            return model

        qubit_cal = self.calibration.qubit_defaults
        for name, gate_cal in self.calibration.gates.items():
            if gate_cal.error > 0:
                model.add_all_qubit_error(
                    depolarizing_channel(gate_cal.error, num_qubits=1), name
                )
            if self.include_thermal_relaxation and gate_cal.duration > 0:
                model.add_all_qubit_error(
                    thermal_relaxation_channel(
                        qubit_cal.t1, qubit_cal.t2, gate_cal.duration
                    ),
                    name,
                )
        if qubit_cal.readout_error > 0:
            model.add_readout_error(ReadoutError.symmetric(qubit_cal.readout_error))
        for index, cal in self.calibration.qubits.items():
            model.add_readout_error(ReadoutError.symmetric(cal.readout_error), qubit=index)
        return model

    def gate_duration(self, gate_name: str) -> float:
        """Duration of a calibrated gate in seconds (0 for ideal devices)."""
        if self.calibration is None or not self.calibration.has_gate(gate_name):
            return 0.0
        return self.calibration.gate(gate_name).duration

    def gate_error(self, gate_name: str) -> float:
        """Error probability of a calibrated gate (0 for ideal devices)."""
        if self.calibration is None or not self.calibration.has_gate(gate_name):
            return 0.0
        return self.calibration.gate(gate_name).error

    def __repr__(self) -> str:
        kind = "ideal" if self.is_ideal() else "noisy"
        return f"DeviceModel(name={self.name!r}, num_qubits={self.num_qubits}, {kind})"
