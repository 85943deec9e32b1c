"""Time-varying network conditions: drift curves, calibration aging, outages.

Every earlier layer of the network subsystem treats the environment as
*frozen*: each link's channel, each node's memory and the device calibration
behind them are fixed for the whole simulation.  A production-scale digital
twin has to answer the SLA question — what fidelity/latency can N users at
rate R expect from topology T, and *where does it break* — which requires
the environment itself to evolve during a run.  This module is that layer:

* :class:`DriftProfile` — a deterministic scalar function of simulated time
  (constant, linear ramp, sinusoid, staircase step, or piecewise-linear
  knots), clipped into physical bounds.  Profiles multiply channel error
  parameters, so ``value(t) == 1.0`` means "exactly today's channel".
* :class:`CalibrationAging` — drift profiles applied to device physics:
  T1/T2 shrink factors and a gate-error growth factor, usable both on link
  channels (:func:`evolve_channel`) and on a
  :class:`~repro.device.calibration.DeviceCalibration` record in place
  (:meth:`CalibrationAging.apply_to` — bumping the calibration's ``version``
  counter so memoised noise models invalidate).
* :class:`OutageWindow` / :class:`OutageSchedule` — link/node failure +
  recovery intervals, normalised so no two windows of the same element
  overlap; the scheduler re-routes around elements that would be inside a
  failure window at any point of a session's reservation.
* :class:`NetworkDynamics` — the bundle the scheduler consumes: per-link
  (or global) drift, optional aging, and the outage schedule, all evaluated
  at each session's *admission* time so the reservation pass stays a pure
  serial function of the seed and the execution pass stays parallelisable.

Determinism contract: every object here is a pure function of its
constructor arguments; seed-derived builders (:meth:`OutageSchedule.random`,
:func:`condition_profile`) consume an explicit seed.  ``to_dict`` /
``from_dict`` round-trip byte-identically (pinned by the Hypothesis suite in
``tests/network/test_dynamics_properties.py``).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from repro.channel.quantum_channel import (
    DepolarizingChannel,
    FiberLossChannel,
    IdentityChainChannel,
    QuantumChannel,
)
from repro.exceptions import NetworkError
from repro.utils.rng import as_rng

__all__ = [
    "DRIFT_KINDS",
    "DriftProfile",
    "CalibrationAging",
    "OutageWindow",
    "OutageSchedule",
    "NetworkDynamics",
    "evolve_channel",
    "link_key",
    "route_blocking",
    "CONDITION_PROFILES",
    "condition_profile",
]

#: Drift-curve shapes understood by :class:`DriftProfile`.
DRIFT_KINDS = ("constant", "linear", "sinusoid", "step", "piecewise")

#: Wildcard key selecting every link in :class:`NetworkDynamics` drift maps.
GLOBAL_KEY = "*"

#: A path's failure-prone elements with their windows, as
#: :meth:`OutageSchedule.route_windows` returns them.
RouteWindows = tuple[tuple[tuple[str, str], tuple["OutageWindow", ...]], ...]


def link_key(node_a: str, node_b: str) -> str:
    """Canonical string key of an undirected link (sorted endpoints)."""
    first, second = sorted((node_a, node_b))
    return f"{first}|{second}"


def _require_finite(value: Any, what: str) -> None:
    """Raise :class:`NetworkError` unless *value* is a finite number."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise NetworkError(f"{what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class DriftProfile:
    """A deterministic scalar function of simulated time.

    ``value(t)`` is evaluated from the profile's shape and clipped into
    ``[floor, ceiling]`` — the physical-bounds guarantee the property suite
    pins.  The default profile is the constant ``1.0`` (no drift).

    Shapes
    ------
    ``constant``
        ``base`` everywhere.
    ``linear``
        ``base + rate * t`` (a monotone ramp — aging-style degradation).
    ``sinusoid``
        ``base + amplitude * sin(2π (t + phase) / period)`` (diurnal-style
        oscillation).
    ``step``
        ``base + amplitude * floor(t / period)`` (staircase recalibration
        epochs).
    ``piecewise``
        Linear interpolation through ``points`` (``(time, value)`` knots,
        strictly increasing in time); clamped to the first/last knot value
        outside the knot range.
    """

    kind: str = "constant"
    base: float = 1.0
    amplitude: float = 0.0
    rate: float = 0.0
    period: float = 1.0
    phase: float = 0.0
    points: tuple[tuple[float, float], ...] = ()
    floor: float = 0.0
    ceiling: float | None = None

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise NetworkError(
                f"unknown drift kind {self.kind!r}; known: {DRIFT_KINDS}"
            )
        # A NaN or infinite parameter would evaluate to NaN or ±inf, which
        # the clip and the factor floor turn into a silently perfect (0.0)
        # or saturated channel.
        for name in ("base", "amplitude", "rate", "period", "phase", "floor"):
            _require_finite(getattr(self, name), f"drift {name}")
        if self.period <= 0:
            raise NetworkError("drift period must be positive")
        if self.ceiling is not None and not (
            isinstance(self.ceiling, numbers.Real) and self.ceiling >= self.floor
        ):
            raise NetworkError(
                f"drift ceiling must be None or a number >= floor, got {self.ceiling!r}"
            )
        if self.kind == "piecewise":
            if len(self.points) < 1:
                raise NetworkError("a piecewise profile needs at least one knot")
            for time, value in self.points:
                _require_finite(time, "piecewise knot time")
                _require_finite(value, "piecewise knot value")
            times = [float(time) for time, _ in self.points]
            if any(later <= earlier for earlier, later in zip(times, times[1:])):
                raise NetworkError("piecewise knots must be strictly increasing in time")
            # Canonicalise knots to float pairs so to_dict round-trips exactly.
            object.__setattr__(
                self,
                "points",
                tuple((float(time), float(value)) for time, value in self.points),
            )

    # -- evaluation --------------------------------------------------------------------
    def value(self, time: float) -> float:
        """The profile's value at *time*, clipped into ``[floor, ceiling]``."""
        time = float(time)
        if self.kind == "constant":
            raw = self.base
        elif self.kind == "linear":
            raw = self.base + self.rate * time
        elif self.kind == "sinusoid":
            raw = self.base + self.amplitude * math.sin(
                2.0 * math.pi * (time + self.phase) / self.period
            )
        elif self.kind == "step":
            raw = self.base + self.amplitude * math.floor(time / self.period)
        else:  # piecewise
            raw = self._piecewise_value(time)
        if raw < self.floor:
            return self.floor
        if self.ceiling is not None and raw > self.ceiling:
            return self.ceiling
        return raw

    def _piecewise_value(self, time: float) -> float:
        points = self.points
        if time <= points[0][0]:
            return points[0][1]
        if time >= points[-1][0]:
            return points[-1][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t0 <= time <= t1:
                fraction = (time - t0) / (t1 - t0)
                return v0 + fraction * (v1 - v0)
        raise AssertionError("unreachable: knots cover the interior")  # pragma: no cover

    @property
    def trivial(self) -> bool:
        """True if the profile is identically ``1.0`` (no drift at any time)."""
        if self.kind == "constant":
            raw = self.base
        elif self.kind == "linear":
            return self.base == 1.0 and self.rate == 0.0 and self._clip_is_noop()
        elif self.kind in ("sinusoid", "step"):
            return self.base == 1.0 and self.amplitude == 0.0 and self._clip_is_noop()
        else:  # piecewise
            return all(value == 1.0 for _, value in self.points) and self._clip_is_noop()
        return raw == 1.0 and self._clip_is_noop()

    def _clip_is_noop(self) -> bool:
        return self.floor <= 1.0 and (self.ceiling is None or self.ceiling >= 1.0)

    # -- constructors -----------------------------------------------------------------
    @classmethod
    def constant(cls, value: float = 1.0) -> "DriftProfile":
        return cls(kind="constant", base=value)

    @classmethod
    def linear(
        cls, base: float = 1.0, rate: float = 0.0, ceiling: float | None = None
    ) -> "DriftProfile":
        return cls(kind="linear", base=base, rate=rate, ceiling=ceiling)

    @classmethod
    def sinusoid(
        cls,
        base: float = 1.0,
        amplitude: float = 0.0,
        period: float = 1.0,
        phase: float = 0.0,
    ) -> "DriftProfile":
        return cls(
            kind="sinusoid", base=base, amplitude=amplitude, period=period, phase=phase
        )

    @classmethod
    def piecewise(
        cls, points: Sequence[tuple[float, float]], ceiling: float | None = None
    ) -> "DriftProfile":
        return cls(kind="piecewise", points=tuple(points), ceiling=ceiling)

    # -- serialisation ----------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly canonical form (byte-identical round trip)."""
        return {
            "kind": self.kind,
            "base": self.base,
            "amplitude": self.amplitude,
            "rate": self.rate,
            "period": self.period,
            "phase": self.phase,
            "points": [[time, value] for time, value in self.points],
            "floor": self.floor,
            "ceiling": self.ceiling,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriftProfile":
        return cls(
            kind=data.get("kind", "constant"),
            base=float(data.get("base", 1.0)),
            amplitude=float(data.get("amplitude", 0.0)),
            rate=float(data.get("rate", 0.0)),
            period=float(data.get("period", 1.0)),
            phase=float(data.get("phase", 0.0)),
            points=tuple((float(t), float(v)) for t, v in data.get("points", ())),
            floor=float(data.get("floor", 0.0)),
            ceiling=None if data.get("ceiling") is None else float(data["ceiling"]),
        )


@dataclass(frozen=True)
class CalibrationAging:
    """Device-physics degradation over time, expressed as drift factors.

    ``t1_scale``/``t2_scale`` multiply relaxation times (values < 1 shrink
    coherence), ``error_scale`` multiplies gate error probabilities.  The
    factors drive two consumers:

    * link channels — :func:`evolve_channel` folds them into the per-hop
      channel a session actually runs over;
    * device records — :meth:`apply_to` rewrites a
      :class:`~repro.device.calibration.DeviceCalibration` in place through
      its mutation API, so its ``version`` counter bumps and every memoised
      noise model derived from it invalidates.
    """

    t1_scale: DriftProfile = field(default_factory=DriftProfile.constant)
    t2_scale: DriftProfile = field(default_factory=DriftProfile.constant)
    error_scale: DriftProfile = field(default_factory=DriftProfile.constant)

    @property
    def trivial(self) -> bool:
        return self.t1_scale.trivial and self.t2_scale.trivial and self.error_scale.trivial

    def factors(self, time: float) -> tuple[float, float, float]:
        """``(t1_scale, t2_scale, error_scale)`` at *time* (scales floored at 0)."""
        return (
            max(0.0, self.t1_scale.value(time)),
            max(0.0, self.t2_scale.value(time)),
            max(0.0, self.error_scale.value(time)),
        )

    def apply_to(self, calibration: Any, time: float) -> Any:
        """Age *calibration* (a :class:`DeviceCalibration`) in place at *time*.

        Gate errors scale by ``error_scale`` (clipped to [0, 1]) through
        ``add_gate`` and qubit records by ``t1_scale``/``t2_scale`` through
        ``set_qubit``/``set_qubit_defaults``, so every mutation bumps the
        calibration's ``version`` counter — the staleness signal memoised
        noise models key on.  T2 is re-clamped to the physical ``2·T1``
        bound after scaling.
        """
        t1_scale, t2_scale, error_scale = self.factors(time)

        def aged_qubit(qubit):
            t1 = max(qubit.t1 * t1_scale, 1e-12)
            t2 = max(min(qubit.t2 * t2_scale, 2.0 * t1), 1e-12)
            return replace(qubit, t1=t1, t2=t2)

        for name in sorted(calibration.gates):
            gate = calibration.gates[name]
            calibration.add_gate(
                replace(gate, error=min(1.0, gate.error * error_scale))
            )
        for index in sorted(calibration.qubits):
            calibration.set_qubit(index, aged_qubit(calibration.qubits[index]))
        calibration.set_qubit_defaults(aged_qubit(calibration.qubit_defaults))
        return calibration

    def to_dict(self) -> dict[str, Any]:
        return {
            "t1_scale": self.t1_scale.to_dict(),
            "t2_scale": self.t2_scale.to_dict(),
            "error_scale": self.error_scale.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CalibrationAging":
        return cls(
            t1_scale=DriftProfile.from_dict(data["t1_scale"]),
            t2_scale=DriftProfile.from_dict(data["t2_scale"]),
            error_scale=DriftProfile.from_dict(data["error_scale"]),
        )


@dataclass(frozen=True)
class OutageWindow:
    """One failure + recovery interval of a link or node.

    The element is *down* on the half-open interval ``[start, end)``: it
    fails at ``start`` and is available again exactly at ``end`` (the
    recovery event the scheduler re-tries queued sessions on).
    """

    element: str  # "link" or "node"
    key: str  # node name, or the sorted "a|b" link key
    start: float
    end: float

    def __post_init__(self):
        if self.element not in ("link", "node"):
            raise NetworkError(f"outage element must be 'link' or 'node', got {self.element!r}")
        if not self.key:
            raise NetworkError("outage key must be non-empty")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise NetworkError("outage window bounds must be finite")
        if self.start < 0:
            raise NetworkError("outage start must be non-negative")
        if self.end <= self.start:
            raise NetworkError("outage end must be strictly after start")

    def covers(self, time: float) -> bool:
        """True while the element is down (``start <= time < end``)."""
        return self.start <= time < self.end

    def overlaps(self, start: float, end: float) -> bool:
        """True if the window intersects the closed interval ``[start, end]``."""
        return self.start <= end and start < self.end

    def to_dict(self) -> dict[str, Any]:
        return {
            "element": self.element,
            "key": self.key,
            "start": self.start,
            "end": self.end,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OutageWindow":
        return cls(
            element=data["element"],
            key=data["key"],
            start=float(data["start"]),
            end=float(data["end"]),
        )


class OutageSchedule:
    """A normalised set of :class:`OutageWindow` entries.

    Normalisation merges overlapping (and exactly adjacent) windows of the
    same element, then sorts by ``(start, element, key, end)`` — so no two
    stored windows of one element ever overlap (the property suite pins
    this for arbitrary generated inputs) and iteration order is canonical.
    """

    def __init__(self, windows: Sequence[OutageWindow] = ()):
        self.windows: tuple[OutageWindow, ...] = self._normalize(windows)
        self._by_element: dict[tuple[str, str], list[OutageWindow]] = {}
        for window in self.windows:
            self._by_element.setdefault((window.element, window.key), []).append(window)

    @staticmethod
    def _normalize(windows: Sequence[OutageWindow]) -> tuple[OutageWindow, ...]:
        grouped: dict[tuple[str, str], list[OutageWindow]] = {}
        for window in windows:
            grouped.setdefault((window.element, window.key), []).append(window)
        merged: list[OutageWindow] = []
        for (element, key), group in grouped.items():
            group = sorted(group, key=lambda w: (w.start, w.end))
            current_start, current_end = group[0].start, group[0].end
            for window in group[1:]:
                if window.start <= current_end:  # overlap or adjacency: merge
                    current_end = max(current_end, window.end)
                else:
                    merged.append(OutageWindow(element, key, current_start, current_end))
                    current_start, current_end = window.start, window.end
            merged.append(OutageWindow(element, key, current_start, current_end))
        return tuple(
            sorted(merged, key=lambda w: (w.start, w.element, w.key, w.end))
        )

    def __len__(self) -> int:
        return len(self.windows)

    def __bool__(self) -> bool:
        return bool(self.windows)

    # -- queries -----------------------------------------------------------------------
    def _windows_for(self, element: str, key: str) -> list[OutageWindow]:
        return self._by_element.get((element, key), [])

    def link_down(self, node_a: str, node_b: str, time: float) -> bool:
        """True if the link is inside a failure window at *time*."""
        return any(w.covers(time) for w in self._windows_for("link", link_key(node_a, node_b)))

    def node_down(self, name: str, time: float) -> bool:
        """True if the node is inside a failure window at *time*."""
        return any(w.covers(time) for w in self._windows_for("node", name))

    def link_blocked(self, node_a: str, node_b: str, start: float, end: float) -> bool:
        """True if any failure window of the link intersects ``[start, end]``."""
        return any(
            w.overlaps(start, end) for w in self._windows_for("link", link_key(node_a, node_b))
        )

    def node_blocked(self, name: str, start: float, end: float) -> bool:
        """True if any failure window of the node intersects ``[start, end]``."""
        return any(w.overlaps(start, end) for w in self._windows_for("node", name))

    def recovery_times(self) -> list[float]:
        """Sorted distinct window-end times (the scheduler's retry events)."""
        return sorted({window.end for window in self.windows})

    def route_windows(self, nodes: Sequence[str]) -> RouteWindows:
        """The failure windows of each element of the path *nodes*.

        Elements come in :func:`route_blocking`'s report order — the nodes,
        then the links as sorted ``"a|b"`` keys — and elements that never
        fail are left out.
        """
        elements = [("node", name) for name in nodes]
        elements.extend(("link", link_key(a, b)) for a, b in zip(nodes, nodes[1:]))
        return tuple(
            (element, tuple(self._by_element[element]))
            for element in elements
            if element in self._by_element
        )

    # -- construction ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        topology: Any,
        *,
        seed: int,
        horizon: float,
        link_failure_rate: float = 0.0,
        node_failure_rate: float = 0.0,
        mean_downtime: float = 0.1,
    ) -> "OutageSchedule":
        """Seed-derived failure/recovery schedule over ``[0, horizon]``.

        Failures arrive per element as a Poisson process with the given
        rate (failures per unit time); each lasts an exponential downtime
        with the given mean, truncated at the horizon.  Deterministic for a
        given ``(topology, seed, horizon, rates)`` tuple: elements are
        visited in canonical sorted order with one derived stream each.
        """
        for value, what in (
            (seed, "outage seed"),
            (horizon, "outage horizon"),
            (link_failure_rate, "link_failure_rate"),
            (node_failure_rate, "node_failure_rate"),
            (mean_downtime, "mean_downtime"),
        ):
            _require_finite(value, what)
        if horizon <= 0:
            raise NetworkError("outage horizon must be positive")
        if link_failure_rate < 0 or node_failure_rate < 0:
            raise NetworkError("failure rates must be non-negative")
        if mean_downtime <= 0:
            raise NetworkError("mean_downtime must be positive")
        windows: list[OutageWindow] = []
        elements: list[tuple[str, str, float]] = []
        if link_failure_rate > 0:
            elements.extend(
                ("link", link_key(link.node_a, link.node_b), link_failure_rate)
                for link in topology.links
            )
        if node_failure_rate > 0:
            elements.extend(
                ("node", name, node_failure_rate) for name in topology.node_names
            )
        for ordinal, (element, key, rate) in enumerate(
            sorted(elements, key=lambda item: (item[0], item[1]))
        ):
            generator = as_rng(int(seed) + 7919 * (ordinal + 1))
            clock = float(generator.exponential(1.0 / rate))
            while clock < horizon:
                downtime = float(generator.exponential(mean_downtime))
                end = min(clock + max(downtime, 1e-9), horizon)
                if end > clock:
                    windows.append(OutageWindow(element, key, clock, end))
                clock = end + float(generator.exponential(1.0 / rate))
        return cls(windows)

    # -- serialisation -----------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"windows": [window.to_dict() for window in self.windows]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OutageSchedule":
        return cls([OutageWindow.from_dict(entry) for entry in data.get("windows", ())])

    def __repr__(self) -> str:
        return f"OutageSchedule(windows={len(self.windows)})"


def route_blocking(
    windows: RouteWindows, start: float, end: float
) -> tuple[list[tuple[str, str]], float, float]:
    """The elements blocking ``[start, end]``, and until when that holds.

    *windows* is a route's :meth:`OutageSchedule.route_windows`.  Returns
    ``(blocked, until, next_start)``: the ``("node", name)`` / ``("link",
    key)`` pair of every element with a failure window intersecting the
    closed interval (empty: the route is safe for the whole reservation),
    the earliest end of such a window, and the earliest start of a window
    beginning after ``end``.  A later interval ``[start', end']`` with
    ``start <= start' < until`` and ``end <= end' < next_start`` gets the
    same ``blocked``: an intersecting window intersects until it ends, an
    ended one stays ended, and a later one stays clear while the interval
    ends before it begins.  Those are the comparisons made here, so a
    caller that skips the call on them gets exactly the call's answer.
    """
    blocked: list[tuple[str, str]] = []
    until = next_start = math.inf
    for element, element_windows in windows:
        hit = False
        # One element's windows are disjoint and sorted by start.
        for window in element_windows:
            if window.start > end:
                next_start = min(next_start, window.start)
                break
            if start < window.end:
                hit = True
                until = min(until, window.end)
        if hit:
            blocked.append(element)
    return blocked, until, next_start


def evolve_channel(
    channel: QuantumChannel,
    error_scale: float = 1.0,
    t1_scale: float = 1.0,
    t2_scale: float = 1.0,
) -> QuantumChannel:
    """The time-evolved copy of *channel* under the given degradation factors.

    Error probabilities multiply by ``error_scale`` (clipped into [0, 1]);
    relaxation times multiply by ``t1_scale``/``t2_scale`` with T2 re-clamped
    to the physical ``2·T1`` bound.  When every factor is exactly 1.0 the
    *original object* is returned — the identity the metamorphic tests rely
    on for bit-identical zero-drift runs.  Channel types without a drifting
    parameter (e.g. :class:`NoiselessChannel`) are returned unchanged.
    """
    if error_scale == 1.0 and t1_scale == 1.0 and t2_scale == 1.0:
        return channel
    if error_scale < 0 or t1_scale < 0 or t2_scale < 0:
        raise NetworkError("drift factors must be non-negative")

    def clip01(value: float) -> float:
        return min(1.0, max(0.0, value))

    if isinstance(channel, IdentityChainChannel):
        t1 = max(channel.t1 * t1_scale, 1e-12)
        t2 = max(min(channel.t2 * t2_scale, 2.0 * t1), 1e-12)
        return replace(
            channel, gate_error=clip01(channel.gate_error * error_scale), t1=t1, t2=t2
        )
    if isinstance(channel, DepolarizingChannel):
        return replace(channel, probability=clip01(channel.probability * error_scale))
    if isinstance(channel, FiberLossChannel):
        return replace(
            channel,
            attenuation_db_per_km=max(0.0, channel.attenuation_db_per_km * error_scale),
            dephasing_per_km=clip01(channel.dephasing_per_km * error_scale),
        )
    return channel


class NetworkDynamics:
    """The scheduler-facing bundle of time-varying conditions.

    Parameters
    ----------
    channel_drift:
        Map from link key (``"a|b"`` sorted form, or the :data:`GLOBAL_KEY`
        wildcard ``"*"``) to the :class:`DriftProfile` multiplying that
        link's channel error over time.  A specific link key overrides the
        wildcard.
    aging:
        Optional :class:`CalibrationAging` applied on top of drift: its
        ``error_scale`` multiplies into the drift factor and its T1/T2
        scales degrade relaxation-based channels.
    outages:
        The :class:`OutageSchedule` of link/node failure windows.

    The scheduler evaluates everything at each session's admission time:
    :meth:`channel_at` snapshots the per-hop channels, and
    :func:`route_blocking` over the schedule's
    :meth:`~OutageSchedule.route_windows` steers admission-time re-routing.
    """

    def __init__(
        self,
        channel_drift: Mapping[str, DriftProfile] | None = None,
        aging: CalibrationAging | None = None,
        outages: OutageSchedule | None = None,
    ):
        self.channel_drift = dict(channel_drift or {})
        for key, profile in self.channel_drift.items():
            if not isinstance(profile, DriftProfile):
                raise NetworkError(
                    f"channel_drift[{key!r}] must be a DriftProfile, "
                    f"got {type(profile).__name__}"
                )
        self.aging = aging
        self.outages = outages if outages is not None else OutageSchedule()

    @classmethod
    def static(cls) -> "NetworkDynamics":
        """The trivial dynamics: no drift, no aging, no outages."""
        return cls()

    def is_static(self) -> bool:
        """True if every condition is time-invariant (bit-identical to no dynamics)."""
        return (
            all(profile.trivial for profile in self.channel_drift.values())
            and (self.aging is None or self.aging.trivial)
            and not self.outages
        )

    # -- channel evolution -------------------------------------------------------------
    def _drift_for(self, key: str) -> DriftProfile | None:
        return self.channel_drift.get(key) or self.channel_drift.get(GLOBAL_KEY)

    def factors_at(self, node_a: str, node_b: str, time: float) -> tuple[float, float, float]:
        """``(error_scale, t1_scale, t2_scale)`` for a link at *time*."""
        profile = self._drift_for(link_key(node_a, node_b))
        error_scale = 1.0 if profile is None else max(0.0, profile.value(time))
        t1_scale = t2_scale = 1.0
        if self.aging is not None:
            aged_t1, aged_t2, aged_error = self.aging.factors(time)
            error_scale *= aged_error
            t1_scale *= aged_t1
            t2_scale *= aged_t2
        return error_scale, t1_scale, t2_scale

    def channel_at(self, link: Any, time: float) -> QuantumChannel:
        """The link's channel as conditions stand at *time*.

        Returns the link's own channel object when every factor is 1.0, so
        zero-amplitude dynamics keep sessions byte-identical to static runs.
        """
        error_scale, t1_scale, t2_scale = self.factors_at(link.node_a, link.node_b, time)
        return evolve_channel(
            link.quantum_channel,
            error_scale=error_scale,
            t1_scale=t1_scale,
            t2_scale=t2_scale,
        )

    def recovery_times(self) -> list[float]:
        return self.outages.recovery_times()

    # -- serialisation -----------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "channel_drift": {
                key: self.channel_drift[key].to_dict()
                for key in sorted(self.channel_drift)
            },
            "aging": None if self.aging is None else self.aging.to_dict(),
            "outages": self.outages.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkDynamics":
        return cls(
            channel_drift={
                key: DriftProfile.from_dict(profile)
                for key, profile in data.get("channel_drift", {}).items()
            },
            aging=(
                None
                if data.get("aging") is None
                else CalibrationAging.from_dict(data["aging"])
            ),
            outages=OutageSchedule.from_dict(data.get("outages", {})),
        )

    def __repr__(self) -> str:
        return (
            f"NetworkDynamics(drift={len(self.channel_drift)}, "
            f"aging={self.aging is not None}, outages={len(self.outages)})"
        )


# -- named condition profiles ------------------------------------------------------------
def _profile_static(topology: Any, seed: int, horizon: float) -> NetworkDynamics:
    return NetworkDynamics.static()


def _profile_drift(topology: Any, seed: int, horizon: float) -> NetworkDynamics:
    # Diurnal-style oscillation around nominal plus a slow degradation ramp:
    # error rates swing ±60 % over the horizon and end ~50 % above nominal.
    return NetworkDynamics(
        channel_drift={
            GLOBAL_KEY: DriftProfile(
                kind="sinusoid",
                base=1.0,
                amplitude=0.6,
                period=max(horizon / 2.0, 1e-9),
                floor=0.0,
            )
        },
        aging=CalibrationAging(
            error_scale=DriftProfile.linear(base=1.0, rate=0.5 / max(horizon, 1e-9)),
            t1_scale=DriftProfile.linear(base=1.0, rate=-0.25 / max(horizon, 1e-9)),
            t2_scale=DriftProfile.linear(base=1.0, rate=-0.25 / max(horizon, 1e-9)),
        ),
    )


def _profile_outage(topology: Any, seed: int, horizon: float) -> NetworkDynamics:
    return NetworkDynamics(
        outages=OutageSchedule.random(
            topology,
            seed=seed,
            horizon=horizon,
            link_failure_rate=2.0 / max(horizon, 1e-9),
            node_failure_rate=0.5 / max(horizon, 1e-9),
            mean_downtime=horizon / 8.0,
        )
    )


def _profile_drift_outage(topology: Any, seed: int, horizon: float) -> NetworkDynamics:
    drift = _profile_drift(topology, seed, horizon)
    outage = _profile_outage(topology, seed, horizon)
    return NetworkDynamics(
        channel_drift=drift.channel_drift,
        aging=drift.aging,
        outages=outage.outages,
    )


#: Named condition-profile builders: ``name -> builder(topology, seed, horizon)``.
CONDITION_PROFILES = {
    "static": _profile_static,
    "drift": _profile_drift,
    "outage": _profile_outage,
    "drift_outage": _profile_drift_outage,
}


def condition_profile(name: str, topology: Any, seed: int, horizon: float) -> NetworkDynamics:
    """Build a named, seed-derived :class:`NetworkDynamics` (see :data:`CONDITION_PROFILES`)."""
    if name not in CONDITION_PROFILES:
        raise NetworkError(
            f"unknown condition profile {name!r}; known: {sorted(CONDITION_PROFILES)}"
        )
    _require_finite(seed, "condition-profile seed")
    _require_finite(horizon, "condition-profile horizon")
    if horizon <= 0:
        raise NetworkError(f"condition-profile horizon must be positive, got {horizon!r}")
    return CONDITION_PROFILES[name](topology, int(seed), float(horizon))
