"""Declarative adversarial scenarios: strategy × strength × schedule × layer.

The paper's §III threat analysis and its §IV simulations enumerate a handful
of fixed attacks.  The ROADMAP's north star ("as many scenarios as you can
imagine") needs something stronger: a *declarative* description of an
adversary that a single spec can carry through every execution surface —
direct :class:`~repro.protocol.runner.UADIQSDCProtocol` sessions
(``ProtocolConfig.scenario``), the messaging facade
(``ServiceConfig.with_scenario``) and multi-hop relay runs
(``SessionRequest.scenario``) — and that experiments can sweep on a grid.

The three abstractions:

* :class:`AttackScenario` — one adversary: a registered *strategy* name, a
  normalised *strength* knob, an onset/duty-cycle *schedule* (see
  :mod:`repro.attacks.schedule`) and a *target layer* (``source`` /
  ``channel`` / ``relay`` / ``classical``).  Scenarios are immutable,
  JSON-serialisable (:meth:`AttackScenario.to_dict` /
  :meth:`AttackScenario.from_dict`) and build concrete
  :class:`~repro.attacks.base.Attack` instances deterministically from a
  supplied RNG.
* :class:`ScenarioSchedule` — a composable stack of scenarios acting on the
  same session (built as a :class:`~repro.attacks.schedule.ComposedAttack`).
* the **registries** — :func:`register_strategy` maps strategy names to
  builders (all five §III families ship parameterised variants, plus the
  source-control adversary of :mod:`repro.attacks.source_tamper`), and
  :func:`register_scenario` / :func:`get_scenario` name canonical scenario
  presets that experiments, examples and tests share.

The strength knob is strategy-specific but always normalised to [0, 1]:

=========================  ====================================================
strategy                   meaning of ``strength``
=========================  ====================================================
``intercept_resend``       fraction of transmitted qubits measured & resent
``man_in_the_middle``      fraction of transmitted qubits substituted
``entangle_measure``       probe coupling (1 = full CNOT ancilla)
``source_tamper``          Werner mixing of the emitted pairs
``impersonation``          ignored (identity guessing has no partial mode)
``classical_eavesdropper`` ignored (purely passive)
=========================  ====================================================
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.entangle_measure import EntangleMeasureAttack
from repro.attacks.impersonation import ImpersonationAttack
from repro.attacks.information_leakage import ClassicalEavesdropper
from repro.attacks.intercept_resend import InterceptResendAttack
from repro.attacks.man_in_the_middle import ManInTheMiddleAttack
from repro.attacks.schedule import ComposedAttack, ScheduledAttack, check_schedule
from repro.attacks.source_tamper import SourceTamperAttack
from repro.exceptions import AttackError
from repro.utils.rng import as_rng, derive_rng

__all__ = [
    "LAYERS",
    "AttackScenario",
    "ScenarioSchedule",
    "StrategySpec",
    "register_strategy",
    "get_strategy",
    "list_strategies",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "as_schedule",
    "scenario_from_dict",
]

#: The protocol layers an adversary can target.  ``relay`` marks scenarios
#: that only make sense at intermediate trusted-relay nodes of a network
#: route; in a direct two-party session a ``relay`` scenario behaves like a
#: ``channel`` one (the relay *is* the channel from the endpoints' view).
LAYERS = ("source", "channel", "relay", "classical")


# ---------------------------------------------------------------------------
# strategy registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategySpec:
    """One registered attack strategy.

    Attributes
    ----------
    name:
        Registry key (the ``strategy`` field of scenarios).
    builder:
        ``builder(scenario, rng) -> Attack`` constructing the concrete model.
    layers:
        The target layers this strategy supports.
    default_layer:
        Layer used when a scenario does not pin one explicitly.
    description:
        One-line human description (shown by docs and the CLI).
    """

    name: str
    builder: Callable[["AttackScenario", np.random.Generator], Attack]
    layers: tuple[str, ...]
    default_layer: str
    description: str


_STRATEGIES: dict[str, StrategySpec] = {}


def register_strategy(spec: StrategySpec) -> StrategySpec:
    """Add a strategy to the registry (names must be unique)."""
    if spec.name in _STRATEGIES:
        raise AttackError(f"strategy {spec.name!r} already registered")
    if spec.default_layer not in spec.layers:
        raise AttackError(
            f"default layer {spec.default_layer!r} not among supported "
            f"layers {spec.layers}"
        )
    for layer in spec.layers:
        if layer not in LAYERS:
            raise AttackError(f"unknown layer {layer!r}; known: {LAYERS}")
    _STRATEGIES[spec.name] = spec
    return spec


def get_strategy(name: str) -> StrategySpec:
    """Look up a strategy by name."""
    if name not in _STRATEGIES:
        raise AttackError(
            f"unknown strategy {name!r}; known: {sorted(_STRATEGIES)}"
        )
    return _STRATEGIES[name]


def list_strategies() -> list[StrategySpec]:
    """All registered strategies sorted by name."""
    return [_STRATEGIES[key] for key in sorted(_STRATEGIES)]


# ---------------------------------------------------------------------------
# the scenario abstraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackScenario:
    """A declarative description of one adversary.

    Attributes
    ----------
    strategy:
        Name of a registered strategy (see :func:`list_strategies`).
    strength:
        Normalised strength in [0, 1] (strategy-specific meaning; see the
        module docstring's table).
    onset:
        First pair index at which the attack is live (0 = from the start).
    duty_cycle:
        Fraction of each *duty_period* window during which the attack is
        live; 1.0 = continuous (see
        :class:`~repro.attacks.schedule.ScheduledAttack`).
    duty_period:
        Window length (pair indices) for the duty cycle.
    target_layer:
        ``"source"``, ``"channel"``, ``"relay"`` or ``"classical"``; ``None``
        uses the strategy's default.  Determines which network hops the
        scenario applies to (see :meth:`applies_to_hop`).
    params:
        Strategy-specific extras (e.g. ``theta``/``phi``/``basis_mode`` for
        intercept-resend, ``substitute`` for MITM, ``target`` for
        impersonation).  Values must be JSON-representable.
    """

    strategy: str
    strength: float = 1.0
    onset: int = 0
    duty_cycle: float = 1.0
    duty_period: int = 16
    target_layer: "str | None" = None
    params: Mapping[str, Any] = field(default_factory=dict)

    # -- validation --------------------------------------------------------------------
    def validate(self) -> "AttackScenario":
        """Raise :class:`AttackError` if the scenario is inconsistent."""
        spec = get_strategy(self.strategy)
        Attack.validate_fraction(self.strength, "strength")
        check_schedule(self.onset, self.duty_cycle, self.duty_period)
        if not isinstance(self.params, Mapping):
            raise AttackError(
                f"params must be a mapping, got {type(self.params).__name__}"
            )
        if self.layer not in spec.layers:
            raise AttackError(
                f"strategy {self.strategy!r} does not operate on layer "
                f"{self.layer!r} (supported: {spec.layers})"
            )
        return self

    # -- derived -----------------------------------------------------------------------
    @property
    def layer(self) -> str:
        """The effective target layer (explicit or the strategy default)."""
        if self.target_layer is not None:
            return self.target_layer
        return get_strategy(self.strategy).default_layer

    @property
    def label(self) -> str:
        """Compact human-readable identifier used in reports and sweeps."""
        parts = [f"s={self.strength:g}"]
        if self.onset:
            parts.append(f"onset={self.onset}")
        if self.duty_cycle < 1.0:
            parts.append(f"duty={self.duty_cycle:g}/{self.duty_period}")
        if self.target_layer is not None:
            parts.append(f"layer={self.target_layer}")
        for key in sorted(self.params):
            parts.append(f"{key}={self.params[key]}")
        return f"{self.strategy}[{', '.join(parts)}]"

    # -- construction ------------------------------------------------------------------
    def build(self, rng=None) -> Attack:
        """Instantiate the concrete attack this scenario describes.

        All randomness flows from *rng*, so a pinned seed reproduces the
        adversary's behaviour exactly — the property the determinism tests
        and the sweep substrate rely on.
        """
        self.validate()
        generator = as_rng(rng)
        inner = get_strategy(self.strategy).builder(self, generator)
        if self.onset == 0 and self.duty_cycle >= 1.0:
            return inner
        return ScheduledAttack(
            inner,
            onset=self.onset,
            duty_cycle=self.duty_cycle,
            duty_period=self.duty_period,
        )

    def attack_factory(self) -> Callable[[Any], Attack]:
        """An ``rng -> Attack`` factory (the shape ``evaluate_attack`` and
        :meth:`repro.network.topology.NetworkTopology.compromise` expect)."""
        return lambda rng: self.build(rng)

    def applies_to_hop(self, hop_index: int, num_hops: int) -> bool:
        """Whether this scenario attacks hop *hop_index* of a *num_hops* route.

        * ``source`` — the first hop only (Eve controls the sender's source);
        * ``channel`` / ``classical`` — every hop (Eve sits on the links /
          hears every hop's control plane);
        * ``relay`` — only hops adjacent to an intermediate relay node, i.e.
          any hop of a multi-hop route and *no* hop of a direct one.
        """
        layer = self.layer
        if layer == "source":
            return hop_index == 0
        if layer == "relay":
            return num_hops >= 2
        return True

    # -- serialisation -----------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        payload: dict[str, Any] = {
            "strategy": self.strategy,
            "strength": self.strength,
            "onset": self.onset,
            "duty_cycle": self.duty_cycle,
            "duty_period": self.duty_period,
        }
        if self.target_layer is not None:
            payload["target_layer"] = self.target_layer
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AttackScenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        known = {
            "strategy", "strength", "onset", "duty_cycle", "duty_period",
            "target_layer", "params",
        }
        unknown = set(payload) - known
        if unknown:
            raise AttackError(f"unknown scenario fields: {sorted(unknown)}")
        if "strategy" not in payload:
            raise AttackError("a scenario dict needs a 'strategy' field")
        params = payload.get("params", {})
        return cls(
            strategy=str(payload["strategy"]),
            strength=Attack.validate_finite(payload.get("strength", 1.0), "strength"),
            onset=payload.get("onset", 0),
            duty_cycle=Attack.validate_finite(payload.get("duty_cycle", 1.0), "duty_cycle"),
            duty_period=payload.get("duty_period", 16),
            target_layer=payload.get("target_layer"),
            params=dict(params) if isinstance(params, Mapping) else params,
        ).validate()


@dataclass(frozen=True)
class ScenarioSchedule:
    """Several scenarios composed onto the same session.

    Building a schedule yields a single
    :class:`~repro.attacks.schedule.ComposedAttack` whose members each draw
    their randomness from an independently derived child RNG, so the composed
    behaviour is deterministic under a pinned seed and independent of member
    internals.  At most one member may impersonate a party.
    """

    scenarios: tuple[AttackScenario, ...]

    def validate(self) -> "ScenarioSchedule":
        """Raise :class:`AttackError` on an empty or conflicting schedule."""
        if not self.scenarios:
            raise AttackError("a scenario schedule needs at least one scenario")
        impersonators = [
            scenario
            for scenario in self.scenarios
            if scenario.validate().strategy == "impersonation"
        ]
        if len(impersonators) > 1:
            raise AttackError(
                "a schedule may contain at most one impersonation scenario"
            )
        return self

    @property
    def label(self) -> str:
        """Compact identifier: the members' labels joined with '+'."""
        return " + ".join(scenario.label for scenario in self.scenarios)

    def build(self, rng=None) -> Attack:
        """Instantiate the composed attack (a single attack for 1-element schedules)."""
        self.validate()
        generator = as_rng(rng)
        if len(self.scenarios) == 1:
            return self.scenarios[0].build(generator)
        return ComposedAttack(
            [
                scenario.build(derive_rng(generator, "scenario", index))
                for index, scenario in enumerate(self.scenarios)
            ]
        )

    def attack_factory(self) -> Callable[[Any], Attack]:
        """An ``rng -> Attack`` factory for harnesses and compromised nodes."""
        return lambda rng: self.build(rng)

    def applies_to_hop(self, hop_index: int, num_hops: int) -> bool:
        """True if any member scenario attacks the given hop."""
        return any(
            scenario.applies_to_hop(hop_index, num_hops)
            for scenario in self.scenarios
        )

    def subschedule_for_hop(
        self, hop_index: int, num_hops: int
    ) -> "ScenarioSchedule | None":
        """The members applying to one hop, or ``None`` if none do."""
        members = tuple(
            scenario
            for scenario in self.scenarios
            if scenario.applies_to_hop(hop_index, num_hops)
        )
        if not members:
            return None
        return ScenarioSchedule(members)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        return {"scenarios": [scenario.to_dict() for scenario in self.scenarios]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        if "scenarios" not in payload:
            raise AttackError("a schedule dict needs a 'scenarios' list")
        return cls(
            scenarios=tuple(
                AttackScenario.from_dict(item) for item in payload["scenarios"]
            )
        ).validate()


def as_schedule(
    spec: "AttackScenario | ScenarioSchedule | Mapping[str, Any] | str",
) -> ScenarioSchedule:
    """Coerce any scenario spelling into a validated :class:`ScenarioSchedule`.

    Accepts a schedule, a single scenario, a serialised dict of either shape,
    or the name of a registered preset.
    """
    if isinstance(spec, ScenarioSchedule):
        return spec.validate()
    if isinstance(spec, AttackScenario):
        return ScenarioSchedule((spec.validate(),))
    if isinstance(spec, str):
        return get_scenario(spec)
    if isinstance(spec, Mapping):
        return scenario_from_dict(spec)
    raise AttackError(
        f"cannot interpret {type(spec).__name__} as an attack scenario"
    )


def scenario_from_dict(payload: Mapping[str, Any]) -> ScenarioSchedule:
    """Deserialise either dict shape (scenario or schedule) into a schedule."""
    if "scenarios" in payload:
        return ScenarioSchedule.from_dict(payload)
    return ScenarioSchedule((AttackScenario.from_dict(payload),))


# ---------------------------------------------------------------------------
# strategy builders
# ---------------------------------------------------------------------------

def _build_intercept_resend(
    scenario: AttackScenario, rng: np.random.Generator
) -> Attack:
    return InterceptResendAttack(
        theta=scenario.params.get("theta", 0.0),
        phi=scenario.params.get("phi", 0.0),
        attack_fraction=scenario.strength,
        basis_mode=str(scenario.params.get("basis_mode", "fixed")),
        rng=rng,
    )


def _build_entangle_measure(
    scenario: AttackScenario, rng: np.random.Generator
) -> Attack:
    return EntangleMeasureAttack(
        strength=scenario.strength,
        attack_fraction=scenario.params.get("attack_fraction", 1.0),
        rng=rng,
    )


def _build_man_in_the_middle(
    scenario: AttackScenario, rng: np.random.Generator
) -> Attack:
    return ManInTheMiddleAttack(
        substitute=str(scenario.params.get("substitute", "random_pure")),
        attack_fraction=scenario.strength,
        rng=rng,
    )


def _build_impersonation(
    scenario: AttackScenario, rng: np.random.Generator
) -> Attack:
    return ImpersonationAttack(
        target=str(scenario.params.get("target", "bob")), rng=rng
    )


def _build_classical_eavesdropper(
    scenario: AttackScenario, rng: np.random.Generator
) -> Attack:
    return ClassicalEavesdropper(rng=rng)


def _build_source_tamper(
    scenario: AttackScenario, rng: np.random.Generator
) -> Attack:
    return SourceTamperAttack(strength=scenario.strength, rng=rng)


register_strategy(
    StrategySpec(
        name="intercept_resend",
        builder=_build_intercept_resend,
        layers=("channel", "relay"),
        default_layer="channel",
        description="Measure-and-resend on the quantum channel (§III-B); "
        "strength = attacked fraction, params: theta/phi/basis_mode",
    )
)
register_strategy(
    StrategySpec(
        name="entangle_measure",
        builder=_build_entangle_measure,
        layers=("channel", "relay"),
        default_layer="channel",
        description="Entangling-probe attack (§III-D); strength = coupling, "
        "params: attack_fraction",
    )
)
register_strategy(
    StrategySpec(
        name="man_in_the_middle",
        builder=_build_man_in_the_middle,
        layers=("channel", "relay"),
        default_layer="channel",
        description="Qubit substitution (§III-C); strength = substituted "
        "fraction, params: substitute",
    )
)
register_strategy(
    StrategySpec(
        name="impersonation",
        builder=_build_impersonation,
        layers=("classical",),
        default_layer="classical",
        description="Identity forgery without the pre-shared secret (§III-A); "
        "params: target ('alice'|'bob')",
    )
)
register_strategy(
    StrategySpec(
        name="classical_eavesdropper",
        builder=_build_classical_eavesdropper,
        layers=("classical",),
        default_layer="classical",
        description="Passive tap on the public classical channel (§III-E)",
    )
)
register_strategy(
    StrategySpec(
        name="source_tamper",
        builder=_build_source_tamper,
        layers=("source",),
        default_layer="source",
        description="Adversarial source emitting Werner states; strength = "
        "mixing parameter (caught by the round-1 DI check)",
    )
)


# ---------------------------------------------------------------------------
# named scenario presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _NamedScenario:
    name: str
    schedule: ScenarioSchedule
    description: str


_SCENARIOS: dict[str, _NamedScenario] = {}


def register_scenario(
    name: str,
    spec: "AttackScenario | ScenarioSchedule",
    description: str = "",
) -> ScenarioSchedule:
    """Register a named scenario preset (names must be unique)."""
    if name in _SCENARIOS:
        raise AttackError(f"scenario {name!r} already registered")
    schedule = (
        spec.validate()
        if isinstance(spec, ScenarioSchedule)
        else ScenarioSchedule((spec.validate(),))
    )
    _SCENARIOS[name] = _NamedScenario(name, schedule, description)
    return schedule


def get_scenario(name: str) -> ScenarioSchedule:
    """Look up a registered scenario preset by name."""
    if name not in _SCENARIOS:
        raise AttackError(
            f"unknown scenario {name!r}; known: {sorted(_SCENARIOS)}"
        )
    return _SCENARIOS[name].schedule


def list_scenarios() -> list[tuple[str, ScenarioSchedule, str]]:
    """All registered presets as ``(name, schedule, description)``, by name."""
    return [
        (named.name, named.schedule, named.description)
        for named in (_SCENARIOS[key] for key in sorted(_SCENARIOS))
    ]


def _populate_presets() -> None:
    """Register the canonical scenario presets (executed on import)."""
    register_scenario(
        "intercept_resend_full",
        AttackScenario("intercept_resend"),
        "Every transmitted qubit measured in the computational basis (§III-B)",
    )
    register_scenario(
        "intercept_resend_half",
        AttackScenario("intercept_resend", strength=0.5),
        "Half the transmitted qubits measured and resent",
    )
    register_scenario(
        "intercept_resend_breidbart",
        AttackScenario("intercept_resend", params={"theta": math.pi / 4}),
        "Basis-biased interception in the Breidbart basis (θ = π/4)",
    )
    register_scenario(
        "intercept_resend_individual",
        AttackScenario("intercept_resend", params={"basis_mode": "random"}),
        "Individual attack: independent random Z/X basis per qubit",
    )
    register_scenario(
        "intercept_resend_late",
        AttackScenario("intercept_resend", onset=64),
        "Collective interception switching on only from pair index 64",
    )
    register_scenario(
        "relay_intercept_resend",
        AttackScenario("intercept_resend", target_layer="relay"),
        "Interception mounted only at intermediate relay nodes of a route",
    )
    register_scenario(
        "entangle_measure_weak",
        AttackScenario("entangle_measure", strength=0.25),
        "Weakly coupled entangling probe (low leakage, low disturbance)",
    )
    register_scenario(
        "entangle_measure_full",
        AttackScenario("entangle_measure", strength=1.0),
        "Full-CNOT entangling probe (§III-D)",
    )
    register_scenario(
        "mitm_full",
        AttackScenario("man_in_the_middle"),
        "Every qubit substituted with a fresh Haar-random state (§III-C)",
    )
    register_scenario(
        "mitm_partial",
        AttackScenario("man_in_the_middle", strength=0.5),
        "Partial MITM: half the qubits substituted",
    )
    register_scenario(
        "mitm_intermittent",
        AttackScenario("man_in_the_middle", duty_cycle=0.25, duty_period=8),
        "Bursty MITM: substitution live one quarter of every 8-pair window",
    )
    register_scenario(
        "impersonate_alice",
        AttackScenario("impersonation", params={"target": "alice"}),
        "Eve injects a message pretending to be Alice (§III-A)",
    )
    register_scenario(
        "impersonate_bob",
        AttackScenario("impersonation", params={"target": "bob"}),
        "Eve receives pretending to be Bob (§III-A)",
    )
    register_scenario(
        "classical_passive",
        AttackScenario("classical_eavesdropper"),
        "Passive tap on every public announcement (§III-E)",
    )
    register_scenario(
        "source_tamper_subcritical",
        AttackScenario("source_tamper", strength=0.2),
        "Werner-mixed source below the CHSH-visible threshold s* ≈ 0.293",
    )
    register_scenario(
        "source_tamper_strong",
        AttackScenario("source_tamper", strength=0.8),
        "Strongly mixed adversarial source (caught by the round-1 DI check)",
    )
    register_scenario(
        "mitm_plus_classical",
        ScenarioSchedule(
            (
                AttackScenario("man_in_the_middle", strength=0.5),
                AttackScenario("classical_eavesdropper"),
            )
        ),
        "Colluding adversaries: partial MITM plus a passive classical tap",
    )
    register_scenario(
        "impersonation_with_intercept",
        ScenarioSchedule(
            (
                AttackScenario("impersonation", params={"target": "bob"}),
                AttackScenario("intercept_resend", strength=0.5),
            )
        ),
        "Eve impersonates Bob while also intercepting half the channel",
    )


_populate_presets()
