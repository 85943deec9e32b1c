"""Multi-node QSDC network simulation.

The paper proves and emulates one Alice–Bob UA-DI-QSDC session; this package
scales that link into a *network*: many users and trusted relays joined by
per-edge quantum channels, concurrent sessions admitted under
per-node qubit-capacity constraints, and hop-by-hop authenticated forwarding
where every hop runs the full protocol.

Layers (bottom up):

* :mod:`repro.network.topology` — the graph: nodes (capacity, memory model,
  optional compromise), links (one quantum channel per edge) and the
  standard generators (line, star, ring, grid, random geometric).
* :mod:`repro.network.routing` — deterministic shortest-hop / lowest-loss
  path selection (with element exclusion for outage re-routing).
* :mod:`repro.network.dynamics` — time-varying conditions: drift curves,
  calibration aging, link/node failure + recovery windows, and the
  :class:`~repro.network.dynamics.NetworkDynamics` bundle the scheduler
  evaluates at each session's admission time.
* :mod:`repro.network.sessions` — trusted-relay session execution: one full
  UA-DI-QSDC run per hop, relays re-encoding the decoded bits; compromised
  relays mount attacks through the existing :mod:`repro.attacks` hooks.
* :mod:`repro.network.scheduler` — deterministic discrete-event admission
  and timing plus parallel execution of admitted sessions through the
  :func:`repro.experiments.sweep.run_sweep` worker pool; optional
  time-varying conditions (``dynamics=``) and weighted-fair priority
  classes (``qos=``).
* :mod:`repro.network.metrics` — per-session records aggregated into a
  :class:`~repro.network.metrics.NetworkResult` (throughput, latency, abort
  and rejection rates, QBER).

Quickstart::

    from repro.network import grid_topology, PoissonTraffic, simulate_network

    topology = grid_topology(3, 3, qubit_capacity=128)
    traffic = PoissonTraffic(num_sessions=50, rate=400.0, message_length=8)
    result = simulate_network(topology, traffic, seed=7, executor="thread")
    print(result.throughput_sessions, result.abort_rate)

See ``docs/network.md`` for the architecture and event model.
"""

from repro.network.dynamics import (
    CONDITION_PROFILES,
    CalibrationAging,
    DriftProfile,
    NetworkDynamics,
    OutageSchedule,
    OutageWindow,
    condition_profile,
    evolve_channel,
    link_key,
)
from repro.network.metrics import NetworkResult, SessionRecord
from repro.network.routing import ROUTING_POLICIES, Route, RoutingTable, find_route
from repro.network.scheduler import (
    DEFAULT_QOS_WEIGHTS,
    NetworkScheduler,
    PoissonTraffic,
    QoSPolicy,
    TraceTraffic,
    simulate_network,
)
from repro.network.sessions import (
    STATUS_ABORTED,
    STATUS_DELIVERED,
    STATUS_DELIVERED_WITH_ERRORS,
    STATUS_REJECTED,
    HopReport,
    SessionOutcome,
    SessionParameters,
    SessionRequest,
    run_session,
)
from repro.network.topology import (
    NetworkLink,
    NetworkNode,
    NetworkTopology,
    build_topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    ring_topology,
    star_topology,
)

__all__ = [
    "CONDITION_PROFILES",
    "CalibrationAging",
    "DriftProfile",
    "NetworkDynamics",
    "OutageSchedule",
    "OutageWindow",
    "condition_profile",
    "evolve_channel",
    "link_key",
    "NetworkResult",
    "SessionRecord",
    "ROUTING_POLICIES",
    "Route",
    "RoutingTable",
    "find_route",
    "DEFAULT_QOS_WEIGHTS",
    "NetworkScheduler",
    "PoissonTraffic",
    "QoSPolicy",
    "TraceTraffic",
    "simulate_network",
    "STATUS_ABORTED",
    "STATUS_DELIVERED",
    "STATUS_DELIVERED_WITH_ERRORS",
    "STATUS_REJECTED",
    "HopReport",
    "SessionOutcome",
    "SessionParameters",
    "SessionRequest",
    "run_session",
    "NetworkLink",
    "NetworkNode",
    "NetworkTopology",
    "build_topology",
    "grid_topology",
    "line_topology",
    "random_geometric_topology",
    "ring_topology",
    "star_topology",
]
