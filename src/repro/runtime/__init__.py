"""repro.runtime — the concurrent delivery runtime.

The messaging facade (:mod:`repro.api`) executes one ``send()`` at a time in
the calling thread.  This package turns it into a *service*: many concurrent
clients, per-node admission control with backpressure, and a sustained-load
harness that drives 10⁴–10⁶ messages through a topology.

* :mod:`repro.runtime.admission` — the admission-control building blocks:
  bounded FIFO queues with configurable backpressure policies
  (``block`` / ``reject`` / ``shed_oldest``), token-bucket rate limiting,
  timeout-based expiry, and :class:`~repro.runtime.admission.NodeCapacityLedger`
  — the per-node EPR-pair occupancy counts the network scheduler reserves
  capacity with.
* :mod:`repro.runtime.engine` — :class:`~repro.runtime.engine.DeliveryEngine`,
  a thread-pooled concurrent delivery engine behind the
  :meth:`~repro.api.service.MessagingService.send` contract (plus
  :class:`~repro.runtime.engine.AsyncDeliveryEngine`, the asyncio front for
  event-loop clients).  In replay mode (an engine ``seed``) every request's
  randomness derives only from its own deterministic seed, so concurrent
  deliveries are byte-identical to the serial reference oracle whatever the
  worker count — the same parity contract ``run_sweep`` honours.
* :mod:`repro.runtime.loadgen` — the sustained-load harness: open- and
  closed-loop arrival processes (Poisson / uniform / burst), a deterministic
  discrete-event simulation of the runtime under load (virtual clock,
  calibrated service-time model), and live calibration through the real
  engine.  Drives the registered ``fig_load`` experiment.
* :mod:`repro.runtime.interrupt` — cooperative SIGINT handling: a process
  -wide graceful-shutdown flag the load harness and CLI poll so interrupted
  runs still flush their artifacts.

See ``docs/runtime.md`` for the architecture, the backpressure policy
matrix, and the replay-mode guarantees.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "AdmissionQueue",
    "AsyncDeliveryEngine",
    "Delivery",
    "DeliveryEngine",
    "LoadResult",
    "NodeCapacityLedger",
    "SendRequest",
    "ServiceTimeModel",
    "TokenBucket",
    "WeightedFairSelector",
    "replay_engine",
    "serial_reference",
    "simulate_load",
]

#: Lazily re-exported names -> defining module.  Lazy for the same reason as
#: the top-level package: the network scheduler imports
#: :mod:`repro.runtime.admission` at module level, and an eager engine import
#: here would pull the whole api/protocol stack into that import path.
_LAZY_EXPORTS = {
    "AdmissionQueue": "repro.runtime.admission",
    "NodeCapacityLedger": "repro.runtime.admission",
    "TokenBucket": "repro.runtime.admission",
    "WeightedFairSelector": "repro.runtime.admission",
    "AsyncDeliveryEngine": "repro.runtime.engine",
    "Delivery": "repro.runtime.engine",
    "DeliveryEngine": "repro.runtime.engine",
    "SendRequest": "repro.runtime.engine",
    "replay_engine": "repro.runtime.engine",
    "serial_reference": "repro.runtime.engine",
    "LoadResult": "repro.runtime.loadgen",
    "ServiceTimeModel": "repro.runtime.loadgen",
    "simulate_load": "repro.runtime.loadgen",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
