"""Parallel parameter sweeps with deterministic per-point seeding.

Every figure and table of the paper is regenerated by sweeping a parameter
grid — channel length for Fig. 3, message symbols for Fig. 2, attack
scenarios for the §IV simulations — and the historical implementation walked
those grids with nested ``for`` loops sharing one RNG, which made the points
order-dependent and impossible to parallelise.  This module is the common
substrate those experiments now run on:

* :func:`parameter_grid` expands named axes into the cartesian product of
  points (row-major, first axis slowest), preserving axis order;
* :func:`~repro.utils.rng.point_seed` (re-exported here) derives a
  deterministic, well-separated RNG seed for a point from a base seed and
  the point's parameters, so a point's result depends only on *its own*
  coordinates — never on execution order, worker count or executor choice;
* :func:`run_sweep` fans the points across ``concurrent.futures`` workers
  (process, thread, or serial execution) and aggregates the values back in
  grid order as a :class:`SweepResult`.

Workers must be importable module-level callables when the ``"process"``
executor is used (the standard :mod:`pickle` constraint); the ``"thread"``
and ``"serial"`` executors accept any callable.  Because seeding is
per-point, the three executors produce identical results — a property
asserted by ``tests/experiments/test_sweep.py``.

How to add a new sweep is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import contextvars
import itertools
import os
from collections.abc import Callable, Mapping, Sequence

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ExperimentError
from repro.utils.rng import _canonical_value, as_rng, point_seed

__all__ = [
    "SweepPoint",
    "SweepResult",
    "parameter_grid",
    "point_seed",
    "resolve_base_seed",
    "run_sweep",
]

#: Executor names accepted by :func:`run_sweep`.
EXECUTORS = ("serial", "thread", "process")


def parameter_grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Expand named axes into the cartesian product of parameter points.

    Parameters
    ----------
    **axes:
        Each keyword maps an axis name to the sequence of values it sweeps.
        Axis order is preserved: the first axis varies slowest.

    Returns
    -------
    list of dict
        One ``{axis: value}`` dict per grid point, in row-major order.

    Examples
    --------
    >>> parameter_grid(eta=[10, 50], message=["00", "01"])
    [{'eta': 10, 'message': '00'}, {'eta': 10, 'message': '01'},
     {'eta': 50, 'message': '00'}, {'eta': 50, 'message': '01'}]
    """
    if not axes:
        raise ExperimentError("a parameter grid needs at least one axis")
    names = list(axes)
    for name, values in axes.items():
        if isinstance(values, str):
            raise ExperimentError(
                f"axis {name!r} is a bare string; pass a sequence of values "
                f"(did you mean [{values!r}]?)"
            )
        if len(values) == 0:
            raise ExperimentError(f"axis {name!r} has no values")
    return [
        dict(zip(names, combination))
        for combination in itertools.product(*axes.values())
    ]


def resolve_base_seed(seed: "int | None") -> int:
    """Resolve a caller-supplied base seed, drawing a random one for ``None``.

    Experiments accept ``seed=None`` for "fresh entropy"; the sweep substrate
    needs a concrete integer to derive per-point seeds from.  Centralising
    the fallback keeps the policy (31-bit draw from OS entropy) in one place.
    """
    if seed is not None:
        return int(seed)
    return int(as_rng(None).integers(0, 2**31 - 1))


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep.

    Attributes
    ----------
    index:
        Position of the point in grid order.
    params:
        The point's ``{axis: value}`` coordinates.
    seed:
        The deterministic per-point RNG seed (see :func:`point_seed`).
    """

    index: int
    params: dict[str, Any]
    seed: int


@dataclass
class SweepResult:
    """Aggregate of a sweep: points and their values, aligned in grid order.

    Attributes
    ----------
    points:
        The swept :class:`SweepPoint` objects, in grid order.
    values:
        The worker's return value for each point, aligned with
        :attr:`points`.
    """

    points: list[SweepPoint] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.values))

    def value_at(self, **params: Any) -> Any:
        """The value of the (unique) point matching every given parameter."""
        matches = [
            value
            for point, value in self
            if all(point.params.get(name) == wanted for name, wanted in params.items())
        ]
        if len(matches) != 1:
            raise ExperimentError(
                f"{len(matches)} sweep points match {params!r}, expected exactly one"
            )
        return matches[0]

    def series(self, axis: str) -> list[tuple[Any, Any]]:
        """``(axis value, worker value)`` pairs in grid order (for plotting)."""
        return [(point.params[axis], value) for point, value in self]


def run_sweep(
    worker: Callable[[dict[str, Any], int], Any],
    grid: Sequence[Mapping[str, Any]],
    base_seed: int = 0,
    executor: str = "serial",
    max_workers: int | None = None,
) -> SweepResult:
    """Evaluate *worker* at every grid point, optionally in parallel.

    Parameters
    ----------
    worker:
        Callable ``worker(params, seed) -> value``.  It must derive **all**
        of its randomness from *seed* (not from global state) for the
        executor-independence guarantee to hold.  With the ``"process"``
        executor it must be an importable module-level callable and its
        arguments and return value must be picklable.
    grid:
        The parameter points, e.g. from :func:`parameter_grid`.
    base_seed:
        Sweep-level seed mixed into every per-point seed.
    executor:
        ``"serial"`` (default) runs in the calling thread; ``"thread"`` and
        ``"process"`` fan points across a ``concurrent.futures`` pool.
    max_workers:
        Pool size for the parallel executors; defaults to
        ``min(len(grid), os.cpu_count())``.

    Returns
    -------
    SweepResult
        Points and values in grid order, independent of the executor used.
    """
    if executor not in EXECUTORS:
        raise ExperimentError(
            f"unknown executor {executor!r}; choose one of {EXECUTORS}"
        )
    # Duplicate grid points (same params appearing more than once, e.g. a
    # repeated eta used for error bars) get a repeat ordinal mixed into their
    # seed, so repeats stay statistically independent instead of returning
    # byte-identical results.  The ordinal counts occurrences in grid order,
    # which keeps the seed multiset — and therefore the results — independent
    # of how the duplicates are interleaved.
    points: list[SweepPoint] = []
    repeats: dict[tuple, int] = {}
    for index, params in enumerate(grid):
        fingerprint = tuple(
            (name, _canonical_value(params[name])) for name in sorted(params)
        )
        repeat = repeats.get(fingerprint, 0)
        repeats[fingerprint] = repeat + 1
        seed_params = dict(params) if repeat == 0 else {**params, "__repeat__": repeat}
        points.append(
            SweepPoint(
                index=index, params=dict(params), seed=point_seed(base_seed, seed_params)
            )
        )
    if not points:
        return SweepResult()

    # The parallel executors are used even for one-point grids: a worker that
    # would fail to pickle (or a point that needs subprocess isolation) must
    # behave the same during smoke tests as on the full grid.
    if executor == "serial":
        values = [worker(point.params, point.seed) for point in points]
        return SweepResult(points=points, values=values)

    pool_type = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
    workers = max_workers or min(len(points), os.cpu_count() or 1)
    with pool_type(max_workers=workers) as pool:
        # A fresh copy of the caller's context per thread task keeps span parenting.
        futures = [
            pool.submit(worker, point.params, point.seed)
            if executor == "process"
            else pool.submit(contextvars.copy_context().run, worker, point.params, point.seed)
            for point in points
        ]
        values = [future.result() for future in futures]
    return SweepResult(points=points, values=values)
