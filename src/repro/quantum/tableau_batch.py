"""Former home of the vectorized stabilizer front-end, kept as one name.

:class:`~repro.quantum.stabilizer.StabilizerSimulator` now serves single
runs, whole batches and trajectories with one bit-packed tableau engine.
``BatchedStabilizerSimulator`` stays bound to it because ``perfbench``'s
tracer wraps ``repro.quantum.tableau_batch:BatchedStabilizerSimulator.run_batch``
and fails on a missing name.
"""

from repro.quantum.stabilizer import StabilizerSimulator

__all__ = ["BatchedStabilizerSimulator"]

#: Synonym of :class:`~repro.quantum.stabilizer.StabilizerSimulator`.
BatchedStabilizerSimulator = StabilizerSimulator
