"""The contract of ``group_by_object``, ``map_distinct`` and ``state_statistic``
in repro.quantum.density, and of the other memos on the same
:class:`~repro.utils.memo.BoundedMemo`: ``embedded_operator`` and the
observable projectors."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.quantum import density, operators
from repro.quantum.density import (
    DensityMatrix,
    group_by_object,
    map_distinct,
    state_statistic,
)
from repro.quantum.measurement import _observable_projectors, equatorial_observable
from repro.quantum.operators import X_MATRIX, embedded_operator
from repro.quantum.states import Statevector
from repro.utils.memo import BoundedMemo


def _diagonal(p: float) -> DensityMatrix:
    return DensityMatrix(np.diag([p, 1.0 - p]).astype(complex))


def _phase(angle: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * angle)])


def _hit_then_overfill(lookup, items, bound: int) -> None:
    """Fill a *bound*-entry memo, hitting ``items[0]`` just before it fills,
    then look up one more item, which evicts ``items[1]``, the oldest."""
    for item in items[: bound - 1]:
        lookup(item)
    lookup(items[0])  # a hit just before the memo fills
    lookup(items[bound - 1])  # fills it
    lookup(items[bound])  # evicts items[1], the oldest


#: Each memoised value as ``(lookup, arrays of the value)``; a second lookup
#: that missed would compute a new object.
CACHED_ARRAYS = {
    "array": (
        lambda: state_statistic("array", _diagonal(0.4), lambda s: np.real(np.diag(s.matrix))),
        lambda value: [value],
    ),
    "density_matrix": (
        lambda: state_statistic("array", _diagonal(0.4), lambda s: s.evolve(np.eye(2))),
        lambda value: [value.matrix],
    ),
    "projectors": (lambda: _observable_projectors(equatorial_observable(0.3)), list),
    "embedding": (lambda: embedded_operator(X_MATRIX, (0,), 2), lambda value: [value]),
}


class _YieldingMemo(dict):
    """A memo that lets other threads run right after reporting its size,
    which widens any gap between a size check and the insertion after it."""

    def __len__(self) -> int:
        size = super().__len__()
        time.sleep(0)
        return size


@pytest.fixture
def empty_memo():
    density._STATISTICS.clear()
    yield density._STATISTICS
    density._STATISTICS.clear()


class TestGroupByObject:
    def test_slots_index_distinct_objects_in_first_appearance_order(self):
        first, second, third = _diagonal(0.1), _diagonal(0.2), _diagonal(0.3)
        first_copy = DensityMatrix(first)  # equal content, another object
        states = [second, first, second, first_copy, third, first]
        slots, distinct = group_by_object(states)
        assert all(distinct[slot] is state for slot, state in zip(slots, states))
        assert slots == [0, 1, 0, 2, 3, 1]
        assert [id(state) for state in distinct] == [
            id(second),
            id(first),
            id(first_copy),
            id(third),
        ]

    def test_empty_input(self):
        assert group_by_object([]) == ([], [])


class TestMapDistinct:
    def test_one_call_per_distinct_content_in_input_order(self, empty_memo):
        first, second, third = _diagonal(0.1), _diagonal(0.2), _diagonal(0.3)
        first_copy = DensityMatrix(first)  # equal content, another object
        calls = []

        def fn(state):
            calls.append(state)
            return float(state.matrix[0, 0].real)

        mapped = map_distinct("p0", [first, second, first_copy, second, third], fn)
        assert mapped == [0.1, 0.2, 0.1, 0.2, 0.3]
        assert calls == [first, second, third]

    def test_equal_inputs_share_one_output_object(self, empty_memo):
        first, second = _diagonal(0.25), _diagonal(0.75)
        mapped = map_distinct(
            "evolve",
            [first, second, DensityMatrix(first), second],
            lambda state: state.evolve(np.eye(2)),
        )
        assert mapped[0] is mapped[2]
        assert mapped[1] is mapped[3]
        assert mapped[0] is not mapped[1]

    def test_empty_input(self, empty_memo):
        assert map_distinct("identity", [], lambda state: state) == []

    def test_statevector_and_density_matrix_with_equal_bytes_do_not_share(
        self, empty_memo
    ):
        vector = Statevector(np.full(4, 0.5, dtype=complex))  # 2 qubits
        matrix = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))  # 1 qubit
        assert vector.vector.tobytes() == matrix.matrix.tobytes()
        assert map_distinct("kind", [vector, matrix, vector], lambda state: type(state)) == [
            Statevector,
            DensityMatrix,
            Statevector,
        ]

    def test_repeated_object_costs_one_content_key(self, empty_memo, monkeypatch):
        calls = []
        content_key = density._content_key

        def counted(state):
            calls.append(state)
            return content_key(state)

        monkeypatch.setattr(density, "_content_key", counted)
        first, second = _diagonal(0.1), _diagonal(0.9)
        mapped = map_distinct(
            "p0", [first] * 500 + [second] * 500, lambda s: float(s.matrix[0, 0].real)
        )
        assert mapped == [0.1] * 500 + [0.9] * 500
        assert calls == [first, second]

    def test_shares_the_process_wide_memo(self, empty_memo):
        state = _diagonal(0.4)
        first = map_distinct("evolve", [state], lambda s: s.evolve(np.eye(2)))[0]
        assert state_statistic("evolve", DensityMatrix(state), lambda s: None) is first
        assert not first.matrix.flags.writeable


class TestStateStatistic:
    def test_statevector_and_density_matrix_with_equal_bytes_do_not_share(self, empty_memo):
        vector = Statevector(np.full(4, 0.5, dtype=complex))  # 2 qubits
        matrix = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))  # 1 qubit
        assert vector.vector.tobytes() == matrix.matrix.tobytes()
        assert state_statistic("kind", vector, lambda state: "statevector") == "statevector"
        assert state_statistic("kind", matrix, lambda state: "density") == "density"

    def test_tag_separates_statistics_of_one_state(self, empty_memo):
        state = _diagonal(0.4)
        assert state_statistic("a", state, lambda s: 1) == 1
        assert state_statistic("b", state, lambda s: 2) == 2
        assert state_statistic("a", DensityMatrix(state), lambda s: 3) == 1

    def test_computes_from_the_live_state(self, empty_memo):
        state = _diagonal(0.4)
        seen = []
        state_statistic("live", state, seen.append)
        assert seen[0] is state

    @pytest.mark.parametrize("name", list(CACHED_ARRAYS))
    def test_cached_arrays_reject_writes(self, empty_memo, name):
        lookup, arrays_of = CACHED_ARRAYS[name]
        value = lookup()
        for array in arrays_of(value):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert lookup() is value

    def test_more_distinct_states_than_the_bound(self, empty_memo):
        bound = density._STATISTICS.max_entries
        states = [_diagonal(p) for p in np.linspace(0.0, 1.0, bound + 100)]
        for state in states:
            value = state_statistic("p0", state, lambda s: float(s.matrix[0, 0].real))
            assert value == float(state.matrix[0, 0].real)
            assert len(empty_memo) <= bound
        # The most recently used entries survive and still answer correctly.
        for state in states[-50:]:
            value = state_statistic("p0", state, lambda s: -1.0)
            assert value == float(state.matrix[0, 0].real)

    def test_an_entry_hit_before_the_memo_fills_is_not_recomputed(self, monkeypatch):
        """A full memo evicts its least recently used entry, not everything."""
        bound = 8
        memo = BoundedMemo(bound)
        monkeypatch.setattr(density, "_STATISTICS", memo)
        states = [_diagonal(p) for p in np.linspace(0.0, 1.0, bound + 1)]
        computed = []

        def p0(state):
            computed.append(state)
            return float(state.matrix[0, 0].real)

        _hit_then_overfill(lambda state: state_statistic("p0", state, p0), states, bound)
        assert len(memo) == bound
        computed.clear()
        assert state_statistic("p0", states[0], p0) == 0.0
        assert computed == []
        state_statistic("p0", states[1], p0)
        assert computed == [states[1]]

    def test_concurrent_misses_never_exceed_the_bound(self, monkeypatch):
        """Many threads missing at once keep the memo within its bound."""
        bound = 8
        memo = _YieldingMemo()
        shared = BoundedMemo(bound)
        shared._entries = memo
        monkeypatch.setattr(density, "_STATISTICS", shared)
        states = [_diagonal(p) for p in np.linspace(0.0, 1.0, 64)]
        sizes: list[int] = []
        wrong: list[float] = []

        def worker(offset: int) -> None:
            for index in range(200):
                state = states[(offset + index) % len(states)]
                value = state_statistic("p0", state, lambda s: float(s.matrix[0, 0].real))
                if value != float(state.matrix[0, 0].real):
                    wrong.append(value)
                sizes.append(dict.__len__(memo))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(7 * t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sizes) == 8 * 200
        assert max(sizes) <= bound
        assert not wrong


class TestOperatorMemos:
    def test_an_entry_hit_before_the_memo_fills_is_not_recomputed(self, monkeypatch):
        """The embedding memo evicts its least recently used entry, not everything."""
        bound = 8
        memo = BoundedMemo(bound)
        monkeypatch.setattr(operators, "_EMBEDDINGS", memo)
        embed = operators.embed_operator
        computed = []

        def recorded(matrix, qubits, num_qubits):
            computed.append(matrix)
            return embed(matrix, qubits, num_qubits)

        monkeypatch.setattr(operators, "embed_operator", recorded)
        phases = [_phase(angle) for angle in np.linspace(0.1, 3.0, bound + 1)]

        def lookup(matrix):
            return embedded_operator(matrix, (1,), 2)

        _hit_then_overfill(lookup, phases, bound)
        assert len(memo) == bound
        computed.clear()
        assert np.array_equal(lookup(phases[0]), embed(phases[0], (1,), 2))
        assert computed == []
        lookup(phases[1])
        assert len(computed) == 1 and computed[0] is phases[1]

    def test_embeddings_equal_embed_operator(self):
        for qubits, num_qubits in [((0,), 1), ((1,), 2), ((2, 0), 3), ((3,), 4)]:
            local = np.kron(X_MATRIX, _phase(0.7)) if len(qubits) == 2 else _phase(0.7)
            embedded = embedded_operator(local, qubits, num_qubits)
            assert embedded.tobytes() == operators.embed_operator(
                local, list(qubits), num_qubits
            ).tobytes()
            assert embedded_operator(local, qubits, num_qubits) is embedded

    def test_wide_registers_are_not_kept(self):
        first = embedded_operator(X_MATRIX, (4,), 5)
        assert first.tobytes() == operators.embed_operator(X_MATRIX, [4], 5).tobytes()
        assert embedded_operator(X_MATRIX, (4,), 5) is not first
