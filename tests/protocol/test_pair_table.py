"""A session's pairs as one id table, and the role register behind it.

``PairTable`` holds one id per position into the distinct pair states; a
consumed position is marked, not removed.  The checks here hold it to the
per-pair references it replaced:

* ``EPRPairRegister`` keeps its unassigned positions as an index array; the
  positions it hands out and the generator state it leaves equal the tuple
  algorithm it replaced, copied here;
* ``apply_plan``, ``bell_measure`` and ``estimate`` on a table equal their
  mapping and list forms and per-pair loops over the public references, on
  repeated objects, equal-content copies and a depolarized state, generator
  state included;
* ``estimate`` looks each distinct state up once per call and keeps one
  block of branch statistics per state content;
* a missing or consumed position raises ``PairPositionError`` on the table
  and, at the parties' entry points, the ``ProtocolError`` the mapping path
  raised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PairPositionError, ProtocolError, ReproError
from repro.protocol import chsh
from repro.protocol.chsh import CHSHSettings, DISecurityCheck
from repro.protocol.encoding import pauli_operator
from repro.protocol.identity import Identity
from repro.protocol.pairs import EPRPairRegister, PairRole
from repro.protocol.parties import ALICE_QUBIT, BOB_QUBIT, Alice, Bob
from repro.protocol.source import EntanglementSource
from repro.quantum import density
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import depolarizing_channel
from repro.quantum.density import DensityMatrix, PairTable, map_distinct
from repro.quantum.measurement import bell_measurement, equatorial_observable, measure_observable
from repro.utils.bits import validate_bits


def _mixed_pairs(count: int) -> dict[int, DensityMatrix]:
    """Repeated objects, equal-content copies of them and a depolarized state."""
    clean = bell_state(BellState.PHI_PLUS).density_matrix()
    noisy = depolarizing_channel(0.1).apply(clean, [ALICE_QUBIT])
    cycle = [clean, DensityMatrix(clean), clean, noisy, DensityMatrix(noisy)]
    return {index: cycle[index % len(cycle)] for index in range(count)}


def _bob(seed: int) -> Bob:
    return Bob(
        identity=Identity.random(2, owner="bob", rng=0),
        peer_identity=Identity.random(2, owner="alice", rng=1),
        rng=seed,
    )


# -- the register ---------------------------------------------------------------------


class _TupleRegister:
    """The register's assignment with the unassigned positions as a tuple."""

    def __init__(self, total: int):
        self.available = tuple(range(total))

    def assign(self, count: int, generator: np.random.Generator) -> tuple[int, ...]:
        chosen = generator.choice(len(self.available), size=count, replace=False)
        positions = tuple(sorted(self.available[int(i)] for i in chosen))
        taken = set(positions)
        self.available = tuple(p for p in self.available if p not in taken)
        return positions


def _register_sizes() -> list[tuple[int, int, int]]:
    draw = np.random.default_rng(2024)
    sizes = [(1, 1, 1), (80, 8, 256), (10, 2, 32), (1, 8, 256), (80, 1, 1)]
    sizes += [
        (int(draw.integers(1, 81)), int(draw.integers(1, 9)), int(draw.integers(1, 257)))
        for _ in range(15)
    ]
    return sizes


class TestRegisterMatchesTupleAlgorithm:
    @pytest.mark.parametrize("sizes", _register_sizes(), ids=str)
    def test_positions_and_generator_state(self, sizes):
        message, identity, check = sizes
        for seed in range(200):
            register = EPRPairRegister(message, identity, check)
            reference = _TupleRegister(register.total_pairs)
            generator = np.random.default_rng(seed)
            expected_generator = np.random.default_rng(seed)
            assigned = [
                register.assign_round1_check(generator),
                register.assign_round2_check(generator),
                register.assign_message(generator),
                register.assign_alice_identity(generator),
                register.assign_bob_identity(generator),
            ]
            expected = [
                reference.assign(count, expected_generator)
                for count in (check, check, message, identity, identity)
            ]
            assert assigned == expected
            assert all(type(p) is int for positions in assigned for p in positions)
            assert generator.bit_generator.state == expected_generator.bit_generator.state
            assert register.positions(PairRole.UNASSIGNED) == reference.available == ()
            assert register.assignment_complete()

    def test_queries_track_partial_assignment(self):
        register = EPRPairRegister(5, 2, 3)
        reference = _TupleRegister(register.total_pairs)
        generator, expected_generator = np.random.default_rng(8), np.random.default_rng(8)
        round1 = register.assign_round1_check(generator)
        assert round1 == reference.assign(3, expected_generator)
        assert register.positions(PairRole.UNASSIGNED) == reference.available
        assert register.summary() == {
            "unassigned": 12,
            "round1_check": 3,
            "round2_check": 0,
            "message": 0,
            "alice_identity": 0,
            "bob_identity": 0,
        }
        for position in reference.available:
            assert register.role_of(position) is PairRole.UNASSIGNED
        for position in round1:
            assert register.role_of(position) is PairRole.ROUND1_CHECK
        assert not register.assignment_complete()


# -- the table ---------------------------------------------------------------------------


class TestPairTable:
    def test_deterministic_emission_is_one_state_under_id_zero(self):
        table = EntanglementSource().emit_many(7)
        assert table.ids.tolist() == [0] * 7
        assert len(table.states) == 1 and len(table) == 7

    def test_mapping_round_trip_and_consumption(self):
        pairs = _mixed_pairs(6)
        table = PairTable.of(pairs)
        assert len(table.states) == 4  # clean, its copy, noisy, its copy
        assert [table[p] for p in pairs] == list(pairs.values())
        assert all(table[p] is state for p, state in pairs.items())
        dropped = table.drop((1, 4))
        assert len(dropped) == 4 and len(table) == 6  # tables never change
        assert list(dropped) == [pairs[p] for p in (0, 2, 3, 5)]
        assert dropped.ids.tolist() == [0, -1, 0, 2, -1, 0]

    def test_map_distinct_maps_each_used_state_once(self, monkeypatch):
        monkeypatch.setattr(density, "_STATISTICS", density.BoundedMemo(64))
        pairs = _mixed_pairs(10)
        table = PairTable.of(pairs).drop((3, 8))  # the noisy object is no longer held
        calls = []

        def fn(state):
            calls.append(state)
            return state.evolve(pauli_operator("X"), [ALICE_QUBIT])

        mapped = map_distinct(("test", "x"), table, fn)
        assert mapped.ids is table.ids
        assert len(calls) == 2  # the clean bytes once, the noisy copy's once
        for position, state in pairs.items():
            if position in (3, 8):
                continue
            expected = state.evolve(pauli_operator("X"), [ALICE_QUBIT]).matrix.tobytes()
            assert mapped[position].matrix.tobytes() == expected

    def test_map_pairs_walks_live_positions_in_order_and_interns_outputs(self):
        pairs = _mixed_pairs(6)
        replacement = DensityMatrix.maximally_mixed(2)
        seen = []

        def hook(position, state):
            seen.append((position, state))
            return replacement if position % 2 else state

        mapped = PairTable.of(pairs).drop((2,)).map_pairs(hook)
        assert seen == [(p, pairs[p]) for p in (0, 1, 3, 4, 5)]
        assert all(type(position) is int for position, _ in seen)
        assert mapped.ids.tolist() == [0, 1, -1, 1, 2, 1]
        assert mapped.states == [pairs[0], replacement, pairs[4]]


# -- the party operations and the check on a table ---------------------------------------


class TestTableEqualsPerPairReferences:
    @pytest.mark.parametrize(
        "party, qubit", [(Alice, ALICE_QUBIT), (Bob, BOB_QUBIT)], ids=["alice", "bob"]
    )
    def test_apply_plan(self, party, qubit):
        pairs = _mixed_pairs(30)
        labels = ["I", "X", "Y", "Z", "x", "z"]
        plan = {p: labels[p % len(labels)] for p in reversed(range(1, 30, 2))}
        from_table = party.apply_plan(PairTable.of(pairs), plan)
        from_mapping = party.apply_plan(pairs, plan)
        for position, state in pairs.items():
            label = plan.get(position, "I")
            expected = (
                state
                if label.upper() == "I"
                else state.evolve(pauli_operator(label), [qubit])
            )
            for applied in (from_table, from_mapping):
                assert applied[position].matrix.tobytes() == expected.matrix.tobytes()
                if label.upper() == "I":
                    assert applied[position] is state

    def test_bell_measure(self):
        pairs = _mixed_pairs(40)
        positions = tuple(reversed(range(0, 40, 3)))
        expected_rng = np.random.default_rng(6)
        expected = {
            p: bell_measurement(pairs[p], [0, 1], rng=expected_rng).bell_state for p in positions
        }
        for given in (PairTable.of(pairs), pairs):
            bob = _bob(seed=6)
            assert bob.bell_measure(given, positions) == expected
            assert bob.rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize(
        "settings", [CHSHSettings(), CHSHSettings(use_a0=True)], ids=["paper", "use-a0"]
    )
    def test_estimate(self, settings):
        pairs = _mixed_pairs(64)
        positions = tuple(range(1, 64, 2))
        table = PairTable.of(pairs)
        check = DISecurityCheck(settings)
        generators = [np.random.default_rng(3) for _ in range(3)]
        from_table = check.estimate(table.take(positions), rng=generators[0])
        from_live = check.estimate(table.drop(range(0, 64, 2)), rng=generators[1])
        from_list = check.estimate([pairs[p] for p in positions], rng=generators[2])

        reference = np.random.default_rng(3)
        sums = {(j, k): 0 for j in (1, 2) for k in (1, 2)}
        counts = dict.fromkeys(sums, 0)
        for position in positions:
            alice = int(reference.integers(0 if settings.use_a0 else 1, 3))
            bob = int(reference.integers(1, 3))
            a, post = measure_observable(
                pairs[position], equatorial_observable(settings.alice_angles[alice]), [0],
                rng=reference,
            )
            bob_observable = equatorial_observable(
                settings.bob_angles[bob - 1], conjugate=settings.conjugate_bob
            )
            b, _ = measure_observable(post, bob_observable, [1], rng=reference)
            if alice:
                sums[(alice, bob)] += a * b
                counts[(alice, bob)] += 1
        correlations = {key: sums[key] / counts[key] if counts[key] else 0.0 for key in sums}
        for estimate in (from_table, from_live, from_list):
            assert estimate.correlations == correlations
            assert estimate.counts == counts
            assert estimate.num_pairs == len(positions)
        assert from_table.value == from_live.value == from_list.value
        expected = reference.bit_generator.state
        for generator in generators:
            # ``uinteger`` is a stale buffer, never read while ``has_uint32`` is 0.
            state = generator.bit_generator.state
            assert (state["state"], state["has_uint32"]) == (
                expected["state"],
                expected["has_uint32"],
            )


class TestEstimateBlocks:
    """The CHSH check keeps one block of branch statistics per pair state."""

    @pytest.mark.parametrize(
        "settings", [CHSHSettings(), CHSHSettings(use_a0=True)], ids=["paper", "use-a0"]
    )
    def test_one_lookup_per_distinct_state_per_call(self, monkeypatch, settings):
        memo = density.BoundedMemo(64)
        monkeypatch.setattr(density, "_STATISTICS", memo)
        tags = []

        def counting(tag, state, compute):
            tags.append(tag)
            return density.state_statistic(tag, state, compute)

        monkeypatch.setattr(chsh, "state_statistic", counting)
        table = PairTable.of(_mixed_pairs(40))  # 4 objects, 2 contents
        check = DISecurityCheck(settings)
        rng = np.random.default_rng(8)
        for subset in (table, table.take(range(0, 40, 5)), table.drop(range(0, 40, 5))):
            tags.clear()
            check.estimate(subset, rng=rng)
            assert tags == [("chsh", settings)] * len(subset.used())
        # One entry per content, whatever the settings draw.
        assert len(memo) == 2


# -- errors ---------------------------------------------------------------------------------


class TestMissingPositions:
    @pytest.fixture
    def consumed(self):
        """Six positions with 3 consumed."""
        return PairTable.of(_mixed_pairs(6)).drop((3,))

    @pytest.mark.parametrize(
        "positions, named",
        [((0, 3), 3), ((9,), 9), ((1, -1), -1), ((0, 7, 3), 7), ((2, 3, 9), 3)],
    )
    def test_the_first_missing_or_consumed_position_is_named(self, consumed, positions, named):
        message = f"no pair at position {named}"
        with pytest.raises(PairPositionError, match=f"^{message}$"):
            consumed.take(positions)
        with pytest.raises(PairPositionError, match=f"^{message}$"):
            consumed.drop(positions)
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            _bob(seed=0).bell_measure(consumed, positions)
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            Alice.apply_plan(consumed, dict.fromkeys(positions, "X"))
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            Bob.apply_plan(consumed, dict.fromkeys(positions, "Z"))

    def test_mapping_inputs_raise_the_same(self):
        pairs = _mixed_pairs(3)
        with pytest.raises(ProtocolError, match="^no pair at position 5$"):
            _bob(seed=0).bell_measure(pairs, (0, 5))
        with pytest.raises(ProtocolError, match="^no pair at position 4$"):
            Alice.apply_plan(pairs, {1: "X", 4: "Y"})

    def test_a_consumed_position_draws_nothing(self, consumed):
        bob = _bob(seed=5)
        before = bob.rng.bit_generator.state
        with pytest.raises(ProtocolError):
            bob.bell_measure(consumed, (0, 3))
        assert bob.rng.bit_generator.state == before

    def test_non_integer_positions_are_missing(self, consumed):
        with pytest.raises(PairPositionError, match="^no pair at position 1.5$"):
            consumed.take((0, 1.5))
        with pytest.raises(PairPositionError, match="^pair positions must be"):
            PairTable.of({-1: consumed[0]})
        with pytest.raises(ProtocolError, match="^pair positions must be"):
            Alice.apply_plan({-1: consumed[0]}, {})


class TestValidateBits:
    @pytest.mark.parametrize(
        "bits, named", [((0, 2, 3), "2"), ((1, 1, -1, 5), "-1"), ((True, 7), "7")]
    )
    def test_the_first_bad_value_is_named(self, bits, named):
        with pytest.raises(ReproError, match=f"^bit values must be 0 or 1, got {named}$"):
            validate_bits(bits)

    def test_valid_bits_become_plain_ints(self):
        bits = validate_bits([np.int64(1), False, True, 0])
        assert bits == (1, 0, 1, 0)
        assert all(type(b) is int for b in bits)
