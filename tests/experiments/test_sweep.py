"""Tests for the parallel sweep substrate: grids, seeding, executor parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.sweep import (
    SweepResult,
    parameter_grid,
    point_seed,
    run_sweep,
)


def _draw_worker(params: dict, seed: int) -> float:
    """Module-level worker (picklable for the process executor)."""
    rng = np.random.default_rng(seed)
    return float(params["scale"] * rng.random())


class TestParameterGrid:
    def test_row_major_order(self):
        grid = parameter_grid(eta=[10, 50], message=["00", "01"])
        assert grid == [
            {"eta": 10, "message": "00"},
            {"eta": 10, "message": "01"},
            {"eta": 50, "message": "00"},
            {"eta": 50, "message": "01"},
        ]

    def test_single_axis(self):
        assert parameter_grid(eta=[1, 2, 3]) == [{"eta": 1}, {"eta": 2}, {"eta": 3}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ExperimentError):
            parameter_grid(eta=[])

    def test_bare_string_axis_rejected(self):
        with pytest.raises(ExperimentError):
            parameter_grid(message="0011")

    def test_no_axes_rejected(self):
        with pytest.raises(ExperimentError):
            parameter_grid()


class TestPointSeed:
    def test_depends_only_on_coordinates(self):
        assert point_seed(7, {"a": 1, "b": 2}) == point_seed(7, {"b": 2, "a": 1})

    def test_distinct_points_get_distinct_seeds(self):
        seeds = {point_seed(7, {"eta": eta}) for eta in range(100)}
        assert len(seeds) == 100

    def test_base_seed_separates_sweeps(self):
        assert point_seed(1, {"eta": 10}) != point_seed(2, {"eta": 10})

    def test_int_and_str_values_do_not_collide(self):
        for base in (0, 5, 2**62):
            assert point_seed(base, {"tag": 1}) != point_seed(base, {"tag": "1"})

    def test_seed_fits_in_63_bits(self):
        assert 0 <= point_seed(0, {"x": "y"}) < 2**63 - 1

    def test_object_axis_values_rejected(self):
        class Opaque:
            pass

        with pytest.raises(ExperimentError):
            point_seed(0, {"device": Opaque()})

    def test_none_axis_value_supported(self):
        assert point_seed(0, {"noise": None}) == point_seed(0, {"noise": None})

    def test_numpy_scalars_hash_like_python_numbers(self):
        assert point_seed(7, {"eta": np.int64(10)}) == point_seed(7, {"eta": 10})
        assert point_seed(7, {"p": np.float64(0.5)}) == point_seed(7, {"p": 0.5})
        assert point_seed(7, {"flag": np.True_}) == point_seed(7, {"flag": True})
        assert point_seed(7, {"etas": (np.int64(1), np.int64(2))}) == point_seed(
            7, {"etas": (1, 2)}
        )


class TestRunSweep:
    def test_values_align_with_grid_order(self):
        grid = parameter_grid(scale=[1.0, 2.0, 3.0])
        result = run_sweep(_draw_worker, grid, base_seed=5)
        assert isinstance(result, SweepResult)
        assert [point.params["scale"] for point, _ in result] == [1.0, 2.0, 3.0]
        assert len(result) == 3

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_executors_match_serial(self, executor):
        grid = parameter_grid(scale=[0.5, 1.0, 1.5, 2.0, 2.5])
        serial = run_sweep(_draw_worker, grid, base_seed=42, executor="serial")
        parallel = run_sweep(
            _draw_worker, grid, base_seed=42, executor=executor, max_workers=2
        )
        assert parallel.values == serial.values
        assert [p.seed for p, _ in parallel] == [p.seed for p, _ in serial]

    def test_grid_order_does_not_change_point_values(self):
        grid = parameter_grid(scale=[1.0, 2.0])
        forward = run_sweep(_draw_worker, grid, base_seed=9)
        backward = run_sweep(_draw_worker, list(reversed(grid)), base_seed=9)
        assert forward.value_at(scale=1.0) == backward.value_at(scale=1.0)
        assert forward.value_at(scale=2.0) == backward.value_at(scale=2.0)

    def test_value_at_requires_unique_match(self):
        result = run_sweep(_draw_worker, parameter_grid(scale=[1.0, 2.0]), base_seed=1)
        with pytest.raises(ExperimentError):
            result.value_at(scale=99.0)

    def test_series_helper(self):
        result = run_sweep(_draw_worker, parameter_grid(scale=[1.0, 2.0]), base_seed=1)
        series = result.series("scale")
        assert [axis for axis, _ in series] == [1.0, 2.0]

    def test_empty_grid(self):
        assert len(run_sweep(_draw_worker, [], base_seed=0)) == 0

    def test_single_point_grid_still_uses_the_process_pool(self):
        # No silent serial downgrade: an unpicklable worker must fail the
        # same way on a one-point grid as on a full grid.
        serial = run_sweep(
            _draw_worker, parameter_grid(scale=[2.0]), base_seed=3, executor="serial"
        )
        pooled = run_sweep(
            _draw_worker, parameter_grid(scale=[2.0]), base_seed=3, executor="process"
        )
        assert pooled.values == serial.values
        with pytest.raises(Exception):
            run_sweep(
                lambda params, seed: 0.0,
                parameter_grid(scale=[1.0]),
                executor="process",
            )

    def test_unknown_executor_rejected(self):
        with pytest.raises(ExperimentError):
            run_sweep(_draw_worker, parameter_grid(scale=[1.0]), executor="gpu")


class TestExperimentDeterminism:
    def test_fig3_identical_across_executors(self):
        from repro.experiments import run_fig3

        kwargs = dict(etas=[5, 60], shots=64, messages=("00", "11"), seed=3)
        serial = run_fig3(**kwargs)
        threaded = run_fig3(**kwargs, executor="thread", max_workers=2)
        assert [p.accuracy for p in serial.points] == [
            p.accuracy for p in threaded.points
        ]

    def test_duplicate_grid_points_get_independent_seeds(self):
        grid = [{"scale": 1.0}, {"scale": 1.0}, {"scale": 1.0}]
        result = run_sweep(_draw_worker, grid, base_seed=5)
        seeds = [point.seed for point, _ in result]
        assert len(set(seeds)) == 3
        assert len(set(result.values)) == 3
        # Re-running the same grid reproduces the same seeds and values.
        again = run_sweep(_draw_worker, grid, base_seed=5)
        assert again.values == result.values

    def test_duplicate_messages_supported_in_batch_transfer(self):
        from repro.device.backend import NoisyBackend
        from repro.device.device_model import DeviceModel
        from repro.experiments.emulation import run_message_transfer_batch

        backend = NoisyBackend(DeviceModel.ideal(2), seed=1)
        histograms = run_message_transfer_batch(
            ("00", "00", "01"), eta=2, backend=backend, shots=8
        )
        assert histograms == [{"00": 8}, {"00": 8}, {"01": 8}]

    def test_fig3_accepts_repeated_messages(self):
        from repro.experiments import run_fig3

        result = run_fig3(etas=[5], shots=16, messages=("00", "00"), seed=2)
        assert result.points[0].shots == 32

    def test_attack_simulations_identical_across_executors(self):
        from repro.experiments import run_attack_simulations

        kwargs = dict(
            trials=2,
            identity_pairs=4,
            check_pairs=32,
            message="1011",
            include_leakage=False,
            seed=19,
        )
        serial = run_attack_simulations(**kwargs)
        threaded = run_attack_simulations(**kwargs, executor="thread", max_workers=3)
        assert serial.detection_rates() == threaded.detection_rates()
