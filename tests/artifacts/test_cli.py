"""Tests for ``python -m repro.artifacts`` (the CI regression gate CLI)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts.cli import EXIT_GATE_FAILED, EXIT_OK, EXIT_USAGE, load_payload, main
from repro.artifacts.schema import RunArtifact
from repro.artifacts.trajectory import BenchmarkRecord, Trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
COMMITTED_TRAJECTORY = REPO_ROOT / "BENCH_6.json"


def write_trajectory(path, label, benches):
    trajectory = Trajectory(label=label, environment={"python": "3.11"})
    for name, (samples, metrics) in benches.items():
        trajectory.add(BenchmarkRecord(name=name, samples=list(samples), metrics=metrics))
    return trajectory.write(path)


@pytest.fixture
def baseline(tmp_path):
    return write_trajectory(
        tmp_path / "baseline.json",
        "baseline",
        {
            "bench::fast": ([0.010], {"accuracy": 0.95}),
            "bench::slow": ([0.800], {"fidelity": 0.99}),
        },
    )


class TestCompare:
    def test_self_compare_exits_zero(self, baseline, capsys):
        assert main(["compare", str(baseline), str(baseline)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gate: PASS" in out

    def test_injected_2x_timing_regression_exits_nonzero(self, baseline, tmp_path, capsys):
        regressed = write_trajectory(
            tmp_path / "current.json",
            "current",
            {
                "bench::fast": ([0.020], {"accuracy": 0.95}),  # 2x slower
                "bench::slow": ([0.800], {"fidelity": 0.99}),
            },
        )
        assert main(["compare", str(baseline), str(regressed)]) == EXIT_GATE_FAILED
        out = capsys.readouterr().out
        assert "regressed" in out and "gate: FAIL" in out

    def test_metric_drift_exits_nonzero(self, baseline, tmp_path, capsys):
        drifted = write_trajectory(
            tmp_path / "current.json",
            "current",
            {
                "bench::fast": ([0.010], {"accuracy": 0.80}),
                "bench::slow": ([0.800], {"fidelity": 0.99}),
            },
        )
        assert main(["compare", str(baseline), str(drifted)]) == EXIT_GATE_FAILED
        assert "METRICS DRIFTED" in capsys.readouterr().out

    def test_timing_threshold_flag_relaxes_the_gate(self, baseline, tmp_path):
        regressed = write_trajectory(
            tmp_path / "current.json",
            "current",
            {
                "bench::fast": ([0.020], {"accuracy": 0.95}),
                "bench::slow": ([0.800], {"fidelity": 0.99}),
            },
        )
        args = ["compare", str(baseline), str(regressed), "--timing-threshold", "4.0"]
        assert main(args) == EXIT_OK

    def test_allow_missing_flag(self, baseline, tmp_path):
        shrunk = write_trajectory(
            tmp_path / "current.json",
            "current",
            {"bench::fast": ([0.010], {"accuracy": 0.95})},
        )
        assert main(["compare", str(baseline), str(shrunk)]) == EXIT_GATE_FAILED
        assert (
            main(["compare", str(baseline), str(shrunk), "--allow-missing"]) == EXIT_OK
        )

    def test_json_output(self, baseline, capsys):
        assert main(["compare", str(baseline), str(baseline), "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert len(data["verdicts"]) == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["compare", str(missing), str(missing)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_run_artifact_file_rejected(self, baseline, tmp_path, capsys):
        artifact = RunArtifact(
            experiment_id="x",
            mode="quick",
            params={},
            seeds={},
            timings={"run": 1.0},
            metrics={},
            environment={},
        )
        path = artifact.write(tmp_path / "artifact.json")
        assert main(["compare", str(baseline), str(path)]) == EXIT_USAGE

    def test_unknown_schema_major_exits_two(self, baseline, tmp_path, capsys):
        data = json.loads(baseline.read_text())
        data["schema_version"] = "9.0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["compare", str(bad), str(baseline)]) == EXIT_USAGE


class TestShowAndRun:
    def test_show_trajectory(self, baseline, capsys):
        assert main(["show", str(baseline)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2 benchmarks" in out and "bench::fast" in out

    def test_show_run_artifact(self, tmp_path, capsys):
        artifact = RunArtifact(
            experiment_id="demo",
            mode="quick",
            params={"seed": 1},
            seeds={"seed": 1},
            timings={"run": 0.25},
            metrics={"rate": 0.5},
            environment={},
        )
        path = artifact.write(tmp_path / "artifact.json")
        assert main(["show", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "experiment 'demo'" in out and "rate = 0.5" in out

    def test_run_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "leakage.json"
        assert main(["run", "atk-leakage", "--out", str(out_path)]) == EXIT_OK
        artifact = RunArtifact.read(out_path)
        assert artifact.experiment_id == "atk-leakage"
        assert artifact.metrics

    def test_run_unknown_experiment_exits_two(self, capsys):
        assert main(["run", "no-such-experiment"]) == EXIT_USAGE


class TestCommittedTrajectory:
    """The acceptance criteria on the committed BENCH_6.json itself."""

    def test_committed_trajectory_parses_and_is_current_schema(self):
        trajectory = Trajectory.read(COMMITTED_TRAJECTORY)
        assert trajectory.label == "BENCH_6"
        assert len(trajectory.records) >= 20
        assert isinstance(load_payload(COMMITTED_TRAJECTORY), Trajectory)

    def test_committed_self_compare_exits_zero_in_subprocess(self):
        # The exact command the acceptance criteria and CI run.
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.artifacts",
                "compare",
                str(COMMITTED_TRAJECTORY),
                str(COMMITTED_TRAJECTORY),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            # The caller's environment, so settings such as
            # PYTHONDONTWRITEBYTECODE reach the child, with src/ on the path.
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert "gate: PASS" in result.stdout
