"""The benchmark's own tests: exact repeatability and the output contract.

    python3 -m pytest perfbench -q

Every workload runs briefly on two seeds, untraced and traced: the outputs
that feed ``delivered_frac`` and ``ok_frac`` must be identical with and
without tracing, and every per-layer call and outcome count must repeat
exactly between two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
#: The shortest call list of each workload (relay cells come in pairs).
BRIEF_SECONDS = 0.5

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def brief_run(name: str, seed: int, trace: bool) -> tuple[tuple, dict]:
    workload = make_workload(name, seed, BRIEF_SECONDS)
    workload.setup()
    workload.warm_up()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        durations, total = run.measure(workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert total.failed == 0, total.problems
    outputs = (total.ops, total.delivered, total.offered, total.good_bits, dict(total.counts))
    if tracer is None:
        return outputs, {}
    self_s, calls = tracer.aggregate()
    metrics = layer_metrics(self_s, calls, total.counts + tracer.counts, total.ops, sum(durations))
    counts = {name: metrics[name] for name, unit in PER_LAYER if unit in ("count", "ratio")}
    return outputs, counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_and_layer_counts_repeat_exactly(name, seed):
    untraced, _ = brief_run(name, seed, trace=False)
    traced, counts = brief_run(name, seed, trace=True)
    traced_again, counts_again = brief_run(name, seed, trace=True)
    assert untraced == traced == traced_again
    assert counts == counts_again
    assert untraced[1] > 0  # something was delivered


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(PER_LAYER)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_contract_result_line(trace, section):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "device_emulation",
         "--seed", "3", "--seconds", str(BRIEF_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_send",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
