"""Run workloads untraced and traced, and print one readable report.

    python3 perfbench/report.py                          # every workload
    python3 perfbench/report.py --workload relay_sla --seed 3 --seconds 10

For each workload: every end-to-end metric by name and unit (untraced run),
then the per-layer table and metrics (traced run), a check that the spans'
self times account for the traced wall time within 5%, and the tracing
overhead, 1 - traced / untraced ``ops_per_s``.  Exits 1 when an output check
or the accounting check failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")
#: Largest share of the traced wall time the spans may leave unaccounted.
ACCOUNTING_TOLERANCE = 0.05


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str], dict]:
    completed = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        raise SystemExit(completed.returncode or 2)
    return completed.returncode, lines[:-1], json.loads(lines[-1])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    status = 0
    for name in names:
        print(f"=== {name} (seed {args.seed}, {args.seconds:g} s)")
        code, text, untraced = run(name, args.seed, args.seconds, 0)
        print("end-to-end metrics, untraced run:")
        print("\n".join(text))
        code_traced, text, traced = run(name, args.seed, args.seconds, 1)
        print("per-layer metrics, traced run:")
        print("\n".join(text))

        metrics = traced["metrics"]
        wall_ms = metrics["trace.wall_ms"]["value"]
        unaccounted = metrics["trace.unattributed_ms"]["value"] / wall_ms
        accounted = abs(unaccounted) <= ACCOUNTING_TOLERANCE
        print(
            f"self times account for {1 - unaccounted:.1%} of the traced wall time: "
            f"{'ok' if accounted else 'FAILED'} (tolerance {ACCOUNTING_TOLERANCE:.0%})"
        )
        traced_ops_per_s = 1000.0 / wall_ms
        untraced_ops_per_s = untraced["metrics"]["ops_per_s"]["value"]
        print(
            f"tracing overhead: 1 - {traced_ops_per_s:.4f} / {untraced_ops_per_s:.4f} op/s "
            f"= {1 - traced_ops_per_s / untraced_ops_per_s:.1%}"
        )
        for label, result in (("untraced", untraced), ("traced", traced)):
            verdict = "ok" if result["correct"] else "FAILED"
            print(f"output checks, {label}: {result['attempted'] - result['failed']}"
                  f"/{result['attempted']} ops {verdict}")
        if code or code_traced or not accounted:
            status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
