"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload paper_send --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public calls, reports the per-layer metrics, prints the per-layer
table and writes the spans to ``.perfbench/``.  The exit code is 1 when an
output check failed and 2 when the program is missing.

Every reported call time is scaled to the reference host speed (see
:class:`HostSpeed`); the human-readable lines also give the raw figures.
"""

import time

# Set-up time is measured from here, before anything is imported.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Tally, make_workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Extra fresh processes that only set up, so ``setup_s`` is a median of three.
SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 150

#: Every end-to-end metric an untraced run reports: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("goodput_bits_per_s", "bit/s"),
    ("delivered_frac", "frac"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

#: Median probe time on the reference host (a 2-vCPU Xeon container) in its
#: usual state; times are reported as if the probe had taken this long.
NOMINAL_PROBE_S = 0.00048
#: Between timed calls the probe takes about 1.5% of the time since its
#: last batch (a batch at most every 100 ms, 3 to 60 samples), outside the
#: timing.
PROBE_INTERVAL_S = 0.1
PROBE_SHARE = 0.015
PROBE_BATCH = (3, 60)
_PROBE_MATRIX = np.full((4, 4), 0.25 + 0.25j)


def _probe() -> None:
    """Fixed work in the program's mix: interpreter loops, small NumPy products."""
    total = 0
    for value in range(3000):
        total += value * value % 7
    matrix = _PROBE_MATRIX
    for _ in range(40):
        matrix = matrix @ _PROBE_MATRIX
    {value: str(value) for value in range(500)}


class HostSpeed:
    """The host's speed relative to the reference host, from a fixed probe.

    The shared host this benchmark was written on changes speed by up to
    1.6x from one minute to the next, for every process alike (CPU time
    tracks wall time), so raw timings of identical runs spread by 20-30%.
    Between timed calls the probe is timed in batches; ``slowdown`` is the
    median probe time over :data:`NOMINAL_PROBE_S`, and every call time is
    divided by it.  The probe is the benchmark's own code, so it is the same
    for every commit measured.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = time.perf_counter()

    def after_call(self) -> None:
        elapsed = time.perf_counter() - self._since
        if elapsed >= PROBE_INTERVAL_S:
            self.sample(elapsed)

    def sample(self, elapsed: float) -> None:
        low, high = PROBE_BATCH
        count = min(high, max(low, round(PROBE_SHARE * elapsed / NOMINAL_PROBE_S)))
        clock = time.perf_counter
        for _ in range(count):
            started = clock()
            _probe()
            self.samples.append(clock() - started)
        self._since = clock()

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) / NOMINAL_PROBE_S


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up, run the warm-up op, print the set-up time and exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(args: argparse.Namespace):
    """Build the inputs, set up the program and run the warm-up op.

    Returns the workload and the set-up time.  Set-up time is not scaled:
    a probe snapshot right after the imports spread it twice as much.
    """
    workload = make_workload(args.workload, args.seed, args.seconds)
    workload.setup()
    workload.warm_up()
    return workload, time.perf_counter() - PROCESS_START


def setup_in_fresh_process(args: argparse.Namespace) -> float:
    """Set-up time of one more fresh process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, tracer=None, host=None) -> "tuple[list[float], Tally]":
    """Run every call once, timing each; check outputs between calls."""
    durations: list[float] = []
    total = Tally(ops=0)
    clock = time.perf_counter
    for index, call in enumerate(workload.calls):
        if tracer is not None:
            tracer.op_id = index
        started = clock()
        try:
            result = workload.execute(call)
        except Exception:  # an op that raises is a failed op; keep going
            durations.append(clock() - started)
            traceback.print_exc(file=sys.stderr)
            tally = Tally(ops=workload.size(call))
            tally.fail(f"call {index} raised")
            tally.failed = tally.ops
        else:
            durations.append(clock() - started)
            tally = workload.check(call, result)
        total.ops += tally.ops
        total.failed += tally.failed
        total.delivered += tally.delivered
        total.offered += tally.offered
        total.good_bits += tally.good_bits
        total.counts.update(tally.counts)
        total.problems.extend(f"call {index}: {problem}" for problem in tally.problems)
        if host is not None:
            host.after_call()
    return durations, total


def end_to_end(setup_s: float, durations: "list[float]", total: Tally) -> dict:
    wall = sum(durations)
    if len(durations) > 1:
        p90 = statistics.quantiles(durations, n=10, method="inclusive")[8]
    else:
        p90 = durations[0]
    return {
        "setup_s": setup_s,
        "ops_per_s": total.ops / wall,
        "latency_p50_ms": 1000.0 * statistics.median(durations),
        "latency_p90_ms": 1000.0 * p90,
        "goodput_bits_per_s": total.good_bits / wall,
        "delivered_frac": total.delivered / total.offered if total.offered else 0.0,
        "ok_frac": (total.ops - total.failed) / total.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        _, setup_s = set_up(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    other_setups = [] if args.trace else [
        setup_in_fresh_process(args) for _ in range(SETUP_REPEATS)
    ]
    workload, setup_s = set_up(args)
    host = HostSpeed()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        durations, total = measure(workload, tracer, host)
    finally:
        if tracer is not None:
            tracer.uninstall()
    host.sample(PROBE_INTERVAL_S)
    slowdown = host.slowdown
    scaled = [duration / slowdown for duration in durations]

    print(f"workload {workload.name}: {total.ops} x {workload.op_unit} "
          f"in {len(durations)} calls, seed {args.seed}")
    print(f"host slowdown {slowdown:.4f} (median of {len(host.samples)} probes "
          f"/ {1000 * NOMINAL_PROBE_S:g} ms); raw timed wall {sum(durations):.3f} s, "
          f"raw {total.ops / sum(durations):.4f} op/s; times below are divided by it")
    if tracer is None:
        metrics = end_to_end(statistics.median([*other_setups, setup_s]), scaled, total)
        units = dict(END_TO_END)
    else:
        from tracing import PER_LAYER, layer_metrics, render_table

        self_s, calls = tracer.aggregate()
        self_s = {span: seconds / slowdown for span, seconds in self_s.items()}
        wall = sum(scaled)
        metrics = layer_metrics(self_s, calls, total.counts + tracer.counts, total.ops, wall)
        units = dict(PER_LAYER)
        for line in render_table(self_s, calls, total.ops, wall):
            print(line)
        tracer.write(ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.json")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    for problem in total.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.ops,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
