"""The numpy-only install can run the network scheduler and every backend.

pyproject keeps the core (protocol, service facade, network scheduler,
device emulation) numpy-only; scipy is the ``analysis`` extra and networkx a
test dependency.  Network and batch sends look up the sweep substrate at call
time, and when that import dragged in the experiment harnesses (and through
them scipy) a numpy-only install failed on its first networked send; the
device coupling maps once needed networkx.

Run as a script, this module blocks every scipy and networkx import and then
runs a 2-session ``simulate_network``, one send each through the local, batch
and network backends (each set up through ``with_session``) and one Bell
circuit on the emulated ``ibm_brisbane``, so it checks the promise whether or
not scipy and networkx are installed::

    python tests/test_numpy_only.py

The test runs that script in a fresh interpreter, so modules this test
session already imported cannot mask a failure.
"""

from __future__ import annotations

import importlib.abc
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


_BLOCKED = ("scipy", "networkx")


class _BlockOptional(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in _BLOCKED:
            raise ImportError(f"{name} is blocked: the core must stay numpy-only")
        return None


def main() -> None:
    sys.meta_path.insert(0, _BlockOptional())

    from repro.api import MessagingService, ServiceConfig
    from repro.channel.quantum_channel import NoiselessChannel
    from repro.network import SessionParameters, TraceTraffic, line_topology, simulate_network

    topology = line_topology(3, channel_factory=lambda length: NoiselessChannel())
    session_params = SessionParameters(identity_pairs=2, check_pairs_per_round=64)
    result = simulate_network(
        topology,
        TraceTraffic([(0.0, "n0", "n2", 8), (0.0, "n2", "n0", 8)]),
        session_params=session_params,
        seed=1,
    )
    assert result.num_sessions == 2 and not result.rejected_count, result.summary()

    local = ServiceConfig.ideal(seed=3).with_session(check_pairs_per_round=64)
    network = ServiceConfig.networked(topology, source="n0", target="n2", seed=3)
    for config in (
        local,
        local.with_backend("batch"),
        network.with_session(check_pairs_per_round=64),
    ):
        report = MessagingService(config.with_fragment_bits(16)).send(b"ok")
        assert report.success, report.summary()
        assert report.metadata["check_pairs_per_round"] == 64, report.metadata
    from repro.device import DeviceModel, NoisyBackend
    from repro.quantum.circuit import QuantumCircuit

    bell = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
    counts = NoisyBackend(DeviceModel.ibm_brisbane(), seed=1).run(bell, shots=256)
    assert counts.total() == 256 and counts.get("00") > 64, dict(counts)

    assert not any(name in sys.modules for name in _BLOCKED)
    print("numpy-only smoke OK")


def test_network_and_batch_sends_run_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "numpy-only smoke OK" in completed.stdout


if __name__ == "__main__":
    main()
