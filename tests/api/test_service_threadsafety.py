"""Thread-safety regression: one service, 16 threads, serial-identical reports.

This pins the contract documented on :class:`MessagingService`: a single
service instance may serve concurrent ``send()`` calls, and with pinned
per-send seeds every concurrent report is byte-identical to the one a serial
loop produces.  Shared infrastructure exercised on purpose: one backend,
one (locked) propagator cache inside the simulator stack, the process-wide
pair-state statistic memo (also shrunk so it evicts mid-send), the telemetry
module state, and — in the networked variant — one topology with its
channels.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.config import ServiceConfig
from repro.api.service import MessagingService
from repro.quantum import density
from repro.utils.memo import BoundedMemo

NUM_THREADS = 16
SENDS_PER_THREAD = 3


def _seed_for(thread: int, index: int) -> int:
    return 10_000 + thread * 100 + index


def _payload_for(thread: int, index: int) -> str:
    return f"thread {thread} message {index}"


class _CountingMemo(dict):
    """A statistic memo that counts the entries it evicted."""

    evictions = 0

    def __delitem__(self, key) -> None:
        self.evictions += 1
        super().__delitem__(key)


def _canonical(report) -> str:
    return json.dumps(report.summary(), sort_keys=True, ensure_ascii=False)


def _hammer(service: MessagingService) -> dict[tuple[int, int], str]:
    """Fire all sends at one service from NUM_THREADS threads at once."""
    barrier = threading.Barrier(NUM_THREADS)
    results: dict[tuple[int, int], str] = {}
    lock = threading.Lock()

    def client(thread: int) -> None:
        barrier.wait()  # maximise overlap: everyone starts together
        for index in range(SENDS_PER_THREAD):
            report = service.send(
                _payload_for(thread, index), seed=_seed_for(thread, index)
            )
            with lock:
                results[(thread, index)] = _canonical(report)

    with ThreadPoolExecutor(max_workers=NUM_THREADS) as pool:
        list(pool.map(client, range(NUM_THREADS)))
    return results


@pytest.mark.parametrize(
    "make_config, memo_bound",
    [
        pytest.param(lambda: ServiceConfig.ideal(), None, id="local-backend"),
        pytest.param(
            lambda: ServiceConfig.ideal().with_backend("batch"), None, id="batch-backend"
        ),
        # Four entries hold less than one session needs, so the statistic
        # memo evicts again and again while the threads send.
        pytest.param(lambda: ServiceConfig.ideal(), 4, id="local-backend-memo-bound-4"),
    ],
)
def test_sixteen_threads_match_serial_reference(make_config, memo_bound, monkeypatch):
    memo = _CountingMemo()
    if memo_bound is not None:
        shared = BoundedMemo(memo_bound)
        shared._entries = memo
        monkeypatch.setattr(density, "_STATISTICS", shared)
    concurrent = _hammer(MessagingService(make_config()))
    assert len(concurrent) == NUM_THREADS * SENDS_PER_THREAD
    if memo_bound is not None:
        assert memo.evictions > 0

    serial_service = MessagingService(make_config())
    for (thread, index), concurrent_report in sorted(concurrent.items()):
        serial_report = serial_service.send(
            _payload_for(thread, index), seed=_seed_for(thread, index)
        )
        assert _canonical(serial_report) == concurrent_report, (thread, index)


def test_networked_service_is_thread_safe():
    """Concurrent sends through one shared topology replay serially."""
    from repro.experiments.network_scale import build_network

    topology = build_network(topology="grid", rows=2, cols=2, qubit_capacity=None)
    config = ServiceConfig.networked(topology)
    service = MessagingService(config)
    seeds = [3000 + index for index in range(8)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(
            pool.map(lambda s: _canonical(service.send("net", seed=s)), seeds)
        )

    serial = [_canonical(service.send("net", seed=s)) for s in seeds]
    assert concurrent == serial


def test_concurrent_sends_share_one_propagator_cache():
    """The locked cache survives concurrent use and actually gets shared."""
    from repro.quantum.batch import PropagatorCache

    cache = PropagatorCache()
    config = ServiceConfig.ideal()
    service = MessagingService(config)
    # Route every session through one explicit cache via the batch backend's
    # simulator stack: hammer identical payloads so step keys collide hard.
    del service  # the facade path is covered above; stress the cache directly

    import numpy as np

    matrix = np.eye(4, dtype=complex)
    errors: list[BaseException] = []

    def worker(worker_id: int) -> None:
        try:
            for index in range(200):
                key = ("scope", worker_id % 4, index % 8)
                cache.step(key, lambda: matrix.copy())
                cache.power(key, 3 + index % 5, matrix)
                cache.put((worker_id % 4, index % 8), matrix)
                cache.get((worker_id % 4, index % 8))
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert cache.hits > 0
    assert len(cache) <= cache.max_entries
