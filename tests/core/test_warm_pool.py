"""Warm sweep workers: reuse across sweeps, and each guard that retires them.

Pool workers outlive the sweep that started them (see
:mod:`repro.core.sweeppool`).  Every test below pins one guard: reuse
itself, retirement on a ``REPRO_*`` environment change or a registry
change, discarding dead idle workers, exclusive borrowing across
threads, and the original exception type of a non-robust failure.
"""

import os
import signal
import sys
import textwrap
import threading

import pytest

import repro.core.sweeppool as sweeppool
from repro.core.export import results_to_json
from repro.core.sweep import dma_design_space, run_sweep
from repro.core.sweeppool import SweepMetrics
from repro.errors import SweepError
from repro.frontend.loader import load_kernel_file
from repro.workloads import registry

WORKLOAD = "aes-aes"

KERNEL_SOURCE = textwrap.dedent("""\
    from repro import frontend as fe

    @fe.kernel
    def warmkern(a: fe.Array("a", 16, word_bytes=8, kind="input"),
                 y: fe.Array("y", 16, word_bytes=8, kind="output")):
        for i in fe.parallel_range(16):
            y[i] = {body}
    """)

UNPICKLABLE_SOURCE = textwrap.dedent("""\
    from repro.workloads.registry import Workload

    def _build():
        exc = ValueError("cannot cross the pipe")
        exc.hook = lambda: None  # makes the exception unpicklable
        raise exc

    KERNELS = [Workload.from_builder("unpicklable-raise", _build,
                                     verify=lambda trace: None)]
    """)


def designs():
    return dma_design_space("quick")[:4]


def pooled(workload=WORKLOAD, **kwargs):
    """One two-worker pooled sweep: ``(results JSON, metrics)``."""
    metrics = SweepMetrics()
    results = run_sweep(workload, designs(), parallel=2, metrics=metrics,
                        **kwargs)
    return results_to_json(results), metrics


@pytest.fixture(scope="module")
def inline_json():
    return results_to_json(run_sweep(WORKLOAD, designs()))


@pytest.fixture
def kernel_registry():
    """Restore the dynamic registry and ``$REPRO_KERNEL_PATHS`` after."""
    before_instances = dict(registry._INSTANCES)
    before_paths = set(registry._LOADED_KERNEL_PATHS)
    before_env = os.environ.get(registry.ENV_KERNEL_PATHS)
    yield
    for name in list(registry._INSTANCES):
        if name not in before_instances:
            registry.unregister_workload(name)
    registry._LOADED_KERNEL_PATHS.clear()
    registry._LOADED_KERNEL_PATHS.update(before_paths)
    if before_env is None:
        os.environ.pop(registry.ENV_KERNEL_PATHS, None)
    else:
        os.environ[registry.ENV_KERNEL_PATHS] = before_env


def test_second_sweep_reuses_warm_workers(inline_json):
    first, cold = pooled()
    second, warm = pooled()
    assert cold.workers_spawned == 2
    assert warm.workers_spawned == 0
    assert first == second == inline_json
    assert warm.worker_peak_rss_mb > 0.0
    idle = list(sweeppool._warm_idle)
    assert len(idle) == 2
    sweeppool.shutdown_pool()
    assert sweeppool._warm_idle == []
    assert not any(worker.proc.is_alive() for worker in idle)


def test_repro_env_change_retires_workers(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    pooled()
    monkeypatch.setenv("REPRO_CHECK", "1")
    _results, metrics = pooled()
    assert metrics.workers_spawned == 2


def test_reregistered_kernel_file_reaches_the_pool(tmp_path,
                                                   kernel_registry):
    path = tmp_path / "warmkern.py"
    path.write_text(KERNEL_SOURCE.format(body="a[i] + 1.0"))
    load_kernel_file(str(path), replace=True)
    before, _metrics = pooled("warmkern")
    path.write_text(KERNEL_SOURCE.format(body="a[i] * a[i] * a[i] + 1.0"))
    load_kernel_file(str(path), replace=True)
    after, metrics = pooled("warmkern")
    assert metrics.workers_spawned == 2
    assert after != before
    assert after == results_to_json(run_sweep("warmkern", designs()))


def test_idle_worker_killed_between_sweeps_is_replaced(inline_json):
    pooled()
    victim = sweeppool._warm_idle[0]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join(5.0)
    # Borrowing discards the dead worker rather than handing it out ...
    key = sweeppool._warm_key
    borrowed = sweeppool._borrow_workers(key, 2)
    assert victim not in borrowed and len(borrowed) == 1
    sweeppool._return_workers(key, borrowed)
    # ... so the next sweep spawns exactly one replacement, loses nothing.
    results, metrics = pooled()
    assert metrics.workers_spawned == 1
    assert metrics.failures == metrics.retries == 0
    assert results == inline_json
    assert all(worker.proc.is_alive() for worker in sweeppool._warm_idle)


def test_concurrent_sweeps_never_share_a_worker(monkeypatch, inline_json):
    pooled()  # two warm workers for the two sweeps to compete over
    served = {}
    real_return = sweeppool._return_workers

    def spy_return(key, workers):
        served[threading.get_ident()] = {w.proc.pid for w in workers}
        real_return(key, workers)

    monkeypatch.setattr(sweeppool, "_return_workers", spy_return)
    # Each sweep waits after its first point until the other got there
    # too, so both hold their workers at the same time.
    barrier = threading.Barrier(2, timeout=120.0)
    waited = set()

    def progress(_done, _total):
        if threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            barrier.wait()

    outputs = []

    def sweep():
        # The timeout turns a reply lost to the other sweep into a
        # failure instead of a hang.
        outputs.append(pooled(progress=progress, timeout=30.0)[0])

    threads = [threading.Thread(target=sweep) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the borrows as finely as we can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outputs == [inline_json, inline_json]
    first, second = served.values()
    assert len(first) == len(second) == 2
    assert not first & second


def test_nonrobust_failure_raises_the_original_exception():
    with pytest.raises(RuntimeError, match="injected fault") as excinfo:
        pooled(fault="raise@1")
    assert type(excinfo.value) is RuntimeError
    # The worker that raised is idle and healthy, so it stays warm (the
    # other one may have been killed mid-point).
    _results, metrics = pooled()
    assert metrics.workers_spawned <= 1


def test_unpicklable_failure_falls_back_to_sweep_error(tmp_path,
                                                       kernel_registry):
    path = tmp_path / "unpicklable.py"
    path.write_text(UNPICKLABLE_SOURCE)
    load_kernel_file(str(path))
    with pytest.raises(SweepError, match="cannot cross the pipe"):
        pooled("unpicklable-raise")
