"""Pluggable sweep executors: where design-point evaluations actually run.

:func:`repro.core.sweeppool.run_sweep_pool` owns the *bookkeeping* of a
sweep — cache probes, manifests, metrics, retry accounting — but the
question of *where* each pending point executes is delegated to an
:class:`Executor`:

* :class:`InlineExecutor` — serial, in-process.  The reference engine:
  every other executor must be bit-identical to it.  An ``evaluate=``
  override swaps its task runner; profiled, stats-dumping and checked
  sweeps use one to bind their in-process accumulators (see
  :func:`repro.core.sweep.run_sweep`).
* :class:`LocalPoolExecutor` — warm worker processes on this machine:
  the pipe-per-worker pool (retries, per-point timeouts, dead-worker
  recovery) whose workers persist between sweeps.

Executors are deliberately dumb: they receive an :class:`ExecutionPlan`
(the pending ``(index, attempt)`` pairs plus the ``finish``/``fail``
callbacks of the orchestrating sweep) and report every point through
those callbacks.  Ordering, caching, manifests and metrics stay the
orchestrator's problem, so a new backend only has to answer "evaluate
this point, maybe retry it".  ``execute`` returns the list of
``(index, attempt)`` pairs it had to abandon (a collapsed pool); the
orchestrator falls back to :class:`InlineExecutor` for those.

The low-level worker machinery (spawn-safe task runner, pipe-per-worker
pool, warm worker set) lives in :mod:`repro.core.sweeppool` and is
looked up through the module at call time, so tests that stub
``sweeppool._start_worker`` or ``sweeppool._spawn_can_reimport_main``
keep working.
"""

import traceback as _traceback
import warnings


class ExecutionPlan:
    """One sweep's pending work plus the callbacks that settle each point.

    ``pending`` is a list of ``(index, first_attempt)`` pairs into
    ``designs``; ``finish(index, result, elapsed)`` and ``fail(index,
    attempts, kind, error, traceback)`` are supplied by the orchestrator
    (they update results/cache/manifest/metrics and raise under
    ``on_error="raise"``).  ``robust`` selects capture-and-retry
    semantics; without it the first evaluation error propagates raw.
    """

    __slots__ = ("workload", "designs", "cfg", "pending", "faults",
                 "retries", "timeout", "robust", "metrics", "finish",
                 "fail")

    def __init__(self, workload, designs, cfg=None, pending=None,
                 faults=None, retries=0, timeout=None, robust=False,
                 metrics=None, finish=None, fail=None):
        if metrics is None:
            from repro.core.sweeppool import SweepMetrics
            metrics = SweepMetrics()
        self.workload = workload
        self.designs = designs
        self.cfg = cfg
        self.pending = (list(pending) if pending is not None
                        else [(i, 1) for i in range(len(designs))])
        self.faults = faults or {}
        self.retries = retries
        self.timeout = timeout
        self.robust = robust
        self.metrics = metrics
        self.finish = finish if finish is not None else lambda *a: None
        self.fail = fail if fail is not None else lambda *a: None

    def task(self, index, attempt):
        """The picklable task tuple for one pending point."""
        return (index, self.workload, self.designs[index], self.cfg,
                attempt, self.faults)


class Executor:
    """Evaluates an :class:`ExecutionPlan`'s pending design points."""

    kind = "abstract"

    def available(self):
        """Whether this executor can run in the current process context."""
        return True

    def effective_jobs(self, npending):
        """The worker count this executor would actually use."""
        return 1

    def execute(self, plan):
        """Settle every pending point through ``plan.finish``/``plan.fail``.

        Returns the ``(index, attempt)`` pairs left unsettled (an
        executor that lost its workers); the orchestrator completes
        those inline.
        """
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind!r}>"


class InlineExecutor(Executor):
    """Serial in-process evaluation — the reference engine.

    Honours ``retries``/``on_error`` but cannot enforce a per-point
    wall-clock ``timeout`` (there is no worker process to kill); a robust
    plan that asks for one gets a RuntimeWarning and runs unbounded.

    ``evaluate`` overrides the task runner (the signature of
    ``sweeppool._evaluate_task``: a task tuple in, ``(index, result,
    elapsed)`` out); the default is looked up at call time.
    """

    kind = "inline"

    def __init__(self, evaluate=None):
        self.evaluate = evaluate

    def execute(self, plan):
        from repro.core import sweeppool
        if plan.timeout is not None and plan.robust:
            warnings.warn(
                "per-point sweep timeout needs worker processes; "
                "evaluating inline without timeout enforcement",
                RuntimeWarning, stacklevel=2)
        evaluate = self.evaluate or sweeppool._evaluate_task
        for index, first_attempt in plan.pending:
            attempt = first_attempt
            while True:
                try:
                    _idx, result, elapsed = evaluate(plan.task(index, attempt))
                except Exception as exc:
                    if not plan.robust:
                        raise
                    if attempt <= plan.retries:
                        plan.metrics.retries += 1
                        attempt += 1
                        continue
                    plan.fail(index, attempt, "error", repr(exc),
                              _traceback.format_exc())
                    break
                plan.finish(index, result, elapsed)
                break
        return []


class LocalPoolExecutor(Executor):
    """Worker processes on this machine, kept warm between sweeps.

    Every plan runs on the pipe-per-worker pool that survives
    crashed/hung/OOM-killed workers (see
    :func:`repro.core.sweeppool._run_pool`); a non-robust plan still
    raises the first evaluation error as its original exception type.
    ``jobs=None`` or ``0`` means one worker per CPU.
    """

    kind = "local-pool"

    def __init__(self, jobs=None, mp_context="spawn"):
        from repro.core.sweeppool import resolve_jobs
        self.jobs = resolve_jobs(jobs)
        self.mp_context = mp_context

    def available(self):
        from repro.core import sweeppool
        return (self.mp_context != "spawn"
                or sweeppool._spawn_can_reimport_main())

    def effective_jobs(self, npending):
        return min(self.jobs, npending) if npending else 1

    def execute(self, plan):
        from multiprocessing import get_context

        from repro.core import sweeppool
        if not plan.pending:
            return []
        return sweeppool._run_pool(get_context(self.mp_context),
                                   min(self.jobs, len(plan.pending)), plan)


def resolve_executor(jobs=None, mp_context="spawn", robust=False,
                     timeout=None, npending=0):
    """The default executor for one sweep's pending points.

    Mirrors the historical engine selection exactly: a pool when more
    than one worker was requested (or a robust plan needs worker
    processes to enforce ``timeout``) *and* the current interpreter can
    spawn re-importable workers and there is pending work; inline
    otherwise.
    """
    pool = LocalPoolExecutor(jobs=jobs, mp_context=mp_context)
    want_pool = pool.jobs > 1 or (robust and timeout is not None)
    if npending and want_pool and pool.available():
        return pool
    return InlineExecutor()
