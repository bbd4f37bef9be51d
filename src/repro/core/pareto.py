"""Pareto frontiers and EDP-optimal selection (Figures 1 and 8).

The paper plots power-vs-execution-time design spaces and stars the
energy-delay-product optimum of each memory system.  Lower is better on
both axes.
"""


def pareto_frontier(results, x=lambda r: r.total_ticks,
                    y=lambda r: r.power_mw):
    """The non-dominated subset of ``results``, sorted by ``x``.

    A point is dominated when another point is no worse on both axes and
    strictly better on at least one.
    """
    pts = sorted(results, key=lambda r: (x(r), y(r)))
    frontier = []
    best_y = float("inf")
    for r in pts:
        if y(r) < best_y:
            frontier.append(r)
            best_y = y(r)
    return frontier


def edp_optimal(results):
    """The design with minimum energy-delay product."""
    if not results:
        raise ValueError("no results to select from")
    return min(results, key=lambda r: r.edp)


def dominates(a, b, x=lambda r: r.total_ticks, y=lambda r: r.power_mw):
    """True when ``a`` Pareto-dominates ``b``."""
    return (x(a) <= x(b) and y(a) <= y(b)
            and (x(a) < x(b) or y(a) < y(b)))


def reducible(results, fidelity="exact"):
    """The part of a sweep's results that frontiers and optima reduce over.

    Drops :class:`~repro.core.sweeppool.FailedPoint` entries; under
    ``fidelity="auto"`` also the unconfirmed fast predictions — the
    triage guarantees those are Pareto-dominated, so the frontier and
    the EDP optimum over the rest match a full exact sweep's.
    """
    return [r for r in results
            if not getattr(r, "is_failure", False)
            and (fidelity != "auto"
                 or getattr(r, "fidelity", "exact") == "exact")]


def sweep_pareto(workload, designs, cfg=None, fidelity="exact", **sweep):
    """Sweep a design space and reduce it to its Pareto view.

    Runs :func:`repro.core.sweep.run_sweep` and returns ``(frontier,
    edp_optimum, all_results)`` — the shape Figures 1 and 8 and the
    CLI's sweep command consume.  The frontier and optimum cover the
    :func:`reducible` results only (``edp_optimum`` is ``None`` when
    no point succeeded); ``all_results`` keeps every entry in input
    order — :class:`~repro.core.sweeppool.FailedPoint` entries under
    ``on_error="collect"`` and, under ``fidelity="auto"``, the pruned
    points' fast predictions.  Under ``"fast"`` everything is a
    prediction, frontier included.  Other keywords go to ``run_sweep``.
    """
    from repro.core.sweep import run_sweep
    results = run_sweep(workload, designs, cfg, fidelity=fidelity, **sweep)
    ok = reducible(results, fidelity)
    return pareto_frontier(ok), (edp_optimal(ok) if ok else None), results
