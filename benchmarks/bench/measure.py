"""Host-speed probe, probe normalization and order statistics.

No simulator imports: the orchestrator, ``compare`` and the self-tests
use this module without loading the program under test.
"""

import resource
import statistics
import sys
import time

PROBE_ITERATIONS = 50_000
#: Probes on each side of an op whose median scales that op.  On a
#: 2-vCPU VM the host changes speed by up to 1.6x within a second, so a
#: narrow window tracks it better than a wide one.
WINDOW = 2


def probe():
    """Wall seconds of a fixed pure-Python loop: the host-speed yardstick."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i & 7
    return time.perf_counter() - start


def peak_rss_mb():
    """Largest resident set, in MiB, of this process and of the children
    it has waited for (the sweep pool's workers)."""
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss units
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak * scale / 2**20


def scale_factors(probes, n_ops, ref_probe):
    """Per-op factor ``ref_probe / median(probes in a +-WINDOW window)``.

    ``probes[j]`` was taken just before op ``j`` and ``probes[n_ops]``
    after the last op, so op ``i`` sits between probes ``i`` and ``i+1``.
    Multiplying an op's wall time by its factor expresses it in seconds
    of the reference host.
    """
    if len(probes) != n_ops + 1:
        raise ValueError(f"need {n_ops + 1} probes for {n_ops} ops, "
                         f"got {len(probes)}")
    return [ref_probe / statistics.median(
                probes[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(n_ops)]


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, q, beyond=10):
    """The ``q``-th percentile, refused unless at least ``beyond``
    samples lie above it (so p90 needs 100 samples)."""
    need = -(-beyond * 100 // (100 - q))
    if len(values) < need:
        raise ValueError(f"p{q:g} needs at least {need} samples, "
                         f"got {len(values)}")
    return percentile(values, q)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")
