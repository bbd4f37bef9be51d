"""Host-normalized benchmark of the gem5-Aladdin reproduction.

Four closed-loop workloads (``dma-sweep``, ``cache-sweep``,
``pool-store``, ``service-mix``), end-to-end metrics from an untraced
run, per-layer metrics from a separate traced run, and a bit-exact gate
on every simulated result.  See README.md in this directory; entry
point: ``python -m benchmarks.bench``.
"""
