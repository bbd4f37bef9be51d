"""The four workloads: what one pass of each runs, drawn from ``--seed``.

Every op is plain data (JSON-able dicts), so op lists can be compared,
printed and recorded without importing the simulator.  Design points are
spelled out here as ``DesignPoint`` keyword arguments instead of being
taken from the program's own space generators: the benchmark's inputs
must not move when the program's generators change.

A *pass* is a fixed multiset of ops; the seed only decides their order
(and, for the two service-style workloads, which request lands in which
slot).  Runs repeat whole passes, so every run measures the same work
and percentiles do not drift with the seed.
"""

import random

CORE_EIGHT = ("aes-aes", "nw-nw", "gemm-ncubed", "stencil-stencil2d",
              "stencil-stencil3d", "md-knn", "spmv-crs", "fft-transpose")

#: fft-transpose (cache+modulo points take 5-21 s each) and md-knn are
#: left out of the cache sweep; see README.md.
CACHE_KERNELS = ("aes-aes", "nw-nw", "gemm-ncubed", "stencil-stencil2d",
                 "stencil-stencil3d", "spmv-crs")
#: Cache kernels whose points take tens of milliseconds: a cache-sweep
#: pass runs their whole quick grid.
LIGHT_CACHE_KERNELS = ("aes-aes", "spmv-crs")
POOL_KERNELS = ("aes-aes", "bfs-bulk", "kmp", "spmv-crs", "backprop",
                "bfs-queue")
WARM_KERNELS = ("aes-aes", "bfs-bulk")
COLD_KERNELS = ("spmv-crs", "backprop", "bfs-queue", "viterbi")
EDP_KERNEL = "kmp"

WORKLOADS = ("dma-sweep", "cache-sweep", "pool-store", "service-mix")


def _dma(lanes, partitions, **extra):
    return dict(lanes=lanes, partitions=partitions, mem_interface="dma",
                **extra)


def _cache(lanes, size_kb, ports):
    return dict(lanes=lanes, partitions=min(lanes, 4), mem_interface="cache",
                cache_size_kb=size_kb, cache_ports=ports, cache_assoc=4)


#: lanes x partitions with pipelined + triggered DMA (the standard grid).
DMA_GRID = [_dma(lanes, parts) for lanes in (1, 2, 4, 8, 16)
            for parts in (1, 4, 16)]
#: The full lanes x partitions grid.
DMA_FULL = [_dma(lanes, parts) for lanes in (1, 2, 4, 8, 16)
            for parts in (1, 2, 4, 8, 16)]
#: Pipelining axis around the default DMA design: barriers, off, modulo.
II_AXIS = ([_dma(4, 4, pipelining="barriers"), _dma(4, 4, pipelining="off")]
           + [_dma(4, 4, pipelining="modulo", ii=ii)
              for ii in ("auto", 1, 2, 4, 8, 16)])
CACHE_QUICK = [_cache(lanes, size, ports) for lanes in (1, 4, 16)
               for size in (4, 16) for ports in (1, 4)]
CACHE_MODULO = [dict(d, pipelining="modulo") for d in CACHE_QUICK
                if d["lanes"] == 4]
CACHE_STANDARD = [_cache(lanes, size, ports) for lanes in (1, 2, 4, 8, 16)
                  for size in (2, 8, 16, 32) for ports in (1, 4)]
#: The warm service space: what set-up pre-warms for the Pareto queries.
WARM_SPACE = DMA_GRID + CACHE_QUICK
#: Every DMA transfer-optimisation class over the full grid, with one
#: and two scratchpad ports.
KMP_DMA = [dict(d, pipelined_dma=pipelined, dma_triggered_compute=triggered,
                spad_ports=ports)
           for pipelined in (False, True) for triggered in (False, True)
           for ports in (1, 2) for d in DMA_FULL]
#: Eight disjoint 24-point subsets (one per EDP request of a service-mix
#: pass), each mixing all four DMA classes and both port counts.
EDP_SUBSETS = [KMP_DMA[start::8][:24] for start in range(8)]

#: Modulo point per cache kernel (index into CACHE_MODULO).  spmv-crs
#: gets a 1-port point: its 4-port modulo points cost 5-7 s each.
_CACHE_MODULO_PICK = (1, 2, 3, 1, 3, 0)

PIPELINE_BUFFER_BYTES = 1024
POOL_FRESH = 13
POOL_REPLAYS = 7
#: Cold chunks of a service-mix pass, and the rounds in which both
#: clients send the same one.
COLD_CHUNKS = 10
JOIN_ROUNDS = 3
WARM_QUERIES = 31


def point_id(workload, design):
    """Canonical id of one (workload, design kwargs) evaluation."""
    fields = ",".join(f"{k}={design[k]}" for k in sorted(design))
    return f"{workload}|{fields}"


def pipeline_id(op):
    buffer = "db" if op["double_buffer"] else "sb"
    return (f"pipe|{'>'.join(op['stages'])}|{op['handoff']}|"
            f"{op['buffer_bytes']}|{buffer}")


def point_op(workload, design):
    return {"kind": "point", "workload": workload, "design": design}


def pipeline_op(kernels, i, handoff):
    """Kernel i feeding kernel i+1; double buffer on odd i."""
    return {"kind": "pipeline", "handoff": handoff,
            "stages": [kernels[i], kernels[(i + 1) % len(kernels)]],
            "buffer_bytes": PIPELINE_BUFFER_BYTES,
            "double_buffer": bool(i % 2)}


def dma_sweep_pass():
    """56 ops: four grid points and two pipelining-axis points per core
    kernel (together the grid at least twice over and every axis point
    twice; stencil2d draws barriers and modulo, not its 2-4 s ``off``
    point), plus the 8 DMA-handoff pipelines."""
    ops = []
    for i, workload in enumerate(CORE_EIGHT):
        designs = [DMA_GRID[(4 * i + j) % 15] for j in range(4)]
        designs += [II_AXIS[(i + 5) % 8], II_AXIS[(i + 1) % 8]]
        ops += [point_op(workload, design) for design in designs]
    ops += [pipeline_op(CORE_EIGHT, i, "dma") for i in range(8)]
    return ops


def cache_sweep_pass():
    """50 ops: the whole quick grid of the two light kernels, four
    quick-grid points of each heavy one (two lanes values, both port
    counts), one lanes-4 modulo point per kernel, plus 4 cache-handoff
    pipelines."""
    ops = []
    for i, workload in enumerate(CACHE_KERNELS):
        if workload in LIGHT_CACHE_KERNELS:
            picks = range(12)
        else:
            picks = (2 * i, 2 * i + 1, 2 * i + 6, 2 * i + 7)
        ops += [point_op(workload, CACHE_QUICK[j % 12]) for j in picks]
        ops.append(point_op(workload, CACHE_MODULO[_CACHE_MODULO_PICK[i]]))
    ops += [pipeline_op(CACHE_KERNELS, i, "cache") for i in (0, 1, 3, 4)]
    return ops


def pool_chunks():
    """The 13 fresh 4-point requests: 2 full-grid DMA + 2 standard cache
    points each, barrier pipelining, distinct across the pass."""
    chunks = []
    for j in range(POOL_FRESH):
        designs = [DMA_FULL[(2 * j) % 25], DMA_FULL[(2 * j + 1) % 25],
                   CACHE_STANDARD[(3 * j) % 40],
                   CACHE_STANDARD[(3 * j + 1) % 40]]
        chunks.append({"workload": POOL_KERNELS[j % 6], "designs": designs})
    return chunks


def pool_store_pass(rng):
    """20 requests: 13 fresh chunks (65%) in seed order, and 7 replays of
    an earlier request inserted at seed-chosen later positions (35%).

    Replays take milliseconds and fresh requests hundreds of them, so
    with these fixed counts both the median and the 90th percentile sit
    inside the fresh class, never on the boundary between the two."""
    chunks = pool_chunks()
    rng.shuffle(chunks)
    ops = [{"kind": "pool", "fresh": True, **chunk} for chunk in chunks]
    for _ in range(POOL_REPLAYS):
        pos = rng.randint(1, len(ops))
        earlier = [op for op in ops[:pos] if op["fresh"]]
        origin = earlier[rng.randrange(len(earlier))]
        ops.insert(pos, {"kind": "pool", "fresh": False,
                         "workload": origin["workload"],
                         "designs": origin["designs"]})
    return ops


def cold_chunks():
    """Fresh 3-point exact sweeps over the four cold kernels, spread over
    the full DMA and standard cache grids."""
    mixed = []
    for dma, cache in zip(DMA_FULL, CACHE_STANDARD):
        mixed += [dma, cache]
    chunks = []
    for k in range(COLD_CHUNKS):
        base = (k // 4) * 3
        chunks.append({"workload": COLD_KERNELS[k % 4],
                       "designs": [mixed[7 * (base + t) % len(mixed)]
                                   for t in range(3)]})
    return chunks


def service_rounds():
    """The 26 rounds of one pass, as fixed pairs of client requests: 31
    warm Pareto queries (60%), 13 cold exact sweeps (25%; in 3 of the 10
    rounds with a cold sweep both clients send the same chunk, to force
    joins) and 8 auto-fidelity EDP queries on fresh kmp subsets (15%).

    With half the requests warm, the median falls between the warm
    answers (~5 ms) and the cold sweeps (>0.1 s) and moved by 16%
    between runs; at 60% it sits inside the warm class."""
    chunks = [{"kind": "cold", **chunk} for chunk in cold_chunks()]
    warm = [{"kind": "warm", "workload": WARM_KERNELS[i % 2]}
            for i in range(WARM_QUERIES)]
    edp = [{"kind": "edp", "workload": EDP_KERNEL, "subset": i}
           for i in range(len(EDP_SUBSETS))]
    rounds = [[chunks[i], dict(chunks[i])] for i in range(JOIN_ROUNDS)]
    rounds += [[chunk, warm.pop()] for chunk in chunks[JOIN_ROUNDS:]]
    rounds += [[request, warm.pop()] for request in edp]
    rounds += [[warm.pop(), warm.pop()] for _ in range(len(warm) // 2)]
    return rounds


def service_mix_pass(rng):
    """The fixed rounds in seed order, each with seed-chosen sides."""
    rounds = service_rounds()
    for pair in rounds:
        rng.shuffle(pair)
    rng.shuffle(rounds)
    return [{"kind": "round", "requests": pair} for pair in rounds]


def pass_ops(workload, rng):
    """One pass of ``workload``'s ops, ordered by ``rng``."""
    if workload == "dma-sweep":
        ops = dma_sweep_pass()
    elif workload == "cache-sweep":
        ops = cache_sweep_pass()
    elif workload == "pool-store":
        return pool_store_pass(rng)
    elif workload == "service-mix":
        return service_mix_pass(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def passes(workload, seed):
    """Endless generator of passes; the sequence depends only on the
    workload and the seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield pass_ops(workload, rng)


def all_points():
    """Every (workload, design) any pass of any seed can evaluate, plus
    the set-up points (pre-warm and EDP subsets), in a stable order."""
    points = {}

    def add(workload, design):
        points[point_id(workload, design)] = (workload, design)

    for op in dma_sweep_pass() + cache_sweep_pass():
        if op["kind"] == "point":
            add(op["workload"], op["design"])
    for chunk in pool_chunks() + cold_chunks():
        for design in chunk["designs"]:
            add(chunk["workload"], design)
    for workload in WARM_KERNELS:
        for design in WARM_SPACE:
            add(workload, design)
    for subset in EDP_SUBSETS:
        for design in subset:
            add(EDP_KERNEL, design)
    return points


def all_pipelines():
    ops = [op for op in dma_sweep_pass() + cache_sweep_pass()
           if op["kind"] == "pipeline"]
    return {pipeline_id(op): op for op in ops}
