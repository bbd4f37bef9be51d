"""Trace digests: every captured trace, pinned byte for byte.

A *trace digest* is the SHA-256 of everything the trace builder leaves
behind: the four node arrays, the dependence tuples, ``max_iter`` and
every array's declaration and final contents.  ``repr`` keeps ints,
floats and bools apart, so a semantics change that turns ``3`` into
``3.0`` moves the digest too.

``trace_golden.json`` holds the digests of all 19 builtin workloads and
of :data:`FRONTEND_KERNEL`, a ``@fe.kernel`` that exercises every
operator the proxies lower.  ``test_trace_golden.py`` rebuilds each
trace and compares.  Regenerate (only when a *kernel* change
legitimately moves a trace):

    PYTHONPATH=src python -m tests.aladdin._trace_golden
"""

import hashlib
import json
import os

from repro import frontend as fe
from repro.workloads.registry import ALL_WORKLOADS, get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "trace_golden.json")


@fe.kernel(name="golden-mix", seed=7)
def FRONTEND_KERNEL(a: fe.Array("a", 16, kind="input", init=lambda rng: [
                        rng.randrange(4096) for _ in range(16)]),
                    b: fe.Array("b", 16, word_bytes=8, kind="input"),
                    out: fe.Array("out", 16, word_bytes=8, kind="output")):
    """Integer, bitwise, float, compare and select ops over two arrays."""
    for i in fe.parallel_range(16):
        x = a[i] & 1023
        y = (x + 3) * (x - 1) // 7
        z = ((y << 2) | (x >> 1)) ^ 5
        f = b[i] * 0.5 + b[i] / 3.0 - (-b[i])
        g = fe.sqrt(f) + fe.fmax(f, 0.25) - fe.fmin(z, 2.0)
        out[i] = fe.select(z > x, g, fe.fcmp(g, 1.0) + fe.icmp(y, z))


def trace_digest(tb):
    """SHA-256 over a captured trace's nodes, dependences and data."""
    h = hashlib.sha256()
    for part in (tb.node_op, tb.node_iter, tb.node_array, tb.node_index,
                 tb.deps, tb.max_iter):
        h.update(repr(part).encode())
        h.update(b"\0")
    for name, decl in tb.arrays.items():
        h.update(repr((name, decl.length, decl.word_bytes, decl.kind,
                       decl.data)).encode())
        h.update(b"\0")
    return h.hexdigest()


def capture():
    """``{name: digest}`` for every builtin workload and the frontend
    kernel, each built fresh (the registry's trace cache is bypassed)."""
    digests = {name: trace_digest(get_workload(name).build())
               for name in ALL_WORKLOADS}
    digests[FRONTEND_KERNEL.name] = trace_digest(FRONTEND_KERNEL.build())
    return digests


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main():
    digests = capture()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} trace digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
