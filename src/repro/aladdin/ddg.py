"""Dynamic Data Dependence Graph (DDDG).

"The vertices in the DDDG are LLVM IR instructions, and the edges represent
true dependences between operations" (Section III-B).  We build the graph
from a captured trace: successor lists, indegrees (consumed by the
scheduler), and analysis helpers such as the latency-weighted critical path
(the lower bound on compute time with unlimited resources).
"""

from repro.aladdin.ir import OP_INFO, is_memory


class DDDG:
    """Immutable dependence graph over a captured trace."""

    def __init__(self, trace):
        self.trace = trace
        n = trace.num_nodes
        self.num_nodes = n
        deps = trace.deps
        self.indegree = list(map(len, deps))
        self.num_edges = sum(self.indegree)
        self.successors = successors = [[] for _ in range(n)]
        for node, preds in enumerate(deps):
            for pred in preds:
                successors[pred].append(node)

    @property
    def roots(self):
        """Nodes with no dependences (ready at time zero).

        Computed once — the graph is immutable and every run of a design
        sweep walks the same root set."""
        cached = getattr(self, "_roots", None)
        if cached is None:
            indegree = self.indegree
            cached = self._roots = [
                i for i in range(self.num_nodes) if indegree[i] == 0
            ]
        return cached

    def latency_of(self, node):
        """Latency (cycles) of one node's opcode."""
        return OP_INFO[self.trace.node_op[node]].latency

    def critical_path(self):
        """Longest latency-weighted path through the graph, in cycles.

        This is the schedule length with infinite lanes, single-cycle
        memory, and no resource conflicts — Aladdin's idealized bound.
        Traces are topologically ordered by construction (a node can only
        depend on earlier nodes), so one forward pass suffices.
        """
        if self.num_nodes == 0:
            return 0
        finish = [0] * self.num_nodes
        best = 0
        for node in range(self.num_nodes):
            start = 0
            for pred in self.trace.deps[node]:
                if finish[pred] > start:
                    start = finish[pred]
            finish[node] = start + self.latency_of(node)
            if finish[node] > best:
                best = finish[node]
        return best

    def memory_nodes(self):
        """Indices of all load/store nodes."""
        ops = self.trace.node_op
        return [i for i in range(self.num_nodes) if is_memory(ops[i])]

    def compute_to_memory_ratio(self):
        """Compute ops per memory op — the paper's key workload property
        deciding whether DMA (high ratio) or caches (low ratio) win."""
        mem = len(self.memory_nodes())
        compute = self.num_nodes - mem
        return compute / mem if mem else float("inf")

    def footprint_bytes(self, kinds=("input", "output", "inout")):
        """Total bytes of arrays with the given kinds (DMA transfer volume)."""
        return sum(a.size_bytes for a in self.trace.arrays.values()
                   if a.kind in kinds)
