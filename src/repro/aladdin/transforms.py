"""Trace-to-datapath mapping transforms.

Aladdin applies "common accelerator design optimizations" before scheduling
(Section III-B).  The two that matter for the paper's sweeps are:

* **Loop unrolling -> datapath lanes.**  The kernel's parallel loop is
  unrolled by the lane count: iteration ``i`` executes on lane
  ``i mod lanes``, and iterations are grouped into *rounds* of ``lanes``
  consecutive iterations.  Lanes synchronize at round boundaries
  (Section IV-D: "when lanes are finished executing, they must wait and
  synchronize with all other lanes before the next iteration can begin"),
  but within a round a stalled lane never blocks its peers.
* **Array partitioning** is applied by the scratchpad model itself
  (cyclic word interleaving — :mod:`repro.memory.sram`).

Induction-variable and address-compute elimination is inherent to our trace
format (those nodes are never emitted — see :mod:`repro.aladdin.trace`).
"""


class LaneAssignment:
    """Per-node lane and round for a given lane count.

    Instances may be shared across schedulers (``assign_lanes`` memoizes
    them per trace), so all fields are treated as read-only by consumers.
    In particular ``round_base`` (nodes per round) is a shared template:
    schedulers copy it into their own mutable countdown and must never
    mutate the template itself.
    """

    __slots__ = ("lanes", "lane", "round", "num_rounds", "round_base")

    def __init__(self, lanes, lane, round_, num_rounds, round_base=None):
        self.lanes = lanes
        self.lane = lane        # list: node -> lane index
        self.round = round_     # list: node -> round index (-1 = serial)
        self.num_rounds = num_rounds
        # Nodes per round (shared template for each scheduler's mutable
        # _round_remaining countdown).  Filled eagerly by assign_lanes;
        # hand-built assignments get it on first ensure_round_base().
        self.round_base = round_base

    def ensure_round_base(self):
        """The nodes-per-round template, computed once and idempotent.

        Safe to call from any number of schedulers sharing this
        assignment: the fill is derived purely from ``self.round``, so a
        second call (or a racing pair of construction-time calls) always
        produces the identical list and never invalidates a copy another
        scheduler already took.
        """
        base = self.round_base
        if base is not None and len(base) == self.num_rounds:
            return base
        base = [0] * self.num_rounds
        for r in self.round:
            if r >= 0:
                base[r] += 1
        self.round_base = base
        return base


def assign_lanes(trace, lanes):
    """Map every trace node onto a (lane, round).

    Serial nodes (emitted outside any parallel iteration) run on lane 0 and
    belong to no round (round -1): they are never barrier-blocked, only
    dependence-blocked.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    # Memoized per (lanes, trace length): a design sweep re-runs the same
    # workload at the same lane counts many times, and the assignment is a
    # pure function of the trace.
    memo = getattr(trace, "_lane_memo", None)
    if memo is None:
        memo = trace._lane_memo = {}
    key = (lanes, trace.num_nodes)
    cached = memo.get(key)
    if cached is not None:
        return cached
    lane = [0] * trace.num_nodes
    round_ = [-1] * trace.num_nodes
    # One int object per round, shared by all of its nodes: past 256,
    # ``it // lanes`` would allocate a fresh int for every node.
    rounds = []
    iters = trace.node_iter
    for node in range(trace.num_nodes):
        it = iters[node]
        if it >= 0:
            lane[node] = it % lanes
            r = it // lanes
            if r >= len(rounds):
                rounds.extend(range(len(rounds), r + 1))
            round_[node] = rounds[r]
    assignment = memo[key] = LaneAssignment(lanes, lane, round_,
                                            len(rounds))
    # Eager fill: the template is part of the memoized value, so no
    # scheduler ever needs to write into the shared instance later.
    assignment.ensure_round_base()
    return assignment


def validate_assignment(trace, assignment, pipelining="barriers"):
    """Check that round gating cannot deadlock the schedule.

    ``pipelining`` names the round-release discipline being validated:

    * ``"barriers"`` — round ``r + 1`` opens only when round ``r`` has
      fully *completed*.  A node in round ``r`` that depends — directly
      or through serial nodes — on a node in round ``r' > r`` deadlocks.
      Every such node is an error.
    * ``"modulo"`` — round ``r + 1`` opens II cycles after round ``r``
      *first issues*, so a cross-round dependence into a later round is
      legal as long as each round keeps at least one node whose
      transitive dependences stay within rounds ``<= r`` (otherwise the
      round can never issue its first node and the gate chain wedges).
    * ``"off"`` — no gating, nothing to validate.

    Returns normally when safe, raises ValueError otherwise.
    """
    if pipelining == "off":
        return
    if pipelining not in ("barriers", "modulo"):
        raise ValueError(f"unknown pipelining mode {pipelining!r}")
    rounds = assignment.round
    # Effective round: the highest barrier round this node's completion
    # transitively requires.  -1 (the serial sentinel) marks "depends on
    # no round at all"; the array must start there, not at 0 — an init
    # of 0 silently promotes every untouched entry to round 0, which
    # masks forward dependences and (for hand-built traces) lets a
    # would-deadlock schedule validate.
    effective = [-1] * trace.num_nodes
    min_eff = {}
    for node in range(trace.num_nodes):
        eff = rounds[node]
        for pred in trace.deps[node]:
            if pred >= node:
                raise ValueError(
                    f"trace {trace.name!r}: node {node} depends on node "
                    f"{pred}, which is not earlier in the trace; traces "
                    f"must be topologically ordered")
            if effective[pred] > eff:
                eff = effective[pred]
        if rounds[node] >= 0:
            if pipelining == "barriers" and eff > rounds[node]:
                raise ValueError(
                    f"trace {trace.name!r}: node {node} in round "
                    f"{rounds[node]} depends on round {eff}; round "
                    f"barriers would deadlock")
            r = rounds[node]
            if r not in min_eff or eff < min_eff[r]:
                min_eff[r] = eff
        effective[node] = eff
    if pipelining == "modulo":
        for r, eff in sorted(min_eff.items()):
            if eff > r:
                raise ValueError(
                    f"trace {trace.name!r}: every node of round {r} "
                    f"depends on round {eff}; the round can never issue "
                    f"and the modulo gate chain would deadlock")
