"""Temporal-reachability evaluation engine.

A temporal path is an edge sequence that is consecutive in endpoints
and strictly increasing in appearing time.  Equal-time edges therefore
never chain.  All evaluation goes through one kernel, `_propagate`: a
single pass over the edges in time order that keeps, for every node,
the packed bit set of sources reaching it, so processing edge (a, b)
merges the set of a into the set of b.  Every prefix of the pass uses
strictly smaller times than the edge being processed, so one pass is
exact for a schedule.  A temporalisation with ties is passed as runs of
equal times: inside a run every mask is read before any merge, so an
edge never sees a merge made at its own time.

Reach sets are Python integers used as bit vectors, so one merge is a
single word-parallel OR: a pass costs O(m * n / wordsize).  Reflexive
pairs count: an empty-edge graph has total = n.

`total_reachability` runs the forward pass only (on a large graph, over
two halves of the sources, one in a forked child).  The full evaluations
add per-source counts by the same kernel over the reversed edges in
reversed time order (duality); they must sum to the forward total.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from . import forks
from .errors import ScaleLimitError
from .graphs import Digraph, Schedule, Temporalisation

# The reach sets of n nodes grow to n*n bits.  Up to this many the engine
# allocates them (512 MiB per pass, n <= 65,536); beyond it it refuses.
REACH_BITS_LIMIT = 1 << 32
# Work, n * (n + m), from which `total_reachability` forks.  One pass serial -> forked, medians
# of 9 interleaved runs, over runs on a shared 2-CPU host, at (n, m) = (5,000, 25,000): 17-21
# -> 20-46 ms; (10^4, 10^5): 119-145 -> 118-144 ms; (20,000, 10^5): 171-258 -> 171-206 ms;
# (30,000, 150,000): 397-600 -> 321-418 ms.
FORK_BITS_THRESHOLD = 2 * 10**9


@dataclass(frozen=True)
class ReachabilityResult:
    """Full reachability picture of one evaluated temporal graph.

    `reach_from[v]` has bit u set iff v is temporally reachable from u
    (bit v is always set).  `per_source_counts[u]` is the number of
    nodes reachable from u.  `total` counts all ordered reachable
    pairs, reflexive ones included, so n <= total <= n**2.
    """

    node_count: int
    reach_from: tuple[int, ...]
    per_source_counts: tuple[int, ...]
    total: int

    def reaches(self, u: int, v: int) -> bool:
        return bool(self.reach_from[v] >> u & 1)

    def sources_reaching(self, v: int) -> set[int]:
        mask = self.reach_from[v]
        return {u for u in range(self.node_count) if mask >> u & 1}

    def targets_reached(self, u: int) -> set[int]:
        return {v for v in range(self.node_count) if self.reach_from[v] >> u & 1}


def check_reach_budget(node_count: int) -> None:
    """Refuse with ScaleLimitError a node count whose reach sets may
    outgrow `REACH_BITS_LIMIT`."""
    if node_count * node_count > REACH_BITS_LIMIT:
        raise ScaleLimitError(
            f"evaluation infeasible at this scale: the reach sets of {node_count} nodes "
            f"take up to {node_count * node_count} bits, over the limit of {REACH_BITS_LIMIT}"
        )


def initial_reach(node_count: int) -> list[int]:
    """Every node's reach set before any edge fires: just the node itself.

    Checks `check_reach_budget` before allocating.
    """
    check_reach_budget(node_count)
    return [1 << v for v in range(node_count)]


def _propagate(node_count: int, edges, order, ends=None, reach=None) -> list[int]:
    """Reach sets after firing `edges[ei]` for every `ei` of `order`.

    `ends` lists the exclusive end positions in `order` of the runs of
    equal times; None means every edge has its own time.  The pass
    starts from `initial_reach`, or merges into the given `reach` list.
    """
    reach = initial_reach(node_count) if reach is None else reach
    if ends is None:
        for ei in order:
            a, b = edges[ei]
            reach[b] |= reach[a]
        return reach
    start = 0
    for end in ends:
        run = [edges[ei] for ei in order[start:end]]
        masks = [reach[a] for a, _ in run]
        for (_, b), mask in zip(run, masks):
            reach[b] |= mask
        start = end
    return reach


def _timeline(g: Digraph, timing: Schedule | Temporalisation):
    """(order, ends) of `timing` for `_propagate`."""
    if isinstance(timing, Schedule):
        if len(timing.order) != g.edge_count:
            raise ValueError(
                f"schedule is not a permutation of the graph's edge indices "
                f"(length {len(timing.order)}, expected {g.edge_count})"
            )
        return timing.order, None
    times = timing.times
    if len(times) != g.edge_count:
        raise ValueError(
            f"temporalisation length {len(times)} does not match edge count {g.edge_count}"
        )
    # the run of label t ends after the edges of every label up to t
    counts = Counter(times)
    return timing.order, list(accumulate(map(counts.__getitem__, sorted(counts))))


def total_reachability(g: Digraph, timing: Schedule | Temporalisation) -> int:
    """Total reachability of a schedule or temporalisation, forward pass only, in two
    source halves when `forks.fork_join` decides so from n * (n + m) and
    FORK_BITS_THRESHOLD; a pass over sources lo..hi - 1 starts v at bit v - lo."""
    order, ends = _timeline(g, timing)
    check_reach_budget(n := g.node_count)

    def count(sources) -> int:
        reach = [0] * n
        for bit, v in enumerate(sources):
            reach[v] = 1 << bit
        return sum(map(int.bit_count, _propagate(n, g.edges, order, ends, reach)))

    return sum(forks.fork_join(count, range(n), "forward pass of sources",
                               n * (n + g.edge_count), FORK_BITS_THRESHOLD))


def _evaluate(g: Digraph, timing: Schedule | Temporalisation) -> ReachabilityResult:
    order, ends = _timeline(g, timing)
    reach = _propagate(g.node_count, g.edges, order, ends)
    if ends is not None:
        # run [s, e) of the order is run [m - e, m - s) of the reversed order
        m = len(order)
        ends = [m - s for s in reversed([0, *ends[:-1]])]
    # rev[u] = targets reachable from u
    rev = _propagate(g.node_count, [(b, a) for a, b in g.edges], order[::-1], ends)
    total = sum(map(int.bit_count, reach))
    counts = tuple(map(int.bit_count, rev))
    if total != sum(counts):
        raise RuntimeError(
            f"forward total {total} differs from the reverse counts' sum {sum(counts)}"
        )
    return ReachabilityResult(g.node_count, tuple(reach), counts, total)


def evaluate_schedule(g: Digraph, s: Schedule) -> ReachabilityResult:
    """Evaluate a schedule: edge `s.order[i]` appears at time i+1."""
    return _evaluate(g, s)


def evaluate_temporalisation(g: Digraph, t: Temporalisation) -> ReachabilityResult:
    """Evaluate a temporalisation, processing distinct times in order."""
    return _evaluate(g, t)


def schedule_from_temporalisation(t: Temporalisation) -> Schedule:
    """Stable sort of edge indices by time label (ties by edge index).

    The returned schedule keeps every temporal path of `t` valid and may
    enable new ones, so its total reachability is >= that of `t`; with
    all-distinct labels the two are equal.
    """
    return Schedule(t.order)
