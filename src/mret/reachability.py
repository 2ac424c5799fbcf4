"""Temporal-reachability evaluation engine.

A temporal path is an edge sequence that is consecutive in endpoints
and strictly increasing in appearing time.  Equal-time edges therefore
never chain.  All evaluation goes through one kernel, `_propagate`: a
single pass over the (tail, head) pairs in firing order that keeps, for
every node, the packed bit set of sources reaching it, so processing
edge (a, b) merges the set of a into the set of b.  Every prefix of the
pass uses strictly smaller times than the edge being processed, so one
pass is exact for a schedule.  A temporalisation with ties is passed as
runs of equal times: inside a run every mask is read before any merge,
so an edge never sees a merge made at its own time.

Reach sets are Python integers used as bit vectors, so one merge is a
single word-parallel OR: a pass costs O(m * n / wordsize).  Reflexive
pairs count: an empty-edge graph has total = n.

The engine lays each evaluation's edges out once, before any fork, as
one flat array of endpoints in firing order, gathered as whole (tail,
head) pairs from the digraph's endpoint array; a run of equal times
reads its tails and heads as strided slices of it.  Read backwards, the
array is the reversed edges in reversed time order, whose pass gives
each node the targets it reaches (duality).  `total_reachability` runs
the forward pass in tiles of sources whose reach sets are at most
TILE_BITS bits together (on a large graph over two halves of the
sources, one in a forked child) and sums their bit counts;
`reachability_counts` adds the same tiles over the array read backwards
for per-source counts, which must sum to the forward total.  Both are
limited by their work, tiles * (n + m), not by n^2.  The full-width
`evaluate_schedule`, of either kind of timing, holds n^2 bits in one
process for its `ReachabilityResult` and keeps the n^2 limit, which
it checks once, as do the solvers: the kernel checks no limit.
"""

from __future__ import annotations

from array import array
from itertools import islice, pairwise
from operator import add

from . import forks
from .errors import Record, ScaleLimitError
from .graphs import Digraph, Schedule, Temporalisation, _label_runs

# The reach sets of n nodes grow to n*n bits.  Up to this many the full-width
# evaluation allocates them (512 MiB per pass, n <= 65,536); beyond it, it refuses.
REACH_BITS_LIMIT = 1 << 32
# Work of the tiled passes, tiles * (n + m): each tile allocates n reach sets and
# runs m merges of at most W bits.  A unit cost 290-990 ns in one process on a
# shared 2-CPU host (random-sc graphs of n = 5,000 to 10^5 nodes and m = 5n to 10n
# edges, a shuffled schedule and a 1,000-label times file each; dearest at n =
# 16,384, the widest tile), so the limit stands for 30-100 s of passes, about
# half that forked.  `eval` at n = 10^5, m = 10^6 (38 tiles, 41.8 million units)
# took 7.6-8.5 s forked, as a child process, parse included.
EVAL_WORK_LIMIT = 10**8
# Work, passes * n * (n + m), from which the tiled passes fork.  One pass serial -> forked,
# medians of 9 interleaved runs, over runs on a shared 2-CPU host, at (n, m) = (5,000,
# 25,000): 17-21 -> 20-46 ms; (10^4, 10^5): 119-145 -> 118-144 ms; (20,000, 10^5): 171-258
# -> 171-206 ms; (30,000, 150,000): 397-600 -> 321-418 ms.
FORK_BITS_THRESHOLD = 2 * 10**9
# Reach-set bits per tile of sources in the tiled passes: n sources run in the fewest equal
# tiles of W sources with n * W at most this (32 MiB).  One forked pass at (n, m) = (30,000,
# 150,000) with 1, 2, 3, 4 tiles per half, schedule, medians of 11 interleaved runs on a shared
# 2-CPU host: 378, 350, 367, 391 ms (ties: 431, 407, 465, 513 ms); peak RSS of the caller
# 113, 88, 76, 72 MB and of its child 107, 82, 69, 65 MB.  So n = 30,000 runs 2 tiles per half.
TILE_BITS = 1 << 28


class ReachabilityResult(Record):
    """Full reachability picture of one evaluated temporal graph, in
    which a temporalisation fires each run of equal labels as one.

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


def check_reach_budget(node_count: int) -> None:
    """Refuse with ScaleLimitError a node count whose reach sets may
    outgrow `REACH_BITS_LIMIT`."""
    if node_count * node_count > REACH_BITS_LIMIT:
        raise ScaleLimitError(
            f"evaluation infeasible at this scale: the reach sets of {node_count} nodes "
            f"take up to {node_count * node_count} bits, over the limit of {REACH_BITS_LIMIT}"
        )


def check_eval_work(node_count: int, edge_count: int, passes: int = 1) -> None:
    """Refuse with ScaleLimitError `passes` tiled passes over a graph of this
    size whose work, tiles * (n + m), is over `EVAL_WORK_LIMIT`."""
    tiles = passes * _tile_count(node_count)
    work = tiles * (node_count + edge_count)
    if work > EVAL_WORK_LIMIT:
        raise ScaleLimitError(
            f"evaluation infeasible at this scale: {tiles} tiles of sources over {node_count} "
            f"nodes and {edge_count} edges take {work} units of work, over the limit of "
            f"{EVAL_WORK_LIMIT}"
        )


def _propagate(reach: list[int], pairs, ends=None) -> list[int]:
    """The caller's seeded `reach` sets after firing every edge of `pairs` in firing order.

    With `ends` None, `pairs` is an iterable of (tail, head) pairs, each
    edge at its own time.  Otherwise `pairs` is a flat sequence of tail
    and head endpoints, and `ends` lists the exclusive end positions, in
    edges, of its runs of equal times: each run reads its tails and heads
    as strided slices and every mask before its first merge.
    """
    if ends is None:
        for a, b in pairs:
            reach[b] |= reach[a]
        return reach
    for start, end in pairwise([0, *ends]):
        masks = list(map(reach.__getitem__, pairs[2 * start:2 * end:2]))
        for b, mask in zip(pairs[2 * start + 1:2 * end:2], masks):
            reach[b] |= mask
    return reach


def _timeline(g: Digraph, timing: Schedule | Temporalisation, passes: int = 0):
    """(endpoints, ends) of `timing` for `_propagate`: the tail and head of
    every edge in firing order, flat as C ints, and the run ends (None for
    a schedule), gathered as 8-byte (tail, head) items of `g._endpoints`
    with no tuple or list between.  Checks the timing's type, then its
    length, then the scale: for `passes` tiled passes `check_eval_work`,
    and for none, full-width reach sets, `check_reach_budget`.  Either keeps
    every end far below a C int's limit."""
    if isinstance(timing, Schedule):
        if len(timing.order) != g.edge_count:
            raise ValueError(
                f"schedule is not a permutation of the graph's edge indices "
                f"(length {len(timing.order)}, expected {g.edge_count})"
            )
        order, ends = timing.order, None
    elif isinstance(timing, Temporalisation):
        times = timing.times
        if len(times) != g.edge_count:
            raise ValueError(
                f"temporalisation length {len(times)} does not match edge count {g.edge_count}"
            )
        order, ends = _label_runs(times)
    else:
        raise TypeError(f"a timing is a Schedule or a Temporalisation, "
                        f"not {type(timing).__name__}")
    if passes:
        check_eval_work(g.node_count, g.edge_count, passes)
    else:
        check_reach_budget(g.node_count)
    if 2 * array("i").itemsize != array("q").itemsize:
        raise RuntimeError("the engine reads two C ints as one 8-byte item, but they differ")
    pairs = memoryview(g._endpoints).cast("B").cast("q")
    return memoryview(array("q", map(pairs.__getitem__, order))).cast("B").cast("i"), ends


def _backwards(endpoints, ends, edge_count: int):
    """(endpoints, ends) read backwards: the reversed edges in reversed
    firing order, whose pass gives rev[u] = the targets reachable from u."""
    if ends is not None:
        # run [s, e) of the order is run [m - e, m - s) of the reversed order
        ends = [edge_count - s for s in reversed([0, *ends[:-1]])]
    return endpoints[::-1], ends


def _pairs(endpoints, ends):
    """What `_propagate` takes with `ends`: the flat `endpoints` for runs
    of equal times, else (tail, head) pairs from them."""
    if ends is not None:
        return endpoints
    it = iter(endpoints)
    return zip(it, it)


def _tile_count(node_count: int) -> int:
    """The fewest tiles over all n sources whose reach sets take at most
    about TILE_BITS bits each."""
    return max(1, -(-node_count * node_count // TILE_BITS))


def _tile_width(node_count: int) -> int:
    """Sources per tile: n over `_tile_count(n)` tiles, rounded up."""
    return -(-node_count // _tile_count(node_count))


def _tiled(g: Digraph, timing: Schedule | Temporalisation, counts: bool) -> list:
    """The forward tiles' bit count sum per half of the sources, and with
    `counts` (sum, per-source counts) per half from a forward and a
    backward pass over each tile.

    The sources run in two halves when `forks.fork_join` decides so from
    the passes' n * (n + m) and FORK_BITS_THRESHOLD, and each half in tiles
    of `_tile_width` sources, one after another over the same endpoint
    array: a tile over sources lo..hi - 1 starts v at bit v - lo and frees
    its sets before the next tile takes its sources.  So a pass holds
    n * W bits of reach sets, not n * n.  Read backwards, a tile's sources
    are targets, and the bit count of node u's set is the number of them
    that u reaches.
    """
    passes = 1 + counts
    endpoints, ends = _timeline(g, timing, passes)
    n, width = g.node_count, _tile_width(g.node_count)

    def tile_reach(tile: list[int], endpoints, ends) -> list[int]:
        reach = [0] * n
        for bit, v in enumerate(tile):
            reach[v] = 1 << bit
        return _propagate(reach, _pairs(endpoints, ends), ends)

    def forward(tile: list[int]) -> int:
        return sum(map(int.bit_count, tile_reach(tile, endpoints, ends)))

    def run(sources):
        # a tile draws its sources only when it starts, so that a forked
        # child's `forks._orphan_guard` checks its caller between tiles
        sources = iter(sources)
        tiles = iter(lambda: list(islice(sources, width)), [])
        if not counts:
            return sum(map(forward, tiles))
        backwards, back_ends = _backwards(endpoints, ends, g.edge_count)
        total, per_source = 0, [0] * n
        for tile in tiles:
            total += forward(tile)
            # one statement: `map` stops at the end of `per_source` and leaves the
            # other iterator unfinished, so a name bound to it would keep this
            # tile's backward sets alive through the next forward tile
            per_source = list(map(add, per_source, map(int.bit_count,
                                                       tile_reach(tile, backwards, back_ends))))
        return total, per_source

    return forks.fork_join(run, range(n), "forward and backward passes of sources" if counts
                           else "forward pass of sources",
                           passes * n * (n + g.edge_count), FORK_BITS_THRESHOLD)


def _dual(total: int, counts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(total, counts), checked: the per-source counts of the reverse pass
    must sum to the forward total, or RuntimeError."""
    if total != sum(counts):
        raise RuntimeError(
            f"forward total {total} differs from the reverse counts' sum {sum(counts)}"
        )
    return total, counts


def total_reachability(g: Digraph, timing: Schedule | Temporalisation) -> int:
    """Total reachability of a schedule or temporalisation, forward pass
    only, in tiles of sources (`_tiled`); refused by `check_eval_work`."""
    return sum(_tiled(g, timing, counts=False))


def reachability_counts(g: Digraph, timing: Schedule | Temporalisation
                        ) -> tuple[int, tuple[int, ...]]:
    """(total, per_source_counts) of a schedule or temporalisation, as
    `ReachabilityResult` gives them, from forward and backward tiles of
    sources (`_tiled`) that never hold full-width reach sets; refused by
    `check_eval_work` for both passes, and checked by `_dual`."""
    halves = _tiled(g, timing, counts=True)
    return _dual(sum(half[0] for half in halves),
                 tuple(map(sum, zip(*(half[1] for half in halves)))))


def evaluate_schedule(g: Digraph, timing: Schedule | Temporalisation) -> ReachabilityResult:
    """Full-width evaluation of a schedule, edge `order[i]` at time i + 1,
    or of a temporalisation, each run of equal labels firing as one: two
    passes over n reach sets of n bits, refused by `check_reach_budget`."""
    endpoints, ends = _timeline(g, timing)
    reach = _propagate([1 << v for v in range(g.node_count)], _pairs(endpoints, ends), ends)
    # rev[u] = targets reachable from u
    backwards, ends = _backwards(endpoints, ends, g.edge_count)
    rev = _propagate([1 << v for v in range(g.node_count)], _pairs(backwards, ends), ends)
    total, counts = _dual(sum(map(int.bit_count, reach)), tuple(map(int.bit_count, rev)))
    return ReachabilityResult(g.node_count, tuple(reach), counts, total)


def schedule_from_temporalisation(t: Temporalisation) -> Schedule:
    """Stable sort of edge indices by time label (ties by edge index).

    The returned schedule keeps every temporal path of `t` valid and may
    enable new ones, so its total reachability is >= that of `t`; with
    all-distinct labels the two are equal.
    """
    return Schedule(t.order)
