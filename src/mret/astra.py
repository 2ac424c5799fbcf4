"""Edge-disjoint common-root arborescence pairs.

The objective throughout is max-min: find an out-arborescence and an
in-arborescence that are rooted at the same node, share no edge, and
maximize the smaller of the two spanned node counts (both counts
include the root).  `sweep_blocks` is the one root sweep: it checks
the method, the scale limits, the roots and strong connectivity once,
then summarizes the greedy pairs (a fast heuristic built on residual
breadth-first searches) or the exact pairs (out-trees enumerated with
pruning up to a work limit, the small-scale ground truth) of its roots;
a large sweep forks one child for the second half of the roots, an
exact one after its first root's block, to estimate its work.
`greedy_pair` and `exact_pair` search one root, `best_root` sweeps all.
A pair holds each tree once, as an edge set and a depth map, and
`check_pair` verifies both edge by edge in linear time.

A greedy attempt grows its first tree in the whole graph, so on a
strongly connected graph that tree spans every node and the attempt's
score is decided by its second tree alone.  The first tree takes one
edge from the second tree's row of every non-root node, which bounds the
second tree's span per root and build order (`_span_bounds`); the sweep
skips every attempt whose bound cannot beat the incumbent.

Self-loops can never sit on an arborescence; the searches here simply
never pick them.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from operator import length_hint

from . import forks
from .errors import Record, ScaleLimitError, as_int
from .graphs import Digraph, bfs_tree, is_strongly_connected

GREEDY_RANDOM_ATTEMPTS = 6
# Work of a greedy sweep, counted as roots * (nodes + edges).  One unit
# cost 0.3-4.4 us at n = 2,000 and 10-12 us at n = 10,000 in one process,
# and 0.3-3.6 and 5-6 us forked over 2 CPUs (a 2-CPU host, 40 roots each
# of random-sc and fig3 graphs), so the limit stands for up to about two
# minutes of sweep, or one when forked.
GREEDY_SWEEP_WORK_LIMIT = 10**7
# Work below which a sweep stays in one process.  A fork, a pipe
# and a reap cost a 20 MB process 1.7-2.1 ms and a 98 MB one 3.1 ms; at
# the cheapest work measured, 0.14 us a unit on the fig3 windmills,
# splitting a greedy sweep this large in two saves up to 7 ms.  They cost a
# 255 MB process 10.5 ms, so there a sweep near the threshold loses.  An
# exact sweep's estimated work breaks even near it too (BENCH_exact_fork.json).
FORK_WORK_THRESHOLD = 10**5
# Work of an exact pair sweep, visited out-trees * (nodes + edges).  A unit cost
# 89-275 ns on a 2-CPU host (fig3 and random-sc sweeps): 4-14 s at the limit.
EXACT_PAIR_WORK_LIMIT = 5 * 10**7


class ArborescencePair(Record):
    """A common-root, edge-disjoint out/in arborescence pair.

    Each tree is stored once, as its edge set and its depth map: every
    spanned node's tree distance from `root`, so the map's keys are the
    spanned nodes.  `out_edges` forms a tree oriented away from `root`,
    `in_edges` a tree oriented toward it.  The arborescence solver orders
    its schedule by the depths.
    """

    root: int
    out_edges: frozenset[int]
    in_edges: frozenset[int]
    out_depths: dict[int, int]
    in_depths: dict[int, int]

    @property
    def out_nodes(self) -> frozenset[int]:
        return frozenset(self.out_depths)

    @property
    def in_nodes(self) -> frozenset[int]:
        return frozenset(self.in_depths)

    @property
    def min_size(self) -> int:
        return min(len(self.out_depths), len(self.in_depths))


class AstraReport(Record):
    """Per-root best min-sizes and the overall best root for one graph."""

    method: str
    per_root: tuple[int, ...]
    best_root: int
    best_min: int
    ratio: float

    def to_json(self) -> dict:
        return {
            "per_root": list(self.per_root),
            "best_root": self.best_root,
            "best_min": self.best_min,
            "ratio": self.ratio,
            "method": self.method,
        }


def _attempt_orders(g: Digraph, seed: int) -> list[tuple]:
    """The (forward, reverse) neighbour orders of every greedy attempt.

    Attempt 0 uses the edge order; each later attempt shuffles every row
    of the previous attempt's forward, then reverse, adjacency with one
    `random.Random(seed)`.  The orders depend only on the graph and the
    seed, so a root sweep builds them once.
    """
    rng = random.Random(seed)
    fwd, rev = g.out_adj, g.in_adj
    orders = [(fwd, rev)]
    for _ in range(GREEDY_RANDOM_ATTEMPTS):
        fwd = [list(row) for row in fwd]
        for row in fwd:
            rng.shuffle(row)
        rev = [list(row) for row in rev]
        for row in rev:
            rng.shuffle(row)
        orders.append((fwd, rev))
    return orders


def _pair(root: int, out_tree, in_tree) -> ArborescencePair:
    """The pair of two `bfs_tree`-shaped (nodes, tree edges, depth) trees."""
    (out_nodes, out_edges, out_depth), (in_nodes, in_edges, in_depth) = out_tree, in_tree
    return ArborescencePair(
        root, frozenset(out_edges), frozenset(in_edges),
        {v: out_depth[v] for v in out_nodes}, {v: in_depth[v] for v in in_nodes},
    )


def _span_bounds(adj, back) -> Callable[[int], int]:
    """Per root, the most nodes a second tree grown over `adj` can span.

    `back` holds the rows of the reversed graph.  The first tree of the
    attempt spans every node, so it has taken one edge of every non-root
    node's `adj` row and none of the root's.  The second tree therefore
    stays within the nodes reachable from the root when nodes with a
    one-edge row do not expand (the `live` rows), and it has no more
    edges than the rows of those nodes have left.  Self-loops and
    parallel edges only loosen the bound.  When the row-longest node
    reaches every node over `live`, so does every node that reaches it,
    and a root that is or neighbours one of those takes, without a
    search, the bound of the whole graph: min(n, m - n + 2).
    """
    n = len(adj)
    lens = [len(row) for row in adj]
    live = [row if k > 1 else () for row, k in zip(adj, lens)]
    everywhere = [False] * n
    hub = max(range(n), key=lens.__getitem__)
    if len(bfs_tree(live, (hub,))[0]) == n:
        live_back = [[e for e in row if lens[e[0]] > 1] for row in back]
        for v in bfs_tree(live_back, (hub,))[0]:
            everywhere[v] = True
    spans_all = min(n, sum(lens) - n + 2)

    def bound(root: int) -> int:
        # the root expands whatever its row length
        sources = dict.fromkeys([root, *(v for v, _ in adj[root])])
        if any(everywhere[v] for v in sources):
            return spans_all
        reach = bfs_tree(live, sources)[0]
        return min(len(reach), 1 + lens[root] + sum(lens[v] - 1 for v in reach[1:]))

    return bound


def _greedy_best(root: int, orders, bounds) -> ArborescencePair:
    """The best of the greedy attempts at `root` over the attempt `orders`.

    Each attempt grows one tree by BFS and the other in the residual
    graph, in both build orders.  The graph must be strongly connected:
    then the first tree spans all n nodes, an attempt's key (min, sum) is
    decided by its second tree's span, and an attempt whose span bound
    for its build order (`bounds`, out-tree second then in-tree second)
    is at most the incumbent's min-size cannot beat it (ties keep the
    first attempt found), so it is skipped.
    """
    builds = ((True, bounds[0](root)), (False, bounds[1](root)))
    best_key = (-1, -1)
    for fwd, rev in orders:
        for in_first, bound in builds:
            if bound <= best_key[0]:
                continue
            if in_first:
                in_tree = bfs_tree(rev, (root,))
                out_tree = bfs_tree(fwd, (root,), set(in_tree[1]))
            else:
                out_tree = bfs_tree(fwd, (root,))
                in_tree = bfs_tree(rev, (root,), set(out_tree[1]))
            out_size, in_size = len(out_tree[0]), len(in_tree[0])
            key = (min(out_size, in_size), out_size + in_size)
            if key > best_key:
                best_key, best = key, (out_tree, in_tree)
    return _pair(root, *best)


def _root_search(
    g: Digraph, roots: list[int], method: str, seed: int, limit: int
) -> Callable[[int, Iterator[int]], ArborescencePair]:
    """The pair search `search(root, visits)` of a sweep over `roots`, after
    the checks that `sweep_blocks` states, made once for the whole sweep; an
    exact search takes one of `visits` per visited out-tree, a greedy one
    none.  The greedy attempt orders and span bounds are built once too."""
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    work = len(roots) * (g.node_count + g.edge_count)
    if method == "greedy" and work > GREEDY_SWEEP_WORK_LIMIT:
        raise ScaleLimitError(f"greedy sweep infeasible at this scale: {len(roots)} roots over "
                              f"{g.node_count} nodes and {g.edge_count} edges take {work} units "
                              f"of work, over the limit of {GREEDY_SWEEP_WORK_LIMIT}")
    for root in roots:
        if not 0 <= root < g.node_count:
            raise ValueError(f"root {root} out of range for {g.node_count} nodes")
    if g.node_count == 0:
        raise ValueError("digraph has no nodes")
    if not is_strongly_connected(g):
        raise ValueError("digraph is not strongly connected")
    if method == "greedy":
        orders = _attempt_orders(g, seed)
        bounds = _span_bounds(g.out_adj, g.in_adj), _span_bounds(g.in_adj, g.out_adj)
        return lambda root, visits: _greedy_best(root, orders, bounds)
    limit = as_int(limit, "limit", least=0)
    if g.edge_count > limit:
        raise ScaleLimitError(f"exact pair search infeasible at this scale: "
                              f"{g.edge_count} edges exceed the limit of {limit}")
    return lambda root, visits: _exact_best(g, root, visits)


class _OutOfWork(ScaleLimitError):
    """An exact sweep's refusal past EXACT_PAIR_WORK_LIMIT, which a block carries back."""

    def __init__(self, g: Digraph):
        super().__init__(f"exact pair search infeasible at this scale: its out-trees over "
                         f"{g.node_count} nodes and {g.edge_count} edges pass the work "
                         f"limit of {EXACT_PAIR_WORK_LIMIT} units")


def sweep_blocks(
    g: Digraph, roots, summarize: Callable[[Iterator[ArborescencePair]], object],
    method: str = "greedy", seed: int = 0, limit: int = 20,
) -> list:
    """`summarize` of the `method` pairs of each contiguous block of `roots`, in root order.

    First, once for the whole sweep and in the calling process, it takes
    every root through `as_int`, then checks the method, the greedy work
    (roots * (nodes + edges)), every root's range, that the graph has
    nodes and is strongly connected, and the exact edge `limit`; scale
    limits raise ScaleLimitError, the rest ValueError, and an exact sweep
    raises ScaleLimitError too when its visited out-trees * (nodes + edges)
    pass EXACT_PAIR_WORK_LIMIT.  The sweep then runs in one block, or in
    two as `forks.fork_join` decides from its work and FORK_WORK_THRESHOLD.
    An exact sweep of two or more roots first searches the first (the
    pilot), a block of its own, and estimates its work as the pilot's
    visits * roots * (nodes + edges); each block of the other roots gets
    the visits the pilot left, and the sweep is refused if the blocks used
    more, as in one process.  That refusal is the only exception a block
    carries back as its summary; any other propagates.  A forked child sends
    back its block's summary with `marshal`, so `summarize` returns ints,
    strings and tuples or lists of them.  Merged in order, the blocks give
    the same result either way.
    """
    roots = [as_int(root, "root") for root in roots]
    search = _root_search(g, roots, method, seed, limit)
    size = g.node_count + g.edge_count
    budget = EXACT_PAIR_WORK_LIMIT // size  # visited out-trees over the whole sweep
    visits = iter(range(budget))
    pilot = [search(roots[0], visits)] if method == "exact" and len(roots) > 1 else []
    left = length_hint(visits)

    def run(block):  # a block's summary and its visits used, `left` + 1 if it ran out
        own = iter(range(left))
        try:
            return summarize(map(lambda root: search(root, own), block)), left - length_hint(own)
        except _OutOfWork:  # a block's refusal comes back as its summary
            return None, left + 1

    blocks = [summarize(iter(pilot))] if pilot else []
    work = len(roots) * size * (budget - left if pilot else 1)
    summaries = forks.fork_join(run, roots[len(pilot):], f"{method} sweep of roots", work,
                                FORK_WORK_THRESHOLD)
    if sum(used for _, used in summaries) > left:  # the serial sweep would have run out too
        raise _OutOfWork(g)
    return blocks + [summary for summary, _ in summaries]


def greedy_pair(g: Digraph, root: int, seed: int = 0) -> ArborescencePair:
    """Heuristic pair: BFS one tree, rebuild the other in the residual graph.

    Tries both build orders and several seeded neighbor shufflings and
    keeps the attempt with the largest min-size (ties by larger total
    span, then first found).  Deterministic for a given seed.
    """
    return sweep_blocks(g, [root], next, "greedy", seed)[0]


def exact_pair(g: Digraph, root: int, limit: int = 20) -> ArborescencePair:
    """Optimal pair by enumerating all out-trees rooted at `root`.

    For a fixed out-tree the best in-arborescence in the residual graph
    spans exactly the nodes that still reach the root, so each out-tree
    is scored with one reverse BFS.  Out-trees are enumerated once each
    (frontier edges taken in index order, earlier siblings banned).  A
    branch is cut when the key (min, sum) of its bounds, the residual
    forward reach for the out-span and the current in-span, is below
    the incumbent's key.  A child reuses its parent's in-tree when the
    edge it adds is not on that tree, and the first child its parent's
    reach, which bans the same edges.  Ties break toward larger total
    span, then lexicographically smaller edge sets.  Past
    EXACT_PAIR_WORK_LIMIT units of work it raises ScaleLimitError.
    """
    return sweep_blocks(g, [root], next, "exact", limit=limit)[0]


def _exact_best(g: Digraph, root: int, visits: Iterator[int]) -> ArborescencePair:
    """`exact_pair` after `_root_search`'s checks, each visited out-tree taking one of the
    sweep's `visits`.  A stack frame holds an open out-tree's frontier iterator, the edges
    its children ban, its in-tree and its out-reach."""
    edges, fwd, rev = g.edges, g.out_adj, g.in_adj
    tree_edges, depths = [], {root: 0}  # the out-tree in hand: one edge per frame but the root's
    stack, best = [], None  # best: (sizes, sorted edge lists, depths, in-tree) of the incumbent
    in_tree, out_reach, banned = bfs_tree(rev, (root,)), g.node_count, set()  # strongly connected
    while True:
        if next(visits, None) is None:
            raise _OutOfWork(g)
        in_size = len(in_tree[0])
        sizes = (min(len(depths), in_size), len(depths) + in_size)
        if best is None or sizes >= best[0]:
            edge_sets = (sorted(tree_edges), sorted(in_tree[1]))
            if best is None or sizes > best[0] or edge_sets < best[1]:
                best = (sizes, edge_sets, dict(depths), in_tree)
        # extensions span at most `out_reach` out and `in_size` in: a tree whose
        # bound is below the incumbent's key stays closed; an equal one keeps the tie-break
        if (min(out_reach, in_size), out_reach + in_size) >= best[0]:
            frontier = sorted(ei for u in depths for v, ei in fwd[u]
                              if v not in depths and ei not in banned)
            stack.append((enumerate(frontier), set(banned), in_tree, out_reach))
        while stack:
            children, banned, in_tree, out_reach = stack[-1]
            if len(tree_edges) == len(stack):  # the child last taken here is done
                del depths[edges[tree_edges[-1]][1]]
                banned.add(tree_edges.pop())  # banned for later siblings: each tree appears once
            child = next(children, None)
            if child is not None:
                break
            stack.pop()
        else:
            _, (out_edges, _), out_depths, in_tree = best
            return _pair(root, (out_depths, out_edges, out_depths), in_tree)
        i, ei = child
        a, b = edges[ei]
        tree_edges.append(ei)
        depths[b] = depths[a] + 1
        # banning an edge off the in-tree leaves that BFS tree as it is;
        # the first child bans what its parent does, and b is in its reach
        in_tree = bfs_tree(rev, (root,), frozenset(tree_edges)) if ei in in_tree[1] else in_tree
        out_reach = len(bfs_tree(fwd, depths, banned)[0]) if i else out_reach


def best_root(
    g: Digraph, method: str = "exact", seed: int = 0, limit: int = 20
) -> AstraReport:
    """Run the chosen pair search from every root and report the argmax.

    A forked greedy sweep's child sends back only its roots' min-sizes,
    and the report is the same whether it forked or not.
    """
    blocks = sweep_blocks(g, range(g.node_count), lambda pairs: [p.min_size for p in pairs],
                          method, seed, limit)
    per_root = [size for block in blocks for size in block]
    best = max(range(g.node_count), key=lambda r: (per_root[r], -r))
    return AstraReport(
        method=method,
        per_root=tuple(per_root),
        best_root=best,
        best_min=per_root[best],
        ratio=per_root[best] / g.node_count,
    )


def check_pair(g: Digraph, pair: ArborescencePair) -> None:
    """Validate every pair invariant from scratch in linear time; raises ValueError.

    Independent of how the pair was built: each tree edge is checked
    against the depth map alone.  A tree passes when the root has depth
    0, every edge joins two spanned nodes, leads from depth d to depth
    d + 1 and enters a non-root node no other edge enters, and there is
    one edge fewer than nodes.  Then every non-root node has exactly one
    parent, of smaller depth, so following parents reaches the root
    without a cycle, and each stored depth is the tree distance.
    """
    if pair.out_edges & pair.in_edges:
        raise ValueError("out- and in-arborescence share an edge")
    if pair.root not in pair.out_depths or pair.root not in pair.in_depths:
        raise ValueError("root not in both spanned node sets")

    def check_tree(edge_ids, depths, toward_root: bool):
        if depths[pair.root] != 0:
            raise ValueError(f"depth of node {pair.root} is wrong")
        children, edges = set(), g.edges
        for ei in edge_ids:
            parent, child = edges[ei][::-1] if toward_root else edges[ei]
            if child in children or child == pair.root:
                raise ValueError("node has two tree parents or root has one")
            children.add(child)
            if parent not in depths or child not in depths:
                raise ValueError("spanned node set does not match tree edges")
            if depths[child] != depths[parent] + 1:
                raise ValueError(f"depth of node {child} is wrong")
        if len(edge_ids) != len(depths) - 1:
            raise ValueError("edge count is not node count minus one")

    check_tree(pair.out_edges, pair.out_depths, toward_root=False)
    check_tree(pair.in_edges, pair.in_depths, toward_root=True)
