"""Edge-disjoint common-root arborescence pairs.

The objective throughout is max-min: find an out-arborescence and an
in-arborescence that are rooted at the same node, share no edge, and
maximize the smaller of the two spanned node counts (both counts
include the root).  `greedy_pair` is a fast heuristic built on residual
breadth-first searches; `greedy_pairs` runs it over many roots, checking
strong connectivity and building the shuffled attempt orders once per
(graph, seed); `exact_pair` enumerates out-trees with pruning and is the
small-scale ground truth; `best_root` sweeps all roots.  A pair holds
each tree once, as an edge set and a depth map, and `check_pair`
verifies both edge by edge in linear time.

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
from dataclasses import dataclass

from .errors import ScaleLimitError
from .graphs import Digraph, bfs_tree, is_strongly_connected

GREEDY_RANDOM_ATTEMPTS = 6
# Work of a greedy sweep, counted as roots * (nodes + edges): each root
# grows at most 28 trees, measured at 10-13 us per node or edge per root
# at n = 2,000-10,000, so the limit stands for about two minutes of sweep.
GREEDY_SWEEP_WORK_LIMIT = 10**7


@dataclass(frozen=True)
class ArborescencePair:
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


@dataclass(frozen=True)
class AstraReport:
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


def _require_root(g: Digraph, root: int) -> None:
    if not 0 <= root < g.node_count:
        raise ValueError(f"root {root} out of range for {g.node_count} nodes")


def _require_pair_graph(g: Digraph) -> None:
    if g.node_count == 0:
        raise ValueError("digraph has no nodes")
    if not is_strongly_connected(g):
        raise ValueError("digraph is not strongly connected")


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


def greedy_pairs(g: Digraph, roots, seed: int = 0) -> Iterator[ArborescencePair]:
    """Yield `greedy_pair(g, r, seed)` for every r in `roots`, in order.

    The roots are validated, connectivity is checked, and the attempt
    orders and the span bounds' shared reach are built once for the
    whole sweep; per root only the bounds are taken and the trees of the
    attempts that can beat the best so far are grown.  A sweep whose work
    exceeds `GREEDY_SWEEP_WORK_LIMIT` is refused with ScaleLimitError
    before any of it.
    """
    work = len(roots) * (g.node_count + g.edge_count)
    if work > GREEDY_SWEEP_WORK_LIMIT:
        raise ScaleLimitError(
            f"greedy sweep infeasible at this scale: {len(roots)} roots over "
            f"{g.node_count} nodes and {g.edge_count} edges take {work} units of work, "
            f"over the limit of {GREEDY_SWEEP_WORK_LIMIT}"
        )
    roots = list(roots)
    for root in roots:
        _require_root(g, root)
    _require_pair_graph(g)
    orders = _attempt_orders(g, seed)
    bounds = _span_bounds(g.out_adj, g.in_adj), _span_bounds(g.in_adj, g.out_adj)
    for root in roots:
        yield _greedy_best(root, orders, bounds)


def greedy_pair(g: Digraph, root: int, seed: int = 0) -> ArborescencePair:
    """Heuristic pair: BFS one tree, rebuild the other in the residual graph.

    Tries both build orders and several seeded neighbor shufflings and
    keeps the attempt with the largest min-size (ties by larger total
    span, then first found).  Deterministic for a given seed.
    """
    return next(greedy_pairs(g, (root,), seed))


def exact_pair(g: Digraph, root: int, limit: int = 20) -> ArborescencePair:
    """Optimal pair by enumerating all out-trees rooted at `root`.

    For a fixed out-tree the best in-arborescence in the residual graph
    spans exactly the nodes that still reach the root, so each out-tree
    is scored with one reverse BFS.  Out-trees are enumerated once each
    (frontier edges taken in index order, earlier siblings banned), with
    branches pruned when neither side can beat the incumbent min-size.
    Ties break toward larger total span, then lexicographically smaller
    edge sets.
    """
    _require_root(g, root)
    _require_pair_graph(g)
    if g.edge_count > limit:
        raise ScaleLimitError(
            f"exact pair search infeasible at this scale: "
            f"{g.edge_count} edges exceed the limit of {limit}"
        )
    edges, fwd, rev = g.edges, g.out_adj, g.in_adj

    best = None  # (sizes, sorted edge lists, pair) of the incumbent

    def visit(tree_edges: list[int], depths: dict[int, int], banned: set[int]):
        # `depths` maps every node of the out-tree to its depth
        nonlocal best
        in_tree = bfs_tree(rev, (root,), frozenset(tree_edges))
        in_size = len(in_tree[0])
        sizes = (min(len(depths), in_size), len(depths) + in_size)
        if best is None or sizes >= best[0]:
            edge_sets = (sorted(tree_edges), sorted(in_tree[1]))
            if best is None or sizes > best[0] or edge_sets < best[1]:
                best = (sizes, edge_sets, _pair(root, (depths, tree_edges, depths), in_tree))
        out_reach = len(bfs_tree(fwd, depths, banned)[0])
        if min(out_reach, in_size) < best[0][0]:
            # every extension keeps out-span within the residual reach and
            # can only shrink the in-span, so none can tie the incumbent
            return
        frontier = sorted(
            ei for u in depths for v, ei in fwd[u] if v not in depths and ei not in banned
        )
        child_banned = set(banned)
        for ei in frontier:
            a, b = edges[ei]
            tree_edges.append(ei)
            depths[b] = depths[a] + 1
            visit(tree_edges, depths, set(child_banned))
            tree_edges.pop()
            del depths[b]
            # banning the edge for later siblings makes each tree appear once
            child_banned.add(ei)

    visit([], {root: 0}, set())
    return best[2]


def best_root(
    g: Digraph, method: str = "exact", seed: int = 0, limit: int = 20
) -> AstraReport:
    """Run the chosen pair search from every root and report the argmax."""
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    _require_pair_graph(g)
    if method == "exact":
        pairs = (exact_pair(g, r, limit=limit) for r in range(g.node_count))
    else:
        pairs = greedy_pairs(g, range(g.node_count), seed=seed)
    per_root = [pair.min_size for pair in pairs]
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
        children = set()
        for ei in edge_ids:
            parent, child = g.edges[ei][::-1] if toward_root else g.edges[ei]
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
