"""Independent brute-force oracles for the test suite.

Nothing here may import from the package's evaluation or search code:
these routines are the second route that the implementations are
checked against, so they stay deliberately naive.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations, product


def naive_reach_pairs(
    node_count: int,
    edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
    times: list[int] | tuple[int, ...],
) -> set[tuple[int, int]]:
    """All temporally reachable ordered pairs, by enumerating every edge
    subset and checking whether it forms a temporal path (strictly
    increasing times, consecutive endpoints).  Reflexive pairs included.
    """
    pairs = {(v, v) for v in range(node_count)}
    m = len(edges)
    for r in range(1, m + 1):
        for subset in combinations(range(m), r):
            seq = sorted(subset, key=lambda i: times[i])
            if any(times[seq[i]] >= times[seq[i + 1]] for i in range(r - 1)):
                continue
            if any(edges[seq[i]][1] != edges[seq[i + 1]][0] for i in range(r - 1)):
                continue
            pairs.add((edges[seq[0]][0], edges[seq[-1]][1]))
    return pairs


def naive_total_for_schedule(node_count, edges, order) -> int:
    times = [0] * len(edges)
    for pos, ei in enumerate(order):
        times[ei] = pos + 1
    return len(naive_reach_pairs(node_count, edges, times))


def naive_counts_for_schedule(node_count, edges, order) -> list[int]:
    times = [0] * len(edges)
    for pos, ei in enumerate(order):
        times[ei] = pos + 1
    pairs = naive_reach_pairs(node_count, edges, times)
    counts = [0] * node_count
    for u, _ in pairs:
        counts[u] += 1
    return counts


def oracle_best(g) -> tuple[int, tuple[int, ...]]:
    """(total, order) of the lexicographically smallest maximizer over
    all m! schedules of g's edges."""
    best_total, best_order = -1, ()
    for order in permutations(range(g.edge_count)):
        total = naive_total_for_schedule(g.node_count, g.edges, order)
        if total > best_total:
            best_total, best_order = total, order
    return best_total, best_order


def commutation_classes(g) -> int:
    """Number of classes of g's m! schedules under swaps of adjacent edges
    that do not chain (neither edge's head is the other's tail).  Two
    schedules share a class exactly when every chaining pair of edges
    fires in the same relative order in both."""
    m, edges = g.edge_count, g.edges
    chaining = [
        (i, j)
        for i, j in combinations(range(m), 2)
        if edges[i][1] == edges[j][0] or edges[j][1] == edges[i][0]
    ]
    signatures = set()
    for order in permutations(range(m)):
        position = {ei: pos for pos, ei in enumerate(order)}
        signatures.add(tuple(position[i] < position[j] for i, j in chaining))
    return len(signatures)


def brute_force_satisfying_assignments(clauses, n: int) -> list[tuple[bool, ...]]:
    """All satisfying assignments of a CNF given as ((var, positive), ...)
    clauses over variables 0..n-1, by trying all 2**n assignments."""
    out = []
    for bits in range(1 << n):
        assignment = tuple(bool(bits >> i & 1) for i in range(n))
        if all(any(assignment[v] == pos for v, pos in cl) for cl in clauses):
            out.append(assignment)
    return out


def _is_out_arborescence(root, edge_pairs) -> set[int] | None:
    """Spanned node set if the edges form an out-arborescence at root, else None."""
    if not edge_pairs:
        return {root}
    nodes = {root}
    indeg: dict[int, int] = {}
    for a, b in edge_pairs:
        nodes.add(a)
        nodes.add(b)
        indeg[b] = indeg.get(b, 0) + 1
    if indeg.get(root, 0) != 0:
        return None
    if any(indeg.get(v, 0) != 1 for v in nodes if v != root):
        return None
    if len(edge_pairs) != len(nodes) - 1:
        return None
    # reachability from root along the edges
    succ: dict[int, list[int]] = {}
    for a, b in edge_pairs:
        succ.setdefault(a, []).append(b)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return nodes if seen == nodes else None


def _is_in_arborescence(root, edge_pairs) -> set[int] | None:
    return _is_out_arborescence(root, [(b, a) for a, b in edge_pairs])


def best_pair_by_labeling(node_count, edges, root) -> tuple[int, int, int]:
    """Exhaust all 3-way edge labelings (unused / out-tree / in-tree) and
    return (best_min, out_size, in_size) of a labeling maximizing
    min(|out nodes|, |in nodes|), ties by maximal sum."""
    best = (1, 1, 1)
    m = len(edges)
    for labels in product((0, 1, 2), repeat=m):
        out_pairs = [edges[i] for i in range(m) if labels[i] == 1]
        in_pairs = [edges[i] for i in range(m) if labels[i] == 2]
        out_nodes = _is_out_arborescence(root, out_pairs)
        if out_nodes is None:
            continue
        in_nodes = _is_in_arborescence(root, in_pairs)
        if in_nodes is None:
            continue
        cand = (min(len(out_nodes), len(in_nodes)), len(out_nodes), len(in_nodes))
        if (cand[0], cand[1] + cand[2]) > (best[0], best[1] + best[2]):
            best = cand
    return best


def _residual_bfs(rows, root, banned) -> tuple[list[int], dict[int, int]]:
    """(tree edges, depth per reached node) of the breadth-first tree from
    root over rows of (neighbour, edge index), never crossing a banned edge."""
    depths = {root: 0}
    tree_edges = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, ei in rows[u]:
            if v not in depths and ei not in banned:
                depths[v] = depths[u] + 1
                tree_edges.append(ei)
                queue.append(v)
    return tree_edges, depths


def greedy_attempts(orders, root):
    """Every greedy attempt at root, none skipped, in the order the
    heuristic makes them: per (out rows, in rows) of `orders`, the in-tree
    first and then the out-tree first, the second tree grown without the
    first tree's edges.  Yields (in_first, out tree, in tree), each tree
    as (edges, depths)."""
    for fwd, rev in orders:
        for in_first in (True, False):
            if in_first:
                in_tree = _residual_bfs(rev, root, set())
                out_tree = _residual_bfs(fwd, root, set(in_tree[0]))
            else:
                out_tree = _residual_bfs(fwd, root, set())
                in_tree = _residual_bfs(rev, root, set(out_tree[0]))
            yield in_first, out_tree, in_tree


def span_bound_reference(rows, root) -> int:
    """min(|R|, 1 + len(rows[root]) + the sum of len(rows[v]) - 1 over
    R minus root), where R holds the nodes reachable from root over rows
    of (neighbour, edge index) when nodes other than root with a
    one-entry row do not expand."""
    reach, stack = {root}, [root]
    while stack:
        u = stack.pop()
        if u == root or len(rows[u]) > 1:
            for v, _ in rows[u]:
                if v not in reach:
                    reach.add(v)
                    stack.append(v)
    spare = len(rows[root]) + sum(len(rows[v]) - 1 for v in reach if v != root)
    return min(len(reach), 1 + spare)


def greedy_reference(orders, root):
    """(out tree, in tree) of the first attempt of `greedy_attempts` with the
    largest (min-size, total span)."""
    best_key, best = (-1, -1), None
    for _, out_tree, in_tree in greedy_attempts(orders, root):
        out_size, in_size = len(out_tree[1]), len(in_tree[1])
        key = (min(out_size, in_size), out_size + in_size)
        if key > best_key:
            best_key, best = key, (out_tree, in_tree)
    return best


_TIMING_WORDS = {
    "auto": ("timing", "value", "values"),
    "schedule": ("schedule", "edge index", "edge indices"),
    "times": ("times", "time label", "time labels"),
}


def timing_outcome(text: str, edge_count: int, kind: str = "auto") -> tuple:
    """What reading a schedule or times file must give, value by value:
    ("schedule", order), ("times", labels) or ("error", message).

    A permutation of 0..m-1 is a schedule, anything else under
    ``kind="auto"`` a times file; a bad line is named by its number.
    """
    name, one, several = _TIMING_WORDS[kind]
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if edge_count == 0 and not lines:
        return ("times" if kind == "times" else "schedule"), ()
    if len(lines) != 1:
        return "error", f"{name} file must have exactly one data line, found {len(lines)}"
    lineno, line = lines[0]
    try:
        values = tuple(int(p) for p in line.split())
    except ValueError:
        return "error", f"line {lineno}: non-integer {one}"
    if len(values) != edge_count:
        return "error", f"line {lineno}: expected {edge_count} {several}, got {len(values)}"
    if kind == "auto":
        kind = "schedule" if sorted(values) == list(range(edge_count)) else "times"
    if kind == "schedule":
        if sorted(values) != list(range(edge_count)):
            return "error", f"line {lineno}: order is not a permutation of 0..m-1"
        return "schedule", values
    for i, t in enumerate(values):
        if t < 1:
            return "error", f"line {lineno}: time label of edge {i} must be >= 1, got {t}"
    return "times", values


def random_sc_edges(n: int, extra_edges: int, seed: int = 0) -> tuple[tuple[int, int], ...]:
    """The edges of `gen_random_sc(n, extra_edges, seed)`, by its first
    algorithm: list every free ordered pair, then sample from the list."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cycle = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    taken = set(cycle)
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (u, v) not in taken
    ]
    return tuple(cycle + rng.sample(candidates, extra_edges))


def check_pair_reference(edges, root, out_edges, in_edges, out_depths, in_depths) -> None:
    """Raise ValueError unless the out-tree (edge indices into `edges`
    and depth map) and the in-tree share no edge and are arborescences at
    `root` spanning exactly their depth maps' keys, with every depth the
    tree distance: by walking each node's parents back to the root."""
    if set(out_edges) & set(in_edges):
        raise ValueError("out- and in-arborescence share an edge")
    if root not in out_depths or root not in in_depths:
        raise ValueError("root not in both spanned node sets")
    for edge_ids, depths, toward_root in ((out_edges, out_depths, False),
                                          (in_edges, in_depths, True)):
        spanned, parent = {root}, {}
        for ei in edge_ids:
            a, b = edges[ei][::-1] if toward_root else edges[ei]
            spanned |= {a, b}
            if b in parent or b == root:
                raise ValueError("node has two tree parents or root has one")
            parent[b] = a
        if spanned != set(depths) or len(edge_ids) != len(spanned) - 1:
            raise ValueError("tree edges do not span exactly the depth map's nodes")
        for v in spanned:
            seen, d, u = set(), 0, v
            while u != root:
                if u in seen or u not in parent:
                    raise ValueError("tree edge set contains a cycle or a break")
                seen.add(u)
                u, d = parent[u], d + 1
            if depths[v] != d:
                raise ValueError(f"depth of node {v} is wrong")
