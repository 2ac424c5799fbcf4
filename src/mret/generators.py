"""Instance generators for arborescence-pair experiments.

`gen_fig3` builds the three-armed windmill family that caps how many
nodes an edge-disjoint common-root arborescence pair can span, and
`gen_random_sc` builds random strongly connected digraphs for sweeps.
Both are deterministic; the windmill also returns a role name per node.
Both refuse with ScaleLimitError, before they build anything, a graph of
more than `graphs.INSTANCE_SIZE_LIMIT` nodes + edges.
"""

from __future__ import annotations

import random

from .errors import as_int
from .graphs import Digraph, check_instance_size


def gen_fig3(k: int) -> tuple[Digraph, tuple[str, ...]]:
    """Windmill graph on n = 3k + 8 nodes with three length-k chains.

    Hub pair (x, y) plus three arms; arm i has gate nodes x_i, y_i and a
    chain z_{i,1} .. z_{i,k} from y_i back to x_i.  All traffic between
    arms funnels through the single edge (x, y), which is what limits
    disjoint arborescence pairs.  Roles use the names above.
    """
    k = as_int(k, "k", least=1)
    check_instance_size("fig3 generation", 3 * k + 8, 3 * k + 13)
    x, y = 0, 1

    def xi(i: int) -> int:
        return 2 + 2 * (i - 1)

    def yi(i: int) -> int:
        return 3 + 2 * (i - 1)

    def z(i: int, j: int) -> int:
        return 8 + (i - 1) * k + (j - 1)

    roles = ["x", "y"]
    for i in (1, 2, 3):
        roles += [f"x_{i}", f"y_{i}"]
    for i in (1, 2, 3):
        roles += [f"z_{i}_{j}" for j in range(1, k + 1)]

    edges = [(x, y)]
    for i in (1, 2, 3):
        edges.append((y, xi(i)))
        edges.append((xi(i), yi(i)))
        edges.append((yi(i), x))
        edges.append((yi(i), z(i, 1)))
        for j in range(1, k):
            edges.append((z(i, j), z(i, j + 1)))
        edges.append((z(i, k), xi(i)))

    return Digraph(3 * k + 8, tuple(edges)), tuple(roles)


def gen_random_sc(n: int, extra_edges: int, seed: int = 0) -> Digraph:
    """Random Hamiltonian cycle plus `extra_edges` distinct non-loop edges.

    The cycle guarantees strong connectivity; the extras are sampled
    without replacement from the remaining ordered pairs, by their index
    in (u, v) order, so the pairs are never listed.  Deterministic for a
    given (n, extra_edges, seed).
    """
    n, extra_edges = as_int(n, "n", least=2), as_int(extra_edges, "extra_edges")
    slots = n * (n - 1) - n
    if not 0 <= extra_edges <= slots:
        raise ValueError(f"extra_edges must be in [0, {slots}] for n={n}")
    check_instance_size("random-sc generation", n, n + extra_edges)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cycle = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    succ = dict(cycle)

    def candidate(i: int) -> tuple[int, int]:
        """The i-th free pair in (u, v) order: row u skips v = u and v = succ[u]."""
        u, v = divmod(i, n - 2)
        for skipped in sorted((u, succ[u])):
            if v >= skipped:
                v += 1
        return u, v

    extras = [candidate(i) for i in rng.sample(range(slots), extra_edges)]
    return Digraph(n, tuple(cycle + extras))
