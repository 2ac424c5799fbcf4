"""Schedule search: exhaustive, local, and arborescence-guided.

All three solvers maximize total reachability over schedules and return
a `SolveResult`.  `solve_exact` is the small-scale ground truth;
`solve_local` is seeded hill climbing over adjacent transpositions;
`solve_arborescence` turns an edge-disjoint in/out arborescence pair
into a schedule whose total is at least the product of the two spanned
node counts.  Each seeds the kernel's full-width reach sets and checks
their n^2 budget once, before its first evaluation (for an arborescence
sweep, before the sweep's set-up).

Firing edge (a, b) merges the reach set of a into that of b, so two
edges commute unless they chain (`dependent`).  Orders that differ only
by swapping adjacent commuting edges form one commutation class (a
Mazurkiewicz trace) and have equal totals.  `solve_exact` therefore
searches each class once, at its lexicographically smallest order (the
Anisimov-Knuth normal form), and `solve_local` never tries a swap of
two commuting edges.  `solve_exact` also branches and bounds: a prefix
whose completions cannot beat the best total so far is cut, its bound
the total after firing the unused edges over and over until no reach
set changes.

Self-loops are rejected: a loop never extends a path to a new node, so
allowing it would only pad schedules.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import compress
from operator import itemgetter

from .astra import ArborescencePair, sweep_blocks
from .errors import Record, ScaleLimitError, as_int
from .graphs import Digraph, Schedule
from .reachability import _propagate, check_reach_budget


class SolveResult(Record):
    """Best schedule found by one solver run.

    `explored` counts evaluated schedules: the commutation classes the
    exact method reaches past its bound, the start orders plus the swaps
    of chaining edges for local search, and the roots' orders for the
    arborescence method.
    `certificate` is only set by the arborescence method: the in/out
    spanned node counts, whose product is a proven lower bound on
    `best_total`.
    """

    method: str
    best_schedule: Schedule
    best_total: int
    explored: int
    certificate: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "total": self.best_total,
            "schedule": list(self.best_schedule.order),
            "explored": self.explored,
            "certificate": list(self.certificate) if self.certificate else None,
        }


def _reject_self_loops(g: Digraph) -> None:
    loops = g.self_loops()
    if loops:
        raise ValueError(f"self-loops are not solvable (edge index {loops[0]})")


def dependent(e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether edges e and f chain, so that their firing order matters.

    True when e's head is f's tail or f's head is e's tail; any other
    pair of loop-free edges gives the same reach sets in either order.
    """
    return e[1] == f[0] or f[1] == e[0]


def _stays_normal(prefix: list[int], e: int, chains_e: list[bool]) -> bool:
    """Whether `prefix + [e]` is lexicographically smallest in its class,
    given that `prefix` is: no edge larger than e may sit in the run of
    edges that e commutes with at the end of the prefix."""
    for x in reversed(prefix):
        if chains_e[x]:
            return True
        if x > e:
            return False
    return True


def _completion_bound(reach: list[int], rest: list[tuple[int, int]]) -> int:
    """Upper bound on the total of every completion that fires the `rest`
    edges once each: the total after firing them over and over, from a
    copy of `reach`, until no set changes.  Firing only grows sets, so a
    completion's sets stay inside that fixpoint."""
    closure, bound, last = list(reach), -1, None
    while bound != last:
        last = bound
        bound = sum(map(int.bit_count, _propagate(closure, rest)))
    return bound


def solve_exact(g: Digraph, limit: int = 10) -> SolveResult:
    """Best schedule over all commutation classes; ties go to the
    lexicographically smallest order.

    A depth-first search appends edge e to the prefix only while the
    prefix stays lexicographically smallest in its class: scanning back
    over the edges that commute with e, none may be larger than e.  The
    leaves are then exactly the normal forms, in lexicographic order,
    and the smallest maximizing order is the normal form of its class,
    so strict improvement keeps it.  Each step fires one edge into the
    reach sets and undoes it on the way back.  A prefix whose
    `_completion_bound` is at most the best total is not extended: its
    leaves come later and cannot improve, so the result is the unpruned
    search's, and `explored` counts only the leaves reached.
    """
    _reject_self_loops(g)
    m = g.edge_count
    limit = as_int(limit, "limit", least=0)
    if m > limit:
        raise ScaleLimitError(f"exact search infeasible at this scale: {m} edges exceed "
                              f"the limit of {limit}")
    edges = g.edges
    chains = [[dependent(e, f) for f in edges] for e in edges]
    check_reach_budget(g.node_count)
    reach = [1 << v for v in range(g.node_count)]
    total = g.node_count
    unused = [True] * m
    prefix: list[int] = []
    undo: list[tuple[int, int]] = []  # head's mask and the total before each edge
    best_total, best_order = -1, ()
    explored = 0
    e = 0  # next candidate edge at the current depth
    while True:
        if len(prefix) == m:
            explored += 1
            if total > best_total:
                best_total, best_order = total, tuple(prefix)
        while e < m and not (unused[e] and _stays_normal(prefix, e, chains[e])):
            e += 1
        if e < m:
            a, b = edges[e]
            old = reach[b]
            undo.append((old, total))
            reach[b] = old | reach[a]
            total += reach[b].bit_count() - old.bit_count()
            unused[e] = False
            prefix.append(e)
            e = 0
            if len(prefix) < m and _completion_bound(
                    reach, list(compress(edges, unused))) <= best_total:
                e = m  # no completion beats the incumbent: backtrack
        elif prefix:
            e = prefix.pop()
            unused[e] = True
            reach[edges[e][1]], total = undo.pop()
            e += 1
        else:
            return SolveResult("exact", Schedule(best_order), best_total, explored)


def solve_local(
    g: Digraph, seed: int = 0, restarts: int = 8, steps: int | None = None
) -> SolveResult:
    """Hill climbing with adjacent swaps from seeded random starts.

    Each restart takes the best improving swap until none exists (or
    `steps` moves).  A swap of two commuting edges leaves every reach
    set as it is, so it cannot improve and is not evaluated.
    Deterministic for a given seed; the best total over restarts wins,
    ties going to the lexicographically smaller order.
    """
    _reject_self_loops(g)
    restarts = as_int(restarts, "restarts", least=1)
    if steps is not None:
        steps = as_int(steps, "steps", least=0)
    n, m, edges = g.node_count, g.edge_count, g.edges
    check_reach_budget(n)
    start = [1 << v for v in range(n)]  # the reach sets before any edge fires
    rng = random.Random(seed)
    best_total, best_order = -1, ()
    explored = 0
    for _ in range(restarts):
        order = list(range(m))
        rng.shuffle(order)
        fired = [edges[ei] for ei in order]  # the edges of `order`, swapped with it
        current = sum(map(int.bit_count, _propagate(start.copy(), fired)))
        explored += 1
        moves = 0
        while steps is None or moves < steps:
            swap_total, swap_at = current, None
            for j in range(m - 1):
                if not dependent(fired[j], fired[j + 1]):
                    continue
                fired[j], fired[j + 1] = fired[j + 1], fired[j]
                total = sum(map(int.bit_count, _propagate(start.copy(), fired)))
                explored += 1
                fired[j], fired[j + 1] = fired[j + 1], fired[j]
                if total > swap_total:
                    swap_total = total
                    swap_at = j
            if swap_at is None:
                break
            for seq in (order, fired):
                seq[swap_at], seq[swap_at + 1] = seq[swap_at + 1], seq[swap_at]
            current = swap_total
            moves += 1
        key = tuple(order)
        if current > best_total or (current == best_total and key < best_order):
            best_total, best_order = current, key
    return SolveResult("local-search", Schedule(best_order), best_total, explored)


def arborescence_order(g: Digraph, pair: ArborescencePair) -> tuple[int, ...]:
    """Schedule realizing the pair's reachability guarantee.

    In-tree edges fire first, deepest child endpoint first, so every
    leaf-to-root path gets increasing times; then out-tree edges,
    shallowest first; then everything else in index order.
    """
    edges = g.edges
    in_part = sorted(pair.in_edges, key=lambda ei: (-pair.in_depths[edges[ei][0]], ei))
    out_part = sorted(pair.out_edges, key=lambda ei: (pair.out_depths[edges[ei][1]], ei))
    used = pair.in_edges | pair.out_edges
    rest = [ei for ei in range(g.edge_count) if ei not in used]
    return tuple(in_part + out_part + rest)


def solve_arborescence(
    g: Digraph, root: int | None = None, seed: int = 0
) -> SolveResult:
    """Schedule via an edge-disjoint in/out arborescence pair.

    Tries the given root, or every root when none is given, and keeps
    the best evaluated total (ties to the smallest root).  The
    certificate (|in nodes|, |out nodes|) multiplies to a lower bound:
    the in-tree brings its nodes to the root before any out-edge fires.
    An all-roots sweep forks one child when `astra.sweep_blocks` says
    so; each block sends back only its best (total, order, certificate),
    the first strictly larger total wins across blocks as within one,
    and the result is the same whether the sweep forked or not.
    """
    _reject_self_loops(g)
    check_reach_budget(g.node_count)
    roots, edges = range(g.node_count) if root is None else [root], g.edges

    def block_best(pairs: Iterator[ArborescencePair]):
        start, best = [1 << v for v in range(g.node_count)], None
        for pair in pairs:
            order = arborescence_order(g, pair)
            total = sum(map(int.bit_count, _propagate(start.copy(), [edges[ei] for ei in order])))
            if best is None or total > best[0]:
                best = (total, order, (len(pair.in_depths), len(pair.out_depths)))
        return best

    # max keeps the first of equal totals, so the smallest root wins a tie
    total, order, certificate = max(sweep_blocks(g, roots, block_best, seed=seed),
                                    key=itemgetter(0))
    if total < certificate[0] * certificate[1]:
        raise RuntimeError(
            f"arborescence schedule total {total} is below its certificate "
            f"{certificate[0]} * {certificate[1]}"
        )
    return SolveResult(
        "arborescence", Schedule(order), total, len(roots), certificate
    )
