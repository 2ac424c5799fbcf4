"""Arborescence-pair searches against the exhaustive labeling oracle."""

import dataclasses
import time

import pytest

from oracle import best_pair_by_labeling

from mret import astra
from mret.astra import (
    ArborescencePair,
    best_root,
    check_pair,
    exact_pair,
    greedy_pair,
    greedy_pairs,
)
from mret.errors import ScaleLimitError
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import Digraph
from mret.solvers import solve_arborescence


def dcycle(n):
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


# exact pair min sizes on directed cycles, frozen from the 3^m labeling
# oracle: the spanning trees overlap, so one side always stops early
CYCLE_MIN = {3: 2, 4: 3, 5: 3}


def test_cycle_exact_matches_labeling_oracle():
    for n, want in CYCLE_MIN.items():
        g = dcycle(n)
        oracle_min, _, _ = best_pair_by_labeling(g.node_count, g.edges, 0)
        pair = exact_pair(g, 0)
        check_pair(g, pair)
        assert oracle_min == want
        assert pair.min_size == want


def test_two_cycle_single_edge_trees():
    g = dcycle(2)
    pair = greedy_pair(g, 0)
    check_pair(g, pair)
    assert pair.out_edges == frozenset({0})
    assert pair.in_edges == frozenset({1})
    assert pair.min_size == 2
    mirrored = greedy_pair(g, 1)
    assert mirrored.out_edges == frozenset({1})
    assert mirrored.in_edges == frozenset({0})


def test_bidirected_star_center_spans_everything():
    leaves = 5
    edges = []
    for v in range(1, leaves + 1):
        edges += [(0, v), (v, 0)]
    g = Digraph(leaves + 1, tuple(edges))
    pair = greedy_pair(g, 0)
    check_pair(g, pair)
    assert pair.out_nodes == frozenset(range(leaves + 1))
    assert pair.in_nodes == frozenset(range(leaves + 1))
    assert pair.min_size == leaves + 1


def test_three_cycle_exact_tie_break():
    pair = exact_pair(dcycle(3), 0)
    assert pair.min_size == 2
    # two pairs tie at (min 2, sum 5); the lexicographically smaller
    # edge sets win: single-edge out-tree, two-edge in-tree
    assert sorted(pair.out_edges) == [0]
    assert sorted(pair.in_edges) == [1, 2]


def test_four_cycle_spanning_trees_collide():
    g = dcycle(4)
    # the only spanning out-tree from node 0 is edges {0,1,2} and the
    # only spanning in-tree is {1,2,3}; they overlap, so no pair can
    # span (4, 4) and the exact optimum stops at min 3
    spanning_out = {0, 1, 2}
    spanning_in = {1, 2, 3}
    assert spanning_out & spanning_in
    pair = exact_pair(g, 0)
    check_pair(g, pair)
    assert pair.min_size == 3
    assert len(pair.out_nodes) == 3 and len(pair.in_nodes) == 3


def test_exact_dominates_greedy():
    instances = [gen_fig3(1)[0], dcycle(5)]
    for seed in range(3):
        instances.append(gen_random_sc(5, 4, seed=seed))
    for g in instances:
        for root in range(g.node_count):
            gr = greedy_pair(g, root, seed=0)
            ex = exact_pair(g, root)
            check_pair(g, gr)
            check_pair(g, ex)
            assert gr.min_size <= ex.min_size


def test_exact_matches_oracle_on_random_instances():
    for seed in range(4):
        g = gen_random_sc(4, 3, seed=seed)
        for root in range(g.node_count):
            oracle_min, _, _ = best_pair_by_labeling(g.node_count, g.edges, root)
            assert exact_pair(g, root).min_size == oracle_min


def test_best_root_two_cycle():
    rep = best_root(dcycle(2), "exact")
    assert rep.per_root == (2, 2)
    assert rep.best_root == 0
    assert rep.best_min == 2
    assert rep.ratio == 1.0
    assert rep.method == "exact"


# per-root exact optima for the windmill family, frozen from the
# enumeration; hub roots do best, chain roots worst
FIG3_PER_ROOT = {
    1: (7, 7, 4, 4, 4, 4, 4, 4, 2, 2, 2),
    2: (8, 8, 5, 5, 5, 5, 5, 5, 3, 3, 3, 3, 3, 3),
}


def test_fig3_exact_ceilings():
    for k, want in FIG3_PER_ROOT.items():
        g, roles = gen_fig3(k)
        rep = best_root(g, "exact")
        assert rep.per_root == want
        assert rep.best_min <= k + 8
        for v, role in enumerate(roles):
            if role not in ("x", "y"):
                assert rep.per_root[v] <= k + 3
        assert rep.ratio == rep.best_min / g.node_count


def test_fig3_greedy_root_x_bounded():
    g, _ = gen_fig3(1)
    assert greedy_pair(g, 0, seed=0).min_size <= 9
    rep = best_root(g, "greedy", seed=0)
    exact_rep = best_root(g, "exact")
    for got, ceiling in zip(rep.per_root, exact_rep.per_root):
        assert got <= ceiling


def test_greedy_deterministic():
    g = gen_random_sc(7, 6, seed=3)
    assert greedy_pair(g, 2, seed=5) == greedy_pair(g, 2, seed=5)


def test_exact_limit():
    g = gen_random_sc(7, 14, seed=0)
    assert g.edge_count == 21
    with pytest.raises(ScaleLimitError):
        exact_pair(g, 0)
    exact_pair(g, 0, limit=21)


def test_rejects_bad_inputs():
    path = Digraph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="strongly connected"):
        greedy_pair(path, 0)
    with pytest.raises(ValueError, match="strongly connected"):
        exact_pair(path, 0)
    with pytest.raises(ValueError, match="out of range"):
        greedy_pair(dcycle(3), 3)
    with pytest.raises(ValueError, match="method"):
        best_root(dcycle(3), "annealing")


def test_check_pair_catches_violations():
    g = dcycle(4)
    pair = exact_pair(g, 0)

    shared = dataclasses.replace(pair, in_edges=pair.in_edges | set(pair.out_edges))
    with pytest.raises(ValueError, match="share"):
        check_pair(g, shared)

    rootless = dataclasses.replace(
        pair, in_depths={v: d for v, d in pair.in_depths.items() if v != 0}
    )
    with pytest.raises(ValueError, match="root"):
        check_pair(g, rootless)

    off_by_one = dataclasses.replace(
        pair, out_depths={v: d + (v != 0) for v, d in pair.out_depths.items()}
    )
    with pytest.raises(ValueError, match="depth"):
        check_pair(g, off_by_one)

    two_parents = Digraph(3, ((0, 1), (2, 1), (1, 2), (1, 0)))
    bad = dataclasses.replace(
        exact_pair(two_parents, 0),
        out_edges=frozenset({0, 1}),
        out_depths={0: 0, 1: 1, 2: 1},
    )
    with pytest.raises(ValueError):
        check_pair(two_parents, bad)


def test_check_pair_refuses_an_edge_into_the_root():
    # every depth is one more than its tree parent's and there is one edge
    # fewer than nodes, but the out-tree's edge (2, 0) enters the root
    g = Digraph(3, ((0, 1), (1, 0), (2, 0)))
    pair = ArborescencePair(0, frozenset({0, 2}), frozenset({1}),
                            {0: 0, 1: 1, 2: -1}, {0: 0, 1: 1})
    with pytest.raises(ValueError, match="root has one"):
        check_pair(g, pair)


def test_check_pair_is_linear_on_a_long_cycle():
    # the greedy pair of the directed 20,000-cycle: an in-path through every
    # node and one out-edge; walking each node back to the root would take
    # n^2 / 2 steps
    g = gen_random_sc(20000, 0)
    pair = greedy_pair(g, 0)
    assert (len(pair.out_depths), len(pair.in_depths)) == (2, 20000)
    started = time.perf_counter()
    check_pair(g, pair)
    assert time.perf_counter() - started < 1.0


def test_report_json():
    rep = best_root(dcycle(3), "exact")
    data = rep.to_json()
    assert data == {
        "per_root": [2, 2, 2],
        "best_root": 0,
        "best_min": 2,
        "ratio": 2 / 3,
        "method": "exact",
    }


def test_self_loops_are_inert():
    g = Digraph(2, ((0, 1), (1, 0), (0, 0)))
    pair = exact_pair(g, 0)
    check_pair(g, pair)
    assert pair.min_size == 2
    assert 2 not in pair.out_edges and 2 not in pair.in_edges


# Greedy sweep results frozen from the implementation that rebuilt and
# reshuffled the neighbour orders inside every greedy_pair call; the
# shared-order sweep must reproduce them exactly.
# (extra, graph seed, solver seed) of gen_random_sc(40, extra) ->
# (best_total, schedule, certificate)
ARB_GOLDEN = {
    (120, 0, 0): (
        1600,
        (
            130, 8, 80, 1, 9, 21, 31, 52, 59, 67, 123, 138, 153, 5, 10, 16, 23, 27,
            63, 87, 89, 102, 117, 122, 129, 156, 157, 28, 48, 49, 66, 133, 140, 145,
            147, 36, 97, 107, 136, 37, 108, 151, 19, 25, 38, 55, 58, 68, 69, 70, 72,
            88, 91, 104, 131, 6, 22, 26, 35, 50, 53, 56, 61, 90, 93, 96, 100, 103,
            109, 124, 126, 128, 137, 155, 2, 84, 94, 98, 0, 3, 4, 7, 11, 12, 13, 14,
            15, 17, 18, 20, 24, 29, 30, 32, 33, 34, 39, 40, 41, 42, 43, 44, 45, 46,
            47, 51, 54, 57, 60, 62, 64, 65, 71, 73, 74, 75, 76, 77, 78, 79, 81, 82,
            83, 85, 86, 92, 95, 99, 101, 105, 106, 110, 111, 112, 113, 114, 115,
            116, 118, 119, 120, 121, 125, 127, 132, 134, 135, 139, 141, 142, 143,
            144, 146, 148, 149, 150, 152, 154, 158, 159,
        ),
        (40, 40),
    ),
    (120, 1, 3): (
        1600,
        (
            86, 87, 90, 91, 152, 1, 8, 17, 22, 24, 28, 30, 44, 66, 67, 100, 106,
            111, 127, 141, 2, 10, 12, 33, 40, 46, 57, 78, 80, 110, 114, 117, 121,
            137, 34, 48, 71, 85, 140, 35, 36, 99, 37, 74, 97, 135, 19, 38, 45, 82,
            83, 88, 122, 132, 5, 11, 21, 39, 51, 55, 81, 84, 95, 123, 155, 0, 7, 13,
            23, 26, 32, 76, 119, 125, 156, 15, 43, 103, 3, 4, 6, 9, 14, 16, 18, 20,
            25, 27, 29, 31, 41, 42, 47, 49, 50, 52, 53, 54, 56, 58, 59, 60, 61, 62,
            63, 64, 65, 68, 69, 70, 72, 73, 75, 77, 79, 89, 92, 93, 94, 96, 98, 101,
            102, 104, 105, 107, 108, 109, 112, 113, 115, 116, 118, 120, 124, 126,
            128, 129, 130, 131, 133, 134, 136, 138, 139, 142, 143, 144, 145, 146,
            147, 148, 149, 150, 151, 153, 154, 157, 158, 159,
        ),
        (40, 40),
    ),
    (40, 1, 2): (
        1070,
        (
            39, 0, 1, 35, 4, 45, 66, 73, 5, 17, 21, 37, 6, 22, 25, 30, 32, 42, 44,
            53, 55, 7, 23, 26, 33, 46, 78, 8, 27, 72, 75, 9, 28, 10, 57, 11, 12, 13,
            14, 15, 49, 62, 77, 16, 24, 58, 65, 41, 43, 54, 18, 64, 19, 20, 2, 3,
            29, 31, 34, 36, 38, 40, 47, 48, 50, 51, 52, 56, 59, 60, 61, 63, 67, 68,
            69, 70, 71, 74, 76, 79,
        ),
        (40, 16),
    ),
    (20, 0, 2): (
        796,
        (
            53, 5, 21, 41, 57, 6, 43, 56, 7, 42, 46, 8, 9, 10, 11, 12, 13, 14, 15,
            59, 16, 26, 50, 0, 17, 27, 45, 52, 1, 18, 22, 28, 31, 40, 2, 19, 23, 29,
            32, 55, 20, 24, 33, 47, 4, 34, 35, 36, 37, 38, 3, 25, 30, 39, 44, 48,
            49, 51, 54, 58,
        ),
        (12, 40),
    ),
}


def test_solve_arborescence_golden():
    for (extra, graph_seed, seed), (total, order, cert) in ARB_GOLDEN.items():
        res = solve_arborescence(gen_random_sc(40, extra, seed=graph_seed), seed=seed)
        assert (res.best_total, res.best_schedule.order, res.certificate) == (
            total,
            order,
            cert,
        )


def test_best_root_greedy_golden():
    fig = best_root(gen_fig3(5)[0], "greedy", seed=1)
    assert fig.per_root == (4, 4, 3, 3, 3, 3, 3, 3) + (2,) * 15
    rep = best_root(gen_random_sc(30, 15, seed=4), "greedy", seed=3)
    assert rep.per_root == (
        4, 5, 6, 5, 4, 6, 6, 4, 5, 4, 4, 5, 5, 5, 6,
        3, 4, 7, 5, 3, 3, 4, 4, 3, 3, 3, 4, 3, 7, 4,
    )
    assert rep.best_root == 17


def test_greedy_pair_golden():
    pair = greedy_pair(gen_random_sc(12, 30, seed=2), 3, seed=7)
    assert sorted(pair.out_edges) == [2, 3, 8, 21, 22, 23, 27, 30, 37, 39, 40]
    assert sorted(pair.in_edges) == [0, 1, 6, 10, 11, 12, 20, 24, 31, 33, 38]


def test_windmill_sweep_grows_one_residual_tree_per_root(monkeypatch):
    # the first attempt at every root meets the span bounds of both build
    # orders, so the windmill sweep skips the other 13 attempts
    residual_roots = []
    bfs_tree = astra.bfs_tree

    def counted(adj, sources, banned=frozenset()):
        if banned:
            residual_roots.extend(sources)
        return bfs_tree(adj, sources, banned)

    monkeypatch.setattr(astra, "bfs_tree", counted)
    g = gen_fig3(20)[0]
    for pair in greedy_pairs(g, range(g.node_count)):
        check_pair(g, pair)
    assert residual_roots == list(range(g.node_count))


def test_greedy_sweep_work_bound(monkeypatch):
    # the bound admits the benchmark's sweeps (random-sc n=200, m=800 and
    # the fig3 k=100 windmill) and refuses one at criterion 9's size
    fig = gen_fig3(100)[0]
    for n, m in ((200, 800), (fig.node_count, fig.edge_count)):
        assert n * (n + m) <= astra.GREEDY_SWEEP_WORK_LIMIT
    assert 10**4 * (10**4 + 10**5) > astra.GREEDY_SWEEP_WORK_LIMIT
    g = gen_random_sc(6, 4, seed=1)
    monkeypatch.setattr(astra, "GREEDY_SWEEP_WORK_LIMIT", 5 * (6 + 10))
    for sweep in (lambda: best_root(g, "greedy"), lambda: solve_arborescence(g)):
        with pytest.raises(ScaleLimitError, match="6 roots over 6 nodes and 10 edges"):
            sweep()
    assert solve_arborescence(g, root=2).certificate
    check_pair(g, greedy_pair(g, 2))
