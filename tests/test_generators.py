"""Windmill and random strongly connected generators."""

import tracemalloc

import pytest

from oracle import random_sc_edges

from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import is_strongly_connected


def test_fig3_counts():
    for k in range(1, 6):
        g, roles = gen_fig3(k)
        assert g.node_count == 3 * k + 8
        assert g.edge_count == 3 * k + 13
        assert len(roles) == g.node_count
        assert is_strongly_connected(g)


def test_fig3_k1_layout():
    g, roles = gen_fig3(1)
    assert roles == (
        "x", "y",
        "x_1", "y_1", "x_2", "y_2", "x_3", "y_3",
        "z_1_1", "z_2_1", "z_3_1",
    )
    assert g.edges[0] == (0, 1)
    # first arm: y->x_1->y_1->x, plus the chain y_1->z_1_1->x_1
    assert g.edges[1:6] == ((1, 2), (2, 3), (3, 0), (3, 8), (8, 2))


def test_fig3_k2_chains():
    g, roles = gen_fig3(2)
    z11, z12 = roles.index("z_1_1"), roles.index("z_1_2")
    x1, y1 = roles.index("x_1"), roles.index("y_1")
    assert (y1, z11) in g.edges
    assert (z11, z12) in g.edges
    assert (z12, x1) in g.edges
    assert (z11, x1) not in g.edges


def test_fig3_rejects_k0():
    with pytest.raises(ValueError):
        gen_fig3(0)


def test_random_sc_two_nodes():
    g = gen_random_sc(2, 0, seed=9)
    assert set(g.edges) == {(0, 1), (1, 0)}


def test_random_sc_sweep():
    for n, extra in [(3, 0), (4, 5), (6, 10), (9, 0)]:
        for seed in range(3):
            g = gen_random_sc(n, extra, seed=seed)
            assert g.node_count == n
            assert g.edge_count == n + extra
            assert is_strongly_connected(g)
            assert not g.self_loops()
            assert len(set(g.edges)) == g.edge_count


def test_random_sc_deterministic():
    assert gen_random_sc(8, 10, seed=0).edges == gen_random_sc(8, 10, seed=0).edges
    assert gen_random_sc(8, 10, seed=0).edges != gen_random_sc(8, 10, seed=1).edges


def test_random_sc_bounds():
    with pytest.raises(ValueError):
        gen_random_sc(1, 0)
    with pytest.raises(ValueError):
        gen_random_sc(4, 9)  # only 4*3 - 4 = 8 slots remain
    with pytest.raises(ValueError):
        gen_random_sc(4, -1)
    gen_random_sc(4, 8)


def test_random_sc_matches_the_listing_sampler():
    # every extra count up to all free slots, so both of random.sample's
    # branches (pool copy and selected set) are taken
    grid = [(n, extra) for n in range(2, 11) for extra in range(n * (n - 2) + 1)]
    grid += [(40, extra) for extra in (0, 1, 39, 760, 1519, 1520)]
    grid += [(300, extra) for extra in (0, 7, 900, 44_700)]
    for n, extra in grid:
        for seed in (0, 5):
            assert gen_random_sc(n, extra, seed).edges == random_sc_edges(n, extra, seed)


def test_random_sc_never_lists_the_free_pairs():
    # listing them would hold 1500 * 1498 = 2,247,000 tuples (over 100 MiB)
    tracemalloc.start()
    try:
        g = gen_random_sc(1500, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 1510
    assert peak < 2**20
