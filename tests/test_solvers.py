"""Solvers against the exhaustive schedule oracle."""

import pytest

from oracle import oracle_best

from mret import astra, reachability, solvers
from mret.astra import greedy_pair
from mret.errors import ScaleLimitError
from mret.generators import gen_random_sc
from mret.graphs import Digraph, Schedule
from mret.reachability import evaluate_schedule
from mret.solvers import (
    arborescence_order,
    dependent,
    solve_arborescence,
    solve_exact,
    solve_local,
)


def dcycle(n):
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def test_exact_path():
    res = solve_exact(Digraph(3, ((0, 1), (1, 2))))
    assert res.best_total == 6
    assert res.best_schedule.order == (0, 1)
    assert res.method == "exact"
    assert res.explored == 1
    assert res.certificate is None


def test_exact_two_cycle():
    res = solve_exact(dcycle(2))
    assert res.best_total == 4
    assert res.best_schedule.order == (0, 1)


def test_exact_four_cycle():
    g = dcycle(4)
    want_total, want_order = oracle_best(g)
    assert want_total == 13  # frozen: max over all 24 orders
    res = solve_exact(g)
    assert res.best_total == 13
    assert res.best_schedule.order == want_order == (0, 1, 2, 3)
    assert res.explored == 1


def test_commuting_edges_form_one_class():
    # no edge's head is another's tail, so every order is the same
    g = Digraph(4, ((0, 1), (2, 3), (0, 1)))
    res = solve_exact(g)
    assert res.explored == 1
    assert res.best_schedule.order == (0, 1, 2)
    assert res.best_total == 6
    # local search evaluates its start orders and no swap
    assert solve_local(g, seed=0, restarts=3).explored == 3


def test_dependent_edges_chain():
    assert dependent((0, 1), (1, 2))
    assert dependent((1, 2), (0, 1))
    assert dependent((0, 1), (1, 0))
    assert not dependent((0, 1), (0, 1))  # parallel
    assert not dependent((0, 1), (0, 2))  # shared tail
    assert not dependent((0, 2), (1, 2))  # shared head


def test_exact_matches_oracle_sweep():
    instances = [
        Digraph(3, ((0, 1), (0, 1), (1, 2), (2, 0))),  # parallel edges
        Digraph(4, ((0, 1), (1, 2), (2, 3), (1, 3))),
        Digraph(1, ()),
    ]
    for seed in range(4):
        instances.append(gen_random_sc(4, 1, seed=seed))
    for g in instances:
        want_total, want_order = oracle_best(g)
        res = solve_exact(g)
        assert res.best_total == want_total
        assert res.best_schedule.order == want_order
        assert evaluate_schedule(g, res.best_schedule).total == res.best_total


def test_exact_limit():
    g = gen_random_sc(6, 5, seed=0)
    assert g.edge_count == 11
    with pytest.raises(ScaleLimitError, match="infeasible at this scale"):
        solve_exact(g)


def test_solvers_reject_self_loops():
    g = Digraph(2, ((0, 1), (1, 0), (1, 1)))
    for run in (solve_exact, solve_local, solve_arborescence):
        with pytest.raises(ValueError, match="self-loop"):
            run(g)


def test_local_path_any_seed():
    g = Digraph(3, ((0, 1), (1, 2)))
    for seed in range(5):
        res = solve_local(g, seed=seed)
        assert res.best_total == 6
        assert res.method == "local-search"


def test_local_four_cycle():
    g = dcycle(4)
    for seed in range(5):
        assert solve_local(g, seed=seed, restarts=8).best_total == 13
    assert solve_local(g, seed=0, restarts=24).best_total == 13


def test_local_never_beats_exact():
    for seed in range(4):
        g = gen_random_sc(4, 2, seed=seed)
        exact_total = solve_exact(g).best_total
        local = solve_local(g, seed=seed)
        assert local.best_total <= exact_total
        assert evaluate_schedule(g, local.best_schedule).total == local.best_total


def test_local_deterministic_and_counted():
    g = gen_random_sc(6, 6, seed=1)
    a = solve_local(g, seed=7, restarts=3)
    b = solve_local(g, seed=7, restarts=3)
    assert a == b
    capped = solve_local(g, seed=7, restarts=3, steps=0)
    assert capped.explored == 3  # one evaluation per restart, no moves
    assert evaluate_schedule(g, capped.best_schedule).total == capped.best_total


def test_arborescence_two_cycle():
    res = solve_arborescence(dcycle(2), root=0)
    assert res.best_total == 4
    assert res.certificate == (2, 2)
    assert res.best_schedule.order == (1, 0)  # in-edge fires before out-edge
    assert res.method == "arborescence"


def test_arborescence_star():
    leaves = 3
    edges = []
    for v in range(1, leaves + 1):
        edges += [(0, v), (v, 0)]
    star = Digraph(leaves + 1, tuple(edges))
    rooted = solve_arborescence(star, root=0)
    assert rooted.certificate == (leaves + 1, leaves + 1)
    assert rooted.best_total == (leaves + 1) ** 2
    swept = solve_arborescence(star)
    assert swept.best_total == (leaves + 1) ** 2
    assert swept.explored == leaves + 1


def test_arborescence_certificate_bound():
    for seed in range(3):
        g = gen_random_sc(16, 24, seed=seed)
        res = solve_arborescence(g)
        assert res.certificate is not None
        in_size, out_size = res.certificate
        assert res.best_total >= in_size * out_size >= max(in_size, out_size)
        assert evaluate_schedule(g, res.best_schedule).total == res.best_total


def test_arborescence_raises_below_certificate(monkeypatch):
    # a kernel that loses every merge leaves total = n = 2 < 2 * 2
    monkeypatch.setattr(solvers, "_propagate", lambda reach, pairs, ends=None: reach)
    with pytest.raises(RuntimeError, match="below its certificate"):
        solve_arborescence(dcycle(2), root=0)


def test_solvers_check_the_reach_budget_once_per_call(monkeypatch):
    # not once per evaluation: local search evaluates each restart's start
    # order and every swap of chaining edges
    calls = []
    check = reachability.check_reach_budget

    def counted(node_count):
        calls.append(node_count)
        check(node_count)

    monkeypatch.setattr(reachability, "check_reach_budget", counted)
    monkeypatch.setattr(solvers, "check_reach_budget", counted, raising=False)
    g = gen_random_sc(6, 4, seed=1)
    for solve in (lambda: solve_local(g, seed=0, restarts=3), lambda: solve_exact(g),
                  lambda: solve_arborescence(g)):
        calls.clear()
        assert solve().explored > 1 and calls == [6]


def test_arborescence_refuses_by_the_reach_budget_before_its_sweep_set_up(monkeypatch):
    # the budget is checked before the sweep builds its attempt orders and
    # span bounds, so it also comes before the strong-connectivity check
    def unreachable(*args):
        raise AssertionError("the sweep was set up")

    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 8)
    monkeypatch.setattr(astra, "_attempt_orders", unreachable)
    for g, root in ((dcycle(3), None), (dcycle(3), 0), (Digraph(3, ((0, 1), (1, 2))), None)):
        with pytest.raises(ScaleLimitError, match="reach sets of 3 nodes take up to 9 bits"):
            solve_arborescence(g, root=root)


def test_arborescence_order_structure():
    g = gen_random_sc(9, 8, seed=2)
    pair = greedy_pair(g, 4, seed=0)
    order = arborescence_order(g, pair)
    assert sorted(order) == list(range(g.edge_count))
    times = {ei: t for t, ei in enumerate(order)}
    assert max(times[ei] for ei in pair.in_edges) < min(times[ei] for ei in pair.out_edges)
    # within the in-tree, deeper child endpoints fire earlier
    depths_in_order = [pair.in_depths[g.edges[ei][0]] for ei in order if ei in pair.in_edges]
    assert depths_in_order == sorted(depths_in_order, reverse=True)
    depths_out_order = [pair.out_depths[g.edges[ei][1]] for ei in order if ei in pair.out_edges]
    assert depths_out_order == sorted(depths_out_order)


def test_arborescence_requires_strong_connectivity():
    with pytest.raises(ValueError, match="strongly connected"):
        solve_arborescence(Digraph(3, ((0, 1), (1, 2))))


def test_single_node():
    g = Digraph(1, ())
    assert solve_exact(g).best_total == 1
    assert solve_local(g).best_total == 1
    res = solve_arborescence(g)
    assert res.best_total == 1
    assert res.certificate == (1, 1)


def test_result_json():
    res = solve_exact(Digraph(3, ((0, 1), (1, 2))))
    assert res.to_json() == {
        "method": "exact",
        "total": 6,
        "schedule": [0, 1],
        "explored": 1,
        "certificate": None,
    }
    arb = solve_arborescence(dcycle(2), root=0)
    assert arb.to_json()["certificate"] == [2, 2]
