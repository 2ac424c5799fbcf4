import random
from array import array
from itertools import combinations, permutations

import pytest

from mret import reachability
from mret.errors import ScaleLimitError
from mret.graphs import Digraph, Schedule, Temporalisation
from mret.reachability import (
    evaluate_schedule,
    reachability_counts,
    schedule_from_temporalisation,
    total_reachability,
)
from mret.solvers import solve_exact

from oracle import naive_counts_for_schedule, naive_reach_pairs, naive_total_for_schedule

TWO_CYCLE = Digraph(2, ((0, 1), (1, 0)))
THREE_CYCLE = Digraph(3, ((0, 1), (1, 2), (2, 0)))
PATH3 = Digraph(3, ((0, 1), (1, 2)))


def test_two_cycle_both_directions_chain():
    res = evaluate_schedule(TWO_CYCLE, Schedule((0, 1)))
    assert res.total == 4
    assert res.per_source_counts == (2, 2)


def test_three_cycle_in_cycle_order():
    # frozen from the subset-enumeration oracle
    assert naive_total_for_schedule(3, THREE_CYCLE.edges, (0, 1, 2)) == 8
    res = evaluate_schedule(THREE_CYCLE, Schedule((0, 1, 2)))
    assert res.total == 8
    assert res.per_source_counts == (3, 3, 2)


def test_path_reverse_order_blocks_chaining():
    res = evaluate_schedule(PATH3, Schedule((1, 0)))
    assert res.total == 5
    assert [{v for v in range(3) if res.reaches(u, v)} for u in range(3)] == [
        {0, 1}, {1, 2}, {2}]


def test_schedule_length_mismatch_rejected():
    with pytest.raises(ValueError, match="permutation"):
        evaluate_schedule(PATH3, Schedule((0,)))


def test_equal_time_edges_do_not_chain():
    res = evaluate_schedule(PATH3, Temporalisation((1, 1)))
    assert res.total == 5
    assert not res.reaches(0, 2)


def test_strictly_increasing_times_chain():
    res = evaluate_schedule(PATH3, Temporalisation((1, 2)))
    assert res.total == 6
    assert res.reaches(0, 2)


def test_distinct_labels_equal_schedule_semantics():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(0, 6)
        g = Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))
        labels = rng.sample(range(1, 100), m)
        t = Temporalisation(tuple(labels))
        s = schedule_from_temporalisation(t)
        assert evaluate_schedule(g, t) == evaluate_schedule(g, s)


def test_temporalisation_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        evaluate_schedule(PATH3, Temporalisation((1,)))


def test_tie_break_is_stable_and_monotone():
    t = Temporalisation((1, 1))
    s = schedule_from_temporalisation(t)
    assert s.order == (0, 1)
    assert evaluate_schedule(PATH3, t).total == 5
    assert evaluate_schedule(PATH3, s).total == 6


def test_sort_order_of_labels():
    assert schedule_from_temporalisation(Temporalisation((3, 1, 2))).order == (1, 2, 0)


def test_tie_break_never_decreases_reachability():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(0, 6)
        g = Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))
        t = Temporalisation(tuple(rng.randint(1, 3) for _ in range(m)))
        s = schedule_from_temporalisation(t)
        assert evaluate_schedule(g, s).total >= evaluate_schedule(g, t).total


def test_reflexivity_and_empty_graph():
    res = evaluate_schedule(Digraph(4, ()), Schedule(()))
    assert res.total == 4
    assert res.per_source_counts == (1, 1, 1, 1)


def test_total_bounds_attained_by_two_cycle():
    for order in ((0, 1), (1, 0)):
        assert evaluate_schedule(TWO_CYCLE, Schedule(order)).total == 4


def test_monotone_under_appended_edge():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(0, 5)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
        order = list(range(m))
        rng.shuffle(order)
        base = evaluate_schedule(Digraph(n, edges), Schedule(tuple(order)))
        extra = (rng.randrange(n), rng.randrange(n))
        grown = evaluate_schedule(
            Digraph(n, edges + (extra,)), Schedule(tuple(order + [m]))
        )
        assert grown.total >= base.total


def test_order_only_dependence():
    # two all-distinct temporalisations with the same induced order agree exactly
    g = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    a = Temporalisation((2, 5, 7, 11))
    b = Temporalisation((1, 2, 3, 4))
    assert evaluate_schedule(g, a) == evaluate_schedule(g, b)


def test_engine_matches_oracle_with_loops_and_parallel_edges():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(0, 5)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
        g = Digraph(n, edges)
        order = list(range(m))
        rng.shuffle(order)
        res = evaluate_schedule(g, Schedule(tuple(order)))
        assert res.total == naive_total_for_schedule(n, edges, order)
        assert list(res.per_source_counts) == naive_counts_for_schedule(n, edges, order)


def test_engine_matches_oracle_exhaustively_small():
    # every simple 3-node digraph with up to 3 edges, every schedule
    cells = [(a, b) for a in range(3) for b in range(3) if a != b]
    for m in range(4):
        for edge_set in combinations(cells, m):
            g = Digraph(3, edge_set)
            for order in permutations(range(m)):
                s = Schedule(order)
                assert (
                    evaluate_schedule(g, s).total
                    == naive_total_for_schedule(3, edge_set, order)
                )


def test_temporalisation_matches_oracle_with_ties():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(0, 5)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
        times = tuple(rng.randint(1, 3) for _ in range(m))
        g = Digraph(n, edges)
        res = evaluate_schedule(g, Temporalisation(times))
        assert res.total == len(naive_reach_pairs(n, edges, times))


def test_result_reach_accessors_agree():
    res = evaluate_schedule(THREE_CYCLE, Schedule((0, 1, 2)))
    for u in range(3):
        targets = {v for v in range(3) if res.reach_from[v] >> u & 1}
        assert len(targets) == res.per_source_counts[u]
        for v in range(3):
            assert res.reaches(u, v) == (v in targets)
    assert {u for u in range(3) if res.reaches(u, 0)} == {0, 1, 2}


def test_forward_reverse_disagreement_raises(monkeypatch):
    kernel = reachability._propagate
    passes = []

    def lossy_reverse(reach, pairs, ends=None):
        # every second pass, the reverse one, fires no edge
        passes.append(pairs)
        return kernel(reach, pairs, ends) if len(passes) % 2 else reach

    monkeypatch.setattr(reachability, "_propagate", lossy_reverse)
    with pytest.raises(RuntimeError, match="reverse counts"):
        evaluate_schedule(PATH3, Schedule((0, 1)))
    with pytest.raises(RuntimeError, match="^forward total 6 differs from the reverse counts' "
                       "sum 3$"):
        reachability_counts(PATH3, Schedule((0, 1)))


def test_c_ints_that_do_not_pair_into_8_byte_items_are_refused(monkeypatch):
    # an "i" array of 8-byte items, as on a platform with 8-byte C ints
    monkeypatch.setattr(reachability, "array", lambda code, *args: array("q", *args))
    for timing in (Schedule((0, 1)), Temporalisation((1, 1))):
        with pytest.raises(RuntimeError, match="two C ints as one 8-byte item"):
            total_reachability(PATH3, timing)


def test_a_timing_of_another_type_is_a_type_error(monkeypatch):
    # refused by its type, before its length and the scale are checked
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 0)
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 0)
    for evaluate in (evaluate_schedule, total_reachability, reachability_counts):
        for timing, kind in (([0, 1, 2], "list"), ((0, 1), "tuple"), (None, "NoneType")):
            with pytest.raises(TypeError, match=f"^a timing is a Schedule or a "
                               f"Temporalisation, not {kind}$"):
                evaluate(PATH3, timing)


def test_total_reachability_is_the_forward_total():
    assert total_reachability(PATH3, Schedule((0, 1))) == 6
    assert total_reachability(PATH3, Schedule((1, 0))) == 5
    assert total_reachability(PATH3, Temporalisation((1, 1))) == 5
    assert total_reachability(PATH3, Temporalisation((1, 2))) == 6
    with pytest.raises(ValueError, match="permutation"):
        total_reachability(PATH3, Schedule((0,)))
    with pytest.raises(ValueError, match="does not match"):
        total_reachability(PATH3, Temporalisation((1,)))


def test_tiles_follow_the_node_count():
    # eval-large's 30,000 nodes run in two tiles per forked half, criterion
    # 9's 10^4 in one; tiles are equal, and a tile holds one source at least
    assert reachability._tile_width(30_000) == 7_500
    assert reachability._tile_width(30_001) == 7_501
    assert reachability._tile_width(10_000) == 10_000
    assert reachability._tile_width(65_536) * 65_536 == reachability.TILE_BITS  # 16 tiles
    assert reachability._tile_width(1) == 1 and reachability._tile_width(0) == 0


def test_node_count_over_the_reach_budget_is_refused(monkeypatch):
    # the real budget admits n = 30,000 and refuses n = 10^6 (62 GB of bits)
    assert 30_000**2 <= reachability.REACH_BITS_LIMIT < 1_000_000**2
    # the full-width evaluation still refuses n > 65,536, allocating nothing;
    # the tiled passes do not read the budget
    for timing in (Schedule(()), Temporalisation(())):
        assert total_reachability(Digraph(65_537, ()), timing) == 65_537
        with pytest.raises(ScaleLimitError, match="reach sets of 65537 nodes"):
            evaluate_schedule(Digraph(65_537, ()), timing)
    # a budget of 100 bits admits 10 nodes; refusing 11 allocates nothing
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 100)
    small = Digraph(10, ((0, 1),))
    assert evaluate_schedule(small, Schedule((0,))).total == 11
    big = Digraph(11, ())
    with pytest.raises(ScaleLimitError, match="reach sets of 11 nodes"):
        evaluate_schedule(big, Schedule(()))
    with pytest.raises(ScaleLimitError):
        evaluate_schedule(big, Temporalisation(()))
    with pytest.raises(ScaleLimitError):
        solve_exact(big)
    assert total_reachability(big, Schedule(())) == 11
    assert reachability_counts(big, Temporalisation(())) == (11, (1,) * 11)


def test_the_tiled_passes_are_refused_by_their_work(monkeypatch):
    # the real limit admits n = 10^5, m = 10^6 in 38 tiles (41,800,000
    # units), and refuses it for 2.5 times as many nodes
    assert reachability._tile_count(10**5) == 38
    reachability.check_eval_work(10**5, 10**6, passes=2)
    with pytest.raises(ScaleLimitError, match="233 tiles of sources over 250000 nodes"):
        reachability.check_eval_work(250_000, 10**6)
    # PATH3 runs one tile of 3 sources over 2 edges: 5 units a pass
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 9)
    assert total_reachability(PATH3, Schedule((0, 1))) == 6
    with pytest.raises(ScaleLimitError, match="^evaluation infeasible at this scale: 2 tiles "
                       "of sources over 3 nodes and 2 edges take 10 units of work, over the "
                       "limit of 9$"):
        reachability_counts(PATH3, Schedule((0, 1)))
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 4)
    for timing in (Schedule((0, 1)), Temporalisation((1, 1))):
        with pytest.raises(ScaleLimitError, match="1 tiles of sources over 3 nodes"):
            total_reachability(PATH3, timing)
        # a timing that does not fit the graph is refused as such first
        with pytest.raises(ValueError):
            total_reachability(PATH3, type(timing)((1,)))


def test_one_time_order_for_the_engine_and_the_schedule():
    t = Temporalisation((3, 1, 3, 2))
    assert t.order == (1, 3, 0, 2)
    assert schedule_from_temporalisation(t).order is t.order
