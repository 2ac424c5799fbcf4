"""Algebraic properties of the engine, the file formats, the hardness
instances and the arborescence-pair searches, by Hypothesis.

Evaluated graphs stay small (n <= 5, m <= 7) so the subset-enumeration
oracle remains cheap; the exact-search comparison stays at m <= 6 so the
m! schedule oracle built on it does (and at m <= 7 against the unpruned
normal-form search, and the completion bound against every completion
at m <= 6), and the arborescence-pair
comparison at n <= 6, m <= 9 so the 3^m labeling oracle does (and at
n <= 7, m <= 12 against the 2^m unpruned exact pair search).
Self-loops and parallel edges are allowed throughout, except where the
solvers are compared, since they refuse self-loops.
"""

import copy
import json
import pickle
import random
import tempfile
from array import array
from collections import Counter
from itertools import accumulate, chain, permutations
from pathlib import Path
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle import (
    best_pair_by_labeling,
    brute_force_satisfying_assignments,
    check_pair_reference,
    commutation_classes,
    exact_pair_reference,
    exact_search_reference,
    greedy_attempts,
    greedy_reference,
    naive_reach_pairs,
    naive_total_for_schedule,
    oracle_best,
    reduction_reference,
    span_bound_reference,
    timing_outcome,
)

from mret import astra, graphs, reduction
from mret.astra import ArborescencePair, check_pair, exact_pair, greedy_pair, sweep_blocks
from mret.cnf import CnfFormula, format_dimacs
from mret.errors import ParseError
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import (
    Digraph,
    Schedule,
    Temporalisation,
    _label_runs,
    _parse_edge_table,
    _parse_edge_table_by_line,
    _trusted_digraph,
    format_digraph,
    format_schedule,
    format_temporal_graph,
    parse_digraph,
    parse_roles,
    parse_schedule,
    parse_temporal_graph,
    parse_times,
    parse_timing,
)
from mret.reachability import (
    _propagate,
    evaluate_schedule,
    reachability_counts,
    schedule_from_temporalisation,
    total_reachability,
)
from mret.reduction import (
    build_instance,
    certify,
    constructive_total,
    instance_paths,
    load_instance,
    schedule_from_assignment,
    write_instance,
)
from mret.solvers import _completion_bound, dependent, solve_exact, solve_local

# derandomized: the same examples on every run, so a failure reproduces
check = settings(deadline=None, derandomize=True)
# mutated input files: more examples, so that every error of every parser shows up
check_mutated = settings(check, max_examples=300)


@st.composite
def digraphs(draw, max_nodes=5, max_edges=7):
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=max_edges))
    return Digraph(n, tuple(edges))


@st.composite
def loop_free(draw, max_edges=7):
    """A digraph without self-loops, which the solvers refuse."""
    g = draw(digraphs(max_edges=max_edges))
    return Digraph(g.node_count, tuple((a, b) for a, b in g.edges if a != b))


@st.composite
def strongly_connected(draw, min_nodes=1, max_nodes=6, max_edges=9):
    """A Hamiltonian cycle through a random node order plus extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    cycle = draw(st.permutations(range(n)))
    edges = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)] if n > 1 else []
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=max_edges - len(edges)))
    return Digraph(n, tuple(draw(st.permutations(edges))))


@st.composite
def scheduled(draw):
    g = draw(digraphs())
    return g, Schedule(tuple(draw(st.permutations(range(g.edge_count)))))


@st.composite
def temporalised(draw, max_label=4):
    g = draw(digraphs())
    labels = st.integers(1, max_label)
    times = draw(st.lists(labels, min_size=g.edge_count, max_size=g.edge_count))
    return g, Temporalisation(tuple(times))


@st.composite
def strict_3cnfs(draw, max_vars=5, max_clauses=5):
    """A strict 3-CNF.  The first clauses walk a shuffled variable order,
    so every variable occurs at least twice; the rest pick free variables.
    A variable drawn with one polarity only gets its first occurrence
    flipped."""
    n = draw(st.integers(3, max_vars))
    walk = draw(st.permutations(range(n)))
    covering = -(-2 * n // 3)
    m = draw(st.integers(covering, max_clauses))
    variables = [walk[i % n] for i in range(3 * covering)]
    for _ in range(m - covering):
        variables += draw(st.permutations(range(n)))[:3]
    signs = draw(st.lists(st.booleans(), min_size=3 * m, max_size=3 * m))
    for v in range(n):
        slots = [i for i, x in enumerate(variables) if x == v]
        if len({signs[i] for i in slots}) == 1:
            signs[slots[0]] = not signs[slots[0]]
    literals = list(zip(variables, signs))
    clauses = [tuple(literals[i : i + 3]) for i in range(0, 3 * m, 3)]
    return CnfFormula(n, tuple(draw(st.permutations(clauses))))


def reversed_graph(g):
    return Digraph(g.node_count, tuple((b, a) for a, b in g.edges))


@check
@given(scheduled())
def test_reversal_duality_schedule(gs):
    g, s = gs
    rev = evaluate_schedule(reversed_graph(g), Schedule(s.order[::-1]))
    res = evaluate_schedule(g, s)
    assert rev.total == res.total
    # u reaches v in G exactly when v reaches u in the reversed graph
    assert rev.per_source_counts == tuple(r.bit_count() for r in res.reach_from)


@check
@given(temporalised())
def test_reversal_duality_temporalisation(gt):
    g, t = gt
    flipped = Temporalisation(tuple(5 - x for x in t.times))
    rev = evaluate_schedule(reversed_graph(g), flipped)
    assert rev.total == evaluate_schedule(g, t).total


@check
@given(digraphs(), st.randoms(use_true_random=False))
def test_distinct_times_equal_the_schedule(g, rng):
    t = Temporalisation(tuple(rng.sample(range(1, 50), g.edge_count)))
    assert evaluate_schedule(g, t) == evaluate_schedule(
        g, schedule_from_temporalisation(t)
    )


@check
@given(temporalised())
def test_tie_break_never_lowers_the_total(gt):
    g, t = gt
    s = schedule_from_temporalisation(t)
    assert total_reachability(g, s) >= total_reachability(g, t)


@check
@given(scheduled())
def test_total_agrees_across_entry_points_schedule(gs):
    g, s = gs
    res = evaluate_schedule(g, s)
    assert total_reachability(g, s) == res.total == sum(res.per_source_counts)


@check
@given(temporalised())
def test_total_agrees_across_entry_points_temporalisation(gt):
    g, t = gt
    res = evaluate_schedule(g, t)
    assert total_reachability(g, t) == res.total == sum(res.per_source_counts)


@check
@given(temporalised())
def test_engine_matches_oracle_with_ties(gt):
    g, t = gt
    pairs = naive_reach_pairs(g.node_count, g.edges, t.times)
    res = evaluate_schedule(g, t)
    assert res.total == len(pairs)
    assert {(u, v) for u in range(g.node_count) for v in range(g.node_count)
            if res.reaches(u, v)} == pairs
    # the reverse pass must keep the runs of equal times intact too
    assert list(res.per_source_counts) == [
        sum(1 for a, _ in pairs if a == u) for u in range(g.node_count)
    ]


@check
@given(scheduled())
def test_engine_matches_oracle_schedule(gs):
    g, s = gs
    times = [0] * g.edge_count
    for pos, ei in enumerate(s.order):
        times[ei] = pos + 1
    pairs = naive_reach_pairs(g.node_count, g.edges, times)
    counts = [0] * g.node_count
    for u, _ in pairs:
        counts[u] += 1
    res = evaluate_schedule(g, s)
    assert res.total == total_reachability(g, s) == len(pairs)
    assert list(res.per_source_counts) == counts


@check
@given(digraphs(max_nodes=40, max_edges=30))
def test_digraph_round_trip(g):
    text = format_digraph(g)
    assert parse_digraph(text) == g
    # comments, blank lines and extra blanks are not part of the data
    noisy = "# header next\n\n" + text.replace(" ", "  \t").replace("\n", "  \n")
    assert parse_digraph(noisy) == g


@check
@given(st.sampled_from([0, graphs._FORMAT_CHUNK - 1, graphs._FORMAT_CHUNK, graphs._FORMAT_CHUNK + 1, 2 * graphs._FORMAT_CHUNK + 1]),
       st.integers(1, 5), st.sampled_from([1, 10**4, 2**31 - 1]), st.integers(0, 2**32))
def test_a_digraph_is_formatted_alike_from_either_form(m, n, largest, seed):
    # few distinct nodes, so that parallel edges and self-loops abound
    rng = random.Random(seed)
    ids = [rng.randrange(largest) for _ in range(n)]
    edges = tuple((rng.choice(ids), rng.choice(ids)) for _ in range(m))
    held = Digraph(largest, edges)
    flat = _trusted_digraph(largest, endpoints=array("i", chain.from_iterable(edges)))
    text = f"{largest} {m}\n" + "".join(f"{a} {b}\n" for a, b in edges)
    parsed = parse_digraph(text)  # holds the endpoint array alone
    # one bool: pytest's diff of two long texts would slow each shrinking step
    assert all(format_digraph(g) == text for g in (held, flat, parsed))
    assert "_endpoints" not in vars(held) and "edges" not in vars(flat)
    assert "edges" not in vars(parsed) and parsed == held


@check
@given(strict_3cnfs(), st.integers(1, 4), st.integers(1, 9))
def test_built_instances_match_the_tuple_reference(formula, K, M):
    inst = build_instance(formula, k_override=K, m_override=M)
    assert set(vars(inst.digraph)) == {"node_count", "_endpoints"}
    reference = reduction_reference(formula.clauses, formula.variable_count, K, M)
    assert (inst.digraph.node_count, inst.digraph.edges, inst.phases) == reference


@check
@given(temporalised(max_label=10**6))
def test_temporal_graph_round_trip(gt):
    g, t = gt
    text = format_temporal_graph(g, t)
    assert parse_temporal_graph(text) == (g, t)
    # the timed and untimed formats share one edge-table reader
    assert parse_digraph(format_digraph(g)) == parse_temporal_graph(text)[0]


@check
@given(scheduled())
def test_schedule_round_trip(gs):
    g, s = gs
    text = format_schedule(s)
    assert parse_schedule(text, g.edge_count) == s
    assert parse_timing(text, g.edge_count) == s


@check
@given(temporalised(max_label=10**6))
def test_times_round_trip(gt):
    g, t = gt
    text = "# labels\n" + " ".join(map(str, t.times)) + "\n"
    assert parse_times(text, g.edge_count) == t
    # labels are >= 1, so a times file is never read as a schedule
    expected = Schedule(()) if g.edge_count == 0 else t
    assert parse_timing(text, g.edge_count) == expected


@check
@given(strict_3cnfs(), st.integers(1, 3), st.integers(1, 6))
def test_instance_files_round_trip(formula, K, M):
    inst = build_instance(formula, k_override=K, m_override=M)
    with tempfile.TemporaryDirectory() as tmp:
        write_instance(inst, Path(tmp) / "inst")
        assert load_instance(Path(tmp) / "inst") == inst
    for bits in brute_force_satisfying_assignments(formula.clauses, formula.variable_count):
        assert certify(inst, schedule_from_assignment(inst, bits))["meets_L"]


@check
@given(strict_3cnfs(), st.integers(1, 3), st.integers(1, 6))
def test_built_instances_equal_checked_digraphs(formula, K, M):
    # `build_instance` skips the checks of Digraph; they would keep its edges as given
    g = build_instance(formula, k_override=K, m_override=M).digraph
    checked = Digraph(g.node_count, g.edges)
    assert g == checked and checked.edges is g.edges and type(g.node_count) is int


@check
@given(strict_3cnfs(max_clauses=8), st.integers(1, 4), st.integers(1, 9))
def test_constructive_total_is_the_engine_total(formula, K, M):
    inst = build_instance(formula, k_override=K, m_override=M)
    for bits in brute_force_satisfying_assignments(formula.clauses, formula.variable_count):
        want = total_reachability(inst.digraph, schedule_from_assignment(inst, bits))
        assert constructive_total(formula, bits, K, M) == want


def role(name):
    """("t", 2, 1) for "t_2^1", ("b", 3, 0) for "b_3", ("u1", 0, 0) for "u1"."""
    kind, _, rest = name.partition("_")
    index, _, copy = rest.partition("^")
    return kind, int(index or 0), int(copy or 0)


GADGET_CYCLE = {(("t", 1), ("f", 2)), (("f", 2), ("f", 1)), (("f", 1), ("t", 2)),
                (("t", 2), ("t", 1))}


def joins(phase, a, b, clauses):
    """Whether an edge from role a to role b belongs to the phase, indices included."""
    (ka, ia, la), (kb, ib, lb) = a, b

    def literal_of(kind, i, j):  # gadget node of variable i enters or leaves clause j
        return (i - 1, kind == "t") in clauses[j - 1]

    return {
        0: ka == "b" and kb == "u1",
        1: ka == "u1" and kb == "u2",
        2: ka == "u2" and kb == "d",
        3: (ka, kb, lb) == ("d", "c", 1) and ia == ib,
        4: (ka, la) == ("c", 1) and (
            (kb, lb) == ("c", 2) and ib != ia
            or kb in ("t", "f") and lb == 1 and literal_of(kb, ib, ia)),
        5: ia == ib and ((ka, la), (kb, lb)) in GADGET_CYCLE,
        6: ka in ("t", "f") and la == 2 and (kb, lb) == ("c", 2) and literal_of(ka, ia, ib),
        7: (ka, la, kb) == ("c", 2, "e") and ia == ib,
        8: ka == "e" and kb == "u3",
        9: ka == "u3" and kb == "u4",
        10: ka == "u4" and kb == "b",
    }[phase]


@check
@given(strict_3cnfs(), st.integers(1, 3), st.integers(1, 4))
def test_every_edge_joins_the_roles_its_phase_names(formula, K, M):
    inst = build_instance(formula, k_override=K, m_override=M)
    roles = [role(name) for name in inst.roles]
    edges = inst.digraph.edges
    phase_of = {i: phase for phase, runs in enumerate(inst.phases) for run in runs for i in run}
    assert sorted(phase_of) == list(range(len(edges)))
    for i, (a, b) in enumerate(edges):
        assert joins(phase_of[i], roles[a], roles[b], formula.clauses), (i, roles[a], roles[b])
    # each clause enters exactly its own three literals
    for j, clause in enumerate(formula.clauses, start=1):
        entered = sorted((roles[b][1] - 1, roles[b][0] == "t") for i, (a, b) in enumerate(edges)
                         if phase_of[i] == 4 and roles[a] == ("c", j, 1) and roles[b][0] != "c")
        assert entered == sorted(clause)


@check
@given(strongly_connected(max_nodes=8, max_edges=16), st.integers(0, 2**16))
def test_greedy_sweep_matches_single_roots(g, seed):
    roots = range(g.node_count)
    swept = sweep_blocks(g, roots, list, seed=seed)[0]
    assert swept == [greedy_pair(g, r, seed) for r in roots]
    for pair in swept:
        check_pair(g, pair)


def check_greedy_sweep_against_reference(g, seed):
    """The sweep keeps the unpruned reference's attempt at every root; the
    span bounds equal the reference formula, and no attempt's second tree
    spans more than its build order's bound."""
    orders = astra._attempt_orders(g, seed)
    out_bounds = astra._span_bounds(g.out_adj, g.in_adj)
    in_bounds = astra._span_bounds(g.in_adj, g.out_adj)
    for root, pair in enumerate(sweep_blocks(g, range(g.node_count), list, seed=seed)[0]):
        (out_edges, out_depths), (in_edges, in_depths) = greedy_reference(orders, root)
        assert (pair.out_edges, pair.out_nodes, pair.out_depths) == (
            set(out_edges), set(out_depths), out_depths)
        assert (pair.in_edges, pair.in_nodes, pair.in_depths) == (
            set(in_edges), set(in_depths), in_depths)
        out_bound, in_bound = out_bounds(root), in_bounds(root)
        assert (out_bound, in_bound) == (
            span_bound_reference(g.out_adj, root), span_bound_reference(g.in_adj, root))
        for in_first, (_, out_depths), (_, in_depths) in greedy_attempts(orders, root):
            if in_first:
                assert len(in_depths) == g.node_count and len(out_depths) <= out_bound
            else:
                assert len(out_depths) == g.node_count and len(in_depths) <= in_bound


@check
@given(strongly_connected(max_nodes=8, max_edges=16), st.integers(0, 2**16))
def test_greedy_sweep_matches_unpruned_reference(g, seed):
    check_greedy_sweep_against_reference(g, seed)


def test_greedy_sweep_matches_unpruned_reference_on_generated_graphs():
    # every root of the windmills, whose bounds need a search per root, of
    # random digraphs, where most roots reach every node, and of a digraph
    # whose roots reach every node but whose 9 edges let no tree span all 6
    graphs = [gen_fig3(k)[0] for k in range(1, 13)]
    graphs += [gen_random_sc(40, extra, seed=1) for extra in (0, 10, 40, 120)]
    graphs.append(Digraph(6, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 0), (3, 0), (4, 2),
                              (5, 1))))
    for g in graphs:
        for seed in range(3):
            check_greedy_sweep_against_reference(g, seed)


def check_span_bounds(g) -> int:
    """Every root's span bound, per build order, equals the searched
    formula of `span_bound_reference`; returns how many of them the hub
    shortcut gave without a search."""
    shortcuts = 0
    for rows, back in ((g.out_adj, g.in_adj), (g.in_adj, g.out_adj)):
        bound = astra._span_bounds(rows, back)
        for root in range(g.node_count):
            with mock.patch.object(astra, "bfs_tree", wraps=astra.bfs_tree) as search:
                assert bound(root) == span_bound_reference(rows, root)
            shortcuts += not search.called
    return shortcuts


@check
@given(st.integers(3, 12), st.data())
def test_span_bound_shortcut_equals_the_searched_bound(n, data):
    # dense graphs, where the row-longest node reaches every node and most
    # roots take the shortcut, as they do on most seeds of arb-sweep's graph
    extra = data.draw(st.integers(n * (n - 2) // 2, n * (n - 2)))
    check_span_bounds(gen_random_sc(n, extra, seed=data.draw(st.integers(0, 2**16))))


def test_span_bound_shortcut_fires_on_the_arb_sweep_graph():
    # random-sc 200 + 600, as the arb-sweep benchmark solves it: the shortcut
    # gives 397 of its 400 bounds at seed 0, 398 at seed 2 and none at seed 1;
    # its precondition holds at 143 of seeds 0-199
    assert check_span_bounds(gen_random_sc(200, 600, seed=0)) > 0


def test_span_bound_shortcut_fires_at_every_root_of_the_complete_digraph():
    g = Digraph(6, tuple((u, v) for u in range(6) for v in range(6) if u != v))
    assert check_span_bounds(g) == 2 * 6


@settings(check, max_examples=30)
@given(st.data())
def test_exact_pair_matches_labeling_oracle(data):
    g = data.draw(strongly_connected(min_nodes=4))
    root = data.draw(st.integers(0, g.node_count - 1))
    pair = exact_pair(g, root)
    check_pair(g, pair)
    best_min, out_size, in_size = best_pair_by_labeling(g.node_count, g.edges, root)
    assert (pair.min_size, len(pair.out_nodes) + len(pair.in_nodes)) == (
        best_min,
        out_size + in_size,
    )


@settings(check, max_examples=300)
@given(st.data())
def test_exact_pair_matches_the_unpruned_reference(data):
    # the labeling oracle pins only (min, sum): this pins the tie-break too
    g = data.draw(strongly_connected(max_nodes=7, max_edges=12))
    root = data.draw(st.integers(0, g.node_count - 1))
    pair = exact_pair(g, root)
    assert (sorted(pair.out_edges), sorted(pair.in_edges), pair.out_depths,
            pair.in_depths) == exact_pair_reference(g.edges, g.node_count, root)


def raises_value_error(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return True
    return False


@st.composite
def corrupted_pairs(draw):
    """(graph, the greedy or exact pair after up to three edits): an edge
    of either tree dropped, added, replaced or grafted (an edge into a
    spanned node added, its tail given one depth less if unspanned), or
    a depth entry shifted, dropped or added."""
    g = draw(strongly_connected())
    root = draw(st.integers(0, g.node_count - 1))
    pair = draw(st.sampled_from((greedy_pair, exact_pair)))(g, root)
    trees = {
        False: (set(pair.out_edges), dict(pair.out_depths)),
        True: (set(pair.in_edges), dict(pair.in_depths)),
    }
    edge, node = st.integers(0, g.edge_count - 1), st.integers(0, g.node_count - 1)
    depth = st.integers(-1, g.node_count)
    for _ in range(draw(st.integers(0, 3))):
        toward_root = draw(st.booleans())
        edges, depths = trees[toward_root]
        kind = draw(st.sampled_from(
            ("drop", "add", "replace", "graft", "shift", "undepth", "depth")))
        if kind in ("drop", "replace") and edges:
            edges.discard(draw(st.sampled_from(sorted(edges))))
        if kind in ("add", "replace") and g.edge_count:
            edges.add(draw(edge))
        if kind == "graft":
            arcs = [(ei, *(e[::-1] if toward_root else e)) for ei, e in enumerate(g.edges)]
            arcs = [arc for arc in arcs if arc[2] in depths]
            if arcs:
                ei, parent, child = draw(st.sampled_from(arcs))
                edges.add(ei)
                depths.setdefault(parent, depths[child] - 1)
        if kind in ("shift", "undepth") and depths:
            v = draw(st.sampled_from(sorted(depths)))
            if kind == "shift":
                depths[v] += draw(st.sampled_from((-2, -1, 1, 2)))
            else:
                del depths[v]
        if kind == "depth":
            depths[draw(node)] = draw(depth)
    (out_edges, out_depths), (in_edges, in_depths) = trees[False], trees[True]
    return g, ArborescencePair(pair.root, frozenset(out_edges), frozenset(in_edges),
                               out_depths, in_depths)


@settings(check, max_examples=400)
@given(corrupted_pairs())
def test_check_pair_agrees_with_the_per_node_walk(case):
    g, pair = case
    assert raises_value_error(check_pair, g, pair) == raises_value_error(
        check_pair_reference, g.edges, pair.root, pair.out_edges, pair.in_edges,
        pair.out_depths, pair.in_depths)


@check
@given(loop_free(), st.integers(0, 2**16))
def test_local_never_beats_exact(g, seed):
    local = solve_local(g, seed)
    assert local.best_total <= solve_exact(g).best_total
    assert total_reachability(g, local.best_schedule) == local.best_total


@check
@given(loop_free(max_edges=6))
def test_exact_matches_the_permutation_oracle(g):
    res = solve_exact(g)
    assert (res.best_total, res.best_schedule.order) == oracle_best(g)
    # the unpruned search evaluates one order per class: none skipped, none
    # repeated; the bound only skips classes, and never the first
    classes = commutation_classes(g)
    assert exact_search_reference(g)[2] == classes
    assert 1 <= res.explored <= classes


@check
@given(loop_free())
def test_exact_matches_the_unpruned_reference(g):
    res = solve_exact(g)
    assert (res.best_total, res.best_schedule.order) == exact_search_reference(g)[:2]


@check
@given(st.data())
def test_completion_bound_holds_for_every_completion(data):
    g = data.draw(loop_free(max_edges=6))
    order = data.draw(st.permutations(range(g.edge_count)))
    k = data.draw(st.integers(0, g.edge_count))
    prefix, rest = order[:k], order[k:]
    fired = _propagate([1 << v for v in range(g.node_count)], [g.edges[ei] for ei in prefix])
    bound = _completion_bound(fired, [g.edges[ei] for ei in rest])
    assert bound >= max(naive_total_for_schedule(g.node_count, g.edges, prefix + list(tail))
                        for tail in permutations(rest))


@check
@given(scheduled())
def test_swapping_commuting_edges_keeps_the_total(gs):
    # self-loops stay in: a loop fires as a no-op, so `dependent` calling
    # some of its pairs chaining is only conservative
    g, s = gs
    total = total_reachability(g, s)
    order = list(s.order)
    for j in range(len(order) - 1):
        if not dependent(g.edges[order[j]], g.edges[order[j + 1]]):
            swapped = order[:j] + [order[j + 1], order[j]] + order[j + 2 :]
            assert total_reachability(g, Schedule(tuple(swapped))) == total


# -- the one-scan parsers against the line-by-line ones -----------------------

_SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t "])
_PAD = st.sampled_from(["", " ", "\t", " \t"])
_NOISE_LINE = st.sampled_from(["", "  ", "\t", "# comment", "  # 1 2 3", "#", "#0 1"])


@st.composite
def rendered(draw, rows):
    """A file of token `rows`: in one example of two the canonical layout
    the writers emit (single spaces, LF, nothing else), otherwise with the
    noise every reader skips: comment and blank lines, CRLF, tabs,
    leading and trailing whitespace."""
    if draw(st.booleans()):
        return "".join(" ".join(row) + "\n" for row in rows)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in [*rows, None]:
        lines += draw(st.lists(_NOISE_LINE, max_size=2))
        if row is not None:
            lines.append(draw(_PAD) + draw(_SEPARATOR).join(row) + draw(_PAD))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


MUTATIONS = ("drop a token", "add a token", "non-integer", "endpoint out of range",
             "label of 0", "header count off by one", "# inside a line", "drop a line",
             "token form", "comma inside a line")
# forms that a C-level scanner of digit runs reads otherwise than int():
# int() takes the first three and "-0", and refuses more than 4,300 digits
_TOKEN_FORMS = ("007", "+1", "1_0", "1e3", "1.0", "-0", "true", "[1]", "1" * 4301)


@st.composite
def mutated(draw, rows, n, count=1):
    """`rows` with one of `MUTATIONS`; the result may still be valid.
    `rows[0][count]` is the count that the header mutation changes."""
    rows = [list(row) for row in rows]
    mutation = draw(st.sampled_from(MUTATIONS))
    # endpoints and labels sit after the header, where there is one
    first = 1 if mutation in ("endpoint out of range", "label of 0") and len(rows) > 1 else 0
    i = draw(st.integers(first, len(rows) - 1))
    row = rows[i]
    at = st.integers(0, len(row) - 1)
    if mutation == "drop a line":
        del rows[i]
    elif mutation == "drop a token":
        del row[draw(at)]
    elif mutation == "add a token":
        row.insert(draw(st.integers(0, len(row))), str(draw(st.integers(-1, n))))
    elif mutation == "non-integer":
        row[draw(at)] = draw(st.sampled_from(["x", "1.5", "0x1", "--2"]))
    elif mutation == "endpoint out of range":
        row[draw(st.integers(0, min(1, len(row) - 1)))] = draw(st.sampled_from([str(n), "-1"]))
    elif mutation == "label of 0":
        row[-1] = "0"
    elif mutation == "header count off by one":
        rows[0][count] = str(int(rows[0][count]) + draw(st.sampled_from([-1, 1])))
    elif mutation == "token form":
        row[draw(at)] = draw(st.sampled_from(_TOKEN_FORMS))
    elif mutation == "comma inside a line":
        j = draw(at)
        row[j] = draw(st.sampled_from([f"{row[j]},", f",{row[j]}", f"{row[j]},0"]))
    else:
        j = draw(at)
        row[j] = draw(st.sampled_from(["#", "#" + row[j], row[j] + "#"]))
    return rows


def outcome(parse, *args):
    """("ok", value) or ("error", message) of `parse(*args)`."""
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "error", str(exc)


def edge_rows(g, t=None):
    rows = [[str(g.node_count), str(g.edge_count)]]
    rows += [[str(a), str(b)] for a, b in g.edges]
    if t is not None:
        for row, label in zip(rows[1:], t.times):
            row.append(str(label))
    return rows


@check
@given(st.data(), temporalised(max_label=9), st.booleans())
def test_bulk_edge_table_matches_line_parser(data, gt, timed):
    g, t = gt
    t = t if timed else None
    text = data.draw(rendered(edge_rows(g, t)))
    got = _parse_edge_table(text, timed)
    assert got == _parse_edge_table_by_line(text, timed) == (g, t)
    # the checks of Digraph would keep the parsed edges as given
    assert Digraph(got[0].node_count, got[0].edges).edges is got[0].edges
    assert type(got[0].node_count) is int


@check_mutated
@given(st.data(), temporalised(max_label=9), st.booleans())
def test_bulk_edge_table_errors_match_line_parser(data, gt, timed):
    g, t = gt
    rows = data.draw(mutated(edge_rows(g, t if timed else None), g.node_count))
    text = data.draw(rendered(rows))
    assert outcome(_parse_edge_table, text, timed) == outcome(_parse_edge_table_by_line, text, timed)


@check
@given(st.data(), temporalised(max_label=3))
def test_a_graph_evaluates_alike_on_every_parse_path(data, gt):
    # the one-scan parse fills the endpoint array from its values; the line
    # reader (a comment line forces it) and the constructor build it on use
    g, t = gt
    text = format_digraph(g)
    parsed = parse_digraph(text), parse_digraph("# a comment\n" + text)
    built = Digraph(g.node_count, [list(edge) for edge in g.edges])
    assert "_endpoints" in vars(parsed[0]) and "_endpoints" not in vars(parsed[1])
    graphs = (*parsed, built)
    assert [h._endpoints for h in graphs] == [built._endpoints] * 3
    assert list(built._endpoints) == [v for edge in g.edges for v in edge]
    s = Schedule(tuple(data.draw(st.permutations(range(g.edge_count)))))
    for timing in (s, t):
        want = evaluate_schedule(g, timing)
        for h in graphs:
            got = evaluate_schedule(h, timing)
            assert (got.total, got.per_source_counts) == (want.total, want.per_source_counts)
            assert total_reachability(h, timing) == want.total
            assert reachability_counts(h, timing) == (want.total, want.per_source_counts)
    # the one-scan parse builds no edge tuple for the engine
    assert "edges" not in vars(parsed[0])


@check
@given(temporalised(max_label=3))
def test_every_parse_path_gives_one_digraph_by_edges_equality_hash_and_repr(gt):
    # the one-scan parses hold the endpoint array alone and build `edges`
    # from it on first use; the line reader and the constructor hold `edges`
    g, t = gt
    text, timed_text = format_digraph(g), format_temporal_graph(g, t)
    lean = parse_digraph(text), parse_temporal_graph(timed_text)[0]
    for h in lean:
        assert set(vars(h)) == {"node_count", "_endpoints"}
        assert h.edge_count == g.edge_count and "edges" not in vars(h)
        assert total_reachability(h, t) == total_reachability(g, t)
        assert "edges" not in vars(h)
    # pickled and copied before and after `edges` is built
    copies = [f(h) for h in lean for f in (pickle_round_trip, copy.copy, copy.deepcopy)]
    assert all("edges" not in vars(h) for h in copies)
    read = parse_digraph("# a comment\n" + text), parse_temporal_graph("#\n" + timed_text)[0]
    built = Digraph(g.node_count, [list(edge) for edge in g.edges])
    every = (*lean, *copies, *read, built)
    every += tuple(f(h) for h in every for f in (pickle_round_trip, copy.copy, copy.deepcopy))
    for h in every:
        assert type(h) is Digraph and h.node_count == g.node_count and h.edges == g.edges
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
        assert list(h._endpoints) == [v for edge in g.edges for v in edge]
    assert all(h.edges is vars(h)["edges"] for h in every)


def pickle_round_trip(value):
    return pickle.loads(pickle.dumps(value))


# labels on both sides of the C int and the 8-byte ranges, and few enough
# values that lists of them repeat labels
LABELS = st.one_of(st.integers(1, 4), st.integers(2**31 - 1, 2**31 + 1),
                   st.integers(2**63 - 1, 2**63 + 1))


@check
@given(st.one_of(st.lists(LABELS, max_size=12), st.lists(LABELS, max_size=12, unique=True)))
@example([])
@example([7])
@example([3] * 5)
@example([2**64, 5, 2**31, 1, 9])
def test_label_runs_are_the_stable_sort_and_the_counted_run_ends(labels):
    times = tuple(labels)
    order, ends = _label_runs(times)
    counts = Counter(times)
    assert order == sorted(range(len(times)), key=times.__getitem__)
    assert ends == list(accumulate(map(counts.__getitem__, sorted(counts))))
    assert Temporalisation(times).order == tuple(order)


@check
@given(st.data(), st.lists(st.text("abxyz_01#", min_size=1, max_size=4), max_size=8))
def test_noisy_roles_files(data, roles):
    text = data.draw(rendered([[str(i), role] for i, role in enumerate(roles)]))
    assert parse_roles(text) == tuple(roles)


def instance_files(inst):
    """The files `write_instance` writes for `inst` at prefix "inst", by
    path, and the token rows of its digraph and roles files."""
    texts = {}
    write_instance(inst, "inst", texts.__setitem__)
    rows = edge_rows(inst.digraph), [[str(i), role] for i, role in enumerate(inst.roles)]
    return texts, rows


@check
@given(st.data(), strict_3cnfs(max_vars=4, max_clauses=4), st.integers(1, 2), st.integers(1, 3))
def test_instance_files_load_whatever_their_layout(data, formula, K, M):
    inst = build_instance(formula, k_override=K, m_override=M)
    texts, rows = instance_files(inst)
    for path, file_rows in zip(instance_paths("inst"), rows):
        if data.draw(st.booleans()):
            texts[path] = data.draw(rendered(file_rows))
    assert load_instance("inst", texts.__getitem__) == inst


@check_mutated
@given(st.data(), strict_3cnfs(max_vars=4, max_clauses=4), st.integers(1, 2),
       st.integers(1, 3), st.sampled_from([0, 1]))
def test_tampered_instance_files_fail_as_the_parse_path_does(data, formula, K, M, which):
    # one tampered line in the digraph (which = 0) or the roles file, written
    # in the canonical layout so that the text proof is tried first
    inst = build_instance(formula, k_override=K, m_override=M)
    texts, rows = instance_files(inst)
    tampered = data.draw(mutated(rows[which], inst.digraph.node_count, count=1 - which))
    texts[instance_paths("inst")[which]] = "".join(" ".join(row) + "\n" for row in tampered)
    got = outcome(load_instance, "inst", texts.__getitem__)
    # accepted exactly when both files parse to the instance's graph and roles
    graph_text, roles_text, _ = texts.values()
    parsed = outcome(parse_digraph, graph_text), outcome(parse_roles, roles_text)
    assert (got == ("ok", inst)) == (parsed == (("ok", inst.digraph), ("ok", inst.roles)))
    # no text equals None, so every file goes through the parser
    with mock.patch.multiple(reduction, format_digraph=lambda g: None, format_roles=lambda r: None):
        assert got == outcome(load_instance, "inst", texts.__getitem__)


@st.composite
def relabelled(draw, f):
    """`f` with its clauses, the literals of each clause and its variables
    permuted, and some variables' polarities flipped: a strict 3-CNF of
    the same size, often a different one."""
    n = f.variable_count
    names = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    clauses = [draw(st.permutations(clause)) for clause in draw(st.permutations(f.clauses))]
    return CnfFormula(n, tuple(tuple((names[v], p != flips[v]) for v, p in c) for c in clauses))


@check
@given(st.data(), strict_3cnfs(max_vars=4, max_clauses=4), st.integers(1, 2), st.integers(1, 3))
def test_a_manifest_naming_another_formula_is_refused_after_one_rebuild(data, formula, K, M):
    # the files of `formula`, whose manifest names another formula of the same size
    n, m = formula.variable_count, formula.clause_count
    other = data.draw(st.one_of(relabelled(formula), strict_3cnfs(max_vars=n, max_clauses=m)))
    assume((other.variable_count, other.clause_count) == (n, m) and other != formula)
    texts, _ = instance_files(build_instance(formula, k_override=K, m_override=M))
    manifest_path = instance_paths("inst")[2]
    manifest = json.loads(texts[manifest_path])
    texts[manifest_path] = json.dumps({**manifest, "formula": format_dimacs(other)})
    builds = []

    def recorded(*args, **kwargs):
        builds.append((args, kwargs))
        return build_instance(*args, **kwargs)

    with mock.patch.object(reduction, "build_instance", recorded):
        got = outcome(load_instance, "inst", texts.__getitem__)
    assert got == ("error", "inst.digraph does not match its manifest parameters")
    assert builds == [((other,), {"k_override": K, "m_override": M})]


def timing_kind(timing):
    return ("schedule", timing.order) if isinstance(timing, Schedule) else ("times", timing.times)


@check_mutated
@given(st.data(), temporalised(max_label=9), st.sampled_from(["auto", "schedule", "times"]))
def test_timing_files_match_the_reference(data, gt, kind):
    g, t = gt
    m = g.edge_count
    values = data.draw(st.sampled_from([t.times, tuple(data.draw(st.permutations(range(m))))]))
    rows = [[str(v) for v in values]] if m else []
    if m and data.draw(st.booleans()):
        rows = data.draw(mutated(rows, m, count=0))
    text = data.draw(rendered(rows))
    got = outcome(parse_timing, text, m, kind)
    got = timing_kind(got[1]) if got[0] == "ok" else got
    assert got == timing_outcome(text, m, kind)
