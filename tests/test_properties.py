"""Algebraic properties of the engine, the file formats, the hardness
instances and the arborescence-pair searches, by Hypothesis.

Evaluated graphs stay small (n <= 5, m <= 7) so the subset-enumeration
oracle remains cheap, and the arborescence-pair comparison stays at
n <= 6, m <= 9 so the 3^m labeling oracle does; self-loops and parallel
edges are allowed throughout, except where the solvers are compared,
since they refuse self-loops.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    best_pair_by_labeling,
    brute_force_satisfying_assignments,
    naive_reach_pairs,
)

from mret.astra import check_pair, exact_pair, greedy_pair, greedy_pairs
from mret.cnf import CnfFormula
from mret.graphs import (
    Digraph,
    Schedule,
    Temporalisation,
    format_digraph,
    format_schedule,
    format_temporal_graph,
    parse_digraph,
    parse_schedule,
    parse_temporal_graph,
    parse_times,
    parse_timing,
)
from mret.reachability import (
    evaluate_schedule,
    evaluate_temporalisation,
    schedule_from_temporalisation,
    total_reachability,
)
from mret.reduction import (
    build_instance,
    certify,
    load_instance,
    schedule_from_assignment,
    write_instance,
)
from mret.solvers import solve_exact, solve_local

# derandomized: the same examples on every run, so a failure reproduces
check = settings(deadline=None, derandomize=True)


@st.composite
def digraphs(draw, max_nodes=5, max_edges=7):
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=max_edges))
    return Digraph(n, tuple(edges))


@st.composite
def loop_free(draw):
    """A digraph without self-loops, which the solvers refuse."""
    g = draw(digraphs())
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
    rev = evaluate_temporalisation(reversed_graph(g), flipped)
    assert rev.total == evaluate_temporalisation(g, t).total


@check
@given(digraphs(), st.randoms(use_true_random=False))
def test_distinct_times_equal_the_schedule(g, rng):
    t = Temporalisation(tuple(rng.sample(range(1, 50), g.edge_count)))
    assert evaluate_temporalisation(g, t) == evaluate_schedule(
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
    res = evaluate_temporalisation(g, t)
    assert total_reachability(g, t) == res.total == sum(res.per_source_counts)


@check
@given(temporalised())
def test_engine_matches_oracle_with_ties(gt):
    g, t = gt
    pairs = naive_reach_pairs(g.node_count, g.edges, t.times)
    res = evaluate_temporalisation(g, t)
    assert res.total == len(pairs)
    assert {(u, v) for u in range(g.node_count) for v in res.targets_reached(u)} == pairs
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
@given(strongly_connected(max_nodes=8, max_edges=16), st.integers(0, 2**16))
def test_greedy_sweep_matches_single_roots(g, seed):
    roots = range(g.node_count)
    swept = list(greedy_pairs(g, roots, seed))
    assert swept == [greedy_pair(g, r, seed) for r in roots]
    for pair in swept:
        check_pair(g, pair)


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


@check
@given(loop_free(), st.integers(0, 2**16))
def test_local_never_beats_exact(g, seed):
    local = solve_local(g, seed)
    assert local.best_total <= solve_exact(g).best_total
    assert total_reachability(g, local.best_schedule) == local.best_total
