"""Algebraic properties of the engine, the file formats, the hardness
instances and the arborescence-pair searches, by Hypothesis.

Evaluated graphs stay small (n <= 5, m <= 7) so the subset-enumeration
oracle remains cheap; the exact-search comparison stays at m <= 6 so the
m! schedule oracle built on it does, and the arborescence-pair
comparison at n <= 6, m <= 9 so the 3^m labeling oracle does.
Self-loops and parallel edges are allowed throughout, except where the
solvers are compared, since they refuse self-loops.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    best_pair_by_labeling,
    brute_force_satisfying_assignments,
    check_pair_reference,
    commutation_classes,
    greedy_attempts,
    greedy_reference,
    naive_reach_pairs,
    oracle_best,
    span_bound_reference,
    timing_outcome,
)

from mret import astra
from mret.astra import check_pair, exact_pair, greedy_pair, greedy_pairs
from mret.cnf import CnfFormula
from mret.errors import ParseError
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import (
    Digraph,
    Schedule,
    Temporalisation,
    _parse_edge_table,
    _parse_edge_table_by_line,
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
from mret.solvers import dependent, solve_exact, solve_local

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
    swept = list(greedy_pairs(g, roots, seed))
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
    for root, pair in enumerate(greedy_pairs(g, range(g.node_count), seed)):
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
    return g, dataclasses.replace(
        pair, out_edges=frozenset(out_edges), in_edges=frozenset(in_edges),
        out_depths=out_depths, in_depths=in_depths,
    )


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
    # one evaluation per class: none skipped, none repeated
    assert res.explored == commutation_classes(g)


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


# -- the bulk parsers against the line-by-line ones ---------------------------

_SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t "])
_PAD = st.sampled_from(["", " ", "\t", " \t"])
_NOISE_LINE = st.sampled_from(["", "  ", "\t", "# comment", "  # 1 2 3", "#", "#0 1"])


@st.composite
def rendered(draw, rows):
    """A file of token `rows` with the noise every reader skips: comment
    and blank lines, CRLF, tabs, leading and trailing whitespace."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in [*rows, None]:
        lines += draw(st.lists(_NOISE_LINE, max_size=2))
        if row is not None:
            lines.append(draw(_PAD) + draw(_SEPARATOR).join(row) + draw(_PAD))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


MUTATIONS = ("drop a token", "add a token", "non-integer", "endpoint out of range",
             "label of 0", "header count off by one", "# inside a line", "drop a line")


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
    assert _parse_edge_table(text, timed) == _parse_edge_table_by_line(text, timed) == (g, t)


@check_mutated
@given(st.data(), temporalised(max_label=9), st.booleans())
def test_bulk_edge_table_errors_match_line_parser(data, gt, timed):
    g, t = gt
    rows = data.draw(mutated(edge_rows(g, t if timed else None), g.node_count))
    text = data.draw(rendered(rows))
    assert outcome(_parse_edge_table, text, timed) == outcome(_parse_edge_table_by_line, text, timed)


@check
@given(st.data(), st.lists(st.text("abxyz_01#", min_size=1, max_size=4), max_size=8))
def test_noisy_roles_files(data, roles):
    text = data.draw(rendered([[str(i), role] for i, role in enumerate(roles)]))
    assert parse_roles(text) == tuple(roles)


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
