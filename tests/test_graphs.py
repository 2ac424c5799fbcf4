import gc
import re

import pytest

from instances import EXAMPLE, Index

from mret import graphs
from mret.astra import best_root, exact_pair, greedy_pair
from mret.cnf import CnfFormula
from mret.errors import ParseError
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import (
    Digraph,
    Schedule,
    Temporalisation,
    bfs_tree,
    format_digraph,
    format_schedule,
    format_temporal_graph,
    is_strongly_connected,
    parse_digraph,
    parse_schedule,
    parse_temporal_graph,
    parse_times,
)
from mret.reduction import ReductionParams, constructive_total
from mret.solvers import solve_arborescence, solve_exact, solve_local


def test_parse_two_cycle():
    g = parse_digraph("2 2\n0 1\n1 0")
    assert g.node_count == 2
    assert g.edges == ((0, 1), (1, 0))


def test_parse_path():
    g = parse_digraph("3 2\n0 1\n1 2")
    assert g.node_count == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_endpoint_out_of_range():
    with pytest.raises(ParseError, match="out of range") as exc:
        parse_digraph("2 1\n0 2")
    assert exc.value.line == 2


def test_parse_malformed_header():
    with pytest.raises(ParseError, match="header"):
        parse_digraph("2\n0 1")


def test_parse_count_mismatch():
    with pytest.raises(ParseError, match="edge lines"):
        parse_digraph("3 3\n0 1\n1 2")


def test_parse_comments_and_blanks_ignored():
    g = parse_digraph("# a comment\n3 2\n\n0 1\n# mid\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_non_integer_field():
    with pytest.raises(ParseError, match="non-integer"):
        parse_digraph("2 1\n0 x")


def test_digraph_roundtrip_canonical():
    g = parse_digraph("3 3\n0 1\n1 2\n2 0")
    text = format_digraph(g)
    assert text == "3 3\n0 1\n1 2\n2 0\n"
    assert parse_digraph(text) == g


def test_bulk_parse_leaves_the_collector_as_it_found_it(monkeypatch):
    # a parsed digraph builds its edge tuples from its endpoint array on first
    # use without touching the process-wide cyclic collector, which another
    # thread may have switched meanwhile
    switched = []
    for name in ("disable", "enable"):
        monkeypatch.setattr(gc, name, lambda name=name: switched.append(name))
    g = parse_digraph("3 3\n0 1\n1 2\n2 0\n")
    h = parse_temporal_graph("2 2\n0 1 1\n1 0 2\n")[0]
    assert "edges" not in vars(g) and "edges" not in vars(h)  # canonical files
    assert g.edges == ((0, 1), (1, 2), (2, 0)) and h.edges == ((0, 1), (1, 0))
    assert switched == []


def test_a_canonical_parse_builds_edge_tuples_only_on_demand(monkeypatch):
    lines = []  # every line-by-line read splits the text with `_data_lines`
    data_lines = graphs._data_lines
    monkeypatch.setattr(graphs, "_data_lines",
                        lambda text: lines.append(text) or data_lines(text))
    # labels above n are no endpoints: one `max` reads the ends alone
    g, t = parse_temporal_graph("2 3\n0 1 7\n1 0 9\n1 1 2\n")
    assert set(vars(g)) == {"node_count", "_endpoints"} and lines == []
    assert g.edge_count == 3 and t.times == (7, 9, 2) and "edges" not in vars(g)
    assert g.edges == ((0, 1), (1, 0), (1, 1)) and g.edges is vars(g)["edges"]
    assert g == Digraph(2, ((0, 1), (1, 0), (1, 1)))
    # ends beyond a C int: the line reader, which holds edge tuples
    n = 1 << 31
    huge = parse_digraph(f"{n + 1} 1\n{n} 0\n")
    assert len(lines) == 1 and set(vars(huge)) == {"node_count", "edges"}
    assert huge.edges == ((n, 0),) and huge.edge_count == 1
    assert parse_digraph(f"{n} 1\n{n - 1} 0\n").edges == ((n - 1, 0),) and len(lines) == 1


def test_canonical_files_are_read_in_one_scan_and_others_line_by_line(monkeypatch):
    g = gen_random_sc(30, 60, seed=3)
    m = g.edge_count
    s = Schedule(tuple(reversed(range(m))))
    t = Temporalisation(tuple(1 + i % 7 for i in range(m)))
    times = " ".join(map(str, t.times)) + "\n"
    lines = []  # every line-by-line read splits the text with `_data_lines`
    data_lines = graphs._data_lines
    monkeypatch.setattr(graphs, "_data_lines", lambda text: lines.append(text) or data_lines(text))
    assert parse_digraph(format_digraph(g)) == g
    assert parse_temporal_graph(format_temporal_graph(g, t)) == (g, t)
    assert parse_schedule(format_schedule(s), m) == s
    assert parse_times(times, m) == t
    assert lines == []
    # a comment, a blank line, a tab, CRLF or a leading zero: the same values
    for edit in (lambda text: "# c\n" + text, lambda text: text + "\n",
                 lambda text: text.replace(" ", "\t", 1), lambda text: text.replace("\n", "\r\n"),
                 lambda text: "0" + text):
        assert parse_digraph(edit(format_digraph(g))) == g
        assert parse_temporal_graph(edit(format_temporal_graph(g, t))) == (g, t)
        assert parse_schedule(edit(format_schedule(s)), m) == s
        assert parse_times(edit(times), m) == t
    assert len(lines) == 5 * 4


@pytest.mark.parametrize("parse, text, message", [
    (parse_digraph, "2 1\n2 0\n", "line 2: endpoint out of range: (2, 0) with n=2"),
    (parse_digraph, "2 1\n0 2\n", "line 2: endpoint out of range: (0, 2) with n=2"),
    (parse_digraph, "2 2\n0 1\n", "line 1: expected 2 edge lines, found 1"),
    (parse_digraph, "2 1\n0 1\n1 0\n", "line 1: expected 1 edge lines, found 2"),
    (parse_digraph, "2 1\n0 1\n10", "line 1: expected 1 edge lines, found 2"),
    (parse_temporal_graph, "2 1\n0 1 0\n", "line 2: time label must be >= 1, got 0"),
    (parse_temporal_graph, "2 1\n0 2 1\n", "line 2: endpoint out of range: (0, 2) with n=2"),
    (lambda text: parse_schedule(text, 3), "0 1\n", "line 1: expected 3 edge indices, got 2"),
    (lambda text: parse_schedule(text, 3), "2 0\n13",
     "schedule file must have exactly one data line, found 2"),
    (lambda text: parse_schedule(text, 2), "0 0\n", "line 1: order is not a permutation of 0..m-1"),
    (lambda text: parse_times(text, 2), "1 0\n", "line 1: time label of edge 1 must be >= 1, got 0"),
], ids=["tail", "head", "few lines", "more lines", "digits after the last LF", "label of 0",
        "temporal head", "few indices", "two lines", "not a permutation", "times label of 0"])
def test_files_in_the_canonical_layout_that_fail_a_check_are_named_by_line(parse, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_digraph_permits_self_loops_and_parallel_edges():
    g = parse_digraph("2 3\n0 0\n0 1\n0 1")
    assert g.self_loops() == [0]
    assert g.edges[1] == g.edges[2]


def test_digraph_rejects_bad_endpoint_at_construction():
    with pytest.raises(ValueError, match="out of range"):
        Digraph(2, ((0, 5),))
    with pytest.raises(ValueError, match="^node_count must be at least 0, got -1$"):
        Digraph(-1, ())


def test_digraph_keeps_exact_int_pairs_and_rebuilds_the_rest():
    edges = ((0, 1), (1, 0))
    assert Digraph(2, edges).edges is edges
    for given in ([(0, 1), (1, 0)], ((0, 1), [1, 0]), ((False, True), (1, 0)), ((Index(0), 1), (1, 0))):
        rebuilt = Digraph(2, given).edges
        assert rebuilt == edges and {type(v) for e in rebuilt for v in e} == {int}


@pytest.mark.parametrize("bad", [1.7, 0.0, "0", None],
                         ids=["float", "integral float", "str", "None"])
def test_value_types_refuse_what_is_not_an_integer(bad):
    # int() would truncate a float and parse a string; the value types refuse both
    tail = re.escape(f" is not an integer: {bad!r}") + "$"
    with pytest.raises(ValueError, match="^edge 1 endpoint" + tail):
        Digraph(3, ((0, 1), (2, bad)))
    with pytest.raises(ValueError, match="^edge 0 endpoint" + tail):
        Digraph(3, ((bad, 2),))
    with pytest.raises(ValueError, match="^time label of edge 1" + tail):
        Temporalisation((2, bad))
    with pytest.raises(ValueError, match="^order entry 0" + tail):
        Schedule((bad, 0))


def test_value_types_accept_bools_and_index_objects_as_ints():
    edges = Digraph(2, ((Index(0), True), (True, False))).edges
    times = Temporalisation((Index(2), True)).times
    order = Schedule((Index(1), False)).order
    assert (edges, times, order) == (((0, 1), (1, 0)), (2, 1), (1, 0))
    assert {type(v) for v in (*edges[0], *edges[1], *times, *order)} == {int}


C4 = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
POINT = Digraph(1, ())
SATISFYING = (False, True, False)  # of EXAMPLE

# per integer parameter: its name, its least value (None: no lower bound), the
# call with it set to x, and a value the call accepts; the call of a value
# type returns the value as stored
INTEGER_PARAMETERS = {
    "Digraph node_count": ("node_count", 0, lambda x: Digraph(x, ()).node_count, 1),
    "CnfFormula variable_count": ("variable_count", 1,
                                  lambda x: CnfFormula(x, EXAMPLE.clauses).variable_count, 3),
    "ReductionParams n": ("n", 1, lambda x: ReductionParams(x, 1, 1, 1).n, 1),
    "ReductionParams m": ("m", 1, lambda x: ReductionParams(1, x, 1, 1).m, 1),
    "ReductionParams K": ("K", 1, lambda x: ReductionParams(1, 1, x, 1).K, 1),
    "ReductionParams M": ("M", 1, lambda x: ReductionParams(1, 1, 1, x).M, 1),
    "official_for n": ("n", 1, lambda x: ReductionParams.official_for(x, 1).n, 1),
    "constructive_total K": ("K", 1, lambda x: constructive_total(EXAMPLE, SATISFYING, x, 1), 1),
    "constructive_total M": ("M", 1, lambda x: constructive_total(EXAMPLE, SATISFYING, 1, x), 1),
    "solve_exact limit": ("limit", 0, lambda x: solve_exact(Digraph(2, ((0, 1),)), limit=x), 1),
    "solve_local restarts": ("restarts", 1, lambda x: solve_local(C4, restarts=x), 1),
    "solve_local steps": ("steps", 0, lambda x: solve_local(C4, steps=x), 1),
    "solve_arborescence root": ("root", None, lambda x: solve_arborescence(C4, root=x), 1),
    "greedy_pair root": ("root", None, lambda x: greedy_pair(C4, x).root, 1),
    "exact_pair root": ("root", None, lambda x: exact_pair(C4, x).root, 1),
    "exact_pair limit": ("limit", 0, lambda x: exact_pair(POINT, 0, limit=x), 1),
    "best_root limit": ("limit", 0, lambda x: best_root(POINT, "exact", limit=x), 1),
    "gen_fig3 k": ("k", 1, gen_fig3, 1),
    "gen_random_sc n": ("n", 2, lambda x: gen_random_sc(x, 0), 5),
    "gen_random_sc extra_edges": ("extra_edges", None, lambda x: gen_random_sc(5, x), 1),
}
NONE_ALLOWED = {"solve_local steps", "solve_arborescence root"}  # no step limit, every root


@pytest.mark.parametrize("case", INTEGER_PARAMETERS)
def test_integer_parameters_refuse_non_integers_and_values_below_least(case):
    name, least, call, ok = INTEGER_PARAMETERS[case]
    for bad in (ok + 0.5, float(ok), str(ok), *([] if case in NONE_ALLOWED else [None])):
        with pytest.raises(ValueError, match=re.escape(f"{name} is not an integer: {bad!r}") + "$"):
            call(bad)
    if least is not None:
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {least - 1}$"):
            call(least - 1)
    want = call(ok)
    for given in (Index(ok), *([bool(ok)] if ok in (0, 1) else [])):
        got = call(given)
        assert got == want and type(got) is type(want)


def test_value_types_name_the_first_bad_value():
    with pytest.raises(ValueError, match=r"^edge 2 endpoint out of range: \(2, 0\) with n=2$"):
        Digraph(2, ((0, 1), (1, 0), (2, 0), (-1, 0)))
    with pytest.raises(ValueError, match="^time label of edge 1 must be >= 1, got 0$"):
        Temporalisation((3, 0, -1))


def test_schedule_permutation_check():
    order = (2, 0, 1)
    assert Schedule(order).order is order
    assert Schedule([2, 0, 1]).order == order
    for bad in ((0, 2, 2, 3), (1, 2, 3), (0, 1, 3), (-1, 0, 1)):
        with pytest.raises(ValueError, match="permutation"):
            Schedule(bad)


def test_adjacency_indexes_match_edge_order():
    g = Digraph(3, ((0, 1), (0, 2), (1, 2)))
    assert g.out_adj[0] == ((1, 0), (2, 1))
    assert g.in_adj[2] == ((0, 1), (1, 2))


def test_temporal_graph_roundtrip():
    text = "3 2\n0 1 5\n1 2 5\n"
    g, t = parse_temporal_graph(text)
    assert t.times == (5, 5)
    assert format_temporal_graph(g, t) == text
    with pytest.raises(ValueError, match="^temporalisation length does not match edge count$"):
        format_temporal_graph(g, Temporalisation((5,)))


def test_temporal_graph_rejects_zero_label():
    with pytest.raises(ParseError, match=">= 1"):
        parse_temporal_graph("2 1\n0 1 0")


def test_temporalisation_rejects_label_below_one():
    with pytest.raises(ValueError):
        Temporalisation((1, 0))


def test_schedule_must_be_permutation():
    with pytest.raises(ValueError, match="permutation"):
        Schedule((0, 0, 1))
    with pytest.raises(ValueError, match="permutation"):
        Schedule((1, 2))


def test_schedule_file_roundtrip():
    s = parse_schedule("2 0 1\n", 3)
    assert s.order == (2, 0, 1)
    assert format_schedule(s) == "2 0 1\n"


def test_schedule_file_wrong_length():
    with pytest.raises(ParseError, match="expected 3"):
        parse_schedule("0 1\n", 3)


def test_schedule_file_not_permutation():
    with pytest.raises(ParseError, match="permutation"):
        parse_schedule("0 0 1\n", 3)


def test_times_file():
    t = parse_times("3 1 2\n", 3)
    assert t.times == (3, 1, 2)
    with pytest.raises(ParseError):
        parse_times("3 1\n", 3)


def test_strongly_connected_examples():
    assert is_strongly_connected(parse_digraph("2 2\n0 1\n1 0"))
    assert not is_strongly_connected(parse_digraph("3 2\n0 1\n1 2"))
    assert is_strongly_connected(parse_digraph("1 0"))
    assert not is_strongly_connected(parse_digraph("2 0"))
    assert is_strongly_connected(parse_digraph("4 4\n0 1\n1 2\n2 3\n3 0"))


def test_too_few_edges_are_not_strongly_connected_without_adjacency():
    g = Digraph(3, ((0, 1), (1, 0)))
    assert not is_strongly_connected(g)
    assert "out_adj" not in vars(g) and "in_adj" not in vars(g)


def test_bfs_tree_sources_and_banned_edges():
    g = parse_digraph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert bfs_tree(g.out_adj, [0]) == ([0, 1, 2, 3], [0, 1, 2], [0, 1, 2, 3])
    assert bfs_tree(g.in_adj, [0]) == ([0, 3, 2, 1], [3, 2, 1], [0, 3, 2, 1])
    # two sources at depth 0; the banned edge 1 -> 2 is never crossed
    assert bfs_tree(g.out_adj, [0, 2], {1}) == ([0, 2, 1, 3], [0, 2], [0, 1, 0, 1])
    assert bfs_tree(g.out_adj, [1], {1}) == ([1], [], [-1, 0, -1, -1])
