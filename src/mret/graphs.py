"""Directed-graph data model, time assignments, and plain-text file formats.

A `Digraph` is an immutable directed graph whose edges keep the index
they had in the input: edge i is the i-th line of the file and is never
reordered.  Every other type in the package refers to edges through
these indices.  A digraph read from a file in the canonical layout, or
built as a hardness instance, holds them as one flat array of endpoints
and builds its tuple of (tail, head) pairs only when first asked for
it.  Time is attached to edges either as a `Temporalisation` (one
natural label per edge, ties allowed) or as a `Schedule` (a permutation
of the edge indices, i.e. the canonical all-distinct temporalisation).

File formats (UTF-8, LF line endings; writers emit the canonical form
with single spaces and no trailing whitespace):

* digraph file:        ``n m`` header, then m lines ``tail head``
* temporal-graph file: ``n m`` header, then m lines ``tail head time``
* schedule file:       one line of m whitespace-separated edge indices
* times file:          one line of m whitespace-separated labels >= 1
* roles file:          line i (from 0) is ``i role``, the name of node i

Lines starting with ``#`` are ignored on input.  All objects here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from array import array
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path

from .errors import ParseError, Record, ScaleLimitError, as_int

# nodes + edges of the largest instance built or generated: near the limit
# `reduce` takes about 2 s and 0.26 GB, and `certify`, which rebuilds the
# instance once, about 2 s and 0.28 GB
INSTANCE_SIZE_LIMIT = 4 * 10**6


def _exact(values, kind) -> bool:
    """Whether every item of `values` has type `kind` itself, not a subclass."""
    return set(map(type, values)) <= {kind}


class Digraph(Record):
    """Immutable digraph with stable, 0-based edge indices.

    Self-loops and parallel edges are representable (the file format
    allows them); solvers and the reduction reject self-loops at their
    own boundaries.  A digraph holds its edges as the `edges` tuple of
    (tail, head) pairs, as the `_endpoints` array, or both: a canonical
    parse, like an instance built by `reduction.build_instance`, stores
    only the array, and each is built from the other on first use and
    kept.  Equality, hashing and repr read `edges`.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = as_int(self.node_count, "node_count", least=0)
        object.__setattr__(self, "node_count", n)
        edges = self.edges
        # a tuple of exact-int pairs is kept as it is; anything else is rebuilt
        if not (type(edges) is tuple and _exact(edges, tuple) and set(map(len, edges)) <= {2}
                and _exact(ends := list(chain.from_iterable(edges)), int)):
            edges = tuple((as_int(a, "edge {} endpoint", i), as_int(b, "edge {} endpoint", i))
                          for i, (a, b) in enumerate(edges))
            object.__setattr__(self, "edges", edges)
            ends = list(chain.from_iterable(edges))
        if ends and (min(ends) < 0 or max(ends) >= n):
            for i, (a, b) in enumerate(edges):
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"edge {i} endpoint out of range: ({a}, {b}) with n={n}")

    def _edge_tuples(self) -> tuple[tuple[int, int], ...]:
        """`edges` of a digraph that holds only its endpoint array."""
        ends = iter(self._endpoints)
        return tuple(zip(ends, ends))

    @cached_property
    def edge_count(self) -> int:
        """The length of `edges`, or of the endpoint array over 2 for a
        digraph that holds only the array: neither is built for it."""
        edges = vars(self).get("edges")
        return len(self._endpoints) >> 1 if edges is None else len(edges)

    @cached_property
    def _endpoints(self) -> array:
        """The tail and head of every edge in index order, flat in one
        `array` of C ints; the canonical parse and `build_instance` store
        only this."""
        return array("i", chain.from_iterable(self.edges))

    @cached_property
    def out_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, the outgoing (head, edge_index) pairs in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for i, (a, b) in enumerate(self.edges):
            adj[a].append((b, i))
        return tuple(tuple(row) for row in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, the incoming (tail, edge_index) pairs in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for i, (a, b) in enumerate(self.edges):
            adj[b].append((a, i))
        return tuple(tuple(row) for row in adj)

    def self_loops(self) -> list[int]:
        """Indices of self-loop edges, in edge order."""
        return [i for i, (a, b) in enumerate(self.edges) if a == b]


# `edges` is a field, and a value given it in the class body would be its default,
# so the cached property that builds it on first use joins the class once the class
# is made: a digraph that holds `edges` shadows it.  A `__getattr__` would do as
# well, but it slows every attribute read of every digraph.
Digraph.edges = cached_property(Digraph._edge_tuples)
Digraph.edges.__set_name__(Digraph, "edges")


class Temporalisation(Record):
    """One natural time label (>= 1) per edge index; ties allowed."""

    times: tuple[int, ...]

    def __post_init__(self):
        times = self.times
        if not (type(times) is tuple and _exact(times, int)):
            times = tuple(as_int(t, "time label of edge {}", i) for i, t in enumerate(times))
            object.__setattr__(self, "times", times)
        if times and min(times) < 1:
            for i, t in enumerate(times):
                if t < 1:
                    raise ValueError(f"time label of edge {i} must be >= 1, got {t}")

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Edge indices stably sorted by time label, ties by edge index."""
        return tuple(_label_runs(self.times)[0])


def _label_runs(times) -> tuple[list[int], list[int]]:
    """The edge indices stably sorted by label, and the exclusive end in
    that order of each label's run, from one bucket pass over `times`."""
    runs = {t: [] for t in sorted(set(times))}
    for i, t in enumerate(times):
        runs[t].append(i)
    return list(chain.from_iterable(runs.values())), list(accumulate(map(len, runs.values())))


class Schedule(Record):
    """A permutation of edge indices: position in `order` is the edge's time."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = self.order
        if not (type(order) is tuple and _exact(order, int)):
            order = tuple(as_int(e, "order entry {}", i) for i, e in enumerate(order))
            object.__setattr__(self, "order", order)
        # m distinct integers in 0..m-1 are exactly a permutation of them
        if order and (min(order) != 0 or max(order) != len(order) - 1
                      or len(set(order)) != len(order)):
            raise ValueError("order is not a permutation of 0..m-1")


def check_instance_size(what: str, nodes: int, edges: int) -> None:
    """Refuse with ScaleLimitError a `what` of more than `INSTANCE_SIZE_LIMIT` nodes + edges."""
    if nodes + edges > INSTANCE_SIZE_LIMIT:
        raise ScaleLimitError(f"{what} infeasible at this scale: {nodes} nodes and "
                              f"{edges} edges exceed the limit of {INSTANCE_SIZE_LIMIT}")


def _data_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines with their 1-based line numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _ints(line: str, lineno: int, expect: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != expect:
        raise ParseError(f"{what}: expected {expect} fields, got {len(parts)}", lineno)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{what}: non-integer field in {line!r}", lineno) from None


_DIGITS = b"0123456789"
_SEPARATORS_TO_COMMAS = bytes.maketrans(b" \n", b",,")


def _canonical_values(text: str, head: bytes, row: bytes) -> list[int] | None:
    """The integers of `text`, in order, if it is canonical, as the writers
    here emit it: digit runs without leading zeros, each ended by one
    separator, the separators spelling `head`, then `row` any number of
    times, then one LF.  None for any other text.
    """
    data = text.encode()
    seps = data.translate(None, _DIGITS)
    rows = (len(seps) - len(head) - 1) // len(row)
    if seps != head + row * rows + b"\n":
        return None
    # The text is digits and separators alone.  Cut its last character, an
    # LF if canonical, and JSON reads each digit run as int() does, except
    # that it refuses a leading zero (and int() too more digits than its
    # limit) and an empty run: so there are as many values as separators
    # exactly when each separator ends a run and the last one ends the text.
    try:
        values = json.loads(b"[" + data[:-1].translate(_SEPARATORS_TO_COMMAS) + b"]")
    except ValueError:
        return None
    return values if len(values) == len(seps) else None


def _trusted_digraph(node_count: int, edges: tuple[tuple[int, int], ...] | None = None,
                     endpoints: array | None = None) -> Digraph:
    """A Digraph built without `Digraph.__post_init__`'s checks, for a caller
    that has established them: `node_count` is an exact int >= 0, and the
    edges are given as `edges`, a tuple of exact-int pairs, or as
    `endpoints`, an `array("i")` of 2m ends in edge order, each end in
    range(node_count)."""
    g = object.__new__(Digraph)
    vars(g)["node_count"] = node_count
    if edges is not None:
        vars(g)["edges"] = edges
    if endpoints is not None:
        vars(g)["_endpoints"] = endpoints
    return g


def _parse_edge_table(text: str, timed: bool) -> tuple[Digraph, Temporalisation | None]:
    """Shared core of the digraph and temporal-graph formats: the graph
    and, when `timed`, the time labels of its edge lines.

    A canonical file, as `format_digraph` and `format_temporal_graph`
    write it (digit runs, single spaces, LF line ends), is converted in
    one scan; its labels are cut from the value list, and its endpoint
    range is checked by one `max` over what is left, which becomes the
    digraph's `_endpoints`: no edge tuple is built.  Every other file,
    valid or not, such as one with comments, blank lines, tabs, CRLF or
    leading zeros, is read line by line by `_parse_edge_table_by_line`,
    with the same result; so is a canonical one that fails a check, so
    that the first bad line is named, and one whose ends outgrow a C int.
    """
    fields = 3 if timed else 2
    values = _canonical_values(text, b" ", b"\n" + b" " * (fields - 1))
    if values is not None and values[1] * fields == len(values) - 2:
        n = values[0]
        del values[:2]
        labels = values[2::3] if timed else ()
        if timed:
            del values[2::3]
        # digit runs are never negative: an end is bad above n - 1 or a C int, a label at 0
        if max(values, default=-1) < min(n, 1 << 31) and 0 not in labels:
            g = _trusted_digraph(n, endpoints=array("i", values))
            return g, Temporalisation(tuple(labels)) if timed else None
    return _parse_edge_table_by_line(text, timed)


def _parse_edge_table_by_line(text: str, timed: bool) -> tuple[Digraph, Temporalisation | None]:
    """`_parse_edge_table` one line at a time; raises a ParseError that
    names the first bad line."""
    what, fields = ("temporal edge", 3) if timed else ("edge", 2)
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"empty {'temporal-graph' if timed else 'digraph'} file")
    lineno, header = lines[0]
    n, m = _ints(header, lineno, 2, "header")
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", lineno)
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}", lineno)
    edges = []
    times = []
    for lineno, line in body:
        row = _ints(line, lineno, fields, what)
        a, b = row[0], row[1]
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"endpoint out of range: ({a}, {b}) with n={n}", lineno)
        if timed:
            if row[2] < 1:
                raise ParseError(f"time label must be >= 1, got {row[2]}", lineno)
            times.append(row[2])
        edges.append((a, b))
    return _trusted_digraph(n, tuple(edges)), Temporalisation(tuple(times)) if timed else None


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph file format; errors carry line numbers."""
    return _parse_edge_table(text, timed=False)[0]


def header_counts(text: str) -> tuple[int, int] | None:
    """The (node count, edge count) on the first line of a digraph file,
    read without splitting the edge lines; None unless that line holds
    two integers, so that only `parse_digraph` judges a malformed file."""
    end = text.find("\n")
    parts = text[: end if end >= 0 else len(text)].split()
    try:
        n, m = map(int, parts)
    except ValueError:  # not two fields, or a non-integer
        return None
    return n, m


# edges per piece of `format_digraph`'s text
_FORMAT_CHUNK = 2048
_FORMAT_LINES = "%d %d\n" * _FORMAT_CHUNK


def format_digraph(g: Digraph) -> str:
    """The canonical digraph file text of `g`, formatted `_FORMAT_CHUNK`
    edges at a time from `edges` if the digraph holds them and from
    `_endpoints` otherwise, so that neither the other form nor one tuple
    of all 2m ends is built."""
    m, edges = g.edge_count, vars(g).get("edges")
    if edges is None:
        ends = g._endpoints
        chunks = (tuple(ends[i:i + 2 * _FORMAT_CHUNK]) for i in range(0, 2 * m, 2 * _FORMAT_CHUNK))
    else:
        chunks = (tuple(chain.from_iterable(edges[i:i + _FORMAT_CHUNK]))
                  for i in range(0, m, _FORMAT_CHUNK))
    # "%d %d\n" is three characters per end
    body = (_FORMAT_LINES[:3 * len(chunk)] % chunk for chunk in chunks)
    return "".join(chain((f"{g.node_count} {m}\n",), body))


def parse_temporal_graph(text: str) -> tuple[Digraph, Temporalisation]:
    """Parse the temporal-graph file format (``tail head time`` lines)."""
    return _parse_edge_table(text, timed=True)


def format_temporal_graph(g: Digraph, t: Temporalisation) -> str:
    if len(t.times) != g.edge_count:
        raise ValueError("temporalisation length does not match edge count")
    rows = chain.from_iterable((a, b, lab) for (a, b), lab in zip(g.edges, t.times))
    return f"{g.node_count} {g.edge_count}\n" + "%d %d %d\n" * g.edge_count % tuple(rows)


def parse_roles(text: str) -> tuple[str, ...]:
    """Parse a roles file; a line without a role or out of id order is
    refused with its line number."""
    roles: list[str] = []
    for lineno, line in _data_lines(text):
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or parts[0] != str(len(roles)):
            raise ParseError(f"expected a '{len(roles)} <role>' line, got {line!r}", lineno)
        roles.append(parts[1])
    return tuple(roles)


def format_roles(roles: tuple[str, ...]) -> str:
    return "%d %s\n" * len(roles) % tuple(chain.from_iterable(enumerate(roles)))


def prefix_path(prefix: str | Path, suffix: str) -> Path:
    """`prefix` with `suffix` appended: ``out/`` + ``.roles`` is ``out.roles``."""
    prefix = Path(prefix)
    return prefix.with_suffix(prefix.suffix + suffix)


# kind -> (file name, name of one value, name of several)
_TIMING_WORDS = {
    "auto": ("timing", "value", "values"),
    "schedule": ("schedule", "edge index", "edge indices"),
    "times": ("times", "time label", "time labels"),
}


def parse_timing(text: str, edge_count: int, kind: str = "auto") -> Schedule | Temporalisation:
    """Parse a schedule or times file: one line of `edge_count` integers.

    A canonical file, as `format_schedule` writes it (digit runs, single
    spaces, one LF), is converted in one scan; every other file, such as
    one with comments, blank lines, tabs, CRLF or leading zeros, is read
    line by line, with the same result.  With ``kind="auto"`` the file
    is a schedule if its values are a permutation of 0..m-1 and a times
    file otherwise; valid times are >= 1, so a permutation can only be a
    schedule.
    """
    name, one, several = _TIMING_WORDS[kind]
    values = _canonical_values(text, b"", b" ")
    if values is not None and len(values) == edge_count:
        lineno = 1
    else:
        lines = _data_lines(text)
        if edge_count == 0 and not lines:
            return Temporalisation(()) if kind == "times" else Schedule(())
        if len(lines) != 1:
            raise ParseError(f"{name} file must have exactly one data line, found {len(lines)}")
        lineno, line = lines[0]
        try:
            values = list(map(int, line.split()))
        except ValueError:
            raise ParseError(f"non-integer {one}", lineno) from None
        if len(values) != edge_count:
            raise ParseError(f"expected {edge_count} {several}, got {len(values)}", lineno)
    values = tuple(values)
    if kind == "auto":
        try:
            return Schedule(values)
        except ValueError:  # not a permutation, so a times file
            kind = "times"
    try:
        return (Schedule if kind == "schedule" else Temporalisation)(values)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_schedule(text: str, edge_count: int) -> Schedule:
    """Parse a schedule file: one line of `edge_count` edge indices."""
    return parse_timing(text, edge_count, "schedule")


def format_schedule(s: Schedule) -> str:
    return " ".join(str(i) for i in s.order) + "\n"


def parse_times(text: str, edge_count: int) -> Temporalisation:
    """Parse a times file: one line of `edge_count` labels >= 1."""
    return parse_timing(text, edge_count, "times")


def bfs_tree(adj, sources, banned=frozenset()) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search over `adj` rows of (neighbour, edge index).

    Starts from the distinct `sources` and never crosses an edge in
    `banned`.  Returns (order, tree_edges, depth): the reached nodes in
    visit order, sources first; the edge that reached each later node of
    `order`; and per node its distance from the sources, -1 if unreached.
    """
    depth = [-1] * len(adj)
    order = list(sources)
    for s in order:
        depth[s] = 0
    tree_edges = []
    # the queue is `order` itself: the loop reaches the nodes appended to it
    for u in order:
        d = depth[u] + 1
        for v, ei in adj[u]:
            if depth[v] < 0 and ei not in banned:
                depth[v] = d
                tree_edges.append(ei)
                order.append(v)
    return order, tree_edges, depth


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node reaches every node in the static digraph.

    Linear time: node 0 must reach all nodes forwards and backwards.
    Every node of a strongly connected digraph on n >= 2 nodes has an
    out-edge, so fewer than n edges are refused before any per-node
    allocation.
    """
    n = g.node_count
    if n <= 1:
        return True
    return g.edge_count >= n and all(
        len(bfs_tree(adj, [0])[0]) == n for adj in (g.out_adj, g.in_adj))
