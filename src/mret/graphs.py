"""Directed-graph data model, time assignments, and plain-text file formats.

A `Digraph` is an immutable directed graph whose edges keep the index
they had in the input: edge i is the i-th line of the file and is never
reordered.  Every other type in the package refers to edges through
these indices.  Time is attached to edges either as a `Temporalisation`
(one natural label per edge, ties allowed) or as a `Schedule` (a
permutation of the edge indices, i.e. the canonical all-distinct
temporalisation).

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

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import ParseError


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph with stable, 0-based edge indices.

    Self-loops and parallel edges are representable (the file format
    allows them); solvers and the reduction reject self-loops at their
    own boundaries.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node_count must be non-negative")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for i, (a, b) in enumerate(edges):
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise ValueError(
                    f"edge {i} endpoint out of range: ({a}, {b}) with n={self.node_count}"
                )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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


@dataclass(frozen=True)
class Temporalisation:
    """One natural time label (>= 1) per edge index; ties allowed."""

    times: tuple[int, ...]

    def __post_init__(self):
        times = tuple(int(t) for t in self.times)
        object.__setattr__(self, "times", times)
        for i, t in enumerate(times):
            if t < 1:
                raise ValueError(f"time label of edge {i} must be >= 1, got {t}")


@dataclass(frozen=True)
class Schedule:
    """A permutation of edge indices: position in `order` is the edge's time."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order is not a permutation of 0..m-1")


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


def _parse_edge_table(text: str, timed: bool) -> tuple[Digraph, list[int]]:
    """Shared core of the digraph and temporal-graph formats: the graph
    and, when `timed`, the time label of every edge line."""
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
    return Digraph(n, tuple(edges)), times


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph file format; errors carry line numbers."""
    return _parse_edge_table(text, timed=False)[0]


def format_digraph(g: Digraph) -> str:
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def parse_temporal_graph(text: str) -> tuple[Digraph, Temporalisation]:
    """Parse the temporal-graph file format (``tail head time`` lines)."""
    g, times = _parse_edge_table(text, timed=True)
    return g, Temporalisation(tuple(times))


def format_temporal_graph(g: Digraph, t: Temporalisation) -> str:
    if len(t.times) != g.edge_count:
        raise ValueError("temporalisation length does not match edge count")
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{a} {b} {lab}" for (a, b), lab in zip(g.edges, t.times))
    return "\n".join(lines) + "\n"


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
    return "".join(f"{i} {role}\n" for i, role in enumerate(roles))


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

    With ``kind="auto"`` the file is a schedule if its values are a
    permutation of 0..m-1 and a times file otherwise; valid times are
    >= 1, so a permutation can only be a schedule.
    """
    name, one, several = _TIMING_WORDS[kind]
    lines = _data_lines(text)
    if edge_count == 0 and not lines:
        return Temporalisation(()) if kind == "times" else Schedule(())
    if len(lines) != 1:
        raise ParseError(f"{name} file must have exactly one data line, found {len(lines)}")
    lineno, line = lines[0]
    try:
        values = [int(p) for p in line.split()]
    except ValueError:
        raise ParseError(f"non-integer {one}", lineno) from None
    if len(values) != edge_count:
        raise ParseError(f"expected {edge_count} {several}, got {len(values)}", lineno)
    if kind == "auto":
        kind = "schedule" if sorted(values) == list(range(edge_count)) else "times"
    try:
        return (Schedule if kind == "schedule" else Temporalisation)(tuple(values))
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
    """
    n = g.node_count
    return n <= 1 or all(len(bfs_tree(adj, [0])[0]) == n for adj in (g.out_adj, g.in_adj))
