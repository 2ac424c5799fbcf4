"""Hand-built inputs shared by the tests: reduction instances and value-type inputs."""

from __future__ import annotations

import json
import random
from functools import cached_property

from mret import graphs, reduction
from mret.cnf import CnfFormula, format_dimacs
from mret.graphs import Digraph
from mret.reduction import ReductionParams

# (x1 or x2 or x3) and (not x1 or x2 or x3) and (not x1 or not x2 or not x3)
EXAMPLE = CnfFormula(3, (
    ((0, True), (1, True), (2, True)),
    ((0, False), (1, True), (2, True)),
    ((0, False), (1, False), (2, False)),
))


class Index:
    """An integer that is not an int: it converts only through `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def planted_formula(seed: int, n: int, m: int) -> tuple[CnfFormula, tuple[bool, ...]]:
    """A seeded strict 3-CNF satisfied by a planted assignment."""
    rng = random.Random(seed)
    planted = tuple(rng.random() < 0.5 for _ in range(n))
    while True:
        clauses = []
        while len(clauses) < m:
            lits = tuple((v, rng.random() < 0.5) for v in rng.sample(range(n), 3))
            if any(planted[v] == positive for v, positive in lits):
                clauses.append(lits)
        if len({lit for clause in clauses for lit in clause}) == 2 * n:
            return CnfFormula(n, tuple(clauses)), planted


def oversized_instance_texts() -> tuple[str, str, str]:
    """Digraph, roles and manifest texts whose manifest claims M = 5*10^7
    while the digraph holds only the nine clause-entry edges of EXAMPLE."""
    K, M = 2, 50_000_000
    var_base = 4 + M
    clause_base = var_base + 4 * 3
    edges = [
        (clause_base + (2 + 2 * K) * j, var_base + 4 * v + (0 if positive else 2))
        for j, clause in enumerate(EXAMPLE.clauses)
        for v, positive in clause
    ]
    nodes = ReductionParams(3, 3, K, M).node_count
    graph = f"{nodes} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)
    manifest = {"n": 3, "m": 3, "K": K, "M": M, "formula": format_dimacs(EXAMPLE)}
    return graph, "", json.dumps(manifest)


def refuse_to_build(*args, **kwargs):
    raise AssertionError("build_instance called on an instance of the wrong size")


def refuse_to_parse(*args, **kwargs):
    raise AssertionError("an instance file was parsed")


def record_builds(monkeypatch) -> list[tuple[int | None, int | None]]:
    """Make `reduction` refuse to parse a digraph or roles file, and return
    the list to which each `reduction.build_instance` call appends its
    (K, M) overrides."""
    builds = []
    build = reduction.build_instance

    def recorded(f, k_override=None, m_override=None):
        builds.append((k_override, m_override))
        return build(f, k_override, m_override)

    monkeypatch.setattr(reduction, "build_instance", recorded)
    monkeypatch.setattr(reduction, "parse_digraph", refuse_to_parse)
    monkeypatch.setattr(reduction, "parse_roles", refuse_to_parse)
    return builds


def refuse_edge_tuples(monkeypatch) -> None:
    """Make every way of building a digraph's edge tuples raise
    AssertionError: the lazy `Digraph.edges`, the checked constructor, and
    `_trusted_digraph` given `edges`, by either module that calls it.  A
    digraph that already holds `edges` still reads them."""

    def refuse(*args, **kwargs):
        raise AssertionError("edge tuples built")

    def endpoints_only(node_count, edges=None, endpoints=None):
        if edges is not None:
            refuse()
        return trusted(node_count, endpoints=endpoints)

    trusted = graphs._trusted_digraph
    lazy = cached_property(refuse)
    lazy.__set_name__(Digraph, "edges")
    monkeypatch.setattr(Digraph, "edges", lazy)
    monkeypatch.setattr(Digraph, "__post_init__", refuse)
    for module in (graphs, reduction):
        monkeypatch.setattr(module, "_trusted_digraph", endpoints_only)
