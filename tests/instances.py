"""Hand-built reduction inputs shared by the reduction and CLI tests."""

from __future__ import annotations

import json

from mret.cnf import CnfFormula
from mret.reduction import ReductionParams

# (x1 or x2 or x3) and (not x1 or x2 or x3) and (not x1 or not x2 or not x3)
EXAMPLE = CnfFormula(3, (
    ((0, True), (1, True), (2, True)),
    ((0, False), (1, True), (2, True)),
    ((0, False), (1, False), (2, False)),
))


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
    return graph, "", json.dumps({"n": 3, "m": 3, "K": K, "M": M})


def refuse_to_build(*args, **kwargs):
    raise AssertionError("build_instance called on an instance of the wrong size")
