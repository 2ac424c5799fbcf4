"""3-CNF to reachability-maximization hardness instances.

Given a strict 3-CNF formula, `build_instance` emits a strongly
connected digraph of variable, clause, and block gadgets, sized by two
parameters K and M, together with three exact integer bounds L, U1, U2.
A satisfying assignment converts into a schedule whose total
reachability reaches L (`schedule_from_assignment`, `certify`), while
for unsatisfiable formulas at official parameter sizes every schedule
stays below L; that direction rests on the bound arithmetic, checked by
`check_bounds`, not on search.

Node layout (`_layout` hands out ids in this order): u1,u2,u3,u4; b_1..b_M; then per
variable i: t_i^1,t_i^2,f_i^1,f_i^2; then per clause j: c_j^1,c_j^2,
d_j^1..d_j^K,e_j^1..e_j^K.

Edge emission order: variable 4-cycles; clause-literal attachments;
inter-clause (c_j^1,c_h^2) edges; d/e attachments; block edges.  Each
edge's schedule phase is recorded when the edge is emitted
(`ReductionInstance.phases`), so the schedule never re-derives it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

from .cnf import CnfFormula
from .errors import ParseError, ScaleLimitError, parse_file
from .graphs import (
    Digraph,
    Schedule,
    format_digraph,
    format_roles,
    header_counts,
    parse_digraph,
    parse_roles,
    prefix_path,
)
from .reachability import check_reach_budget, total_reachability

# nodes + edges of the largest instance built: at the limit `reduce` takes
# about 2.5 s and 0.6 GB, and certify's parse and rebuild about 1 GB
INSTANCE_SIZE_LIMIT = 4 * 10**6


@dataclass(frozen=True)
class ReductionParams:
    n: int
    m: int
    K: int
    M: int

    def __post_init__(self):
        for name in ("n", "m", "K", "M"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def h_size(self) -> int:
        return 2 * (self.K + 1) * self.m + 4 * self.n

    @property
    def official(self) -> bool:
        return self.K >= 91 * self.n * self.m and self.M > (self.h_size + 5) ** 2

    @classmethod
    def official_for(
        cls, n: int, m: int, K: int | None = None, M: int | None = None
    ) -> "ReductionParams":
        """Official sizes K = 91nm and M = (H_size+5)^2 + 1 for n variables
        and m clauses, except where K or M is given."""
        if K is None:
            K = 91 * n * m
        if M is None:
            M = (cls(n, m, K, 1).h_size + 5) ** 2 + 1
        return cls(n, m, K, M)

    @property
    def node_count(self) -> int:
        return self.M + self.h_size + 4

    @property
    def edge_count(self) -> int:
        n, m, K, M = self.n, self.m, self.K, self.M
        return 4 * n + 6 * m + m * (m - 1) + 4 * K * m + 2 * M + 2


def lower_bound(p: ReductionParams) -> int:
    """Total reachability guaranteed by a satisfying-assignment schedule."""
    n, m, K, M, H = p.n, p.m, p.K, p.M, p.h_size
    return (
        M * (M + H + 4)
        + (4 * M + 2 * H + 10)
        + K * m * (M + K * m + m)
        + m * (M + K * m + m)
        + 4 * n * (M + K)
        + m * (M + K)
        + M * K * m
    )


def upper_bound_one(p: ReductionParams) -> int:
    """Cap when (u3,u4) fires before (u1,u2): block nodes stop mixing."""
    M, H = p.M, p.h_size
    return M * (H + 4 + 1) + (H + 4) * (M + H + 4)


def upper_bound_two(p: ReductionParams) -> int:
    """Cap for unsatisfiable formulas when (u1,u2) fires first."""
    n, m, K, M, H = p.n, p.m, p.K, p.M, p.h_size
    return (
        M * (M + H + 4)
        + (4 * M + 3 * H + 15)
        + (K * m * (M + K * m + m + 17) - K * K)
        + m * (M + K * m + m + 16)
        + 4 * n * (M + K * m + m + 7)
        + m * (M + K + 4)
        + K * m * (M + 4)
    )


def check_bounds(p: ReductionParams) -> dict:
    """Exact integer bound report; official parameters must separate L."""
    L = lower_bound(p)
    u1 = upper_bound_one(p)
    u2 = upper_bound_two(p)
    if p.official and not (L > u1 and L > u2):
        raise RuntimeError(f"official parameters {p} do not separate L from U1 and U2")
    return {
        "L": L,
        "U1": u1,
        "U2": u2,
        "L_minus_U1": L - u1,
        "L_minus_U2": L - u2,
        "official": p.official,
    }


def _layout(p: ReductionParams):
    """The roles in layout order, each node's id handed out as its role is
    named, and the ids grouped: the hubs u1..u4, the b ids, one (t^1, t^2,
    f^1, f^2) per variable and one (c^1, c^2, d ids, e ids) per clause."""
    if p.node_count + p.edge_count > INSTANCE_SIZE_LIMIT:
        raise ScaleLimitError(f"reduction infeasible at this scale: {p.node_count} nodes and "
                              f"{p.edge_count} edges exceed the limit of {INSTANCE_SIZE_LIMIT}")
    roles: list[str] = []

    def name(names) -> range:
        start = len(roles)
        roles.extend(names)
        return range(start, len(roles))

    hubs = name(("u1", "u2", "u3", "u4"))
    b = name(f"b_{i}" for i in range(1, p.M + 1))
    gadgets = [name((f"t_{i}^1", f"t_{i}^2", f"f_{i}^1", f"f_{i}^2")) for i in range(1, p.n + 1)]
    clauses = [
        (*name((f"c_{j}^1", f"c_{j}^2")),
         name(f"d_{j}^{l}" for l in range(1, p.K + 1)),
         name(f"e_{j}^{l}" for l in range(1, p.K + 1)))
        for j in range(1, p.m + 1)
    ]
    return tuple(roles), hubs, b, gadgets, clauses


@dataclass(frozen=True)
class ReductionInstance:
    digraph: Digraph
    roles: tuple[str, ...]
    params: ReductionParams
    formula: CnfFormula
    bounds: tuple[int, int, int]  # (L, U1, U2)
    phases: tuple[tuple[range, ...], ...]
    """The eleven schedule phases, each as the runs of edge indices
    emitted for it, in edge order: (b,u1); (u1,u2); (u2,d); (d,c1); out
    of c1 (gadget entries and (c_j^1,c_h^2)); the variable gadgets, one
    run of four edges per variable; gadget exits into c2; (c2,e); (e,u3);
    (u3,u4); (u4,b).
    """


def build_instance(
    f: CnfFormula,
    k_override: int | None = None,
    m_override: int | None = None,
) -> ReductionInstance:
    params = ReductionParams.official_for(f.variable_count, f.clause_count, k_override, m_override)
    roles, (u1, u2, u3, u4), b, gadgets, clauses = _layout(params)
    edges: list[tuple[int, int]] = []
    phases: list[list[range]] = [[] for _ in range(11)]

    def emit(phase: int, pairs: list[tuple[int, int]]) -> None:
        start = len(edges)
        edges.extend(pairs)
        phases[phase].append(range(start, len(edges)))

    for t1, t2, f1, f2 in gadgets:
        emit(5, [(t1, f2), (f2, f1), (f1, t2), (t2, t1)])
    for (c1, c2, _, _), clause in zip(clauses, f.clauses):
        for v, positive in clause:
            t1, t2, f1, f2 = gadgets[v]
            into, out = (t1, t2) if positive else (f1, f2)
            emit(4, [(c1, into)])
            emit(6, [(out, c2)])
    for c1, own_c2, _, _ in clauses:
        emit(4, [(c1, c2) for _, c2, _, _ in clauses if c2 != own_c2])
    for c1, c2, d, e in clauses:
        emit(3, [(x, c1) for x in d])
        emit(7, [(c2, x) for x in e])
    emit(0, [(x, u1) for x in b])
    emit(1, [(u1, u2)])
    emit(2, [(u2, x) for _, _, d, _ in clauses for x in d])
    emit(8, [(x, u3) for _, _, _, e in clauses for x in e])
    emit(9, [(u3, u4)])
    emit(10, [(u4, x) for x in b])

    if (len(edges), len(roles)) != (params.edge_count, params.node_count):
        raise RuntimeError(f"built {len(edges)} edges and {len(roles)} nodes, {params} "
                           f"needs {params.edge_count} and {params.node_count}")
    g = Digraph(len(roles), tuple(edges))
    bounds = (lower_bound(params), upper_bound_one(params), upper_bound_two(params))
    return ReductionInstance(g, roles, params, f, bounds, tuple(map(tuple, phases)))


def variable_gadget_activation(times: Sequence[int]) -> tuple[bool, bool]:
    """Which of the pairs (t^1,t^2) and (f^1,f^2) a gadget order activates.

    `times` holds one distinct time per gadget edge, in the layout order
    (t^1,f^2), (f^2,f^1), (f^1,t^2), (t^2,t^1).  The t-pair needs the
    first three edges increasing; the f-pair needs edges 2, 3, 0
    increasing.  Both at once is impossible: edge 0 cannot be on each
    side of edge 2.
    """
    t_active = times[0] < times[1] < times[2]
    f_active = times[2] < times[3] < times[0]
    return t_active, f_active


def schedule_from_assignment(
    inst: ReductionInstance, assignment: Sequence[bool]
) -> Schedule:
    """The constructive schedule whose total reaches the L bound.

    Eleven phases: block edges feed u1->u2, then d-nodes, then the
    clause entries; each variable gadget fires in the rotation picked by
    its truth value; then the clause exits, e-nodes, u3->u4, and back to
    the block.  Within a phase, edge-index order.
    """
    if not inst.formula.satisfies(assignment):
        raise ValueError("assignment does not satisfy the formula")
    phases = list(inst.phases)
    # true activates the t-pair, false the f-pair (variable_gadget_activation)
    phases[5] = [run if value else chain(run[2:], run[:2])
                 for run, value in zip(phases[5], assignment)]
    return Schedule(tuple(i for phase in phases for run in phase for i in run))


def certify(inst: ReductionInstance, s: Schedule) -> dict:
    """Engine-evaluated total versus the instance's L bound."""
    total = total_reachability(inst.digraph, s)
    return {"total": total, "L": inst.bounds[0], "meets_L": total >= inst.bounds[0]}


def instance_manifest(inst: ReductionInstance) -> dict:
    """Sizes and bounds of an instance; the bounds as decimal strings."""
    p = inst.params
    return {
        "n": p.n,
        "m": p.m,
        "K": p.K,
        "M": p.M,
        "H_size": p.h_size,
        "node_count": p.node_count,
        "edge_count": p.edge_count,
        "L": str(inst.bounds[0]),
        "U1": str(inst.bounds[1]),
        "U2": str(inst.bounds[2]),
    }


def instance_paths(prefix: str | Path) -> list[Path]:
    """The digraph, roles and manifest file paths of an instance prefix."""
    return [prefix_path(prefix, s) for s in (".digraph", ".roles", ".manifest.json")]


_read = partial(Path.read_text, encoding="utf-8")
_write = partial(Path.write_text, encoding="utf-8")


def write_instance(inst: ReductionInstance, prefix: str | Path, write=_write) -> list[Path]:
    """Write <prefix>.digraph, <prefix>.roles, <prefix>.manifest.json
    through `write(path, text)`."""
    graph_path, roles_path, manifest_path = paths = instance_paths(prefix)
    write(graph_path, format_digraph(inst.digraph))
    write(roles_path, format_roles(inst.roles))
    write(manifest_path, json.dumps(instance_manifest(inst), indent=2) + "\n")
    return paths


def load_instance(prefix: str | Path, read=_read) -> ReductionInstance:
    """Rebuild an instance from its files and verify their consistency.

    `read(path)` gives the text of each file; all three are read, in
    `instance_paths` order, before the digraph is parsed.  An instance
    too large to evaluate (`check_reach_budget` on the manifest's node
    count) is refused with ScaleLimitError before the digraph is parsed,
    unless the digraph's header line already contradicts the manifest.
    The digraph's node and edge counts must match the manifest's
    parameters before anything is rebuilt.  The formula is then
    recovered from the clause-entry edges, the instance is rebuilt from
    scratch, and the stored graph, roles and manifest must match the
    rebuild exactly.
    """
    graph_path, roles_path, manifest_path = instance_paths(prefix)
    # str() only names decode errors; the roles are parsed after the
    # rebuild (parsing them first cost 1 MB peak RSS)
    graph_text = parse_file(str, read, graph_path)
    roles_text = parse_file(str, read, roles_path)
    try:
        manifest = json.loads(read(manifest_path))
        params = ReductionParams(*(int(manifest[k]) for k in ("n", "m", "K", "M")))
    except (KeyError, TypeError, ValueError) as exc:  # incl. json and decode errors
        raise ParseError(f"bad manifest {manifest_path}: {exc}") from None
    counts = params.node_count, params.edge_count
    if header_counts(graph_text) not in (None, counts):
        raise ParseError(f"{graph_path} does not match its manifest parameters")
    check_reach_budget(params.node_count)
    g = parse_file(parse_digraph, lambda _: graph_text, graph_path)
    if (g.node_count, g.edge_count) != counts:
        raise ParseError(f"{graph_path} does not match its manifest parameters")
    # the clause entries, where build_instance emits them, each followed by its exit;
    # an entry into t^1 (gadget id 0) is a positive literal, into f^1 (id 2) a negative one
    n, m = params.n, params.m
    literal = {ids[k]: (v, k == 0) for v, ids in enumerate(_layout(params)[3]) for k in (0, 2)}
    entries = [literal.get(b) for _, b in g.edges[4 * n : 4 * n + 6 * m : 2]]
    if None in entries:
        raise ParseError(f"{graph_path} does not match its manifest parameters")
    try:
        formula = CnfFormula(n, tuple(tuple(entries[i : i + 3]) for i in range(0, 3 * m, 3)))
    except ValueError as exc:
        raise ParseError(f"instance files do not encode a valid formula: {exc}") from None
    rebuilt = build_instance(formula, k_override=params.K, m_override=params.M)
    if rebuilt.digraph != g:
        raise ParseError(f"{graph_path} does not match its manifest parameters")
    if parse_file(parse_roles, lambda _: roles_text, roles_path) != rebuilt.roles:
        raise ParseError(f"{roles_path} does not match the rebuilt layout")
    if manifest != instance_manifest(rebuilt):
        raise ParseError(f"{manifest_path} does not match the rebuilt instance")
    return rebuilt
