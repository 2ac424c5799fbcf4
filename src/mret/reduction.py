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

Twin classes: the M nodes b_i are twins, and so are the K nodes d_j^l
and the K nodes e_j^l of each clause j.  Each class attaches through
one group of edges into it and one out of it, such as all (u4, b_i) and
all (b_i, u1); every group sits in one phase, and no two of its edges
chain.  The constructive schedule fires each group as one block, so
twins receive the same sets and keep equal reach sets, up to each twin
itself.  The instance at K = M = 1 is then exactly the class graph, its
constructive order is the class-level order, and `constructive_total`
computes the total at any K and M from it: one pass over a few hundred
class edges instead of n^2 reach bits.  A given schedule need not fire
the groups as blocks, so `certify` runs the engine on it.  The instance
manifest names the formula, so `load_instance` rebuilds from it.
"""

from __future__ import annotations

import json
from array import array
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

from .cnf import CnfFormula, format_dimacs, parse_dimacs
from .errors import ParseError, Record, as_int, parse_file
from .graphs import (
    Digraph,
    Schedule,
    _trusted_digraph,
    check_instance_size,
    format_digraph,
    format_roles,
    header_counts,
    parse_digraph,
    parse_roles,
    prefix_path,
)
from .reachability import _propagate, check_eval_work, total_reachability


class ReductionParams(Record):
    n: int
    m: int
    K: int
    M: int

    def __post_init__(self):
        for name in ("n", "m", "K", "M"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, least=1))

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
        p = cls(n, m, 1, 1)
        p = cls(p.n, p.m, 91 * p.n * p.m if K is None else K, 1)
        return cls(p.n, p.m, p.K, (p.h_size + 5) ** 2 + 1 if M is None else M)

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
    check_instance_size("reduction", p.node_count, p.edge_count)
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


class ReductionInstance(Record):
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
    ends = array("i")  # the tail and head of every edge, flat in emission order
    phases: list[list[range]] = [[] for _ in range(11)]

    def emit(phase: int, tails, heads) -> None:
        """Append the edges (tails[i], heads[i]) as one run of `phase`; a
        lone int on one side is that node in every edge."""
        count = len(heads) if isinstance(tails, int) else len(tails)
        block = array("i", [0]) * (2 * count)
        for side, nodes in enumerate((tails, heads)):
            column = array("i", [nodes]) * count if isinstance(nodes, int) else array("i", nodes)
            block[side::2] = column
        start = len(ends) >> 1
        ends.extend(block)
        phases[phase].append(range(start, start + count))

    for t1, t2, f1, f2 in gadgets:
        emit(5, (t1, f2, f1, t2), (f2, f1, t2, t1))
    for (c1, c2, _, _), clause in zip(clauses, f.clauses):
        for v, positive in clause:
            t1, t2, f1, f2 = gadgets[v]
            into, out = (t1, t2) if positive else (f1, f2)
            emit(4, c1, (into,))
            emit(6, out, (c2,))
    for c1, own_c2, _, _ in clauses:
        emit(4, c1, [c2 for _, c2, _, _ in clauses if c2 != own_c2])
    for c1, c2, d, e in clauses:
        emit(3, d, c1)
        emit(7, c2, e)
    b = array("i", b)  # both block groups read it; an array copies faster than a range
    emit(0, b, u1)
    emit(1, u1, (u2,))
    emit(2, u2, [x for _, _, d, _ in clauses for x in d])
    emit(8, [x for _, _, _, e in clauses for x in e], u3)
    emit(9, u3, (u4,))
    emit(10, u4, b)

    edge_count = len(ends) >> 1
    if (edge_count, len(roles)) != (params.edge_count, params.node_count):
        raise RuntimeError(f"built {edge_count} edges and {len(roles)} nodes, {params} "
                           f"needs {params.edge_count} and {params.node_count}")
    # every end is an id that `_layout` handed out, so the checks of Digraph hold
    g = _trusted_digraph(len(roles), endpoints=ends)
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


def constructive_total(
    f: CnfFormula, assignment: Sequence[bool], K: int, M: int
) -> int:
    """Total reachability of `schedule_from_assignment` on
    `build_instance(f, K, M)`, evaluated on its twin classes.

    The class graph is the instance at K = M = 1, fired in its own
    constructive order.  The classes b, d_j and e_j start with an empty
    reach set, and each has a virtual source whose edge fires right
    after every class edge that leaves the class; its bit stands for all
    of the class's members.  A member of class C reaches the weighted
    count of reach[C], plus itself unless C's virtual bit is in it.
    Raises ValueError if the assignment does not satisfy `f`.
    """
    p = ReductionParams(f.variable_count, f.clause_count, K, M)
    classes = build_instance(f, k_override=1, m_override=1)
    order = schedule_from_assignment(classes, assignment).order
    _, _, (b,), _, clauses = _layout(classes.params)
    n = classes.digraph.node_count
    # the multi-member classes, whose virtual sources take bits n, n + 1, ... in
    # this order: b's (weight M), then every d_j's and e_j's (weight K)
    twins = [b, *(x for _, _, d, e in clauses for x in (*d, *e))]
    virtual = {c: n + i for i, c in enumerate(twins)}
    ends, pairs = classes.digraph._endpoints, []
    for ei in order:
        tail, head = edge = ends[2 * ei], ends[2 * ei + 1]
        pairs.append(edge)
        if tail in virtual:
            pairs.append((virtual[tail], head))
    reach = [0 if v in virtual else 1 << v for v in range(n + len(virtual))]
    reach = _propagate(reach, pairs)
    singles = (1 << n) - 1  # a class's own bit never enters any reach set

    def member_count(v: int) -> int:
        r = reach[v]
        own = v in virtual and not r >> virtual[v] & 1
        return (r & singles).bit_count() + p.M * (r >> n & 1) + p.K * (r >> n + 1).bit_count() + own

    weight = dict.fromkeys(twins, p.K) | {b: p.M}
    return sum(weight.get(v, 1) * member_count(v) for v in range(n))


def certify(inst: ReductionInstance, witness: Schedule | Sequence[bool]) -> dict:
    """Total reachability of a schedule, or of an assignment's
    constructive schedule, versus the instance's L bound.

    A `Schedule` runs the bitset engine over the whole instance.  An
    assignment is evaluated by `constructive_total` on the twin classes,
    without building its schedule; it raises ValueError if the
    assignment does not satisfy the instance's formula.
    """
    if isinstance(witness, Schedule):
        total = total_reachability(inst.digraph, witness)
    else:
        p = inst.params
        total = constructive_total(inst.formula, witness, p.K, p.M)
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
    """Write <prefix>.digraph, <prefix>.roles and <prefix>.manifest.json, which
    adds the DIMACS formula to `instance_manifest`, through `write(path, text)`."""
    graph_path, roles_path, manifest_path = paths = instance_paths(prefix)
    write(graph_path, format_digraph(inst.digraph))
    write(roles_path, format_roles(inst.roles))
    manifest = {**instance_manifest(inst), "formula": format_dimacs(inst.formula)}
    write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return paths


def load_instance(prefix: str | Path, read=_read, evaluate: bool = False) -> ReductionInstance:
    """Rebuild an instance once from its manifest and check its files.

    `read(path)` gives each file's text; all three are read first, in
    `instance_paths` order.  Refused in this order: a manifest whose n, m,
    K or M is not an int (a boolean included) or without the DIMACS text
    of a strict 3-CNF of its n variables and m clauses; a digraph header
    that contradicts it; with ScaleLimitError an instance too large to
    evaluate (only with `evaluate`: `check_eval_work`) or to rebuild
    (`check_instance_size`); a digraph of other than m + 1 lines whose
    parsed counts differ, before the rebuild; digraph and roles files
    whose text is neither the rebuild's canonical text nor parses to it; a
    manifest that is not the rebuild's.
    """
    graph_path, roles_path, manifest_path = instance_paths(prefix)
    # str() only names decode errors
    graph_text = parse_file(str, read, graph_path)
    roles_text = parse_file(str, read, roles_path)
    try:
        manifest = json.loads(read(manifest_path))
        for key in ("n", "m", "K", "M"):  # as_int takes a bool, and True == 1
            if type(manifest[key]) is bool:
                raise TypeError(f"{key} is not an integer: {json.dumps(manifest[key])}")
        params = ReductionParams(*(manifest[k] for k in ("n", "m", "K", "M")))
        if not isinstance(dimacs := manifest["formula"], str):
            raise TypeError(f"formula is not DIMACS text: {dimacs!r}")
        formula = parse_dimacs(dimacs)
        if (formula.variable_count, formula.clause_count) != (params.n, params.m):
            raise ValueError(f"formula is not of {params.n} variables and {params.m} clauses")
    except (KeyError, TypeError, ValueError) as exc:  # incl. json, decode and DIMACS errors
        raise ParseError(f"bad manifest {manifest_path}: {exc}") from None
    counts = params.node_count, params.edge_count
    header = header_counts(graph_text)
    if header not in (None, counts):
        raise ParseError(f"{graph_path} does not match its manifest parameters")
    if evaluate:
        check_eval_work(*counts)
    check_instance_size("reduction", *counts)
    parse_graph = partial(parse_file, parse_digraph, lambda _: graph_text, graph_path)
    g = None  # the parsed digraph, once parsed
    if not (header and graph_text.endswith("\n")
            and graph_text.count("\n") == params.edge_count + 1):
        g = parse_graph()
        if (g.node_count, g.edge_count) != counts:
            raise ParseError(f"{graph_path} does not match its manifest parameters")
    rebuilt = build_instance(formula, k_override=params.K, m_override=params.M)
    if graph_text != format_digraph(rebuilt.digraph) and (g or parse_graph()) != rebuilt.digraph:
        raise ParseError(f"{graph_path} does not match its manifest parameters")
    if (roles_text != format_roles(rebuilt.roles)
            and parse_file(parse_roles, lambda _: roles_text, roles_path) != rebuilt.roles):
        raise ParseError(f"{roles_path} does not match the rebuilt layout")
    if manifest != {**instance_manifest(rebuilt), "formula": dimacs}:
        raise ParseError(f"{manifest_path} does not match the rebuilt instance")
    return rebuilt
