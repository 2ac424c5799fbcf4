"""Hardness-instance construction, bounds, and schedules."""

import hashlib
import json
import random
import re
from itertools import permutations, product

import pytest

from instances import EXAMPLE, oversized_instance_texts, refuse_to_build
from oracle import brute_force_satisfying_assignments

from mret import reduction
from mret.cnf import CnfFormula
from mret.errors import ParseError
from mret.graphs import (
    Digraph,
    Schedule,
    format_digraph,
    format_schedule,
    is_strongly_connected,
)
from mret.reachability import evaluate_schedule
from mret.reduction import (
    ReductionParams,
    build_instance,
    certify,
    check_bounds,
    instance_paths,
    load_instance,
    lower_bound,
    schedule_from_assignment,
    upper_bound_one,
    upper_bound_two,
    variable_gadget_activation,
    write_instance,
)

def test_params_arithmetic():
    p = ReductionParams(3, 3, 2, 5)
    assert p.h_size == 2 * 3 * 3 + 4 * 3 == 30
    assert p.node_count == 39
    assert p.edge_count == 12 + 18 + 6 + 24 + 10 + 2 == 72
    assert not p.official


def test_official_parameters():
    p = ReductionParams.official_for(3, 3)
    assert p.K == 91 * 9 == 819
    assert p.h_size == 2 * 820 * 3 + 12 == 4932
    assert p.M == 4937**2 + 1 == 24_373_970
    assert p.official
    # one below the strict threshold is no longer official
    assert not ReductionParams(3, 3, p.K, p.M - 1).official
    assert not ReductionParams(3, 3, p.K - 1, p.M).official


def test_params_validation():
    for bad in [dict(n=0, m=3, K=1, M=1), dict(n=3, m=3, K=0, M=1),
                dict(n=3, m=3, K=1, M=0)]:
        with pytest.raises(ValueError):
            ReductionParams(**bad)


def test_lower_bound_value():
    # term by term at (n,m,K,M)=(3,3,2,5), H=30:
    # 5*39 + 90 + 6*14 + 3*14 + 12*7 + 3*7 + 30 = 546
    assert lower_bound(ReductionParams(3, 3, 2, 5)) == 546


def test_check_bounds_official_grid():
    for n in range(3, 7):
        for m in range(3, 9):
            rep = check_bounds(ReductionParams.official_for(n, m))
            assert rep["official"]
            assert rep["L_minus_U1"] > 0
            assert rep["L_minus_U2"] > 0
            assert rep["L"] == rep["U1"] + rep["L_minus_U1"]


def test_check_bounds_raises_when_official_bounds_do_not_separate(monkeypatch):
    monkeypatch.setattr(reduction, "upper_bound_one", lambda p: lower_bound(p) + 1)
    with pytest.raises(RuntimeError, match="do not separate"):
        check_bounds(ReductionParams.official_for(3, 3))
    # non-official parameters only report the arithmetic
    assert check_bounds(ReductionParams(3, 3, 2, 5))["L_minus_U1"] == -1


def test_official_for_overrides():
    official = ReductionParams.official_for(3, 3)
    assert ReductionParams.official_for(3, 3, M=7) == ReductionParams(3, 3, official.K, 7)
    # M follows an overridden K
    assert ReductionParams.official_for(3, 3, K=2) == ReductionParams(3, 3, 2, 35 ** 2 + 1)
    with pytest.raises(ValueError, match="K must be at least 1"):
        ReductionParams.official_for(3, 3, K=0)


def test_check_bounds_small_overrides():
    rep = check_bounds(ReductionParams(3, 3, 2, 5))
    assert not rep["official"]
    assert rep["L"] == 546
    assert rep["U1"] == upper_bound_one(ReductionParams(3, 3, 2, 5))
    assert rep["U2"] == upper_bound_two(ReductionParams(3, 3, 2, 5))
    # small parameters do not separate the bounds; the report just
    # states the arithmetic
    assert rep["L_minus_U1"] < 0


def test_build_counts_and_connectivity():
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    g = inst.digraph
    assert g.node_count == 39
    assert g.edge_count == 72
    assert is_strongly_connected(g)
    assert inst.bounds == (546, upper_bound_one(inst.params), upper_bound_two(inst.params))


def test_build_edge_sections():
    # classify every edge by endpoint ids and audit the section sizes
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    p = inst.params
    n, m, K, M = p.n, p.m, p.K, p.M
    var_lo, var_hi = 4 + M, 4 + M + 4 * n
    stride = 2 + 2 * K
    base = var_hi

    def kind(v):
        if v == 0: return "u1"
        if v == 1: return "u2"
        if v == 2: return "u3"
        if v == 3: return "u4"
        if v < var_lo: return "b"
        if v < var_hi: return "var"
        off = (v - base) % stride
        if off == 0: return "c1"
        if off == 1: return "c2"
        return "d" if off < 2 + K else "e"

    from collections import Counter
    sections = Counter((kind(a), kind(b)) for a, b in inst.digraph.edges)
    assert sections[("var", "var")] == 4 * n
    assert sections[("c1", "var")] == 3 * m
    assert sections[("var", "c2")] == 3 * m
    assert sections[("c1", "c2")] == m * (m - 1)
    assert sections[("d", "c1")] == K * m
    assert sections[("c2", "e")] == K * m
    assert sections[("b", "u1")] == M
    assert sections[("u2", "d")] == K * m
    assert sections[("e", "u3")] == K * m
    assert sections[("u4", "b")] == M
    assert sections[("u1", "u2")] == sections[("u3", "u4")] == 1
    assert sum(sections.values()) == p.edge_count


def test_roles_layout():
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    roles = inst.roles
    assert len(roles) == 39
    assert roles[:4] == ("u1", "u2", "u3", "u4")
    assert roles[4] == "b_1" and roles[8] == "b_5"
    assert roles[9:13] == ("t_1^1", "t_1^2", "f_1^1", "f_1^2")
    assert roles[21] == "c_1^1" and roles[22] == "c_1^2"
    assert roles[23] == "d_1^1" and roles[25] == "e_1^1"


def test_build_deterministic():
    a = build_instance(EXAMPLE, k_override=2, m_override=5)
    b = build_instance(EXAMPLE, k_override=2, m_override=5)
    assert a.digraph == b.digraph and a.roles == b.roles


def test_build_raises_when_the_edge_count_is_off(monkeypatch):
    monkeypatch.setattr(ReductionParams, "edge_count", property(lambda self: 0))
    with pytest.raises(RuntimeError, match="built 52 edges.*needs 0"):
        build_instance(EXAMPLE, k_override=1, m_override=1)


def test_build_validation():
    with pytest.raises(ValueError):
        build_instance(EXAMPLE, k_override=0)
    with pytest.raises(ValueError):
        build_instance(EXAMPLE, k_override=1, m_override=0)


def test_grid_structural_invariants():
    other = CnfFormula(4, (
        ((0, True), (1, True), (3, True)),
        ((0, False), (2, True), (3, False)),
        ((1, False), (2, False), (3, True)),
    ))
    for f in (EXAMPLE, other):
        for K in (1, 2):
            for M in (1, 3):
                inst = build_instance(f, k_override=K, m_override=M)
                assert inst.digraph.node_count == inst.params.node_count
                assert inst.digraph.edge_count == inst.params.edge_count
                assert is_strongly_connected(inst.digraph)
                assert len(set(inst.digraph.edges)) == inst.digraph.edge_count
                assert not inst.digraph.self_loops()


def test_schedule_meets_l_for_all_satisfying_assignments():
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    sats = brute_force_satisfying_assignments(EXAMPLE.clauses, 3)
    assert len(sats) == 5
    for a in sats:
        verdict = certify(inst, schedule_from_assignment(inst, a))
        assert verdict["meets_L"]
        assert verdict["total"] >= verdict["L"] == 546


def test_schedule_meets_l_at_any_small_parameters():
    for K in (1, 2):
        for M in (1, 5):
            inst = build_instance(EXAMPLE, k_override=K, m_override=M)
            s = schedule_from_assignment(inst, (False, True, True))
            assert certify(inst, s)["meets_L"]


def test_schedule_rejects_unsatisfying_assignment():
    inst = build_instance(EXAMPLE, k_override=1, m_override=1)
    with pytest.raises(ValueError, match="does not satisfy"):
        schedule_from_assignment(inst, (True, True, True))


# schedule_from_assignment(...).order for every satisfying assignment of
# EXAMPLE, pinned so that any change to the edge emission order or to the
# schedule phases shows here
GOLDEN_EXAMPLE_ORDERS = {
    (1, 1, "FFT"): (
        "42 43 44 45 46 36 38 40 12 14 16 18 20 22 24 26 28 30 31 32 33 34 35 2 3 "
        "0 1 6 7 4 5 8 9 10 11 13 15 17 19 21 23 25 27 29 37 39 41 47 48 49 50 51"
    ),
    (1, 1, "FTF"): (
        "42 43 44 45 46 36 38 40 12 14 16 18 20 22 24 26 28 30 31 32 33 34 35 2 3 "
        "0 1 4 5 6 7 10 11 8 9 13 15 17 19 21 23 25 27 29 37 39 41 47 48 49 50 51"
    ),
    (1, 1, "FTT"): (
        "42 43 44 45 46 36 38 40 12 14 16 18 20 22 24 26 28 30 31 32 33 34 35 2 3 "
        "0 1 4 5 6 7 8 9 10 11 13 15 17 19 21 23 25 27 29 37 39 41 47 48 49 50 51"
    ),
    (1, 1, "TFT"): (
        "42 43 44 45 46 36 38 40 12 14 16 18 20 22 24 26 28 30 31 32 33 34 35 0 1 "
        "2 3 6 7 4 5 8 9 10 11 13 15 17 19 21 23 25 27 29 37 39 41 47 48 49 50 51"
    ),
    (1, 1, "TTF"): (
        "42 43 44 45 46 36 38 40 12 14 16 18 20 22 24 26 28 30 31 32 33 34 35 0 1 "
        "2 3 4 5 6 7 10 11 8 9 13 15 17 19 21 23 25 27 29 37 39 41 47 48 49 50 51"
    ),
    (2, 5, "FFT"): (
        "48 49 50 51 52 53 54 55 56 57 58 59 36 37 40 41 44 45 12 14 16 18 20 22 "
        "24 26 28 30 31 32 33 34 35 2 3 0 1 6 7 4 5 8 9 10 11 13 15 17 19 21 23 "
        "25 27 29 38 39 42 43 46 47 60 61 62 63 64 65 66 67 68 69 70 71"
    ),
    (2, 5, "FTF"): (
        "48 49 50 51 52 53 54 55 56 57 58 59 36 37 40 41 44 45 12 14 16 18 20 22 "
        "24 26 28 30 31 32 33 34 35 2 3 0 1 4 5 6 7 10 11 8 9 13 15 17 19 21 23 "
        "25 27 29 38 39 42 43 46 47 60 61 62 63 64 65 66 67 68 69 70 71"
    ),
    (2, 5, "FTT"): (
        "48 49 50 51 52 53 54 55 56 57 58 59 36 37 40 41 44 45 12 14 16 18 20 22 "
        "24 26 28 30 31 32 33 34 35 2 3 0 1 4 5 6 7 8 9 10 11 13 15 17 19 21 23 "
        "25 27 29 38 39 42 43 46 47 60 61 62 63 64 65 66 67 68 69 70 71"
    ),
    (2, 5, "TFT"): (
        "48 49 50 51 52 53 54 55 56 57 58 59 36 37 40 41 44 45 12 14 16 18 20 22 "
        "24 26 28 30 31 32 33 34 35 0 1 2 3 6 7 4 5 8 9 10 11 13 15 17 19 21 23 "
        "25 27 29 38 39 42 43 46 47 60 61 62 63 64 65 66 67 68 69 70 71"
    ),
    (2, 5, "TTF"): (
        "48 49 50 51 52 53 54 55 56 57 58 59 36 37 40 41 44 45 12 14 16 18 20 22 "
        "24 26 28 30 31 32 33 34 35 0 1 2 3 4 5 6 7 10 11 8 9 13 15 17 19 21 23 "
        "25 27 29 38 39 42 43 46 47 60 61 62 63 64 65 66 67 68 69 70 71"
    ),
}


def test_schedule_orders_are_pinned():
    for K, M in ((1, 1), (2, 5)):
        inst = build_instance(EXAMPLE, k_override=K, m_override=M)
        for bits in product((False, True), repeat=3):
            if not EXAMPLE.satisfies(bits):
                continue
            key = (K, M, "".join("T" if b else "F" for b in bits))
            order = schedule_from_assignment(inst, bits).order
            assert order == tuple(map(int, GOLDEN_EXAMPLE_ORDERS[key].split()))
    assert len(GOLDEN_EXAMPLE_ORDERS) == 10


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


def test_large_planted_instance_is_pinned():
    formula, planted = planted_formula(1, 20, 60)
    assert "".join("T" if b else "F" for b in planted) == "TFFTTTFFTTFTFTTFTFFT"
    inst = build_instance(formula, k_override=60, m_override=12_000)
    assert inst.digraph.edge_count == 42_382
    s = schedule_from_assignment(inst, planted)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(format_digraph(inst.digraph)) == (
        "98646cfa044ec5f4c42dbea317f9763569443fdbb546c3ef503049b875ccfb72")
    assert digest(format_schedule(s)) == (
        "55afb0a4924f5bfd2aa5dbb7e8296b74c1cb9d56c7acbb7ae981400bc5fb8849")


def test_schedule_phase_structure():
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    s = schedule_from_assignment(inst, (False, True, True))
    pos = {ei: t for t, ei in enumerate(s.order)}
    edges = inst.digraph.edges
    by_pair = {e: i for i, e in enumerate(edges)}
    u1u2, u3u4 = by_pair[(0, 1)], by_pair[(2, 3)]
    for i, (a, b) in enumerate(edges):
        if b == 0:  # (b_i, u1) before (u1,u2)
            assert pos[i] < pos[u1u2]
        if a == 1:  # (u2, d) after (u1,u2)
            assert pos[u1u2] < pos[i]
        if a == 3:  # (u4, b) last, after (u3,u4)
            assert pos[u3u4] < pos[i]
    assert pos[u1u2] < pos[u3u4]


def test_schedule_activates_chosen_rotation():
    inst = build_instance(EXAMPLE, k_override=1, m_override=1)
    assignment = (False, True, True)
    s = schedule_from_assignment(inst, assignment)
    pos = {ei: t for t, ei in enumerate(s.order)}
    for i in range(3):
        gadget = [pos[4 * i + k] for k in range(4)]
        t_active, f_active = variable_gadget_activation(gadget)
        assert t_active == assignment[i]
        assert f_active == (not assignment[i])


def test_schedule_connects_clause_gates():
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    s = schedule_from_assignment(inst, (False, True, True))
    res = evaluate_schedule(inst.digraph, s)
    roles = inst.roles
    c1 = {roles[v]: v for v in range(len(roles)) if roles[v].startswith("c_")}
    for j in (1, 2, 3):
        assert res.reaches(c1[f"c_{j}^1"], c1[f"c_{j}^2"])


def test_gadget_activation_matches_engine():
    # standalone variable gadget: t1=0, t2=1, f1=2, f2=3
    gadget = Digraph(4, ((0, 3), (3, 2), (2, 1), (1, 0)))
    t_seen = f_seen = False
    for perm in permutations(range(4)):
        times = [0] * 4
        for t, ei in enumerate(perm):
            times[ei] = t
        t_active, f_active = variable_gadget_activation(times)
        res = evaluate_schedule(gadget, Schedule(perm))
        assert (t_active, f_active) == (res.reaches(0, 1), res.reaches(2, 3))
        assert not (t_active and f_active)
        t_seen |= t_active
        f_seen |= f_active
    assert t_seen and f_seen


def test_early_u3u4_is_capped_by_u1_bound():
    # firing (u3,u4) before (u1,u2) cuts all b->b traffic, so the total
    # is capped by U1 whatever the parameters are
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    good = schedule_from_assignment(inst, (False, True, True))
    by_pair = {e: i for i, e in enumerate(inst.digraph.edges)}
    order = list(good.order)
    order.remove(by_pair[(2, 3)])
    bad = Schedule(tuple([by_pair[(2, 3)]] + order))
    verdict = certify(inst, bad)
    assert verdict["total"] <= upper_bound_one(inst.params)
    assert verdict["total"] < certify(inst, good)["total"]
    # at official parameters the same cap is below L by pure arithmetic
    official = ReductionParams.official_for(3, 3)
    assert upper_bound_one(official) < lower_bound(official)
    assert verdict["total"] < lower_bound(official)


def test_reversed_schedule_is_worse():
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    good = schedule_from_assignment(inst, (False, True, True))
    reverse = Schedule(tuple(reversed(good.order)))
    assert certify(inst, reverse)["total"] < certify(inst, good)["total"]


def test_certify_checks_length():
    inst = build_instance(EXAMPLE, k_override=1, m_override=1)
    with pytest.raises(ValueError, match="length 3, expected 52"):
        certify(inst, Schedule((0, 1, 2)))


def test_write_load_round_trip(tmp_path):
    inst = build_instance(EXAMPLE, k_override=2, m_override=5)
    paths = write_instance(inst, tmp_path / "inst")
    assert [p.name for p in paths] == [
        "inst.digraph", "inst.roles", "inst.manifest.json"]
    back = load_instance(tmp_path / "inst")
    assert back.digraph == inst.digraph
    assert back.roles == inst.roles
    assert back.formula == EXAMPLE
    assert back.bounds == inst.bounds

    manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
    assert manifest["node_count"] == 39 and manifest["edge_count"] == 72
    assert manifest["L"] == "546"  # bounds travel as decimal strings
    assert isinstance(manifest["U1"], str) and isinstance(manifest["U2"], str)


def test_load_rejects_tampered_graph(tmp_path):
    inst = build_instance(EXAMPLE, k_override=1, m_override=1)
    write_instance(inst, tmp_path / "inst")
    graph_file = tmp_path / "inst.digraph"
    lines = graph_file.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # swap two edges
    graph_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="does not match"):
        load_instance(tmp_path / "inst")


def test_load_checks_sizes_before_rebuilding(monkeypatch):
    monkeypatch.setattr(reduction, "build_instance", refuse_to_build)
    texts = dict(zip(instance_paths("big"), oversized_instance_texts()))
    with pytest.raises(ParseError, match="does not match its manifest parameters"):
        load_instance("big", texts.__getitem__)


@pytest.mark.parametrize("lineno, line", [(3, "2"), (1, "7 u1")])
def test_load_rejects_bad_roles_lines(tmp_path, lineno, line):
    # a line holding only an id, and a line out of id order
    write_instance(build_instance(EXAMPLE, k_override=1, m_override=1), tmp_path / "inst")
    roles_file = tmp_path / "inst.roles"
    lines = roles_file.read_text().splitlines()
    lines[lineno - 1] = line
    roles_file.write_text("\n".join(lines) + "\n")
    roles_name = re.escape(str(roles_file))
    with pytest.raises(ParseError, match=f"^{roles_name}: line {lineno}: "):
        load_instance(tmp_path / "inst")


def test_load_accepts_noncanonical_roles(tmp_path):
    inst = build_instance(EXAMPLE, k_override=1, m_override=1)
    write_instance(inst, tmp_path / "inst")
    roles_file = tmp_path / "inst.roles"
    spaced = roles_file.read_text().replace(" ", " \t ")
    roles_file.write_text("# node roles\n\n" + spaced)
    assert load_instance(tmp_path / "inst") == inst
