"""The benchmark's four workloads: seeded inputs, operations and answer checks.

Each workload writes its inputs to files from the benchmark seed, names
the `mret` invocations one round runs (label, argv), and checks the
answers of one round.  The checks hold for every seed.

* eval-large: criterion 9's generator (Hamiltonian cycle plus random
  edges, shuffled schedule) scaled to n=30,000, m=150,000, plus a times
  file with 1,000 distinct labels.  Parse and both engine passes
  dominate, and the n^2 reach bits dominate memory.  Moves `graphs`,
  `reachability`, `cli`; bypasses `solvers`, `astra`, `reduction`,
  `cnf`.
* search-small: many tiny evaluations.  `solve --method exact` on a
  9-edge graph (9! evaluations), `solve --method local` (32 restarts of one
  move each) on random-sc n=100, m=400, `astra --method exact` on the fig3 k=10 windmill.  Uses
  `reachability` through per-call overhead, the opposite of eval-large.
  Moves `solvers`, `astra`; bypasses `reduction`, `cnf`.
* arb-sweep: `solve --method arb` on random-sc n=200, m=800 and `astra
  --method greedy` on the fig3 k=100 windmill (n=308).  Tree growth and
  the per-root sweep dominate; the windmill caps pair sizes.  Moves
  `astra`, `solvers`, `graphs.is_strongly_connected`; bypasses
  `reduction`, `cnf`.
* reduce-certify: a planted-satisfiable 3-CNF (20 variables, 60
  clauses); `reduce --k 60 --m-param 12000` (19,404 nodes, 42,382
  edges), then `certify --assignment` with the planted assignment.  The
  only workload using `cnf` and `reduction`, write path and read path.
  Moves `reduction`, `cnf`, `graphs`, `reachability`; bypasses
  `solvers`, `astra`.

`reduce` never runs at official parameters: n = m = 3 alone computes to
24,378,906 nodes.  Official parameters are only used by `mret bounds`,
which is pure arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    generate: Callable  # (mret, seed, workdir, tracer) -> state dict
    ops: Callable  # state -> [(label, argv)]
    check: Callable  # (mret, state, results, cli_call) -> {label: [problem]}
    # informational end-to-end names: name -> (unit, op label, result key),
    # where a key of None stands for the op's median time
    report: dict


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _gen(tracer, mret, family: str, *args, **kwargs):
    fn = mret.gen_fig3 if family == "fig3" else mret.gen_random_sc
    with tracer.span(f"generators.gen_{family.replace('-', '_')}"):
        return fn(*args, **kwargs)


def _reevaluates(mret, g, result) -> list[str]:
    total = mret.evaluate_schedule(g, mret.Schedule(tuple(result["schedule"]))).total
    if total != result["total"]:
        return [f"schedule re-evaluates to {total}, reported {result['total']}"]
    return []


# -- eval-large ---------------------------------------------------------------

EVAL_N, EVAL_M, EVAL_LABELS = 30_000, 150_000, 1_000


def _eval_generate(mret, seed, workdir, tracer):
    rng = random.Random(seed)
    n, m = EVAL_N, EVAL_M
    edges = [(i, (i + 1) % n) for i in range(n)]
    while len(edges) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.append((a, b))
    order = list(range(m))
    rng.shuffle(order)
    labels = [1 + i % EVAL_LABELS for i in range(m)]
    rng.shuffle(labels)
    return {
        "n": n,
        "edges": edges,
        "order": order,
        "labels": labels,
        "graph": _write(workdir / "g.digraph",
                        f"{n} {m}\n" + "".join(f"{a} {b}\n" for a, b in edges)),
        "schedule": _write(workdir / "g.schedule", " ".join(map(str, order)) + "\n"),
        "times": _write(workdir / "g.times", " ".join(map(str, labels)) + "\n"),
    }


def _eval_ops(st):
    return [
        ("eval", ["eval", st["graph"], st["schedule"]]),
        ("eval_ties", ["eval", st["graph"], st["times"]]),
    ]


def _eval_check(mret, st, results, cli_call):
    problems = {"eval": [], "eval_ties": []}
    g = mret.Digraph(st["n"], tuple(st["edges"]))
    sched, ties = results["eval"], results["eval_ties"]
    if sched["kind"] != "schedule":
        problems["eval"].append(f"schedule file read as {sched['kind']}")
    if ties["kind"] != "times":
        problems["eval_ties"].append(f"times file read as {ties['kind']}")
    counts = cli_call(["eval", st["graph"], st["schedule"], "--counts"])
    if (counts["total"] != sched["total"] or len(counts["per_source_counts"]) != st["n"]
            or sum(counts["per_source_counts"]) != sched["total"]):
        problems["eval"].append("--counts do not sum to the total")
    rev = mret.Digraph(st["n"], tuple((b, a) for a, b in st["edges"]))
    rev_total = mret.evaluate_schedule(rev, mret.Schedule(tuple(reversed(st["order"])))).total
    if rev_total != sched["total"]:
        problems["eval"].append(f"reverse graph total {rev_total} != {sched['total']}")
    t = mret.Temporalisation(tuple(st["labels"]))
    upper = mret.evaluate_schedule(g, mret.schedule_from_temporalisation(t)).total
    if not st["n"] <= ties["total"] <= upper:
        problems["eval_ties"].append(f"ties total {ties['total']} above {upper}")
    return problems


# -- search-small -------------------------------------------------------------

FIG3_EXACT_K = 10
# one move per restart fixes local search's work at restarts * m
# evaluations; run to convergence it spans 9,185 to 19,559 evaluations
# over seeds 101..110, which swamps any change a run is meant to judge
LOCAL_RESTARTS = 32


def _search_generate(mret, seed, workdir, tracer):
    small = _gen(tracer, mret, "random-sc", 5, 4, seed=seed)
    mid = _gen(tracer, mret, "random-sc", 100, 300, seed=seed)
    fig, _ = _gen(tracer, mret, "fig3", FIG3_EXACT_K)
    return {
        "small": small,
        "mid": mid,
        "fig": fig,
        "small_path": _write(workdir / "small.digraph", mret.format_digraph(small)),
        "mid_path": _write(workdir / "mid.digraph", mret.format_digraph(mid)),
        "fig_path": _write(workdir / "fig3.digraph", mret.format_digraph(fig)),
    }


def _search_ops(st):
    return [
        ("exact", ["solve", st["small_path"], "--method", "exact",
                   "--limit", str(st["small"].edge_count)]),
        ("local", ["solve", st["mid_path"], "--method", "local", "--seed", "1",
                   "--restarts", str(LOCAL_RESTARTS), "--steps", "1"]),
        ("astra_exact", ["astra", st["fig_path"], "--method", "exact",
                         "--limit", str(st["fig"].edge_count)]),
    ]


def _search_check(mret, st, results, cli_call):
    exact, local, astra = results["exact"], results["local"], results["astra_exact"]
    problems = {
        "exact": _reevaluates(mret, st["small"], exact),
        "local": _reevaluates(mret, st["mid"], local),
        "astra_exact": [],
    }
    local_small = mret.solve_local(st["small"], seed=1, restarts=LOCAL_RESTARTS, steps=1)
    if local_small.best_total > exact["total"]:
        problems["local"].append(
            f"local {local_small.best_total} beats exact optimum {exact['total']}")
    n = st["mid"].node_count
    if not n <= local["total"] <= n * n:
        problems["local"].append(f"local total {local['total']} out of range")
    g = st["fig"]
    if astra["best_min"] != FIG3_EXACT_K + 6:
        problems["astra_exact"].append(f"fig3 best_min {astra['best_min']} != k + 6")
    if astra["ratio"] != astra["best_min"] / g.node_count:
        problems["astra_exact"].append("ratio is not best_min / n")
    for root, size in enumerate(astra["per_root"]):
        pair = mret.exact_pair(g, root, limit=g.edge_count)
        problems["astra_exact"] += _check_pair(mret, g, pair, size)
    return problems


def _check_pair(mret, g, pair, size) -> list[str]:
    try:
        mret.check_pair(g, pair)
    except ValueError as exc:
        return [f"root {pair.root}: {exc}"]
    if pair.min_size != size:
        return [f"root {pair.root}: pair min_size {pair.min_size} != reported {size}"]
    return []


# -- arb-sweep ----------------------------------------------------------------

FIG3_GREEDY_K = 100


def _arb_generate(mret, seed, workdir, tracer):
    g = _gen(tracer, mret, "random-sc", 200, 600, seed=seed)
    fig, _ = _gen(tracer, mret, "fig3", FIG3_GREEDY_K)
    return {
        "g": g,
        "fig": fig,
        "g_path": _write(workdir / "arb.digraph", mret.format_digraph(g)),
        "fig_path": _write(workdir / "fig3.digraph", mret.format_digraph(fig)),
    }


def _arb_ops(st):
    return [
        ("arb", ["solve", st["g_path"], "--method", "arb"]),
        ("astra_greedy", ["astra", st["fig_path"], "--method", "greedy"]),
    ]


def _arb_check(mret, st, results, cli_call):
    arb, greedy = results["arb"], results["astra_greedy"]
    problems = {"arb": _reevaluates(mret, st["g"], arb), "astra_greedy": []}
    in_size, out_size = arb["certificate"]
    if arb["total"] < in_size * out_size:
        problems["arb"].append(f"total {arb['total']} below certificate {in_size}*{out_size}")
    g = st["fig"]
    per_root, best = greedy["per_root"], greedy["best_root"]
    if len(per_root) != g.node_count or greedy["best_min"] != max(per_root):
        problems["astra_greedy"].append("best_min is not the per-root maximum")
    if greedy["ratio"] != greedy["best_min"] / g.node_count:
        problems["astra_greedy"].append("ratio is not best_min / n")
    pair = mret.greedy_pair(g, best, seed=0)
    problems["astra_greedy"] += _check_pair(mret, g, pair, greedy["best_min"])
    return problems


# -- reduce-certify -----------------------------------------------------------

CNF_VARS, CNF_CLAUSES, RED_K, RED_M = 20, 60, 60, 12_000


def planted_cnf(mret, seed: int):
    """A strict 3-CNF satisfied by a planted assignment, every variable in both polarities."""
    rng = random.Random(seed)
    planted = tuple(rng.random() < 0.5 for _ in range(CNF_VARS))
    for _ in range(1000):
        clauses = []
        while len(clauses) < CNF_CLAUSES:
            lits = tuple((v, rng.random() < 0.5) for v in rng.sample(range(CNF_VARS), 3))
            if any(planted[v] == positive for v, positive in lits):
                clauses.append(lits)
        used = {(v, positive) for clause in clauses for v, positive in clause}
        if len(used) == 2 * CNF_VARS:
            return mret.CnfFormula(CNF_VARS, tuple(clauses)), planted
    raise RuntimeError("no strict 3-CNF with a planted assignment found")


def _reduce_generate(mret, seed, workdir, tracer):
    formula, planted = planted_cnf(mret, seed)
    return {
        "cnf": _write(workdir / "formula.cnf", mret.format_dimacs(formula)),
        "prefix": str(workdir / "inst"),
        "assignment": "".join("T" if b else "F" for b in planted),
    }


def _reduce_ops(st):
    return [
        ("reduce", ["reduce", st["cnf"], "--k", str(RED_K), "--m-param", str(RED_M),
                    "--out", st["prefix"]]),
        ("certify", ["certify", st["prefix"], "--assignment", st["assignment"]]),
    ]


def _reduce_check(mret, st, results, cli_call):
    red, cert = results["reduce"], results["certify"]
    problems = {"reduce": [], "certify": []}
    params = mret.ReductionParams(CNF_VARS, CNF_CLAUSES, RED_K, RED_M)
    if (red["node_count"], red["edge_count"]) != (params.node_count, params.edge_count):
        problems["reduce"].append(f"instance size {red['node_count']}, {red['edge_count']}")
    if red["L"] != str(mret.lower_bound(params)):
        problems["reduce"].append("L bound differs from lower_bound")
    if not cert["meets_L"] or cert["total"] < int(cert["L"]) or cert["L"] != red["L"]:
        problems["certify"].append(f"planted assignment total {cert['total']} misses L")
    official = cli_call(["bounds", "--n", str(CNF_VARS), "--m", str(CNF_CLAUSES)])
    if not (official["official"] and int(official["L_minus_U1"]) > 0
            and int(official["L_minus_U2"]) > 0):
        problems["reduce"].append("official bounds do not separate L from U1 and U2")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-large",
            {"n": EVAL_N, "m": EVAL_M, "labels": EVAL_LABELS},
            _eval_generate, _eval_ops, _eval_check,
            {"eval_s": ("s", "eval", None), "eval_ties_s": ("s", "eval_ties", None)},
        ),
        Workload(
            "search-small",
            {"exact": "random-sc n=5 extra=4 (m=9)",
             "local": f"random-sc n=100 extra=300, {LOCAL_RESTARTS} restarts x 1 step",
             "astra_exact": f"fig3 k={FIG3_EXACT_K}"},
            _search_generate, _search_ops, _search_check,
            {"exact_s": ("s", "exact", None), "local_s": ("s", "local", None),
             "local_total": ("pairs", "local", "total"),
             "astra_exact_s": ("s", "astra_exact", None)},
        ),
        Workload(
            "arb-sweep",
            {"arb": "random-sc n=200 extra=600", "astra_greedy": f"fig3 k={FIG3_GREEDY_K}"},
            _arb_generate, _arb_ops, _arb_check,
            {"arb_s": ("s", "arb", None), "arb_total": ("pairs", "arb", "total"),
             "astra_greedy_s": ("s", "astra_greedy", None),
             "astra_greedy_ratio": ("ratio", "astra_greedy", "ratio")},
        ),
        Workload(
            "reduce-certify",
            {"variables": CNF_VARS, "clauses": CNF_CLAUSES, "K": RED_K, "M": RED_M,
             "nodes": 19_404, "edges": 42_382},
            _reduce_generate, _reduce_ops, _reduce_check,
            {"reduce_s": ("s", "reduce", None), "certify_s": ("s", "certify", None)},
        ),
    )
}
