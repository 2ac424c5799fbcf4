"""Command-line interface.

Subcommands: eval, solve, reduce, certify, bounds, astra, gen, convert.
Every run prints a report (JSON by default, ``--format text`` for
humans) that includes a replay manifest: the exact arguments, the seed,
the PRNG name, sha256 digests of all input files, output paths, and
wall time.  Big integers travel as decimal strings in JSON.

Exit codes: 0 success; 1 invalid input or precondition; 2 scale limit
exceeded.  All randomness flows from ``--seed`` through Python's
Mersenne Twister (``random.Random``), so equal invocations give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .astra import best_root, exact_pair, greedy_pair
from .cnf import parse_assignment, parse_dimacs
from .errors import ParseError, ScaleLimitError, as_int, parse_file
from .generators import gen_fig3, gen_random_sc
from .graphs import (
    Schedule,
    format_digraph,
    format_roles,
    format_schedule,
    parse_digraph,
    parse_schedule,
    parse_temporal_graph,
    parse_timing,
    prefix_path,
)
from .reachability import reachability_counts, schedule_from_temporalisation, total_reachability
from .reduction import (
    ReductionParams,
    build_instance,
    certify,
    check_bounds,
    instance_manifest,
    load_instance,
    write_instance,
)
from .solvers import solve_arborescence, solve_exact, solve_local

PRNG = "mt19937"


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing `path` would raise, changing no file."""
    try:
        os.close(os.open(path, os.O_WRONLY))
    except FileNotFoundError:
        # a missing file is created by the write, if its directory exists and is writable
        if not path.parent.is_dir():
            raise
        if not os.access(path.parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path)) from None


class _Run:
    """Replay manifest builder: input digests, outputs, timing.

    Writes are all-or-nothing: `write` only queues a file, and `commit`
    checks every queued target before it writes the first one.
    """

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.arguments = args.raw_argv
        self.seed = getattr(args, "seed", None)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.pending: list[tuple[Path, str]] = []
        self.started = time.perf_counter()

    def read(self, path: str | Path) -> str:
        data = Path(path).read_bytes()
        self.inputs[str(Path(path))] = "sha256:" + hashlib.sha256(data).hexdigest()
        return data.decode()

    def write(self, path: str | Path, text: str) -> None:
        self.pending.append((Path(path), text))
        self.outputs.append(str(Path(path)))

    def commit(self) -> None:
        """Write every queued file as UTF-8, or raise before writing any."""
        for path, _ in self.pending:
            _check_writable(path)
        for path, text in self.pending:
            path.write_text(text, encoding="utf-8")

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "arguments": self.arguments,
            "seed": self.seed,
            "prng": PRNG,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_time_s": round(time.perf_counter() - self.started, 6),
        }


def _emit(run: _Run, result: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"run": run.to_json(), "result": result}, indent=2))
        return
    for key, value in result.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        print(f"{key}: {value}")
    manifest = run.to_json()
    print(f"run: command={manifest['command']} seed={manifest['seed']} "
          f"prng={manifest['prng']} wall_time_s={manifest['wall_time_s']}")
    for path, digest in manifest["inputs"].items():
        print(f"run: input {path} {digest}")
    for path in manifest["outputs"]:
        print(f"run: output {path}")


def cmd_eval(args, run: _Run) -> dict:
    g = parse_file(parse_digraph, run.read, args.graph)
    timing = parse_file(parse_timing, run.read, args.timing, g.edge_count, args.kind)
    kind = "schedule" if isinstance(timing, Schedule) else "times"
    if not args.counts:
        return {"kind": kind, "total": total_reachability(g, timing)}
    total, counts = reachability_counts(g, timing)
    return {"kind": kind, "total": total, "per_source_counts": list(counts)}


def cmd_solve(args, run: _Run) -> dict:
    # every count is checked, also those the chosen method does not use
    as_int(args.limit, "limit", least=0)
    as_int(args.restarts, "restarts", least=1)
    if args.steps is not None:
        as_int(args.steps, "steps", least=0)
    g = parse_file(parse_digraph, run.read, args.graph)
    if args.method != "arb" and args.root is not None and not 0 <= args.root < g.node_count:
        raise ValueError(f"root {args.root} out of range for {g.node_count} nodes")
    if args.method == "exact":
        res = solve_exact(g, limit=args.limit)
    elif args.method == "local":
        res = solve_local(g, seed=args.seed, restarts=args.restarts, steps=args.steps)
    else:
        res = solve_arborescence(g, root=args.root, seed=args.seed)
    if args.out:
        run.write(args.out, format_schedule(res.best_schedule))
    return res.to_json()


def cmd_reduce(args, run: _Run) -> dict:
    formula = parse_file(parse_dimacs, run.read, args.cnf)
    inst = build_instance(formula, k_override=args.k, m_override=args.m_param)
    write_instance(inst, args.out, run.write)
    report = check_bounds(inst.params)
    return {
        **instance_manifest(inst),
        "official": report["official"],
        "L_exceeds_U1": report["L_minus_U1"] > 0,
        "L_exceeds_U2": report["L_minus_U2"] > 0,
    }


def cmd_certify(args, run: _Run) -> dict:
    inst = load_instance(args.prefix, run.read, evaluate=args.schedule is not None)
    if args.assignment is not None:
        witness = parse_assignment(args.assignment, inst.formula.variable_count)
        source = "assignment"
    else:
        witness = parse_file(parse_schedule, run.read, args.schedule, inst.digraph.edge_count)
        source = "schedule"
    verdict = certify(inst, witness)
    return {
        "source": source,
        "total": verdict["total"],
        "L": str(verdict["L"]),
        "meets_L": verdict["meets_L"],
    }


def cmd_bounds(args, run: _Run) -> dict:
    params = ReductionParams.official_for(args.n, args.m, K=args.k, M=args.m_param)
    report = check_bounds(params)
    return {
        "n": params.n,
        "m": params.m,
        "K": params.K,
        "M": params.M,
        "H_size": params.h_size,
        "L": str(report["L"]),
        "U1": str(report["U1"]),
        "U2": str(report["U2"]),
        "L_minus_U1": str(report["L_minus_U1"]),
        "L_minus_U2": str(report["L_minus_U2"]),
        "official": report["official"],
    }


def cmd_astra(args, run: _Run) -> dict:
    as_int(args.limit, "limit", least=0)  # the greedy method does not use it
    g = parse_file(parse_digraph, run.read, args.graph)
    if args.root is None:
        return best_root(g, args.method, seed=args.seed, limit=args.limit).to_json()
    pair = (greedy_pair(g, args.root, args.seed) if args.method == "greedy"
            else exact_pair(g, args.root, args.limit))
    return {
        "method": args.method,
        "root": pair.root,
        "min_size": pair.min_size,
        "out_size": len(pair.out_nodes),
        "in_size": len(pair.in_nodes),
        "out_edges": sorted(pair.out_edges),
        "in_edges": sorted(pair.in_edges),
    }


def cmd_gen(args, run: _Run) -> dict:
    if args.family == "fig3":
        g, roles = gen_fig3(args.k)
        result = {"family": "fig3", "k": args.k}
    else:
        g = gen_random_sc(args.n, args.extra, seed=args.seed)
        roles = None
        result = {"family": "random-sc", "n": args.n, "extra": args.extra}
    result["node_count"] = g.node_count
    result["edge_count"] = g.edge_count
    if args.out:
        run.write(args.out, format_digraph(g))
        if roles is not None:
            run.write(prefix_path(args.out, ".roles"), format_roles(roles))
    else:
        result["digraph"] = format_digraph(g)
        if roles is not None:
            result["roles"] = list(roles)
    return result


def cmd_convert(args, run: _Run) -> dict:
    g, t = parse_file(parse_temporal_graph, run.read, args.temporal_graph)
    schedule = schedule_from_temporalisation(t)
    result = {
        "node_count": g.node_count,
        "edge_count": g.edge_count,
        "total": total_reachability(g, t),
    }
    if args.out:
        run.write(prefix_path(args.out, ".digraph"), format_digraph(g))
        run.write(prefix_path(args.out, ".schedule"), format_schedule(schedule))
    else:
        result["digraph"] = format_digraph(g)
        result["schedule"] = list(schedule.order)
    return result


class _Parser(argparse.ArgumentParser):
    # usage errors are invalid input: exit 1, not argparse's default 2,
    # which is reserved for scale limits
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, not at import, and kept for the process
def _build_parser() -> _Parser:
    parser = _Parser(prog="mret", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate a schedule or times file on a digraph")
    p.add_argument("graph")
    p.add_argument("timing", help="schedule or times file")
    p.add_argument("--kind", choices=("auto", "schedule", "times"), default="auto")
    p.add_argument("--counts", action="store_true", help="include per-source counts")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="search for a high-reachability schedule")
    p.add_argument("graph")
    p.add_argument("--method", choices=("exact", "local", "arb"), default="exact")
    p.add_argument("--limit", type=int, default=10, help="exact-method edge limit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--root", type=int, default=None, help="arb-method root")
    p.add_argument("--out", help="write the best schedule here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="build a hardness instance from a 3-CNF")
    p.add_argument("cnf")
    p.add_argument("--k", type=int, default=None, help="override K (default 91nm)")
    p.add_argument("--m-param", type=int, default=None,
                   help="override M (default (H_size+5)^2+1)")
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("certify", help="check a schedule or assignment against L")
    p.add_argument("prefix", help="instance file prefix from reduce")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--assignment", help="truth values, e.g. FTT or 011")
    group.add_argument("--schedule", help="schedule file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", help="exact L, U1, U2 arithmetic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m-param", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("astra", help="edge-disjoint arborescence pair search")
    p.add_argument("graph")
    p.add_argument("--method", choices=("exact", "greedy"), default="exact")
    p.add_argument("--root", type=int, default=None, help="single root (default: all)")
    p.add_argument("--limit", type=int, default=20, help="exact-method edge limit: a fast "
                   "pre-check; the search's work limit is the real guard")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_astra)

    p = sub.add_parser("gen", help="generate instance families")
    fam = p.add_subparsers(dest="family", required=True, parser_class=_Parser)
    f = fam.add_parser("fig3", help="three-armed windmill family")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_gen, seed=None)
    f = fam.add_parser("random-sc", help="random strongly connected digraph")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--extra", type=int, default=0)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out")
    f.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="split a temporal graph into digraph + schedule")
    p.add_argument("temporal_graph")
    p.add_argument("--out", help="output file prefix")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    args.raw_argv = argv
    run = _Run(args)
    try:
        result = args.func(args, run)
        run.commit()
    except ScaleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(run, result, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
