"""Byte-identity corpus: a fixed list of `mret` invocations and the digest
of what each one answers.

Every case runs `mret.cli.main` in-process, in a directory that holds the
corpus inputs under fixed relative names.  A case that exits 0 is
digested as the SHA-256 of its canonical JSON `result` (sorted keys, no
spaces); any other case as that of `{"exit": code, "stderr": text}`.
The digests live in `corpus_digests.json` beside this file, keyed by
case name, so a change that alters a result shows which case it alters.

All-roots greedy sweeps (`solve --method arb`, `astra --method greedy`)
run twice: once with `forks.may_fork` forced off, and once with it
forced on and `astra.FORK_WORK_THRESHOLD` at 0, so that even the small
sweeps here fork their second half.  Every `eval`, `convert`,
`certify --schedule` and all-roots `astra --method exact` case runs a
second time, as `<name>/fork`, with `forks.may_fork` forced on, both
thresholds at 0 and `reachability.TILE_BITS` at 1, so that an exact
sweep forks the second half of the roots after its first one, and the
engine forks its second half of sources and runs each half one source
per tile; a `/fork` case must answer as its own case does.

Regenerate the digests after a change that alters results on purpose:

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from mret import astra, forks, reachability
from mret.cli import main
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import Digraph, format_digraph
from mret.reduction import ReductionParams

DIGESTS = Path(__file__).with_name("corpus_digests.json")

CNF = "p cnf 3 3\n1 2 3 0\n-1 2 3 0\n-1 -2 -3 0\n"
RANDOM_SC = ((5, 4, 1), (5, 4, 2), (6, 6, 3), (8, 6, 0), (12, 12, 1), (30, 30, 2))
CYCLES = (3, 4, 7, 12)
FIG3_KS = range(1, 21)


def write_inputs() -> dict[str, Digraph]:
    """Write every input file into the current directory; return the
    digraphs by file name."""
    graphs = {f"fig3_k{k}.digraph": gen_fig3(k)[0] for k in FIG3_KS}
    graphs.update({f"rsc_{n}_{extra}_{seed}.digraph": gen_random_sc(n, extra, seed=seed)
                   for n, extra, seed in RANDOM_SC})
    graphs.update({f"cycle{n}.digraph": Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))
                   for n in CYCLES})
    graphs["path3.digraph"] = Digraph(3, ((0, 1), (1, 2)))
    graphs["loop.digraph"] = Digraph(2, ((0, 1), (1, 1), (1, 0)))
    for name, g in graphs.items():
        Path(name).write_text(format_digraph(g))
        m = g.edge_count
        Path(name.replace(".digraph", ".schedule")).write_text(
            " ".join(map(str, reversed(range(m)))) + "\n")
        Path(name.replace(".digraph", ".times")).write_text(
            " ".join(str(1 + i // 3) for i in range(m)) + "\n")
    Path("bad.digraph").write_text("3 2\n0 1\n1 5\n")
    Path("short.schedule").write_text("0 1\n")
    Path("tied.tg").write_text("4 5\n0 1 1\n1 2 1\n2 3 2\n3 0 2\n1 3 1\n")
    Path("f.cnf").write_text(CNF)
    # the instance of the reduce case below, whose certify cases run after it
    Path("inst.schedule").write_text(
        " ".join(map(str, range(ReductionParams(3, 3, 1, 2).edge_count))) + "\n")
    return graphs


def cases(graphs: dict[str, Digraph]) -> list[tuple[str, list[str], bool | None]]:
    """(name, argv, fork) of every case; `fork` is None for a case that
    runs as the defaults decide, else whether a sweep or the engine may fork."""
    out: list[tuple[str, list[str], bool | None]] = []

    def add(name, argv, fork=None):
        out.append((name, argv, fork))

    def sweep(name, argv):
        add(f"{name}/serial", argv, False)
        add(f"{name}/fork", argv, True)

    def twin(name, argv):
        add(name, argv)
        add(f"{name}/fork", argv, True)

    for k in FIG3_KS:
        add(f"gen/fig3/{k}", ["gen", "fig3", "--k", str(k)])
    for n, extra, seed in RANDOM_SC:
        add(f"gen/random-sc/{n}_{extra}_{seed}",
            ["gen", "random-sc", "--n", str(n), "--extra", str(extra), "--seed", str(seed)])
    twin("convert/tied", ["convert", "tied.tg"])
    add("bounds/official_3_3", ["bounds", "--n", "3", "--m", "3"])
    add("bounds/override_2_5", ["bounds", "--n", "2", "--m", "5", "--k", "1", "--m-param", "2"])
    add("reduce/k1_m2", ["reduce", "f.cnf", "--k", "1", "--m-param", "2", "--out", "inst"])
    for bits in ("FTT", "TTT", "FFF", "101"):
        add(f"certify/assignment/{bits}", ["certify", "inst", "--assignment", bits])
    twin("certify/schedule", ["certify", "inst", "--schedule", "inst.schedule"])
    # K = 3 and M = 7: the b, d and e nodes come in twin classes of several members
    add("reduce/k3_m7", ["reduce", "f.cnf", "--k", "3", "--m-param", "7", "--out", "inst3"])
    for bits in ("FTT", "TTF", "FFT", "FFF"):
        add(f"certify/k3_m7/assignment/{bits}", ["certify", "inst3", "--assignment", bits])

    for name, g in graphs.items():
        stem, m = name.removesuffix(".digraph"), g.edge_count
        if stem in ("path3", "loop"):
            continue
        schedule, times = f"{stem}.schedule", f"{stem}.times"
        twin(f"eval/{stem}/schedule", ["eval", name, schedule])
        twin(f"eval/{stem}/times", ["eval", name, times, "--counts"])
        twin(f"eval/{stem}/times/total", ["eval", name, times])
        if m <= 10:
            add(f"solve/exact/{stem}", ["solve", name])
        if m <= 24:
            add(f"solve/local/{stem}", ["solve", name, "--method", "local", "--restarts", "2",
                                        "--seed", "1"])
            add(f"solve/local/{stem}/steps1", ["solve", name, "--method", "local",
                                               "--restarts", "3", "--steps", "1"])
        sweep(f"solve/arb/{stem}", ["solve", name, "--method", "arb"])
        add(f"solve/arb/{stem}/root1", ["solve", name, "--method", "arb", "--root", "1"])
        sweep(f"astra/greedy/{stem}", ["astra", name, "--method", "greedy"])
        sweep(f"astra/greedy/{stem}/seed3", ["astra", name, "--method", "greedy",
                                             "--seed", "3"])
        add(f"astra/greedy/{stem}/root0", ["astra", name, "--method", "greedy", "--root", "0"])
        if m <= 45:
            twin(f"astra/exact/{stem}", ["astra", name, "--limit", str(m)])
            for root in sorted({0, 2, g.node_count - 1}):
                add(f"astra/exact/{stem}/root{root}",
                    ["astra", name, "--limit", str(m), "--root", str(root)])

    # refusals: exit code and stderr
    add("refuse/solve-exact-limit", ["solve", "fig3_k1.digraph"])
    add("refuse/astra-exact-limit", ["astra", "fig3_k3.digraph"])
    add("refuse/astra-exact-limit-root", ["astra", "fig3_k3.digraph", "--root", "1"])
    add("refuse/gen-instance-limit", ["gen", "fig3", "--k", "1000000"])
    for method in ("exact", "greedy"):
        add(f"refuse/astra-{method}-not-sc", ["astra", "path3.digraph", "--method", method])
        add(f"refuse/astra-{method}-root-range",
            ["astra", "cycle4.digraph", "--method", method, "--root", "4"])
    add("refuse/solve-arb-not-sc", ["solve", "path3.digraph", "--method", "arb"])
    for method in ("exact", "local", "arb"):
        add(f"refuse/solve-{method}-self-loop", ["solve", "loop.digraph", "--method", method])
    # a count the chosen method does not use is checked all the same
    add("refuse/solve-exact-restarts", ["solve", "cycle4.digraph", "--restarts", "0"])
    add("refuse/solve-exact-steps", ["solve", "cycle4.digraph", "--steps", "-1"])
    add("refuse/solve-arb-limit", ["solve", "cycle4.digraph", "--method", "arb", "--limit", "-5"])
    for method, root in (("exact", "99"), ("local", "-1")):
        add(f"refuse/solve-{method}-root-range",
            ["solve", "cycle4.digraph", "--method", method, "--root", root])
    add("refuse/astra-greedy-limit",
        ["astra", "cycle4.digraph", "--method", "greedy", "--limit", "-5"])
    add("refuse/parse-digraph", ["astra", "bad.digraph"])
    add("refuse/eval-short-schedule", ["eval", "cycle4.digraph", "short.schedule"])
    add("refuse/eval-times-as-schedule",
        ["eval", "fig3_k1.digraph", "fig3_k1.times", "--kind", "schedule"])
    add("refuse/certify-short-assignment", ["certify", "inst", "--assignment", "TT"])
    add("refuse/missing-file", ["eval", "missing.digraph", "short.schedule"])
    return out


def run_case(argv: list[str], fork: bool | None) -> str:
    """The digest of one invocation, run in the current directory."""
    saved = (forks.may_fork, astra.FORK_WORK_THRESHOLD, reachability.FORK_BITS_THRESHOLD,
             reachability.TILE_BITS)
    if fork is not None:
        forks.may_fork = lambda: fork
    if fork:
        astra.FORK_WORK_THRESHOLD = reachability.FORK_BITS_THRESHOLD = 0
        reachability.TILE_BITS = 1  # one source per tile
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        (forks.may_fork, astra.FORK_WORK_THRESHOLD, reachability.FORK_BITS_THRESHOLD,
         reachability.TILE_BITS) = saved
    record = (json.loads(out.getvalue())["result"] if code == 0
              else {"exit": code, "stderr": err.getvalue()})
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    """Every case's digest, computed in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            graphs = write_inputs()
            result = {}
            for name, argv, fork in cases(graphs):
                if name in result:
                    raise ValueError(f"duplicate corpus case {name}")
                result[name] = run_case(argv, fork)
            return result
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    computed = digests()
    DIGESTS.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(computed)} digests to {DIGESTS}", file=sys.stderr)
