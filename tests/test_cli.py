"""End-to-end tests for the command-line interface."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from instances import (
    EXAMPLE,
    oversized_instance_texts,
    planted_formula,
    record_builds,
    refuse_edge_tuples,
    refuse_to_build,
)

import mret
from mret import astra, graphs, reachability, reduction
from mret.cli import main
from mret.reduction import instance_paths

EXAMPLE_CNF = """\
p cnf 3 3
1 2 3 0
-1 2 3 0
-1 -2 -3 0
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*args):
    """`python *args` in a child process that imports the same `mret` as
    the tests, whether or not the package is installed."""
    paths = [str(Path(mret.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def two_cycle(tmp_path):
    path = tmp_path / "two.digraph"
    path.write_text("2 2\n0 1\n1 0\n")
    return str(path)


@pytest.fixture
def three_cycle(tmp_path):
    path = tmp_path / "three.digraph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    return str(path)


@pytest.fixture
def four_cycle(tmp_path):
    path = tmp_path / "four.digraph"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    return str(path)


def test_eval_schedule(two_cycle, tmp_path, capsys):
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    report = run_json(["eval", two_cycle, str(sched)], capsys)
    assert report["result"] == {"kind": "schedule", "total": 4}


def test_eval_cycle_order(three_cycle, tmp_path, capsys):
    sched = tmp_path / "s.txt"
    sched.write_text("0 1 2\n")
    report = run_json(["eval", three_cycle, str(sched), "--counts"], capsys)
    assert report["result"]["total"] == 8
    assert report["result"]["per_source_counts"] == [3, 3, 2]


def test_eval_times_autodetect(two_cycle, tmp_path, capsys):
    times = tmp_path / "t.txt"
    times.write_text("3 7\n")
    report = run_json(["eval", two_cycle, str(times)], capsys)
    assert report["result"] == {"kind": "times", "total": 4}


def test_eval_kind_override(two_cycle, tmp_path, capsys):
    # "1 2" could be read as times; forcing schedule must fail (not a
    # permutation of 0..1), and forcing times on "0 1" must fail (>= 1)
    mixed = tmp_path / "t.txt"
    mixed.write_text("1 2\n")
    code, _, err = run_cli(["eval", two_cycle, str(mixed), "--kind", "schedule"], capsys)
    assert code == 1 and "permutation" in err
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    code, _, err = run_cli(["eval", two_cycle, str(sched), "--kind", "times"], capsys)
    assert code == 1 and ">= 1" in err


def test_eval_bad_schedule(two_cycle, tmp_path, capsys):
    bad = tmp_path / "s.txt"
    bad.write_text("0 0\n")
    code, _, err = run_cli(["eval", two_cycle, str(bad), "--kind", "schedule"], capsys)
    assert code == 1
    assert "permutation" in err


def test_solve_exact_path(tmp_path, capsys):
    path = tmp_path / "p.digraph"
    path.write_text("3 2\n0 1\n1 2\n")
    out = tmp_path / "best.sched"
    report = run_json(["solve", str(path), "--out", str(out)], capsys)
    assert report["result"]["method"] == "exact"
    assert report["result"]["total"] == 6
    assert report["result"]["schedule"] == [0, 1]
    assert out.read_text() == "0 1\n"
    assert str(out) in report["run"]["outputs"]


def test_solve_exact_four_cycle(four_cycle, capsys):
    report = run_json(["solve", four_cycle], capsys)
    assert report["result"]["total"] == 13
    assert report["result"]["explored"] == 1


def test_solve_local_and_arb(four_cycle, capsys):
    local = run_json(["solve", four_cycle, "--method", "local", "--seed", "3"], capsys)
    assert local["result"]["total"] == 13
    arb = run_json(["solve", four_cycle, "--method", "arb"], capsys)
    assert arb["result"]["total"] >= 9
    assert len(arb["result"]["certificate"]) == 2


def test_solve_scale_limit(tmp_path, capsys):
    # complete digraph on 4 nodes: 12 edges > default limit of 10
    edges = [(a, b) for a in range(4) for b in range(4) if a != b]
    path = tmp_path / "k4.digraph"
    path.write_text("4 12\n" + "".join(f"{a} {b}\n" for a, b in edges))
    code, _, err = run_cli(["solve", str(path)], capsys)
    assert code == 2
    assert "infeasible" in err
    assert main(["solve", str(path), "--limit", "12", "--method", "local"]) == 0
    capsys.readouterr()


def test_a_graph_beyond_c_ints_is_refused_by_the_reach_budget(tmp_path, capsys):
    # n = 2**40: its ends do not fit the engine's C ints, so the canonical
    # parse hands it to the line reader, and every `eval` refuses it by the
    # tiled passes' work limit: 2**52 tiles of sources over n + 1 nodes and edges
    n = 1 << 40
    graph = tmp_path / "huge.digraph"
    graph.write_text(f"{n} 1\n0 {n - 1}\n")
    assert graphs.parse_digraph(graph.read_text()).edges == ((0, n - 1),)
    for name, text in (("schedule", "0\n"), ("times", "1\n")):
        timing = tmp_path / name
        timing.write_text(text)
        for passes, flags in ((1, []), (2, ["--counts"])):
            code, out, err = run_cli(["eval", str(graph), str(timing), *flags], capsys)
            assert (code, out) == (2, "")
            tiles = passes << 52
            assert err == f"error: evaluation infeasible at this scale: {tiles} tiles of " \
                f"sources over {n} nodes and 1 edges take {tiles * (n + 1)} units of work, " \
                f"over the limit of {reachability.EVAL_WORK_LIMIT}\n"


def test_scale_refusals_exit_two(four_cycle, tmp_path, monkeypatch, capsys):
    # the four-cycle runs one tile of 4 sources: 8 units of work a pass
    sched = tmp_path / "s.txt"
    sched.write_text("0 1 2 3\n")
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 7)
    code, out, err = run_cli(["eval", four_cycle, str(sched)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation infeasible at this scale: 1 tiles of sources over 4 " \
        "nodes and 4 edges take 8 units of work, over the limit of 7\n"
    tg = tmp_path / "tg.txt"
    tg.write_text("4 4\n0 1 1\n1 2 2\n2 3 3\n3 0 4\n")
    assert run_cli(["convert", str(tg)], capsys)[:2] == (2, "")
    # --counts runs a forward and a backward pass over each tile
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 15)
    assert run_cli(["eval", four_cycle, str(sched)], capsys)[0] == 0
    assert run_cli(["convert", str(tg)], capsys)[0] == 0
    code, out, err = run_cli(["eval", four_cycle, str(sched), "--counts"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation infeasible at this scale: 2 tiles of sources over 4 " \
        "nodes and 4 edges take 16 units of work, over the limit of 15\n"
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 16)
    assert run_cli(["eval", four_cycle, str(sched), "--counts"], capsys)[0] == 0
    # the tiled paths no longer read the reach budget
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 15)
    assert run_cli(["eval", four_cycle, str(sched), "--counts"], capsys)[0] == 0
    monkeypatch.undo()
    monkeypatch.setattr(astra, "GREEDY_SWEEP_WORK_LIMIT", 31)
    for command in (["solve", four_cycle, "--method", "arb"],
                    ["astra", four_cycle, "--method", "greedy"]):
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "") and "greedy sweep infeasible" in err
        assert run_cli([*command, "--root", "1"], capsys)[0] == 0


def test_greedy_sweep_refuses_by_scale_before_connectivity(tmp_path, monkeypatch, capsys):
    # a 3-node path is not strongly connected, but its sweep of 3 roots over
    # 3 nodes and 2 edges is refused by scale first, by both entry points
    path = tmp_path / "path.digraph"
    path.write_text("3 2\n0 1\n1 2\n")
    monkeypatch.setattr(astra, "GREEDY_SWEEP_WORK_LIMIT", 14)
    for command in (["astra", str(path), "--method", "greedy"],
                    ["solve", str(path), "--method", "arb"]):
        assert run_cli(command, capsys) == (2, "", "error: greedy sweep infeasible at this "
                                            "scale: 3 roots over 3 nodes and 2 edges take 15 "
                                            "units of work, over the limit of 14\n")


def test_every_solver_refuses_by_the_reach_budget_it_passes(tmp_path, monkeypatch, capsys):
    # a 3-cycle's reach sets take 9 bits: the arborescence solve, with one root
    # or all, names that limit as the other solvers do, not the exact pair
    # search's work limit
    cycle = tmp_path / "c3.digraph"
    cycle.write_text("3 3\n0 1\n1 2\n2 0\n")
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 8)
    message = ("error: evaluation infeasible at this scale: the reach sets of 3 nodes take up "
               "to 9 bits, over the limit of 8\n")
    for flags in (["--method", "arb"], ["--method", "arb", "--root", "0"],
                  ["--method", "local"], ["--method", "exact"]):
        assert run_cli(["solve", str(cycle), *flags], capsys) == (2, "", message)


def test_exact_pair_searches_past_900_nodes_and_refuses_by_work(tmp_path, monkeypatch, capsys):
    # a bidirected 1,200-node path nests its out-tree 1,200 deep and runs;
    # from node 0 the search visits 1,200 out-trees of 1,200 + 2,398 units
    # each, so one out-tree less of work refuses it at the last one
    path = tmp_path / "path.digraph"
    path.write_text("1200 2398\n" + "".join(f"{i} {i + 1}\n{i + 1} {i}\n" for i in range(1199)))
    command = ["astra", str(path), "--limit", "3000", "--root", "0"]
    assert run_json(command, capsys)["result"]["min_size"] == 1200
    monkeypatch.setattr(astra, "EXACT_PAIR_WORK_LIMIT", 1199 * 3598)
    assert run_cli(command, capsys) == (2, "", "error: exact pair search infeasible at this "
                                        "scale: its out-trees over 1200 nodes and 2398 edges "
                                        "pass the work limit of 4314002 units\n")


@pytest.mark.parametrize("command, message", [
    (["solve", "--method", "local", "--restarts", "0"], "restarts must be at least 1, got 0"),
    (["solve", "--method", "local", "--restarts", "-4"], "restarts must be at least 1, got -4"),
    (["solve", "--method", "local", "--steps", "-2"], "steps must be at least 0, got -2"),
    (["solve", "--limit", "-1"], "limit must be at least 0, got -1"),
    (["astra", "--limit", "-5"], "limit must be at least 0, got -5"),
    # counts the chosen method does not use
    (["solve", "--method", "exact", "--restarts", "0"], "restarts must be at least 1, got 0"),
    (["solve", "--method", "exact", "--steps", "-1"], "steps must be at least 0, got -1"),
    (["solve", "--method", "arb", "--limit", "-5"], "limit must be at least 0, got -5"),
    (["solve", "--method", "local", "--limit", "-1"], "limit must be at least 0, got -1"),
    (["astra", "--method", "greedy", "--limit", "-5"], "limit must be at least 0, got -5"),
])
def test_bad_counts_are_invalid_input(four_cycle, command, message, capsys):
    # a count out of range exits 1; it never runs as some other count
    code, out, err = run_cli([command[0], four_cycle, *command[1:]], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_exact_pair_refusal_names_the_limit(four_cycle, capsys):
    code, out, err = run_cli(["astra", four_cycle, "--method", "exact", "--limit", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: exact pair search infeasible at this scale: 4 edges " \
        "exceed the limit of 3\n"


def test_reduce_and_certify_refuse_beyond_the_instance_limit(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(EXAMPLE_CNF)
    reduce = ["reduce", "f.cnf", "--k", "2", "--m-param", "5", "--out", "inst"]
    assert run_cli(reduce, capsys)[0] == 0
    monkeypatch.setattr(graphs, "INSTANCE_SIZE_LIMIT", 110)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli([*reduce[:-1], "other"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: reduction infeasible at this scale: 39 nodes and 72 edges " \
        "exceed the limit of 110\n"
    assert sorted(tmp_path.iterdir()) == before
    parsed = []
    monkeypatch.setattr(reduction, "parse_digraph", parsed.append)
    code, out, err = run_cli(["certify", "inst", "--assignment", "FTT"], capsys)
    assert (code, out) == (2, "") and "reduction infeasible" in err
    assert parsed == []


@pytest.mark.parametrize("command, blocked", [
    (["gen", "fig3", "--k", "1", "--out", "w.digraph"], "w.digraph.roles"),
    (["reduce", "f.cnf", "--k", "2", "--m-param", "5", "--out", "inst"], "inst.manifest.json"),
    (["convert", "tg.txt", "--out", "conv"], "conv.schedule"),
])
def test_writes_are_all_or_nothing(command, blocked, tmp_path, monkeypatch, capsys):
    # a directory where a later output goes: the command writes no file
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(EXAMPLE_CNF)
    Path("tg.txt").write_text("3 3\n0 1 5\n1 2 9\n2 0 9\n")
    Path(blocked).mkdir()
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(command, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{blocked}'\n"
    assert sorted(tmp_path.iterdir()) == before
    Path(blocked).rmdir()
    assert run_cli(command, capsys)[0] == 0 and Path(blocked).is_file()


@pytest.mark.parametrize("command", [
    ["gen", "fig3", "--k", "1", "--out", "locked/w.digraph"],
    ["reduce", "f.cnf", "--k", "2", "--m-param", "5", "--out", "locked/inst"],
    ["convert", "tg.txt", "--out", "locked/conv"],
])
def test_writes_into_an_unwritable_directory_write_nothing(
    command, tmp_path, monkeypatch, capsys
):
    # root ignores the mode bits, so the directory's refusal is faked
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(EXAMPLE_CNF)
    Path("tg.txt").write_text("3 3\n0 1 5\n1 2 9\n2 0 9\n")
    Path("locked").mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: Path(p).name != "locked" and access(p, mode))
    code, out, err = run_cli(command, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 13] Permission denied: 'locked/")
    assert list(Path("locked").iterdir()) == []


def test_writes_into_a_missing_directory_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(EXAMPLE_CNF)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(["reduce", "f.cnf", "--k", "2", "--m-param", "5",
                              "--out", "nodir/inst"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: [Errno 2] No such file or directory: 'nodir/inst.digraph'\n"
    assert sorted(tmp_path.iterdir()) == before


def test_reduce_writes_instance(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    prefix = tmp_path / "inst"
    report = run_json(
        ["reduce", str(cnf), "--k", "2", "--m-param", "5", "--out", str(prefix)],
        capsys,
    )
    result = report["result"]
    assert result["n"] == 3 and result["m"] == 3
    # H = 2(K+1)m + 4n = 30; nodes = M+H+4; edges = 4n+6m+m(m-1)+4Km+2M+2
    assert result["H_size"] == 30
    assert result["node_count"] == 39 and result["edge_count"] == 72
    # by hand: 195 + 90 + 84 + 42 + 84 + 21 + 30 = 546
    assert result["L"] == "546"
    assert result["official"] is False
    for suffix in (".digraph", ".roles", ".manifest.json"):
        assert (tmp_path / ("inst" + suffix)).exists()
        assert str(prefix) + suffix in report["run"]["outputs"]
    manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
    assert manifest["L"] == "546"


def test_reduce_rejects_bad_cnf(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    code, _, err = run_cli(["reduce", str(cnf), "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert "3" in err


@pytest.fixture
def instance_prefix(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    prefix = tmp_path / "inst"
    assert main(["reduce", str(cnf), "--k", "2", "--m-param", "5",
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    return str(prefix)


def test_certify_assignment(instance_prefix, capsys):
    report = run_json(["certify", instance_prefix, "--assignment", "FTT"], capsys)
    assert report["result"]["meets_L"] is True
    assert report["result"]["L"] == "546"
    assert report["result"]["total"] >= 546


def test_certify_unsatisfying_assignment(instance_prefix, capsys):
    # TTT falsifies the all-negative third clause
    code, _, err = run_cli(["certify", instance_prefix, "--assignment", "TTT"], capsys)
    assert code == 1
    assert "satisfy" in err


def test_certify_reads_each_instance_file_once(instance_prefix, monkeypatch, capsys):
    reads = []
    for name in ("read_bytes", "read_text"):
        original = getattr(Path, name)

        def counted(self, *args, _original=original, **kwargs):
            reads.append(str(self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    report = run_json(["certify", instance_prefix, "--assignment", "FTT"], capsys)
    # the digests in the manifest are of the very bytes that were parsed
    assert sorted(reads) == sorted(report["run"]["inputs"])
    assert sorted(reads) == sorted(
        instance_prefix + s for s in (".digraph", ".roles", ".manifest.json")
    )


def test_certify_schedule_file(instance_prefix, tmp_path, capsys):
    sched = tmp_path / "rev.sched"
    sched.write_text(" ".join(str(i) for i in reversed(range(72))) + "\n")
    report = run_json(["certify", instance_prefix, "--schedule", str(sched)], capsys)
    assert report["result"]["source"] == "schedule"
    assert report["result"]["meets_L"] is False


def test_certify_reads_what_reduce_wrote_at_a_directory_prefix(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    prefix = str(tmp_path / "out") + "/"
    written = run_json(["reduce", str(cnf), "--k", "1", "--m-param", "1",
                        "--out", prefix], capsys)["run"]["outputs"]
    assert written[0] == str(tmp_path / "out.digraph")
    report = run_json(["certify", prefix, "--assignment", "FTT"], capsys)
    assert report["result"]["meets_L"] is True
    assert sorted(report["run"]["inputs"]) == sorted(written)


def test_certify_refuses_an_instance_too_large_to_evaluate_before_parsing(
    instance_prefix, tmp_path, monkeypatch, capsys
):
    sched = tmp_path / "rev.sched"
    sched.write_text(" ".join(str(i) for i in reversed(range(72))) + "\n")
    argv = ["certify", instance_prefix, "--schedule", str(sched)]
    parsed = []
    monkeypatch.setattr(reduction, "parse_digraph", parsed.append)
    monkeypatch.setattr(reduction, "build_instance", refuse_to_build)
    # the instance has 39 nodes and 72 edges, which one tile of sources runs
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 39 + 72 - 1)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation infeasible at this scale: 1 tiles of sources over 39 " \
        "nodes and 72 edges take 111 units of work, over the limit of 110\n"
    assert parsed == []
    monkeypatch.undo()
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 39 + 72)
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 0)  # not read by the tiled pass
    assert run_json(argv, capsys)["result"]["source"] == "schedule"


def test_certify_assignment_is_not_refused_by_the_reach_budget(
    instance_prefix, monkeypatch, capsys
):
    # an assignment is evaluated on the twin classes, never on 39 reach sets
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 39 * 39 - 1)
    monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", 39 + 72 - 1)
    report = run_json(["certify", instance_prefix, "--assignment", "FTT"], capsys)
    assert report["result"]["meets_L"] is True


def test_certify_proves_the_benchmark_instance_by_its_text(tmp_path, monkeypatch, capsys):
    # the benchmark's 19,404-node instance: neither file is parsed, and the
    # instance is rebuilt once at K = 60, M = 12,000, besides the class graph
    formula, planted = planted_formula(1, 20, 60)
    cnf = tmp_path / "planted.cnf"
    cnf.write_text(mret.format_dimacs(formula))
    prefix = str(tmp_path / "planted")
    assert run_cli(["reduce", str(cnf), "--k", "60", "--m-param", "12000", "--out", prefix],
                   capsys)[0] == 0
    builds = record_builds(monkeypatch)
    bits = "".join("FT"[b] for b in planted)
    assert run_json(["certify", prefix, "--assignment", bits], capsys)["result"]["meets_L"]
    assert builds == [(60, 12000), (1, 1)]


def test_certify_records_the_paths_reduce_wrote(tmp_path, monkeypatch, capsys):
    # both commands name the instance files as reduction.instance_paths
    # does, so a "./" prefix is recorded as "inst.digraph", not "./inst.digraph"
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(EXAMPLE_CNF)
    written = run_json(["reduce", "f.cnf", "--k", "1", "--m-param", "1",
                        "--out", "./inst"], capsys)["run"]["outputs"]
    assert written == ["inst.digraph", "inst.roles", "inst.manifest.json"]
    report = run_json(["certify", "./inst", "--assignment", "FTT"], capsys)
    assert list(report["run"]["inputs"]) == written


@pytest.mark.parametrize("field", ["H_size", "node_count", "edge_count", "L", "U1", "U2"])
def test_certify_refuses_a_manifest_with_a_wrong_derived_field(
    field, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(EXAMPLE_CNF)
    assert run_cli(["reduce", "f.cnf", "--k", "2", "--m-param", "5", "--out", "inst"],
                   capsys)[0] == 0
    path = Path("inst.manifest.json")
    manifest = json.loads(path.read_text())
    value = int(manifest[field]) + 1
    manifest[field] = str(value) if isinstance(manifest[field], str) else value
    path.write_text(json.dumps(manifest))
    code, out, err = run_cli(["certify", "inst", "--assignment", "FTT"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: inst.manifest.json does not match the rebuilt instance\n"


def test_certify_refuses_an_instance_smaller_than_its_manifest(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(reduction, "build_instance", refuse_to_build)
    prefix = tmp_path / "big"
    for path, text in zip(instance_paths(prefix), oversized_instance_texts()):
        path.write_text(text)
    code, out, err = run_cli(["certify", str(prefix), "--assignment", "FTT"], capsys)
    assert code == 1 and out == ""
    # the one-line error report, not an exception escaping main
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not match its manifest parameters" in err


def test_bounds_official(capsys):
    report = run_json(["bounds", "--n", "3", "--m", "3"], capsys)
    result = report["result"]
    assert result["K"] == 819 and result["M"] == 24373970
    assert result["official"] is True
    assert int(result["L_minus_U1"]) > 0
    assert int(result["L_minus_U2"]) > 0
    assert isinstance(result["L"], str)


def test_bounds_small_override(capsys):
    report = run_json(["bounds", "--n", "3", "--m", "3", "--k", "1",
                       "--m-param", "2"], capsys)
    assert report["result"]["official"] is False
    assert report["result"]["L"] == str(int(report["result"]["L"]))


def test_astra_best_root(tmp_path, capsys):
    assert main(["gen", "fig3", "--k", "1", "--out", str(tmp_path / "w")]) == 0
    capsys.readouterr()
    report = run_json(["astra", str(tmp_path / "w")], capsys)
    result = report["result"]
    assert result["method"] == "exact"
    assert result["best_min"] == 7
    assert result["per_root"] == [7, 7, 4, 4, 4, 4, 4, 4, 2, 2, 2]
    assert result["ratio"] == pytest.approx(7 / 11)


def test_astra_single_root(two_cycle, capsys):
    report = run_json(["astra", two_cycle, "--root", "0"], capsys)
    result = report["result"]
    assert result["min_size"] == 2
    assert result["out_edges"] == [0] and result["in_edges"] == [1]


@pytest.mark.parametrize("method", ["exact", "greedy"])
def test_astra_single_root_matches_the_all_roots_report(tmp_path, capsys, method):
    for k in range(1, 6):
        path = tmp_path / f"w{k}.digraph"
        assert main(["gen", "fig3", "--k", str(k), "--out", str(path)]) == 0
        base = ["astra", str(path), "--method", method, "--limit", "40"]
        capsys.readouterr()
        per_root = run_json(base, capsys)["result"]["per_root"]
        for root, size in enumerate(per_root):
            assert run_json([*base, "--root", str(root)], capsys)["result"]["min_size"] == size


def test_astra_greedy(two_cycle, capsys):
    report = run_json(["astra", two_cycle, "--method", "greedy"], capsys)
    assert report["result"]["best_min"] == 2
    assert report["result"]["ratio"] == 1.0


def test_astra_rejects_disconnected(tmp_path, capsys):
    path = tmp_path / "d.digraph"
    path.write_text("2 1\n0 1\n")
    code, _, err = run_cli(["astra", str(path)], capsys)
    assert code == 1
    assert "strongly connected" in err


@pytest.fixture
def empty_graph(tmp_path):
    path = tmp_path / "empty.digraph"
    path.write_text("0 0\n")
    return str(path)


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--method", "arb"],
        ["astra", "--method", "greedy"],
        ["astra", "--method", "exact"],
    ],
)
def test_empty_graph_refused(empty_graph, args, capsys):
    code, out, err = run_cli([args[0], empty_graph, *args[1:]], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: digraph has no nodes\n"


def test_empty_graph_refused_under_optimize(empty_graph):
    # python -O strips asserts, so the refusal must not rest on one
    proc = run_module("-O", "-m", "mret.cli", "solve", empty_graph, "--method", "arb")
    assert proc.returncode == 1
    assert proc.stderr == "error: digraph has no nodes\n"
    assert "Traceback" not in proc.stderr


GOLDEN_FIG3_K1 = (
    "11 16\n"
    "0 1\n"
    "1 2\n2 3\n3 0\n3 8\n8 2\n"
    "1 4\n4 5\n5 0\n5 9\n9 4\n"
    "1 6\n6 7\n7 0\n7 10\n10 6\n"
)


def test_gen_fig3_golden(tmp_path, capsys):
    out = tmp_path / "w.digraph"
    report = run_json(["gen", "fig3", "--k", "1", "--out", str(out)], capsys)
    assert report["result"]["node_count"] == 11
    assert report["result"]["edge_count"] == 16
    assert out.read_bytes() == GOLDEN_FIG3_K1.encode()
    roles = (tmp_path / "w.digraph.roles").read_text().splitlines()
    assert roles[0] == "0 x" and roles[2] == "2 x_1" and roles[8] == "8 z_1_1"


def test_gen_fig3_embedded(capsys):
    report = run_json(["gen", "fig3", "--k", "2"], capsys)
    assert report["result"]["digraph"].startswith("14 19\n")
    assert len(report["result"]["roles"]) == 14
    assert report["run"]["outputs"] == []


def test_gen_random_sc_deterministic(tmp_path, capsys):
    first = tmp_path / "a.digraph"
    second = tmp_path / "b.digraph"
    base = ["gen", "random-sc", "--n", "8", "--extra", "6", "--seed", "7"]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    other = run_json(["gen", "random-sc", "--n", "8", "--extra", "6", "--seed", "8"],
                     capsys)
    assert other["result"]["digraph"] != first.read_text()


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    assert run_cli(["gen", "fig3", "--k", "0"], capsys)[0] == 1
    assert run_cli(["gen", "random-sc", "--n", "1"], capsys)[0] == 1
    assert run_cli(["gen", "random-sc", "--n", "3", "--extra", "99"], capsys)[0] == 1


def test_gen_refuses_beyond_the_instance_limit(monkeypatch, capsys):
    # refused before anything is built: at 4 * 10^6 nodes + edges a graph
    # would take hundreds of MB, so these would exhaust memory if built
    assert run_cli(["gen", "fig3", "--k", "10000000"], capsys) == (
        2, "", "error: fig3 generation infeasible at this scale: 30000008 nodes and "
        "30000013 edges exceed the limit of 4000000\n")
    assert run_cli(["gen", "random-sc", "--n", "3000000", "--extra", "1000001"], capsys) == (
        2, "", "error: random-sc generation infeasible at this scale: 3000000 nodes and "
        "4000001 edges exceed the limit of 4000000\n")
    # fig3 k = 1 has 11 nodes and 16 edges; random-sc n = 5, extra = 4 has 5 and 9
    fig3 = ["gen", "fig3", "--k", "1"]
    random_sc = ["gen", "random-sc", "--n", "5", "--extra", "4"]
    for command, size in ((fig3, 27), (random_sc, 14)):
        monkeypatch.setattr(graphs, "INSTANCE_SIZE_LIMIT", size - 1)
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "") and "generation infeasible at this scale" in err
        monkeypatch.setattr(graphs, "INSTANCE_SIZE_LIMIT", size)
        assert run_cli(command, capsys)[0] == 0


def test_convert_round_trip(tmp_path, capsys):
    tg = tmp_path / "tg.txt"
    tg.write_text("3 3\n0 1 5\n1 2 9\n2 0 9\n")
    prefix = tmp_path / "conv"
    report = run_json(["convert", str(tg), "--out", str(prefix)], capsys)
    assert report["result"]["total"] == 7
    assert (tmp_path / "conv.digraph").read_text() == "3 3\n0 1\n1 2\n2 0\n"
    # ties broken by edge index, so the order is just 0 1 2
    assert (tmp_path / "conv.schedule").read_text() == "0 1 2\n"
    embedded = run_json(["convert", str(tg)], capsys)
    assert embedded["result"]["schedule"] == [0, 1, 2]


def test_convert_builds_no_edge_tuples(tmp_path, monkeypatch, capsys):
    # a canonical temporal-graph file is parsed into its endpoint array,
    # evaluated and written back out without a (tail, head) tuple
    g = mret.gen_random_sc(40, 80, seed=2)
    times = mret.Temporalisation(tuple(1 + i % 7 for i in range(g.edge_count)))
    tg = tmp_path / "tg.txt"
    tg.write_text(mret.format_temporal_graph(g, times))
    digraph = "".join([f"40 {g.edge_count}\n", *(f"{a} {b}\n" for a, b in g.edges)])
    order = sorted(range(g.edge_count), key=times.times.__getitem__)
    total = mret.total_reachability(g, times)
    refuse_edge_tuples(monkeypatch)
    prefix = tmp_path / "conv"
    written = run_json(["convert", str(tg), "--out", str(prefix)], capsys)["result"]
    assert written == {"node_count": 40, "edge_count": g.edge_count, "total": total}
    assert (tmp_path / "conv.digraph").read_text() == digraph
    assert (tmp_path / "conv.schedule").read_text() == " ".join(map(str, order)) + "\n"
    embedded = run_json(["convert", str(tg)], capsys)["result"]
    assert embedded == {**written, "digraph": digraph, "schedule": order}


def test_reduce_and_certify_build_no_edge_tuples(tmp_path, monkeypatch, capsys):
    # the instance is built, written, rebuilt, proved by its text and
    # evaluated from its endpoint array, the class graph's included
    inst = reduction.build_instance(EXAMPLE, k_override=2, m_override=5)
    schedule = reduction.schedule_from_assignment(inst, (False, True, True))
    sched = tmp_path / "constructive.sched"
    sched.write_text(mret.format_schedule(schedule))
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    prefix = str(tmp_path / "inst")
    refuse_edge_tuples(monkeypatch)
    reduced = run_json(["reduce", str(cnf), "--k", "2", "--m-param", "5", "--out", prefix],
                       capsys)["result"]
    assert (reduced["node_count"], reduced["edge_count"]) == (39, 72)
    for witness in (["--assignment", "FTT"], ["--schedule", str(sched)]):
        verdict = run_json(["certify", prefix, *witness], capsys)["result"]
        assert verdict["meets_L"] is True and verdict["L"] == "546"


def test_every_out_prefix_follows_one_rule(tmp_path, monkeypatch, capsys):
    # "d/" names the files "d", "d.roles", "d.digraph": no file inside a
    # directory "d/", and the outputs record the paths written
    monkeypatch.chdir(tmp_path)
    Path("tg.txt").write_text("3 3\n0 1 5\n1 2 9\n2 0 9\n")
    gen = run_json(["gen", "fig3", "--k", "1", "--out", "d/"], capsys)
    assert gen["run"]["outputs"] == ["d", "d.roles"]
    assert Path("d").read_text() == GOLDEN_FIG3_K1
    assert Path("d.roles").read_text().startswith("0 x\n")
    conv = run_json(["convert", "tg.txt", "--out", "d/"], capsys)
    assert conv["run"]["outputs"] == ["d.digraph", "d.schedule"]
    assert Path("d.schedule").read_text() == "0 1 2\n"
    solve = run_json(["solve", "d.digraph", "--out", "./best.sched"], capsys)
    assert solve["run"]["outputs"] == ["best.sched"]


def test_manifest_spells_inputs_and_outputs_alike(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("g.digraph").write_text("3 2\n0 1\n1 2\n")
    run = run_json(["solve", "./g.digraph", "--out", "./x"], capsys)["run"]
    assert list(run["inputs"]) == ["g.digraph"]
    assert run["outputs"] == ["x"]


def one_line_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    return err


def test_eval_errors_name_the_file(two_cycle, tmp_path, capsys):
    graph = tmp_path / "g.digraph"
    graph.write_text("3 2\n0 1\n1 5\n")
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    assert one_line_error(["eval", str(graph), str(sched)], capsys) == (
        f"error: {graph}: line 3: endpoint out of range: (1, 5) with n=3\n")
    timing = tmp_path / "t.txt"
    timing.write_text("# labels\n0 x\n")
    assert one_line_error(["eval", two_cycle, str(timing)], capsys) == (
        f"error: {timing}: line 2: non-integer value\n")
    assert one_line_error(["eval", two_cycle, str(timing), "--kind", "times"], capsys) == (
        f"error: {timing}: line 2: non-integer time label\n")


def test_certify_names_the_bad_roles_file(instance_prefix, capsys):
    roles = Path(instance_prefix + ".roles")
    lines = roles.read_text().splitlines()
    lines[2] = "2"
    roles.write_text("\n".join(lines) + "\n")
    err = one_line_error(["certify", instance_prefix, "--assignment", "FTT"], capsys)
    assert err == f"error: {roles}: line 3: expected a '2 <role>' line, got '2'\n"


@pytest.mark.parametrize("suffix", [".digraph", ".roles", ".manifest.json"])
def test_non_utf8_input_names_the_file(instance_prefix, suffix, tmp_path, capsys):
    bad = tmp_path / "bad.digraph"
    bad.write_bytes(b"\xff2 2\n0 1\n1 0\n")
    err = one_line_error(["solve", str(bad)], capsys)
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    # each instance file is named once, also inside "bad manifest <path>"
    path = Path(instance_prefix + suffix)
    path.write_bytes(b"\xff" + path.read_bytes())
    err = one_line_error(["certify", instance_prefix, "--assignment", "FTT"], capsys)
    assert err.count(str(path)) == 1 and "can't decode byte 0xff" in err


def test_certify_refuses_a_boolean_manifest_parameter(tmp_path, capsys):
    # at K = 1 the rebuild from "K": true would equal the instance on file
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    prefix = str(tmp_path / "inst")
    assert main(["reduce", str(cnf), "--k", "1", "--m-param", "2", "--out", prefix]) == 0
    path = Path(prefix + ".manifest.json")
    manifest = json.loads(path.read_text())
    manifest["K"] = True
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    err = one_line_error(["certify", prefix, "--assignment", "FTT"], capsys)
    assert err == f"error: bad manifest {path}: K is not an integer: true\n"


def test_run_manifest_fields(two_cycle, tmp_path, capsys):
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    report = run_json(["eval", two_cycle, str(sched)], capsys)
    run = report["run"]
    assert run["command"] == "eval"
    assert run["prng"] == "mt19937"
    assert run["arguments"] == ["eval", two_cycle, str(sched)]
    assert run["wall_time_s"] >= 0
    for digest in run["inputs"].values():
        assert digest.startswith("sha256:") and len(digest) == 71
    assert set(run["inputs"]) == {two_cycle, str(sched)}


def test_text_format(two_cycle, tmp_path, capsys):
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    code, out, _ = run_cli(["--format", "text", "eval", two_cycle, str(sched)],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert "total: 4" in lines
    assert any(line.startswith("run: command=eval") for line in lines)
    # a list value is one line of its items
    code, out, _ = run_cli(["--format", "text", "eval", two_cycle, str(sched), "--counts"],
                           capsys)
    assert code == 0 and "per_source_counts: 2 2" in out.splitlines()
    out_path = tmp_path / "back.digraph"
    code, out, _ = run_cli(["--format", "text", "gen", "fig3", "--k", "1",
                            "--out", str(out_path)], capsys)
    lines = out.splitlines()
    assert code == 0 and f"run: output {out_path}" in lines
    assert f"run: output {out_path}.roles" in lines


def test_threads_flag_rejected(two_cycle, tmp_path, capsys):
    # execution is serial; a --threads flag would do nothing, so there is none
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    code, out, err = run_cli(["--threads", "4", "eval", two_cycle, str(sched)], capsys)
    assert code == 1 and out == "" and "error" in err
    code, _, err = run_cli(["--threads=4", "eval", two_cycle, str(sched)], capsys)
    assert code == 1 and "unrecognized arguments: --threads=4" in err


def test_a_command_leaves_no_cyclic_garbage_once_the_parser_is_built(three_cycle, capsys):
    # the parser is built once per process; rebuilding it on every call left
    # 495 objects in reference cycles for the cyclic collector
    command = ["solve", three_cycle, "--method", "arb"]
    assert run_cli(command, capsys)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert main(command) == 0
        assert gc.collect() <= 50
    finally:
        gc.enable()


def test_usage_errors_exit_one(capsys):
    assert run_cli(["nosuchcommand"], capsys)[0] == 1
    assert run_cli(["solve"], capsys)[0] == 1
    assert run_cli(["bounds", "--n", "3"], capsys)[0] == 1


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(["eval", "nosuch.digraph", "nosuch.sched"], capsys)
    assert code == 1
    assert "nosuch.digraph" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "eval" in out and "reduce" in out


def test_console_script(tmp_path):
    path = tmp_path / "two.digraph"
    path.write_text("2 2\n0 1\n1 0\n")
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    proc = run_module("-m", "mret.cli", "eval", str(path), str(sched))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["total"] == 4
