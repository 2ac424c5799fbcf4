"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from instances import oversized_instance_texts, refuse_to_build

import mret
from mret import astra, reachability, reduction
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
    assert report["result"]["explored"] == 14


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


def test_scale_refusals_exit_two(four_cycle, tmp_path, monkeypatch, capsys):
    sched = tmp_path / "s.txt"
    sched.write_text("0 1 2 3\n")
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 15)
    code, out, err = run_cli(["eval", four_cycle, str(sched)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation infeasible at this scale: the reach sets of 4 nodes " \
        "take up to 16 bits, over the limit of 15\n"
    monkeypatch.undo()
    monkeypatch.setattr(astra, "GREEDY_SWEEP_WORK_LIMIT", 31)
    for command in (["solve", four_cycle, "--method", "arb"],
                    ["astra", four_cycle, "--method", "greedy"]):
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "") and "greedy sweep infeasible" in err
        assert run_cli([*command, "--root", "1"], capsys)[0] == 0


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
    monkeypatch.setattr(reduction, "INSTANCE_SIZE_LIMIT", 110)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli([*reduce[:-1], "other"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: reduction infeasible at this scale: 39 nodes and 72 edges " \
        "exceed the limit of 110\n"
    assert sorted(tmp_path.iterdir()) == before
    code, out, err = run_cli(["certify", "inst", "--assignment", "FTT"], capsys)
    assert (code, out) == (2, "") and "reduction infeasible" in err


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
    instance_prefix, monkeypatch, capsys
):
    parsed = []
    monkeypatch.setattr(reduction, "parse_digraph", parsed.append)
    # the instance has 39 nodes, whose reach sets take up to 1,521 bits
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 39 * 39 - 1)
    code, out, err = run_cli(["certify", instance_prefix, "--assignment", "FTT"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation infeasible at this scale: the reach sets of 39 nodes " \
        "take up to 1521 bits, over the limit of 1520\n"
    assert parsed == []
    monkeypatch.undo()
    monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 39 * 39)
    assert run_json(["certify", instance_prefix, "--assignment", "FTT"], capsys)["result"]["meets_L"]


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


def test_threads_flag_rejected(two_cycle, tmp_path, capsys):
    # execution is serial; a --threads flag would do nothing, so there is none
    sched = tmp_path / "s.txt"
    sched.write_text("0 1\n")
    code, out, err = run_cli(["--threads", "4", "eval", two_cycle, str(sched)], capsys)
    assert code == 1 and out == "" and "error" in err
    code, _, err = run_cli(["--threads=4", "eval", two_cycle, str(sched)], capsys)
    assert code == 1 and "unrecognized arguments: --threads=4" in err


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
