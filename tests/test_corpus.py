"""Every corpus case answers as recorded in `corpus_digests.json`.

A change that alters results on purpose regenerates the file with
`PYTHONPATH=src python tests/corpus.py` and names each changed case.
"""

import json

import corpus
from instances import record_builds

from mret import reduction


def test_corpus_digests_are_unchanged():
    want = json.loads(corpus.DIGESTS.read_text())
    got = corpus.digests()
    assert sorted(got) == sorted(want), "the case list differs from the recorded one"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"{len(changed)} corpus cases changed: {changed}"


def test_forked_cases_answer_as_their_serial_twins():
    want = json.loads(corpus.DIGESTS.read_text())
    forked = [name for name in want if name.endswith("/fork")]
    twins = {name: want.get(name.replace("/fork", "/serial"), want.get(name[:-len("/fork")]))
             for name in forked}
    assert len(forked) == 201 and all(want[name] == twins[name] for name in forked)


def test_certify_assignment_cases_do_not_run_the_engine(tmp_path, monkeypatch):
    # the certify --assignment totals come from the twin classes alone
    want = json.loads(corpus.DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    graphs = corpus.write_inputs()

    def refuse(*args):
        raise AssertionError("the engine evaluated an assignment")

    monkeypatch.setattr(reduction, "total_reachability", refuse)
    checked = 0
    for name, argv, fork in corpus.cases(graphs):
        if name.startswith("reduce/") or "--assignment" in argv:
            assert corpus.run_case(argv, fork) == want[name], name
            checked += name.startswith("certify/")
    assert checked == 8


def test_certify_proves_reduce_output_by_its_text(tmp_path, monkeypatch):
    # certify parses no instance file that reduce wrote, and rebuilds the
    # instance once at its K and M; an assignment adds the class graph
    want = json.loads(corpus.DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    graphs = corpus.write_inputs()
    builds = record_builds(monkeypatch)
    sizes = {}
    checked = 0
    for name, argv, fork in corpus.cases(graphs):
        if argv[0] == "reduce":
            sizes[argv[-1]] = int(argv[argv.index("--k") + 1]), int(argv[argv.index("--m-param") + 1])
        elif argv[0] != "certify":
            continue
        builds.clear()
        assert corpus.run_case(argv, fork) == want[name], name
        if argv[0] == "certify":
            assert builds[0] == sizes[argv[1]] and builds[1:] in ([], [(1, 1)]), name
            checked += 1
    assert checked == 11
