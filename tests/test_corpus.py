"""Every corpus case answers as recorded in `corpus_digests.json`.

A change that alters results on purpose regenerates the file with
`PYTHONPATH=src python tests/corpus.py` and names each changed case.
"""

import json

import corpus


def test_corpus_digests_are_unchanged():
    want = json.loads(corpus.DIGESTS.read_text())
    got = corpus.digests()
    assert sorted(got) == sorted(want), "the case list differs from the recorded one"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"{len(changed)} corpus cases changed: {changed}"
