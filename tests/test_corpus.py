"""The parity corpus keeps its bytes: every record of ``corpus.py`` hashes as
``corpus_manifest.json`` has it (rewrite the manifest as that module says)."""

import json

import corpus


def test_every_corpus_record_keeps_its_bytes():
    expected = json.loads(corpus.MANIFEST.read_text())
    got = corpus.hashes()
    moved = sorted(key for key in expected.keys() | got.keys()
                   if expected.get(key) != got.get(key))
    assert not moved, f"{len(moved)} of {len(expected)} corpus records differ: {moved}"
