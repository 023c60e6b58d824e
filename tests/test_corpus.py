"""The parity corpus keeps its bytes: every record of ``corpus.py`` hashes as
``corpus_manifest.json`` has it (rewrite the manifest as that module says)."""

import corpus


def test_every_corpus_record_keeps_its_bytes():
    moved = corpus.moved(corpus.hashes())
    assert not moved, f"{len(moved)} corpus records differ: {moved}"
