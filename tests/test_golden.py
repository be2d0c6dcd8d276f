"""The golden corpus, ``tests/golden/``, against a fresh run of every command."""

from __future__ import annotations

import golden_corpus


def test_every_command_prints_and_writes_the_golden_corpus(tmp_path):
    golden = golden_corpus.GOLDEN
    committed = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted(golden.glob("*.txt"))}
    assert golden_corpus.render_all(tmp_path) == committed
