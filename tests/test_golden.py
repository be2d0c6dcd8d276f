"""The golden corpus, ``tests/golden/``, against a fresh run of every command,
and the diagnostic codes it shows against the codes the source can emit."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import golden_corpus

SRC = Path(__file__).resolve().parent.parent / "src" / "prefacer"

#: Codes no command line reaches, each with the reason; only a library
#: caller that builds its own records or calls the check itself sees them.
LIBRARY_ONLY = {
    "E014": "the model grammar reads a transition's event only as an identifier",
    "E015": "the model grammar gives every element the authored origin",
    "E107": "the command line stops on a missing root with a composition error, exit code 3",
    "E109": "the rule grammar refuses an unknown metaclass",
}


def source_codes() -> set[str]:
    """Every diagnostic code written as a literal under ``src/prefacer``."""

    return {node.value for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[EWI]\d{3}", node.value)}


def test_every_command_prints_and_writes_the_golden_corpus(tmp_path):
    golden = golden_corpus.GOLDEN
    committed = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted(golden.glob("*.txt"))}
    assert golden_corpus.render_all(tmp_path) == committed


def test_the_golden_corpus_shows_every_code_but_the_library_only_ones():
    shown: dict[str, set[str]] = {}
    for path in golden_corpus.GOLDEN.glob("*.txt"):
        text = path.read_text(encoding="utf-8")
        found = (re.findall(r'^ +"code": "(\w+)"', text, re.M) if path.name.endswith(".json.txt")
                 else re.findall(r"^  (?:error|warning|info) (\w+) ", text, re.M))
        shown.setdefault(path.name.split(".")[1], set()).update(found)
    assert shown["text"] == shown["json"]
    assert not shown["text"] & set(LIBRARY_ONLY)
    assert shown["text"] | set(LIBRARY_ONLY) == source_codes()
