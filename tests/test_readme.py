"""The README's examples, run as written.

The package block under "Preface packages" is package text, and the
``python`` block under "Library use" runs on ``sample/``: each line whose
comment starts with a value gives that value.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from prefacer.preface import Provenance
from prefacer.textio import parse_model, parse_package, print_package

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(section: str, fence: str) -> str:
    """The first fenced block of a ``## section`` whose fence reads ``fence``."""

    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"\n{fence}\n", 1)[1].split("\n```\n", 1)[0] + "\n"


def test_the_readme_package_prints_back_to_its_own_definition_lines():
    block = _block("Preface packages", "```")
    written = "".join(re.sub(r"\s*//.*", "", line) + "\n" for line in block.splitlines())
    assert print_package(parse_package(block)) == written


#: The call a line of the library example makes -> the start of its comment,
#: the value that line gives on the sample.
STATED = {
    "lookup_scalar": '(8, Provenance("project-p", 6))',
    "builtin_check": "[]",
    "resolve_predicated": '("persistent", Provenance("uml-core", 2))',
    "eval_expr": "3",
}


def test_the_readme_library_example_gives_the_values_its_comments_state():
    source = _block("Library use", "```python")
    repo = {}
    for path in sorted((ROOT / "sample" / "defs").glob("*.preface")):
        pkg = parse_package(path.read_text(encoding="utf-8"), str(path))
        repo[pkg.id] = pkg
    model = parse_model((ROOT / "sample" / "example.model").read_text(encoding="utf-8"))
    namespace = {"repo": repo, "model": model}
    lines = source.splitlines()
    checked = []
    for statement in ast.parse(source).body:
        # an expression's value, or what an assignment bound
        if isinstance(statement, ast.Expr):
            value = eval(ast.get_source_segment(source, statement), namespace)
        else:
            exec(ast.get_source_segment(source, statement), namespace)
            value = (eval(ast.get_source_segment(source, statement.targets[0]), namespace)
                     if isinstance(statement, ast.Assign) else None)
        line = lines[statement.lineno - 1]
        for call, stated in STATED.items():
            if f"{call}(" in line.split("#")[0]:
                assert line.split("#", 1)[1].strip().startswith(stated), line
                assert value == eval(stated, {"Provenance": Provenance}), line
                checked.append(call)
    assert checked == list(STATED)
