"""The README's examples, run as written.

The package block under "Preface packages" is package text, the
``python`` block under "Library use" runs on ``sample/``: each line whose
comment starts with a value gives that value, the table under
"Diagnostics" names every code the source can emit, and the block under
"Grammar" is the grammar table, one line per row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from test_golden import source_codes
from prefacer import textio
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
    "Diagnostic": '"warning"',
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


def test_the_readme_diagnostics_table_names_every_code_the_source_emits():
    body = README.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in body.splitlines() if line.startswith("| ")]
    named = []
    for entry in (entry.strip() for row in rows[1:] for entry in row.split(",")):
        first, _, last = entry.partition("\N{EN DASH}")
        named += [f"{first[0]}{number:03}"
                  for number in range(int(first[1:]), int((last or first)[1:]) + 1)]
    assert len(named) == len(set(named)) == 40
    assert set(named) == source_codes()


def _rendered(row, outer: str = "") -> str:
    """A row as the README writes it: a name by its field in capitals,
    allowed words as ``a|b``, a clause in ``[…]``, a block as ``…``; an
    induced-element note is left out."""

    out = []
    for piece in row.pieces:
        if isinstance(piece, str):
            out.append(piece)
            continue
        field, slot = piece
        if isinstance(slot, textio._Opt):
            out.append("[" + _rendered(slot.row, field) + "]")
        elif isinstance(slot, textio._Block):
            out.append(" \N{HORIZONTAL ELLIPSIS} ")
        elif slot is textio._QUOTED:
            out.append('"ID"')
        elif isinstance(slot, textio._Primitive):
            out.append(slot.what.split()[1].upper())
        elif slot is textio._METACLASS:
            out.append("METACLASS")
        elif isinstance(slot, textio._Words):
            out.append("|".join(slot.choices))
        elif not isinstance(slot, textio._Note):
            out.append((field or outer).upper())
    return "".join(out)


def test_the_readme_grammar_is_the_grammar_table():
    rows = []
    for row in textio._grammar().values():
        rows.append(row)
        rows += [case for piece in row.pieces if isinstance(piece, tuple)
                 and isinstance(piece[1], textio._Choice) for case in piece[1].rows.values()]
    body = README.split("\n### Grammar\n", 1)[1].split("\n## ", 1)[0]
    block = body.split("\n```\n", 1)[1].split("\n```\n", 1)[0]
    blocks = re.compile(r"( \N{HORIZONTAL ELLIPSIS} )+")
    assert block.splitlines() == [
        blocks.sub(" \N{HORIZONTAL ELLIPSIS} ", _rendered(row)).strip() for row in rows]
