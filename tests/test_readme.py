"""The README's examples, run as written.

The package block under "Preface packages" is package text, the
``python`` block under "Library use" runs on ``sample/``: each line whose
comment starts with a value gives that value, the table under
"Diagnostics" names every code the source can emit, and each line of the
block under "Grammar" reads and prints back in every form it gives.
"""

from __future__ import annotations

import ast
import re
from itertools import product
from pathlib import Path

from test_golden import source_codes
from prefacer.preface import Provenance
from prefacer.textio import parse_model, parse_package, print_model, print_package

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


#: The sample text each capitalised slot of the Grammar block is filled with.
SAMPLES = {"NAME": "n", "TYPE_NAME": "Integer", "SUPERCLASSES": "A, B", "STEREOTYPES": "s, t",
           "PARAMS": "a : Integer, b : String", "EXPRESSION": "size(self.a) > 1",
           "ATTACHED_TO": "C", "SOURCE": "s", "TARGET": "t", "EVENT": "e", "ID": "p",
           "KEY": "k", "LITERAL": "-1", "VALUE": "v", "METACLASS": "Class",
           "REQUIRED_TAGS": "t, u", "PROPERTY_KEY": "k", "PREDICATE": "all",
           "TRANSFORM_ID": "x-y"}

#: The smallest file that holds a line, by the line's first word (``""`` for
#: a parameter, whose line starts with a slot); ``@`` marks the line.
_CLASS_MEMBER = "model m\n  class C {\n    @\n  }\n"
_CHART_MEMBER = "model m\n  statechart S for C {\n    @\n  }\n"
_DEFINITION = 'package "p" {\n  @\n}\n'
HOLDERS = {
    "model": "@\n", "class": "model m\n  @\n", "statechart": "model m\n  @\n",
    **dict.fromkeys(["attribute", "operation", "invariant"], _CLASS_MEMBER),
    "": "model m\n  class C {\n    operation f(@)\n  }\n",
    **dict.fromkeys(["initial", "state", "transition"], _CHART_MEMBER),
    "package": "@\n",
    **dict.fromkeys(["import", "const", "option", "stereotype", "tagdef", "constraint", "rule",
                     "transform"], _DEFINITION),
    **dict.fromkeys(["all", "stereotype(", "metaclass("], 'package "p" {\n  rule k when @ = v\n}\n'),
}

#: A clause that may be left out, brackets inside it kept as they are.
_CLAUSE = re.compile(r"\[((?:[^][]|\[[^][]*\])*)\]")
_WORDS = re.compile(r"(\w+(?:\|\w+)+)")  # one of the words given


def _forms(line: str) -> list[str]:
    """Every form of a README grammar line: each clause present and left
    out, each of its ``a|b`` words in turn."""

    pieces = _CLAUSE.split(line)  # text, clause, text, …
    forms = []
    for chosen in product(*[[piece] if k % 2 == 0 else [piece, ""]
                            for k, piece in enumerate(pieces)]):
        words = _WORDS.split("".join(chosen))  # text, words, text, …
        forms += map("".join, product(*[[piece] if k % 2 == 0 else piece.split("|")
                                        for k, piece in enumerate(words)]))
    return forms


def _first_word(form: str) -> str:
    return re.match(r"[a-z]*\(?", form)[0]


def _held(form: str) -> str:
    """A form of a line, its slots filled with ``SAMPLES``, in its holder:
    a block's ``{ … }`` opens and closes on lines of their own."""

    holder = HOLDERS[_first_word(form)]
    indent = holder.split("@")[0].rsplit("\n", 1)[-1]
    line = re.sub(r"[A-Z][A-Z_]+", lambda slot: SAMPLES[slot[0]], form)
    line = line.replace(" { \N{HORIZONTAL ELLIPSIS} }", " {\n" + indent + "}")
    return holder.replace("@", line.removesuffix(" \N{HORIZONTAL ELLIPSIS}"))


def test_each_readme_grammar_line_reads_and_prints_back_in_every_form():
    body = README.split("\n### Grammar\n", 1)[1].split("\n## ", 1)[0]
    block = body.split("\n```\n", 1)[1].split("\n```\n", 1)[0]
    first_words = set()
    for line in block.splitlines():
        forms = _forms(line)
        texts = [_held(form) for form in forms]
        first_words.update(map(_first_word, forms))
        for text in texts:
            parse, show = ((parse_package, print_package) if text.startswith("package")
                           else (parse_model, print_model))
            record = parse(text)
            printed = show(record)
            # Unchanged, unless two forms read alike: then the one the printer
            # writes (a constraint's severity left out reads as ``error``).
            assert printed == text or printed in texts and parse(printed) == record, (line, text)
    assert first_words == set(HOLDERS)
