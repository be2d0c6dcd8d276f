"""Parse outcomes pinned on about 400 texts, broken ones included.

``tests/parse_outcomes.json`` holds seeded texts (the ``sample/`` files,
the two location-test sources, generated models, packages and
expressions, and mutations of each: a token deleted, duplicated or swapped
with its neighbour, a stray character inserted, the text cut short) and
what the parser that reads each kind made of it: the ``ParseError``
string, or a digest of the tree's ``repr`` (sets sorted) with the ``[type, line,
column]`` of every located node.  ``repr`` leaves locations out, so the
two together pin the tree and every position in it.

The snapshot is the judge of any change to the lexer or the parser:
every outcome must stay byte for byte.  Regenerate it only for a
deliberate change of the grammar or its messages, with
``python3 scripts/golden.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from generators import random_expr, random_model, random_package
from prefacer.model import Invariant
from prefacer.preface import (
    STATECHART_TO_CLASS,
    ConstraintDef,
    Package,
    TransformSelection,
    resolve,
)
from prefacer.textio import (
    ParseError,
    format_expr,
    parse_expr,
    parse_model,
    parse_package,
    print_model,
    print_package,
    read_package_header,
)
from prefacer.transformer import apply_transforms
from test_textio import EVERY_DEFINITION_PACKAGE, EVERY_NODE_MODEL, _located_nodes

SNAPSHOT = Path(__file__).parent / "parse_outcomes.json"
SAMPLE = Path(__file__).resolve().parent.parent / "sample"

PARSERS = {"model": parse_model, "package": parse_package, "expr": parse_expr}

#: A rough token splitter, independent of the one under test: comments,
#: strings, two-character symbols, words, numbers, any other character.
_PIECE = re.compile(r'//[^\n]*|"[^"\n]*"|->|<<|>>|<>|<=|>=|\w+|\S')

#: Characters a mutation inserts: refused ones, a stray quote, ones the
#: grammar knows but not there, and blanks.
_STRAY = ("?", "@", "#", "!", "é", "²", '"', "\t", "{", ")", ",", "-", "\n")

_ENABLED = resolve([Package("t", (), (TransformSelection(STATECHART_TO_CLASS, True),))])


def _mutate(text: str, kind: str, rng: random.Random) -> str:
    pieces = [m.span() for m in _PIECE.finditer(text)]
    if kind == "cut":
        return text[:rng.randrange(len(text) + 1)]
    if kind == "stray":
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(_STRAY) + text[at:]
    if not pieces:
        return text
    index = rng.randrange(len(pieces))
    start, end = pieces[index]
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:]
    # swap with the next piece, or the previous one at the end
    if len(pieces) < 2:
        return text
    if index == len(pieces) - 1:
        index -= 1
    (a0, a1), (b0, b1) = pieces[index], pieces[index + 1]
    return text[:a0] + text[b0:b1] + text[a1:b0] + text[a0:a1] + text[b1:]


MUTATIONS = ("delete", "duplicate", "swap", "stray", "cut")


def _generated_model(rng: random.Random) -> str:
    model = random_model(rng)
    classes = tuple(
        replace(cls, invariants=cls.invariants + (Invariant(random_expr(rng, 3)),))
        if rng.random() < 0.5 else cls
        for cls in model.classes)
    model = replace(model, classes=classes)
    if rng.random() < 0.5:
        # induced elements print with a trailing comment
        model, _ = apply_transforms(model, _ENABLED)
    text = print_model(model)
    return text.replace("\n", "\r\n") if rng.random() < 0.2 else text


def _generated_package(rng: random.Random) -> str:
    pkg = random_package(rng)
    body = random_expr(rng, 3)
    pkg = replace(pkg, definitions=pkg.definitions + (
        ConstraintDef("generated", "Class", "error", body),))
    return print_package(pkg)


def _inputs() -> list[tuple[str, str, str]]:
    """``(name, parser kind, text)`` of every text the snapshot covers."""

    rng = random.Random(8)
    bases: list[tuple[str, str, str, int]] = []  # name, kind, text, mutants per kind
    for path in sorted(SAMPLE.rglob("*")):
        kind = {".model": "model", ".preface": "package"}.get(path.suffix)
        if kind is not None:
            name = path.relative_to(SAMPLE.parent).as_posix()
            bases.append((name, kind, path.read_text(encoding="utf-8"), 3))
    bases.append(("every-node.model", "model", EVERY_NODE_MODEL, 3))
    bases.append(("every-definition.preface", "package", EVERY_DEFINITION_PACKAGE, 3))
    for i in range(20):
        bases.append((f"model-{i}", "model", _generated_model(rng), 1))
    for i in range(18):
        bases.append((f"package-{i}", "package", _generated_package(rng), 1))
    for i in range(20):
        bases.append((f"expr-{i}", "expr", format_expr(random_expr(rng, 4)), 1))

    out = []
    for name, kind, text, per_kind in bases:
        out.append((name, kind, text))
        for mutation in MUTATIONS:
            for n in range(per_kind):
                out.append((f"{name}#{mutation}{n}", kind, _mutate(text, mutation, rng)))
    return out


def _canonical(value) -> str:
    """``repr`` with set and dict members sorted, so that it does not
    depend on string hashing; like ``repr``, it leaves locations out."""

    if is_dataclass(value):
        shown = (f"{f.name}={_canonical(getattr(value, f.name))}"
                 for f in fields(value) if f.repr)
        return f"{type(value).__name__}({', '.join(shown)})"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_canonical(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(sorted(
            f"{_canonical(k)}: {_canonical(v)}" for k, v in value.items())) + "}"
    return repr(value)


def _outcome(kind: str, text: str, name: str):
    """The ``ParseError`` text, or a digest of the tree's canonical
    ``repr`` and its located nodes."""

    try:
        tree = PARSERS[kind](text, name)
    except ParseError as failure:
        return {"error": str(failure)}
    return {"repr": hashlib.sha256(_canonical(tree).encode()).hexdigest()[:24],
            "located": _located_nodes(tree, name)}


def snapshot_entries() -> list[dict]:
    """The entries of the snapshot, freshly made."""

    return [{"name": name, "parser": kind, "text": text, "outcome": _outcome(kind, text, name)}
            for name, kind, text in _inputs()]


def test_parse_outcomes_match_the_snapshot():
    snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert len(snapshot) >= 400
    errors = 0
    for entry in snapshot:
        outcome = _outcome(entry["parser"], entry["text"], entry["name"])
        assert outcome == entry["outcome"], entry["name"]
        errors += "error" in outcome
    # both kinds of outcome are well represented
    assert 50 < errors < len(snapshot) - 50, errors


def _header_texts() -> list[tuple[str, str]]:
    """``(name, text)``: generated packages with one mutation in the part
    up to their last import, so that headers break in every way."""

    rng = random.Random(12)
    out = []
    for i in range(300):
        pkg = random_package(rng)
        text = ("// a leading comment\n" if rng.random() < 0.3 else "") + print_package(pkg)
        # The header ends with the line of the last import, or with "{".
        cut = text.index("\n", text.rfind("import")) + 1 if pkg.imports else text.index("{") + 1
        mutation = MUTATIONS[i % len(MUTATIONS)]
        out.append((f"header-{i}", _mutate(text[:cut], mutation, rng) + text[cut:]))
    return out


def _offset(text: str, line: int, column: int) -> int:
    starts = [0, *(i + 1 for i, c in enumerate(text) if c == "\n")]
    return starts[line - 1] + column - 1


def _header_end(text: str, imports: int) -> int:
    """Where the header ends, by the rough splitter: past ``package``, the
    id, ``{`` and each ``import`` and its id."""

    pieces = [m for m in _PIECE.finditer(text) if not m.group().startswith("//")]
    return pieces[2 + 2 * imports].end()


def _header_cases(texts: list[tuple[str, str]]) -> Counter:
    """Check ``read_package_header`` against ``parse_package`` on each text;
    count the texts that parse, those whose header fails and those that
    fail only after their imports."""

    cases: Counter = Counter()
    for name, text in texts:
        try:
            full = parse_package(text, name)
        except ParseError as failure:
            full = failure
        try:
            header = read_package_header(text, name)
        except ParseError as failure:
            assert (type(failure), str(failure)) == (type(full), str(full)), name
            assert failure.loc == full.loc, name
            cases["header fails"] += 1
            continue
        if isinstance(full, ParseError):
            assert _offset(text, full.loc.line, full.loc.column) >= \
                _header_end(text, len(header.imports)), name
            cases["body fails"] += 1
            continue
        assert (header.id, header.imports, header.definitions, header.loc) == \
            (full.id, full.imports, (), full.loc), name
        cases["parses"] += 1
    return cases


def test_the_header_reader_agrees_with_the_parser():
    snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    pinned = [(e["name"], e["text"]) for e in snapshot if e["parser"] == "package"]
    assert pinned == [(name, text) for name, kind, text in _inputs() if kind == "package"]
    assert _header_cases(pinned) == {"parses": 31, "header fails": 26, "body fails": 115}
    cases = _header_cases(_header_texts())
    assert min(cases.values()) > 30 and len(cases) == 3, cases


def test_a_lone_quote_is_not_a_quoted_id_to_the_header_reader():
    # A quote with no partner on its line is an unterminated string, even
    # where the header wants a quoted id.
    texts = [("lone-id", 'package " {\n}\n'),
             ("lone-import", 'package "p" {\n  import " {\n}\n')]
    assert _header_cases(texts) == {"header fails": 2}
