"""Parsed locations stand for ``SourceLocation`` records they never build.

A parser gives each node, element and ``ParseError`` a ``LazyLocation``:
the index of its token and the parse's shared token table, which finds
the token offsets on the first read.  Here every such location, on every
text of ``tests/parse_outcomes.json``, on edits of those texts and on
seeded round trips, must equal, hash, print and pickle exactly like the
eager record for the same place, worked out apart from the parser: from
the snapshot's pinned positions, or from the token at the same index of
the reference tokenizer of ``tests/oracles.py``.  Counting the offset
passes pins when they happen.
"""

from __future__ import annotations

import copy
import io
import json
import pickle
import random
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_expr, random_model, random_package
from oracles import lex_reference
from prefacer import textio
from prefacer.cli import RunConfig, run
from prefacer.diagnostics import Diagnostic, LazyLocation, SourceLocation
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
from test_parse_outcomes import _header_cases
from test_textio import LEX_PIECES, _compare_with_reference, _lex_new, _lexed, _offset

HERE = Path(__file__).resolve().parent
PARSERS = {"model": parse_model, "package": parse_package, "expr": parse_expr}


def located(tree) -> list:
    """The ``loc`` of every node under ``tree`` that has one, in the order
    of ``test_textio._located_nodes``."""

    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(reversed(node))
        elif is_dataclass(node):
            names = [f.name for f in fields(node)]
            if "loc" in names:
                out.append(node.loc)
            stack.extend(getattr(node, name) for name in reversed(names) if name != "loc")
    return out


def assert_stands_for(loc, ref: SourceLocation) -> None:
    """``loc`` is lazy and behaves as the eager record ``ref`` in every way
    a caller can see, either way round."""

    assert type(loc) is LazyLocation and type(ref) is SourceLocation
    assert isinstance(loc, SourceLocation) and loc.__class__ is SourceLocation
    assert (loc.file, loc.line, loc.column) == (ref.file, ref.line, ref.column)
    assert loc == ref and ref == loc and not loc != ref and not ref != loc
    assert hash(loc) == hash(ref) and {ref: 1}[loc] == 1
    assert str(loc) == str(ref) and repr(loc) == repr(ref)
    assert pickle.dumps(loc) == pickle.dumps(ref)
    for clone in (pickle.loads(pickle.dumps(loc)), copy.copy(loc), copy.deepcopy(loc)):
        assert type(clone) is SourceLocation and clone == ref
    moved = SourceLocation(ref.file, ref.line, ref.column + 1)
    assert loc != moved and moved != loc and not loc == moved
    assert loc != (ref.file, ref.line, ref.column) and loc.__eq__(None) is NotImplemented
    found = Diagnostic("error", "E001", "C", "m", loc)
    kept = Diagnostic("error", "E001", "C", "m", ref)
    assert found == kept and kept == found and hash(found) == hash(kept)
    assert repr(found) == repr(kept)


def assert_at_tokens(text: str, file: str, locs: list) -> None:
    """Each location stands for the record of the reference tokenizer's
    token at the location's index (the end of input last)."""

    tokens = lex_reference(text, file)
    for loc in locs:
        assert_stands_for(loc, tokens[loc.index].loc)


def test_every_snapshot_text_locates_as_the_eager_records():
    snapshot = json.loads((HERE / "parse_outcomes.json").read_text(encoding="utf-8"))
    nodes = errors = 0
    for entry in snapshot:
        name, text, outcome = entry["name"], entry["text"], entry["outcome"]
        try:
            tree = PARSERS[entry["parser"]](text, name)
        except ParseError as failure:
            line, column, _ = outcome["error"][len(name) + 1:].split(":", 2)
            assert_stands_for(failure.loc, SourceLocation(name, int(line), int(column)))
            errors += 1
            continue
        locs = located(tree)
        assert len(locs) == len(outcome["located"]), name
        for loc, (_, line, column) in zip(locs, outcome["located"]):
            assert_stands_for(loc, SourceLocation(name, line, column))
        nodes += len(locs)
    assert errors > 300 and nodes > 1500


SNAPSHOT_TEXTS = [entry["text"] for entry in
                  json.loads((HERE / "parse_outcomes.json").read_text(encoding="utf-8"))]

#: One edit: insert a piece at a position, or delete or replace as many
#: characters there as the piece has.
EDIT = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                 st.integers(0, 10**6), st.sampled_from(LEX_PIECES))


def _edited(text: str, edits: list) -> str:
    for kind, where, piece in edits:
        at = where % (len(text) + 1)
        cut = at if kind == "insert" else at + len(piece)
        text = text[:at] + ("" if kind == "delete" else piece) + text[cut:]
    return text


@given(st.sampled_from(SNAPSHOT_TEXTS), st.lists(EDIT, min_size=1, max_size=2))
@settings(max_examples=300, deadline=None)
def test_edited_snapshot_texts_locate_at_the_reference_tokens(text, edits):
    """Every parser raises only ``ParseError`` on an edited text, and every
    location it gives, of a node or of the error, is where the reference
    tokenizer puts the token at the location's index."""

    text = _edited(text, edits)
    # Judges the scanner's texts and positions, with the one documented
    # difference: a non-ASCII letter or digit is refused.
    _compare_with_reference(text)
    # Before a refused character both tokenizers agree.
    _, refused = _lexed(_lex_new, text)
    cut = len(text) if refused is None else _offset(text, *refused[1:])
    tokens = lex_reference(text[:cut], "t")
    for parse in (*PARSERS.values(), read_package_header):
        try:
            locs = located(parse(text, "t"))
        except ParseError as failure:
            assert refused is None or (
                str(failure), failure.loc.line, failure.loc.column) == refused
            locs = [failure.loc]
        else:  # the header reader does not read past its imports ...
            assert refused is None or parse is read_package_header
        for loc in locs:
            assert_stands_for(loc, tokens[loc.index].loc)
    # ... and where it reads, it agrees with the package parser.
    _header_cases([("t", text)])


@pytest.mark.parametrize("seed", range(4))
def test_round_trips_locate_as_the_eager_records(seed):
    rng = random.Random(seed)
    for index in range(6):
        text = print_model(random_model(rng))
        assert_at_tokens(text, f"m{index}", located(parse_model(text, f"m{index}")))
        text = print_package(random_package(rng))
        tree = parse_package(text, f"p{index}")
        assert_at_tokens(text, f"p{index}", located(tree))
        header = read_package_header(text, f"p{index}")
        assert_at_tokens(text, f"p{index}", [header.loc])
        assert header.loc == tree.loc
        text = format_expr(random_expr(rng, 4))
        assert_at_tokens(text, f"e{index}", located(parse_expr(text, f"e{index}")))


def test_scanner_errors_locate_as_the_reference_tokenizer_does():
    for text in ("model m\n  class C { attribute a : $ }", 'model m\n\n  "open',
                 "package \"p\" {\n  const x = 1 # }"):
        with pytest.raises(ParseError) as failure:
            parse_model(text, "t") if text.startswith("model") else parse_package(text, "t")
        with pytest.raises(ParseError) as reference:
            lex_reference(text, "t")
        assert str(failure.value) == str(reference.value)
        assert_stands_for(failure.value.loc, reference.value.loc)


@pytest.fixture
def passes(monkeypatch) -> list[str]:
    """The text of each pass that finds token offsets, in order."""

    texts: list[str] = []
    offsets = textio._offsets

    def counting(text: str):
        texts.append(text)
        return offsets(text)

    monkeypatch.setattr(textio, "_offsets", counting)
    return texts


def test_parsing_builds_no_location_record_until_one_is_read(monkeypatch, passes):
    text = (HERE.parent / "sample" / "example.model").read_text(encoding="utf-8")
    tokens = lex_reference(text, "example.model")
    built = []
    init = SourceLocation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SourceLocation, "__init__", counting_init)
    locs = located(parse_model(text, "example.model"))
    assert built == [] and len(locs) > 10 and passes == []
    assert all(type(loc) is LazyLocation for loc in locs)
    # One token table per parse.
    assert len({id(loc.table) for loc in locs}) == 1
    # Reading, comparing, hashing and printing build no record either.
    assert [str(loc) for loc in locs] == [str(tokens[loc.index].loc) for loc in locs]
    assert len({hash(loc) for loc in locs}) > 1 and locs[0] == locs[0]
    assert repr(locs[0]).startswith("SourceLocation(file='example.model', line=")
    assert built == []
    # The counter does see a record being built: unpickling builds one.
    assert pickle.loads(pickle.dumps(locs[0])) == locs[0]
    assert len(built) == 1


def test_offsets_are_found_once_on_the_first_location_read(passes):
    text = (HERE.parent / "sample" / "example.model").read_text(encoding="utf-8")
    locs = located(parse_model(text, "example.model"))
    assert passes == []
    assert locs[-1].line > 1
    assert passes == [text]
    assert locs[-1].column > 0 and str(locs[-1]).startswith("example.model:")
    assert all(loc == loc and loc.file == "example.model" for loc in locs)
    assert len({str(loc) for loc in locs}) == len({hash(loc) for loc in locs}) > 10
    assert passes == [text]
    # Each parse has its own table; a parse error names its location, so
    # a failed parse makes its one pass as it fails.
    with pytest.raises(ParseError) as failure:
        parse_model(text + "}", "broken.model")
    assert passes == [text, text + "}"]
    assert str(failure.value).startswith("broken.model:") and failure.value.loc.line > 1
    assert len(passes) == 2


@pytest.mark.parametrize("command", ["compose", "validate", "transform", "skeleton"])
def test_commands_that_print_no_location_find_no_offsets(passes, command, tmp_path):
    sample = HERE.parent / "sample"
    config = RunConfig(command=command, preface_dir=str(sample / "defs"),
                       root_package="project-p", model_path=str(sample / "example.model"),
                       output=str(tmp_path / "out") if command == "skeleton" else None)
    out, err = io.StringIO(), io.StringIO()
    assert run(config, stdout=out, stderr=err) == 0, err.getvalue()
    assert passes == []


def test_a_lazy_location_holds_a_token_index_and_the_table():
    tree = parse_expr("a and\n  b", "e")
    assert LazyLocation.__slots__ == ("index", "table")
    assert not hasattr(tree.lhs.loc, "__dict__")
    assert (tree.lhs.loc.index, tree.loc.index, tree.rhs.loc.index) == (0, 1, 2)
    assert str(tree.rhs.loc) == "e:2:3"
