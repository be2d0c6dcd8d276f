"""Parsed locations stand for ``SourceLocation`` records they never build.

A parser gives each node, element and ``ParseError`` a ``LazyLocation``:
the offset of its token and the parse's shared line table.  Here every such
location, on every text of ``tests/parse_outcomes.json`` and on seeded
round trips, must equal, hash, print and pickle exactly like the eager
record for the same place, worked out apart from the parser: from the
snapshot's pinned positions, or from the offset by counting line ends and
checked against the reference tokenizer of ``tests/oracles.py``.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from generators import random_expr, random_model, random_package
from oracles import lex_reference
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


def counted(text: str, file: str, offset: int) -> SourceLocation:
    """The eager record for ``offset``, by counting line ends before it."""

    return SourceLocation(file, text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset))


def assert_at_tokens(text: str, file: str, locs: list) -> None:
    """Each location is where the reference tokenizer starts a token (or
    the end of input), and stands for the record counted from its offset."""

    token_starts = {(t.loc.line, t.loc.column) for t in lex_reference(text, file)}
    for loc in locs:
        ref = counted(text, file, loc.offset)
        assert (ref.line, ref.column) in token_starts, (file, ref)
        assert_stands_for(loc, ref)


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


def test_parsing_builds_no_location_record_until_one_is_read(monkeypatch):
    built = []
    init = SourceLocation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SourceLocation, "__init__", counting_init)
    text = (HERE.parent / "sample" / "example.model").read_text(encoding="utf-8")
    locs = located(parse_model(text, "example.model"))
    assert built == [] and len(locs) > 10
    assert all(type(loc) is LazyLocation for loc in locs)
    # One line table per parse, holding the file name and the text; its
    # line starts are found on the first read, and no token list is kept.
    tables = {id(loc.lines) for loc in locs}
    assert len(tables) == 1
    table = locs[0].lines
    kept = dict(zip(table.__code__.co_freevars,
                    (cell.cell_contents for cell in table.__closure__)))
    assert kept == {"file": "example.model", "starts": [], "text": text}
    # Reading, comparing, hashing and printing build no record either.
    assert [str(loc) for loc in locs] == [
        f"example.model:{text.count(chr(10), 0, loc.offset) + 1}:"
        f"{loc.offset - text.rfind(chr(10), 0, loc.offset)}" for loc in locs]
    assert kept["starts"][:2] == [0, text.index("\n") + 1]
    assert len({hash(loc) for loc in locs}) > 1 and locs[0] == locs[0]
    assert repr(locs[0]).startswith("SourceLocation(file='example.model', line=")
    assert built == []
    # The counter does see a record being built: unpickling builds one.
    assert pickle.loads(pickle.dumps(locs[0])) == locs[0]
    assert len(built) == 1


def test_a_lazy_location_holds_an_offset_and_the_line_table():
    loc = parse_expr("a and\n  b", "e").lhs.loc
    assert LazyLocation.__slots__ == ("offset", "lines")
    assert not hasattr(loc, "__dict__")
    assert str(parse_expr("a and\n  b", "e").rhs.loc) == "e:2:3"
