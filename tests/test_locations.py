"""A parsed location is a ``SourceLocation`` built when it is read.

A parser keeps in each node and element the index of its token and the
parse's shared token table, and the first read of its ``loc`` turns that
pair into the ``SourceLocation`` the slot then keeps; each ``ParseError``
gets a ``SourceLocation`` from the table, which finds the token offsets
on its first call.  Here every such location, on every text of
``tests/parse_outcomes.json``, on edits of those texts and on seeded
round trips, must equal, hash, print and pickle exactly like the record
for the same place worked out apart from the parser: from the snapshot's
pinned positions, or from the token at the stored index in the reference
tokenizer of ``tests/oracles.py``.  Counting offset passes and location
records pins when they happen: never in a command, nor a layer, that
reports no location.
"""

from __future__ import annotations

import copy
import io
import json
import pickle
import random
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_expr, random_model, random_package
from golden_corpus import projects
from oracles import lex_reference
from prefacer import record, textio
from prefacer.cli import RunConfig, run
from prefacer.constraints import check_constraints
from prefacer.diagnostics import Diagnostic, SourceLocation
from prefacer.model import builtin_check
from prefacer.preface import ConstraintDef, compose
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
from test_parse_outcomes import _header_cases
from test_textio import (
    LEX_PIECES,
    _compare_with_reference,
    _lex_new,
    _lexed,
    _offset,
    read_sample,
)

HERE = Path(__file__).resolve().parent
PARSERS = {"model": parse_model, "package": parse_package, "expr": parse_expr}


def located(tree) -> list:
    """Every node under ``tree`` that has a ``loc``, in the order of
    ``test_textio._located_nodes``; their locations are left unread."""

    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(reversed(node))
        elif is_dataclass(node):
            names = [f.name for f in fields(node)]
            if "loc" in names:
                out.append(node)
            stack.extend(getattr(node, name) for name in reversed(names) if name != "loc")
    return out


def stored(node):
    """What ``node``'s ``loc`` slot holds, read without building anything:
    a parse's ``(token index, token table)`` until the first read."""

    return record._STORED[node.__class__]["loc"](node)


def assert_stands_for(loc, ref: SourceLocation) -> None:
    """``loc`` is a record and behaves as the record ``ref`` in every way
    a caller can see, either way round."""

    assert type(loc) is type(ref) is SourceLocation
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
    found = Diagnostic("E001", "C", "m", loc)
    kept = Diagnostic("E001", "C", "m", ref)
    assert found == kept and kept == found and hash(found) == hash(kept)
    assert repr(found) == repr(kept)


def assert_at_tokens(text: str, file: str, nodes: list) -> None:
    """Each node's location, read after its stored pair, stands for the
    record of the reference tokenizer's token at the pair's index (the end
    of input last)."""

    tokens = lex_reference(text, file)
    for node in nodes:
        index, _ = stored(node)
        assert_stands_for(node.loc, tokens[index].loc)


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
        locs = [node.loc for node in located(tree)]
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
    """Every parser raises only ``ParseError`` on an edited text; every
    location it gives a node is where the reference tokenizer puts the
    token at the stored index, and an error's is where it puts one."""

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
            nodes = located(parse(text, "t"))
        except ParseError as failure:
            assert refused is None or (
                str(failure), failure.loc.line, failure.loc.column) == refused
            if refused is None:
                assert failure.loc in [token.loc for token in tokens]
            continue
        # the header reader does not read past its imports ...
        assert refused is None or parse is read_package_header
        for node in nodes:
            index, _ = stored(node)
            assert_stands_for(node.loc, tokens[index].loc)
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
        assert_at_tokens(text, f"p{index}", [header])
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


@pytest.fixture
def built(monkeypatch) -> list[tuple]:
    """The arguments of each ``SourceLocation`` built, in order."""

    made: list[tuple] = []
    init = SourceLocation.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SourceLocation, "__init__", counting)
    return made


@pytest.fixture
def reads(monkeypatch) -> list[str]:
    """The record class of each ``loc`` read, in order: the read that turns
    a stored pair into a location object, or that gives one already made."""

    classes: list[str] = []
    for cls in record._FIELDS:
        if isinstance(vars(cls).get("loc"), property):
            def read(node, get=vars(cls)["loc"].fget):
                classes.append(node.__class__.__name__)
                return get(node)
            monkeypatch.setattr(cls, "loc", property(read))
    return classes


def _located_texts() -> list[tuple]:
    """(parser, text) for the texts of ``sample/``, the transformed sample
    model printed, the sample's constraint bodies, and seeded texts of
    ``tests/generators``: every parser, and the header reader on every
    package text."""

    sample = HERE.parent / "sample"
    models = [(sample / "example.model").read_text(encoding="utf-8"),
              print_model(read_sample()[2])]
    packages = [path.read_text(encoding="utf-8")
                for path in sorted((sample / "defs").glob("*.preface"))]
    exprs = [format_expr(d.body) for text in packages
             for d in parse_package(text).definitions if isinstance(d, ConstraintDef)]
    rng = random.Random(40)
    for _ in range(8):
        models.append(print_model(random_model(rng)))
        packages.append(print_package(random_package(rng)))
        exprs.append(format_expr(random_expr(rng, 4)))
    return ([(parse_model, text) for text in models] + [(parse_expr, text) for text in exprs]
            + [(parse, text) for text in packages
               for parse in (parse_package, read_package_header)])


def test_parsing_builds_no_location_record_until_one_is_read(passes, built):
    texts = _located_texts()
    # No parser builds a location object: each node keeps its token's
    # index and the parse's table, and a read builds one.
    trees = [(source, parse(source, "t")) for parse, source in texts]
    assert built == [] and passes == [] and len(trees) > 30
    for source, tree in trees:
        nodes = located(tree)
        pairs = [stored(node) for node in nodes]
        assert all(pair.__class__ is tuple and len(pair) == 2 for pair in pairs)
        # One token table per parse.
        assert len({id(table) for _, table in pairs}) == 1
        # One record per node, built on its first read and kept in the
        # slot: a second read, comparing, hashing and printing build no more.
        locs = [node.loc for node in nodes]
        assert len(built) == len(nodes)
        built.clear()
        assert all(loc is node.loc is stored(node) for loc, node in zip(locs, nodes))
        assert len({str(loc) for loc in locs}) == len({hash(loc) for loc in locs})
        assert built == []
        tokens = lex_reference(source, "t")
        for (index, _), loc in zip(pairs, locs):
            assert_stands_for(loc, tokens[index].loc)
        built.clear()
    # The counter does see a record being built: unpickling builds one.
    assert pickle.loads(pickle.dumps(locs[0])) == locs[0]
    assert len(built) == 1


def test_offsets_are_found_once_on_the_first_location_read(passes):
    text = (HERE.parent / "sample" / "example.model").read_text(encoding="utf-8")
    nodes = located(parse_model(text, "example.model"))
    assert passes == []
    assert nodes[-1].loc.line > 1
    assert passes == [text]
    locs = [node.loc for node in nodes]
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


def _run(config: RunConfig) -> None:
    out, err = io.StringIO(), io.StringIO()
    assert run(config, stdout=out, stderr=err) == 0, err.getvalue()


@pytest.mark.parametrize("command", ["compose", "validate", "transform", "skeleton"])
def test_commands_that_print_no_location_find_no_offsets(passes, built, reads, command,
                                                          tmp_path):
    sample = HERE.parent / "sample"
    config = RunConfig(command=command, preface_dir=str(sample / "defs"),
                       root_package="project-p", model_path=str(sample / "example.model"),
                       output=str(tmp_path / "out") if command in ("transform", "skeleton")
                       else None)
    _run(config)
    if command == "transform":  # and the file it wrote, validated
        _run(RunConfig("validate", str(sample / "defs"), "project-p", str(tmp_path / "out")))
    assert passes == [] and built == [] and reads == []


@pytest.mark.parametrize("workload", ["hierarchy", "statecharts", "prefaces"])
def test_the_benchmark_operations_find_no_offsets(passes, built, reads, workload, tmp_path):
    """The four operations of the benchmark's seed-1 project 0 of each
    workload (``perfbench/gen.py``: long ``specializes`` chains, guarded
    charts, quantified package constraints) report warnings without a
    location: no offset pass, no location read and no location record."""

    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(HERE.parent / "perfbench"))
    project = gen.generate(workload, 1, 1, str(tmp_path))[0]
    out_model = str(tmp_path / "out.model")
    for kind, output in (("validate", None), ("transform", out_model),
                         ("revalidate", None), ("skeleton", str(tmp_path / "out"))):
        preface, model = project.inputs[kind]
        _run(RunConfig("validate" if kind == "revalidate" else kind, preface, project.root,
                       model or out_model, output=output))
    assert passes == [] and built == [] and reads == []


def test_findings_find_offsets_once_per_file_that_holds_one(passes, tmp_path):
    files, root, model, _ = projects()["structure"]
    (tmp_path / "defs").mkdir()
    for name, text in files.items():
        (tmp_path / "defs" / name).write_text(text, encoding="utf-8")
    (tmp_path / "m.model").write_text(model, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig("validate", str(tmp_path / "defs"), root, str(tmp_path / "m.model")),
               stdout=out, stderr=err) == 1
    assert err.getvalue().count("m.model:") >= 15
    assert passes == [model]


def test_layers_that_report_no_location_read_none(built, reads):
    repo, model, _ = read_sample()
    eff = compose(repo, "project-p")
    transformed = apply_transforms(model, eff)[0]
    assert builtin_check(transformed) == []
    assert all(d.location is None for d in check_constraints(transformed, eff))
    assert built == [] and reads == []


def test_replace_carries_a_stored_location_unread():
    cls = parse_model("model m\n  class C { attribute a : Integer }", "m").classes[0]
    pair = stored(cls)
    again = record.replace(cls, name="D")
    assert stored(again) is pair and stored(cls) is pair
    assert again.loc == cls.loc == SourceLocation("m", 2, 3)
    assert record.replace(again).loc is again.loc  # a read location is carried as it is


def test_a_parsed_location_is_stored_as_its_token_index_and_the_table():
    tree = parse_expr("a and\n  b", "e")
    nodes = (tree.lhs, tree, tree.rhs)
    pairs = [stored(node) for node in nodes]
    assert [index for index, _ in pairs] == [0, 1, 2]
    assert pairs[0][1] is pairs[1][1] is pairs[2][1]
    assert pairs[2][1](2) == SourceLocation("e", 2, 3)
    loc = tree.rhs.loc
    assert str(loc) == "e:2:3" and stored(tree.rhs) is loc and tree.rhs.loc is loc
