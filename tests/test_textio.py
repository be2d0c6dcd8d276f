"""Text formats: lexing, parsing, printing, and the round-trip laws."""

from __future__ import annotations

import gc
import json
import random
import re
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from generators import random_expr, random_model, random_package, random_repo
from oracles import conjoin, format_expr_reference, lex_reference
from report_oracle import report_reference
from prefacer import expr as E
from prefacer.constraints import eval_expr
from prefacer.model import Model, Origin
from prefacer.preface import (
    ConstDef,
    Package,
    Predicate,
    compose,
    flatten_imports,
    resolve,
)
from prefacer.textio import (
    MAX_NESTING,
    ImportAfterDefinitionError,
    ParseError,
    _scan,
    _TOKEN,
    format_expr,
    parse_expr,
    parse_model,
    parse_package,
    print_model,
    print_package,
    print_report,
    print_transform_report,
)
from prefacer.transformer import TransformReport, apply_transforms


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def test_precedence_from_loosest_to_tightest():
    e = parse_expr("a implies b or c and not d = e + 1")
    assert e == E.Implies(
        E.VarRef("a"),
        E.Or(E.VarRef("b"),
             E.And(E.VarRef("c"),
                   E.Not(E.Compare("=", E.VarRef("d"),
                                   E.Add(E.VarRef("e"), E.Literal(1)))))))


def test_implies_is_right_associative():
    assert parse_expr("a implies b implies c") == E.Implies(
        E.VarRef("a"), E.Implies(E.VarRef("b"), E.VarRef("c")))


def test_and_or_are_left_associative():
    assert parse_expr("a and b and c") == E.And(
        E.And(E.VarRef("a"), E.VarRef("b")), E.VarRef("c"))
    assert parse_expr("a or b or c") == E.Or(
        E.Or(E.VarRef("a"), E.VarRef("b")), E.VarRef("c"))


def test_comparison_does_not_chain():
    with pytest.raises(ParseError):
        parse_expr("1 < 2 < 3")


def test_parentheses_and_navigation():
    e = parse_expr("(a or b).name")
    assert e == E.Nav(E.Or(E.VarRef("a"), E.VarRef("b")), "name")
    e = parse_expr("self.attributes.name")
    assert e == E.Nav(E.Nav(E.VarRef("self"), "attributes"), "name")


def test_quantifier_and_builtin_syntax():
    e = parse_expr('forall(a in self.attributes | a.name <> "x")')
    assert isinstance(e, E.Forall)
    assert e.var == "a"
    e = parse_expr("exists(t in sc.transitions | isEmpty(t.source))")
    assert isinstance(e, E.Exists)
    e = parse_expr('hasStereotype(self, "event")')
    assert e == E.Call("hasStereotype", (E.VarRef("self"), E.Literal("event")))


def test_builtin_names_are_plain_variables_without_parens():
    assert parse_expr("size") == E.VarRef("size")
    assert parse_expr("size + 1") == E.Add(E.VarRef("size"), E.Literal(1))
    assert parse_expr("exactlyOne") == E.VarRef("exactlyOne")
    assert parse_expr("exactlyOne and x") == E.And(E.VarRef("exactlyOne"), E.VarRef("x"))
    # A call is told by the next token's text with any quotes taken off,
    # but the message names the string token as it was written.
    with pytest.raises(ParseError) as failure:
        parse_expr('size "("', file="q")
    assert str(failure.value) == "q:1:6: expected '(', found '\"(\"'"


def test_exactly_one_takes_one_or_more_expressions():
    a, b, c, d = (E.VarRef(n) for n in "abcd")
    e = parse_expr("exactlyOne(a, b or c, not d)")
    assert e == E.Call("exactlyOne", (a, E.Or(b, c), E.Not(d)))
    assert format_expr(e) == "exactlyOne(a, b or c, not d)"
    assert parse_expr("exactlyOne(a)") == E.Call("exactlyOne", (a,))
    located = parse_expr("a and exactlyOne(b, c)", file="q.expr").rhs.loc
    assert (located.file, located.line, located.column) == ("q.expr", 1, 7)


def test_exactly_one_needs_an_argument():
    with pytest.raises(ParseError) as failure:
        parse_expr("exactlyOne()", file="q.expr")
    assert str(failure.value) == "q.expr:1:12: expected an expression, found ')'"
    for source in ("exactlyOne(a,)", "exactlyOne(a b)", "exactlyOne(a"):
        with pytest.raises(ParseError):
            parse_expr(source)


def test_reserved_words_cannot_be_variables():
    for source in ("true and and", "not", "forall", "in"):
        with pytest.raises(ParseError):
            parse_expr(source)


def test_parse_errors_carry_locations():
    with pytest.raises(ParseError) as failure:
        parse_expr("a and", file="q.expr")
    assert failure.value.loc.file == "q.expr"
    with pytest.raises(ParseError) as failure:
        parse_expr('"broken')
    assert "unterminated" in str(failure.value)
    with pytest.raises(ParseError):
        parse_expr("a ? b")


def _nested(form: str, levels: int) -> str:
    """An expression of ``true`` under ``levels`` nesting levels of one form."""

    if form == "group":
        return "(" * levels + "true" + ")" * levels
    if form == "not":
        return "not " * levels + "true"
    if form == "call":
        return "exactlyOne(" * levels + "true" + ")" * levels
    if form == "quantifier":
        return "exists(a in s | " * levels + "true" + ")" * levels
    return " implies ".join(["true"] * (levels + 1))


#: Where each form opens its level 101: the ``(``, ``not`` or ``implies``.
EXTRA_LEVEL_COLUMN = {"group": 101, "not": 401, "call": 1111,
                      "quantifier": 1607, "implies": 1306}


@pytest.mark.parametrize("form", sorted(EXTRA_LEVEL_COLUMN))
def test_expressions_nest_a_hundred_levels_deep(form):
    assert MAX_NESTING == 100
    e = parse_expr(_nested(form, 100))
    assert parse_expr(format_expr(e)) == e
    assert eval_expr(e, {"s": (1,)}) is True
    with pytest.raises(ParseError) as failure:
        parse_expr(_nested(form, 101), file="q")
    assert str(failure.value) == (
        f"q:1:{EXTRA_LEVEL_COLUMN[form]}: expression nested deeper than 100 levels")


def test_a_long_not_chain_fails_at_the_extra_level():
    with pytest.raises(ParseError) as failure:
        parse_expr("not " * 1200 + "x", file="q")
    assert str(failure.value) == "q:1:401: expression nested deeper than 100 levels"
    # levels close again: a hundred at a time, side by side, is fine
    wide = " and ".join([_nested("group", 100)] * 3 + [_nested("not", 100)] * 3)
    assert eval_expr(parse_expr(wide), {}) is True


def test_nesting_is_limited_in_models_and_packages():
    deep = _nested("group", 101)
    with pytest.raises(ParseError, match="m:3:125: expression nested deeper"):
        parse_model(f"model m\n  class C {{\n    operation go() pre: {deep}\n  }}\n", "m")
    with pytest.raises(ParseError, match="p:1:139: expression nested deeper"):
        parse_package(f'package "p" {{ constraint c on Class : {deep} }}', "p")


# "²" (superscript two) and "١" (Arabic-Indic one) are Unicode digits but
# not integer literals: each must be refused where it stands.
NON_ASCII_DIGITS = ("\u00b2", "\u0661")


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS)
def test_non_ascii_digits_are_not_integer_literals(digit):
    with pytest.raises(ParseError, match="1:5: unexpected character") as failure:
        parse_expr(f"x = {digit}")
    assert repr(digit) in str(failure.value)
    with pytest.raises(ParseError, match="4:19: unexpected character"):
        parse_model("model m\n  class C {\n    attribute n : Integer\n"
                    f"    invariant n < {digit}\n  }}\n")
    with pytest.raises(ParseError, match="1:28: unexpected character"):
        parse_package(f'package "p" {{ const max = 1{digit} }}')
    assert parse_expr("x = 0123456789") == parse_expr("x = 123456789")


def test_format_inserts_only_needed_parentheses():
    cases = [
        ("a or b and c", "a or (b and c)"),
        ("a and (b or c)", "a and (b or c)"),
        ("(a implies b) implies c", "(a implies b) implies c"),
        ("not (a and b)", "not (a and b)"),
        ("not not a", "not not a"),
        ("1 + 2 - 3", "1 + 2 - 3"),
        ("1 - (2 + 3)", "1 - (2 + 3)"),
        ("size(x) = 0", "size(x) = 0"),
    ]
    for source, expected in cases:
        assert format_expr(parse_expr(source)) == expected


def test_conjunctions_under_a_disjunction_are_parenthesized():
    e = E.Or(E.And(E.VarRef("a"), E.VarRef("b")), E.VarRef("c"))
    assert format_expr(e) == "(a and b) or c"
    # and it reparses to the same tree
    assert parse_expr(format_expr(e)) == e


def test_expression_round_trip_on_random_trees():
    rng = random.Random(451)
    for _ in range(400):
        e = random_expr(rng, depth=4)
        assert parse_expr(format_expr(e)) == e


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_expression_round_trip_is_seed_independent(seed):
    e = random_expr(random.Random(seed), depth=4)
    assert parse_expr(format_expr(e)) == e


def _nodes(e):
    """Every node of a small expression tree, preorder."""

    yield e
    for f in fields(e):
        value = getattr(e, f.name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            if is_dataclass(child):
                yield from _nodes(child)


def _negate_some_integers(e, rng: random.Random):
    """The tree with some positive integer literals made negative, which
    no parser produces but a program may build."""

    if isinstance(e, E.Literal):
        if type(e.value) is int and e.value > 0 and rng.random() < 0.5:
            return E.Literal(-e.value)
        return e
    changes = {}
    for f in fields(e):
        value = getattr(e, f.name)
        if isinstance(value, tuple):
            changes[f.name] = tuple(_negate_some_integers(a, rng) for a in value)
        elif is_dataclass(value):
            changes[f.name] = _negate_some_integers(value, rng)
    return replace(e, **changes)


def _literal_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "negative int" if value < 0 else "int"
    return "string"


def test_format_matches_the_recursive_printer_on_random_trees():
    rng = random.Random(453)
    kinds: set[str] = set()
    for index in range(2400):
        e = random_expr(rng, depth=rng.randint(0, 6))
        if index % 2:
            e = _negate_some_integers(e, rng)
        for node in _nodes(e):
            kinds.add(type(node).__name__)
            if isinstance(node, E.Literal):
                kinds.add(_literal_kind(node.value))
            if isinstance(node, E.Call):
                kinds.add(f"{len(node.args)}-argument call")
        assert format_expr(e) == format_expr_reference(e)
    assert kinds >= {
        "Literal", "VarRef", "Nav", "Call", "Forall", "Exists", "And", "Or",
        "Not", "Implies", "Compare", "Add", "Sub", "bool", "int",
        "negative int", "string", "1-argument call", "2-argument call"}


def read_sample() -> tuple[dict, Model, Model]:
    """The packages of ``sample/defs``, ``sample/example.model`` and that
    model transformed under ``project-p``."""

    sample = Path(__file__).resolve().parent.parent / "sample"
    repo = {}
    for path in sorted((sample / "defs").glob("*.preface")):
        pkg = parse_package(path.read_text(encoding="utf-8"), str(path))
        repo[pkg.id] = pkg
    model = parse_model((sample / "example.model").read_text(encoding="utf-8"))
    return repo, model, apply_transforms(model, compose(repo, "project-p"))[0]


def _sample_expressions() -> list:
    repo, model, transformed = read_sample()
    found = [d.body for pkg in repo.values() for d in pkg.definitions
             if hasattr(d, "body")]
    for m in (model, transformed):
        for cls in m.classes:
            found.extend(inv.expr for inv in cls.invariants)
            for op in cls.operations:
                found.extend(x for x in (op.pre_authored, op.post_authored,
                                         op.effective_pre) if x is not None)
        for chart in m.statecharts:
            found.extend(t.guard for t in chart.transitions if t.guard is not None)
    return found


def test_format_matches_the_recursive_printer_on_the_sample():
    found = _sample_expressions()
    assert len(found) >= 4  # the induced invariant and three preconditions
    for e in found:
        assert format_expr(e) == format_expr_reference(e)


def test_format_of_deep_trees_needs_no_recursion():
    assert sys.getrecursionlimit() <= 1000
    names = [f"x{i}" for i in range(1200)]
    assert format_expr(conjoin([E.VarRef(n) for n in names])) == " and ".join(names)

    nest = E.VarRef("x")
    for _ in range(5000):
        nest = E.Not(nest)
    assert format_expr(nest) == "not " * 5000 + "x"

    right = E.VarRef("x5000")
    for i in reversed(range(5000)):
        right = E.Implies(E.VarRef(f"x{i}"), right)
    assert format_expr(right) == " implies ".join(f"x{i}" for i in range(5001))

    left = E.VarRef("x0")
    for i in range(1, 5001):
        left = E.Implies(left, E.VarRef(f"x{i}"))
    assert format_expr(left) == "(" * 4999 + "x0" + "".join(
        f" implies x{i})" for i in range(1, 5000)) + " implies x5000"


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

MODEL_SOURCE = """\
// a worked model
model shop
  class Base { }
  class Order specializes Base <<event>> {
    attribute total : Integer
    attribute open : Boolean
    operation close() pre: open post: not open
    operation add(amount : Integer, label : String)
    invariant total >= 0
  }
  statechart Flow for Order {
    initial state fresh
    state closed
    transition fresh -> closed on close [open]
  }
"""


def test_parse_model_structure():
    model = parse_model(MODEL_SOURCE)
    assert model.name == "shop"
    order = model.class_named("Order")
    assert order.superclasses == ("Base",)
    assert order.stereotypes == frozenset({"event"})
    assert [a.name for a in order.attributes] == ["total", "open"]
    close = order.operations[0]
    assert close.pre_authored == E.VarRef("open")
    assert close.post_authored == E.Not(E.VarRef("open"))
    add = order.operations[1]
    assert [(p.name, p.type_name) for p in add.params] == [
        ("amount", "Integer"), ("label", "String")]
    (inv,) = order.invariants
    assert inv.expr == E.Compare(">=", E.VarRef("total"), E.Literal(0))
    (chart,) = model.statecharts
    assert chart.attached_to == "Order"
    assert chart.initial_states()[0].name == "fresh"
    assert chart.transitions[0].guard == E.VarRef("open")


def test_model_locations_point_into_the_source():
    model = parse_model(MODEL_SOURCE, file="shop.model")
    order = model.class_named("Order")
    assert order.loc.file == "shop.model"
    assert order.loc.line == 4
    assert model.statecharts[0].transitions[0].loc.line == 14


def test_model_parse_errors():
    with pytest.raises(ParseError):
        parse_model("class C { }")  # missing the model header
    with pytest.raises(ParseError):
        parse_model("model m class C { attribute a }")
    with pytest.raises(ParseError):
        parse_model("model m statechart S for C { state }")


def test_model_round_trip_on_random_models():
    rng = random.Random(452)
    for _ in range(200):
        model = random_model(rng)
        assert parse_model(print_model(model)) == model


def test_printed_induced_elements_carry_a_comment(three_state_model):
    from prefacer.preface import TransformSelection, resolve

    eff = resolve([Package("t", (), (
        TransformSelection("statechart-to-class", True),))])
    transformed, _ = apply_transforms(three_state_model, eff)
    text = print_model(transformed)
    assert "attribute s1 : Boolean // induced by statechart-to-class" in text
    assert "invariant exactlyOne(s1, s2, s3) // induced by statechart-to-class" in text
    # the comments are just comments: the text reparses fine
    reparsed = parse_model(text)
    assert reparsed.class_named("C").attributes[0].origin == Origin("authored")


# ---------------------------------------------------------------------------
# Packages
# ---------------------------------------------------------------------------

PACKAGE_SOURCE = """\
package "uml-core" {
  import "kernel"
  const max = 10
  const offset = -3
  const title = "core"
  const strict = true
  option statechart.unexpected_event = error
  stereotype event on Class requires owner, weight
  tagdef owner : string
  constraint named on Class severity warning : self.name <> ""
  rule persistence when all = persistent
  rule persistence when stereotype(event) = transient
  rule depth when metaclass(Statechart) = shallow
  transform statechart-to-class on
  transform flatten-inheritance off
}
"""


def test_parse_package_every_definition_kind():
    pkg = parse_package(PACKAGE_SOURCE)
    assert pkg.id == "uml-core"
    assert pkg.imports == ("kernel",)
    kinds = [type(d).__name__ for d in pkg.definitions]
    assert kinds == [
        "ConstDef", "ConstDef", "ConstDef", "ConstDef", "OptionDef",
        "StereotypeDef", "TagDef", "ConstraintDef", "PredicatedRuleDef",
        "PredicatedRuleDef", "PredicatedRuleDef", "TransformSelection",
        "TransformSelection"]
    consts = pkg.definitions[:4]
    assert [c.value for c in consts] == [10, -3, "core", True]
    stereotype = pkg.definitions[5]
    assert stereotype.required_tags == ("owner", "weight")
    constraint = pkg.definitions[7]
    assert (constraint.scope, constraint.severity) == ("Class", "warning")
    rules = pkg.definitions[8:11]
    assert rules[0].predicate == Predicate("all")
    assert rules[1].predicate == Predicate("stereotype", "event")
    assert rules[2].predicate == Predicate("metaclass", "Statechart")
    assert pkg.definitions[11].enabled is True
    assert pkg.definitions[12].enabled is False


def test_constraint_severity_defaults_to_error():
    pkg = parse_package('package "p" { constraint c on Class : true }')
    assert pkg.definitions[0].severity == "error"


def test_imports_must_precede_definitions():
    source = 'package "p" { const max = 1 import "q" }'
    with pytest.raises(ImportAfterDefinitionError):
        parse_package(source)


def test_package_parse_errors():
    with pytest.raises(ParseError):
        parse_package('package p { }')  # unquoted id
    with pytest.raises(ParseError):
        parse_package('package "p" { rule r when sometimes = x }')
    with pytest.raises(ParseError):
        parse_package('package "p" { stereotype s on Widget }')
    with pytest.raises(ParseError, match=r"<package>:1:26: 'float' is not a tag type "
                                         r"\(expected string, int or bool\)$"):
        parse_package('package "p" { tagdef t : float }')
    with pytest.raises(ParseError, match="<package>:1:26: expected an integer, found 'foo'$"):
        parse_package('package "p" { const x = -foo }')
    with pytest.raises(ParseError):
        parse_package('package "p" { transform x maybe }')
    with pytest.raises(ParseError):
        parse_package('package "p" { } trailing')


def test_package_round_trip_on_random_packages():
    rng = random.Random(453)
    for _ in range(200):
        pkg = random_package(rng)
        assert parse_package(print_package(pkg)) == pkg


def test_worked_package_round_trip(worked_repo):
    repo, _ = worked_repo
    for pkg in repo.values():
        assert parse_package(print_package(pkg)) == pkg


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_shows_override_chains(worked_repo):
    repo, root = worked_repo
    text = print_report(compose(repo, root))
    assert "packages\n  uml-core\n  client-c\n  project-p\n" in text
    assert "  max = 8 (project-p, overrides uml-core: 10)" in text
    assert "  statechart.unexpected_event = error (uml-core)" in text
    assert "  framing.default = unconstrained (default)" in text
    assert "  statechart-to-class = on (uml-core)" in text
    assert "    when stereotype(event) -> transient (client-c)" in text
    assert "    when all -> persistent (uml-core)" in text
    # newest rule first
    assert text.index("transient") < text.index("persistent")


def test_report_is_stable(worked_repo):
    repo, root = worked_repo
    assert print_report(compose(repo, root)) == print_report(compose(repo, root))


def test_report_renders_empty_sections():
    text = print_report(compose({"solo": Package("solo")}, "solo"))
    assert "constants\n  (none)\n" in text
    assert "rules\n  (none)\n" in text


def test_report_agrees_with_the_replay_reference():
    sample: dict[str, Package] = {}
    for path in sorted((SAMPLE / "defs").glob("*.preface")):
        pkg = parse_package(path.read_text(encoding="utf-8"), str(path))
        sample[pkg.id] = pkg
    flattened = flatten_imports(sample, "project-p")
    assert print_report(resolve(flattened)) == report_reference(flattened)
    rng = random.Random(4701)
    for _ in range(2000):
        repo, root = random_repo(rng)
        flattened = flatten_imports(repo, root)
        assert print_report(resolve(flattened)) == report_reference(flattened)


def test_transform_report_rendering():
    assert print_transform_report(TransformReport()) == "nothing induced\n"
    report = TransformReport(induced_attributes=(("C.s1", "s1 : Boolean"),),
                             induced_preconditions=(("C.m1", E.VarRef("s1"), None),))
    assert print_transform_report(report) == (
        "induced attributes\n  C.s1: s1 : Boolean\n"
        "induced preconditions\n  C.m1: s1\n")


# ---------------------------------------------------------------------------
# Source locations
# ---------------------------------------------------------------------------

SAMPLE = Path(__file__).resolve().parent.parent / "sample"

#: Every element and expression node kind, spread over lines, with tabs,
#: comments and continuation lines, so a column or line slip shows.
EVERY_NODE_MODEL = """\
// every element and expression node kind
model every
\tclass Base { }
  class Order specializes Base <<event, audited>> {
    attribute total : Integer   // trailing comment
    attribute items : Item
    operation add(amount : Integer,
                  label : String)
      pre: amount > 0 and
           not (label = "")
      post: total >= amount - 1 + 2
    operation close() pre: forall(i in items | i.open <> false) implies
        exists(j in self.items | size(j.tags) < 3 or isEmpty(j.tags))
    invariant hasStereotype(self, "event") or total <= 10
  }
  statechart SC for Order {
    initial state fresh
\tstate closed
    transition fresh -> closed on close [total = 0 and
      true]
    transition closed -> fresh on add
  }
"""

EVERY_DEFINITION_PACKAGE = """\
// every definition kind
package "every" {
  import "base"
\timport "more"
  const max = -3
  const title = "core"
  const strict = true
  option statechart.unexpected_event = error
  stereotype event on Class requires owner,
    weight
  tagdef owner : string
  constraint small on Class severity warning :
    size(self.attributes) < max + 1
  rule persistence when all = persistent
  rule persistence when stereotype(event) = transient
  rule depth when metaclass(Statechart) = shallow
  transform statechart-to-class on
  transform flatten-inheritance off
}
"""


def _location_sources() -> list[tuple[str, str, object]]:
    """(name, text, parser) of every source the location snapshot covers."""

    out = [("every-node.model", EVERY_NODE_MODEL, parse_model),
           ("every-definition.preface", EVERY_DEFINITION_PACKAGE, parse_package)]
    for path in sorted(SAMPLE.rglob("*")):
        parser = {".model": parse_model, ".preface": parse_package}.get(path.suffix)
        if parser is not None:
            name = path.relative_to(SAMPLE.parent).as_posix()
            out.append((name, path.read_text(encoding="utf-8"), parser))
    return out


def _located_nodes(tree, file: str) -> list[list]:
    """``[type, line, column]`` of every node under ``tree`` that has a
    ``loc`` field, depth first in field order, walked with an explicit
    stack.  Every location must name ``file``."""

    out: list[list] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(reversed(node))
            continue
        if not is_dataclass(node):
            continue
        names = [f.name for f in fields(node)]
        if "loc" in names:
            loc = node.loc
            assert loc is not None and loc.file == file, (node, loc)
            out.append([type(node).__name__, loc.line, loc.column])
        stack.extend(getattr(node, name) for name in reversed(names) if name != "loc")
    return out


def test_node_locations_match_the_snapshot():
    # The snapshot was taken with the character-loop lexer; ``Expr``
    # equality ignores ``loc``, so only this test sees a moved location.
    snapshot = json.loads((Path(__file__).parent / "locations.json").read_text())
    seen: set[str] = set()
    for name, text, parser in _location_sources():
        located = _located_nodes(parser(text, file=name), name)
        assert located == snapshot[name], name
        seen.update(kind for kind, _, _ in located)
    expr_kinds = {"Literal", "VarRef", "Nav", "Call", "Forall", "Exists", "And",
                  "Or", "Not", "Implies", "Compare", "Add", "Sub"}
    element_kinds = {"Model", "ClassDef", "Attribute", "Operation", "Statechart",
                     "State", "Transition", "Package", "ConstDef", "OptionDef",
                     "StereotypeDef", "TagDef", "ConstraintDef",
                     "PredicatedRuleDef", "TransformSelection"}
    assert expr_kinds | element_kinds <= seen
    assert set(snapshot) == {name for name, _, _ in _location_sources()}


# ---------------------------------------------------------------------------
# The lexer against the character loop it replaced
# ---------------------------------------------------------------------------


def _lexed(tokens_of, source: str):
    """``(tokens, None)`` or ``(None, (message, line, column))``."""

    try:
        return tokens_of(source), None
    except ParseError as failure:
        return None, (str(failure), failure.loc.line, failure.loc.column)


def _kind(text: str) -> str:
    """A token's kind, told by the first character of its text."""

    if not text:
        return "eof"
    if text[0].isdigit():
        return "int"
    if text[0] == '"':
        return "string"
    return "ident" if text[0].isalpha() or text[0] == "_" else "sym"


def _lex_new(source: str):
    """``(kind, text, line, column)`` of every token: the scanner's texts,
    placed by its token table."""

    texts, table = _scan(source, "t")
    out = []
    for index, text in enumerate(texts):
        loc, kind = table(index), _kind(text)
        out.append((kind, text[1:-1] if kind == "string" else text, loc.line, loc.column))
    return out


def _lex_old(source: str):
    return [(t.kind, t.text, t.loc.line, t.loc.column)
            for t in lex_reference(source, "t")]


def _offset(source: str, line: int, column: int) -> int:
    lines = source.split("\n")
    return sum(len(text) + 1 for text in lines[:line - 1]) + column - 1


def _compare_with_reference(source: str) -> str:
    """Assert that the scanner agrees with the reference on ``source``; return
    ``"same"``, or ``"ascii"`` for the one documented difference: a
    non-ASCII letter or digit the reference reads inside an identifier."""

    new, old = _lexed(_lex_new, source), _lexed(_lex_old, source)
    if new == old:
        return "same"
    tokens, error = new
    assert tokens is None, (source, new, old)
    message, line, column = error
    offset = _offset(source, line, column)
    ch = source[offset]
    assert not ch.isascii() and message == f"t:{line}:{column}: unexpected character {ch!r}"
    # Everything before the character lexes the same ...
    assert _lexed(_lex_new, source[:offset]) == _lexed(_lex_old, source[:offset])
    # ... and the reference reads the character as part of an identifier.
    old_tokens, _ = _lexed(_lex_old, source[:offset + 1])
    assert any(kind == "ident" and tok_line == line
               and tok_column <= column < tok_column + len(text)
               for kind, text, tok_line, tok_column in old_tokens), source
    return "ascii"


LEX_PIECES = (
    *"{}()[]:,=.<>+-|", "->", "<<", ">>", "<>", "<=", ">=",
    " ", "\t", "\r", "\n", "//", "/", '"', "\f", "\v", "\u00a0",
    "\u00e9", "\u00b2", "\u0661",
    "a", "Z", "_", "x1", "and", "not", "0", "42", "007", '"s t"', "// c\n",
)


def test_lexer_matches_the_reference_on_random_text():
    rng = random.Random(6)
    outcomes: dict[str, int] = {}
    errors: set[str] = set()
    for _ in range(6000):
        # Half the texts leave out the pieces that always fail, so many
        # lex to the end.
        benign = rng.random() < 0.5
        pieces = [piece for piece in LEX_PIECES
                  if not benign or piece not in ("/", '"', "\f", "\v", "\u00a0")]
        source = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        outcome = _compare_with_reference(source)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        tokens, error = _lexed(_lex_new, source)
        if error is not None:
            errors.add(error[0].split(": ", 1)[1].partition(" '")[0])
        else:
            outcomes["lexed"] = outcomes.get("lexed", 0) + 1
            assert tokens[-1][0] == "eof"
    assert outcomes["ascii"] > 100 and outcomes["lexed"] > 1000, outcomes
    assert errors == {"unexpected character", "unterminated string"}


def test_lexer_matches_the_reference_on_the_sample():
    for name, text, _ in _location_sources():
        assert _compare_with_reference(text) == "same", name
        assert _compare_with_reference(text.replace("\n", "\r\n")) == "same", name
    # a comment at the very end leaves the end-of-input column where it began
    assert _lex_new("a // tail") == _lex_old("a // tail") == [
        ("ident", "a", 1, 1), ("eof", "", 1, 3)]


# ``café`` and ``x²`` are identifiers for ``str.isalnum`` but not for
# ``model.is_identifier``; the lexer refuses them at the non-ASCII character.
@pytest.mark.parametrize("word, column", [("café", 4), ("x²", 2),
                                          ("été", 1)])
def test_identifiers_are_ascii(word, column):
    bad = repr(word[column - 1])
    with pytest.raises(ParseError) as failure:
        parse_expr(f"a and {word}", file="q")
    assert str(failure.value) == f"q:1:{6 + column}: unexpected character {bad}"
    with pytest.raises(ParseError) as failure:
        parse_model(f"model m\n  class C {{\n    operation {word}()\n  }}\n", file="m")
    assert str(failure.value) == f"m:3:{14 + column}: unexpected character {bad}"
    with pytest.raises(ParseError) as failure:
        parse_package(f'package "p" {{\n  const {word} = 1\n}}\n', file="p")
    assert str(failure.value) == f"p:2:{8 + column}: unexpected character {bad}"
    # inside strings and comments any character is fine
    assert parse_expr(f'a = "{word}" // {word}') == E.Compare(
        "=", E.VarRef("a"), E.Literal(word))


# ---------------------------------------------------------------------------
# The collector pause
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_parsing_leaves_the_collector_as_the_caller_had_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse_expr("a and not b")
        assert gc.isenabled() is enabled
        parse_model(MODEL_SOURCE)
        assert gc.isenabled() is enabled
        parse_package(PACKAGE_SOURCE)
        assert gc.isenabled() is enabled
        for parser, source in ((parse_expr, "a and"), (parse_expr, '"open'),
                               (parse_model, "model m class"),
                               (parse_package, 'package "p" { const x = ? }')):
            with pytest.raises(ParseError):
                parser(source)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# ---------------------------------------------------------------------------
# Parsers against the productions that read one primitive at a time
# ---------------------------------------------------------------------------

#: The first words of class and chart heads and of member lines, and what
#: a token of one is replaced with.
MEMBER_WORDS = ("class", "statechart", "attribute", "operation", "invariant", "initial",
                "state", "transition")
REPLACEMENTS = (":", "(", '"x"', "1")


def _token_edits(text: str, replacements, first_words=None):
    """Every text made from ``text`` by deleting, duplicating or replacing
    one token, a replacement being one of ``replacements`` or the end of
    input; with ``first_words``, only the tokens of lines that start with
    one of them."""

    spans = [found.span(1) for found in _TOKEN.finditer(text) if found.group(1)]
    first: dict[int, str] = {}  # line number -> its first token
    for start, end in spans:
        first.setdefault(text.count("\n", 0, start), text[start:end])
    for start, end in spans:
        if first_words is None or first[text.count("\n", 0, start)] in first_words:
            yield text[:start] + text[end:]
            yield text[:start] + text[start:end] + " " + text[start:]
            yield from (text[:start] + other + text[end:] for other in replacements)
            yield text[:start]


def _parse_outcome(parse, text: str):
    """The tree with its ``repr`` and every located node, or the error."""

    try:
        tree = parse(text, "edited")
    except ParseError as failure:
        return type(failure), str(failure)
    return tree, repr(tree), _located_nodes(tree, "edited")


def _differences(old, new, texts: list[str]) -> tuple[list[str], list]:
    """The texts on which the oracle's parser ``old`` and ``textio``'s
    ``new`` disagree, and what ``new`` made of each text."""

    outcomes = [(_parse_outcome(old, text), _parse_outcome(new, text)) for text in texts]
    return ([text for text, (was, now) in zip(texts, outcomes) if was != now],
            [now for _, now in outcomes])


def _messages(outcomes) -> set[str]:
    """What the ``ParseError``s among ``outcomes`` say, before ``, found``."""

    return {new[1].split(": ", 1)[1].split(", found")[0]
            for new in outcomes if isinstance(new[0], type)}


def test_member_lines_parse_as_the_primitives_read_them():
    sources = [EVERY_NODE_MODEL, MODEL_SOURCE]
    sources += [print_model(random_model(random.Random(seed), max_classes=3, max_states=4))
                for seed in range(6)]
    texts = [edited for source in sources
             for edited in (source, *_token_edits(source, REPLACEMENTS, MEMBER_WORDS))]
    different, outcomes = _differences(parse_oracle.parse_model, parse_model, texts)
    assert different == []
    # Both kinds of outcome, and every message a head or member line can fail with.
    assert {"expected a class name", "expected a stereotype name", "expected '>>'",
            "expected '{'", "expected a statechart name", "expected 'for'",
            "expected an attribute name", "expected a type name", "expected ':'",
            "expected an operation name", "expected '('", "expected a parameter name",
            "expected ')'", "expected 'state'", "expected a state name", "expected '->'",
            "expected 'on'", "expected an event name"} <= _messages(outcomes)
    assert sum(not isinstance(new[0], type) for new in outcomes) > len(sources)


def _cuts(pattern, text: str) -> list[tuple[str, str]]:
    """Each match of the scanner ``pattern`` in ``text``, with its token.
    The matches tile the text and a token ends its match, so they give
    every token's offsets."""

    return re.compile(f"({pattern.pattern})", pattern.flags).findall(text)


def test_packages_and_expressions_parse_as_the_primitives_read_them():
    packages = [EVERY_DEFINITION_PACKAGE, PACKAGE_SOURCE]
    packages += [path.read_text(encoding="utf-8")
                 for path in sorted((SAMPLE / "defs").glob("*.preface"))]
    packages += [print_package(random_package(random.Random(seed))) for seed in range(6)]
    snapshot = json.loads((Path(__file__).parent / "eval_outcomes.json").read_text())
    expressions = sorted({case["text"] for case in snapshot if "text" in case})
    replacements = (*REPLACEMENTS, "-", "=")
    package_texts = [edited for source in packages
                     for edited in (source, *_token_edits(source, replacements))]
    # Every expression, and every edit of a seeded sample of them: editing
    # all 324 would make 33,000 texts and take seconds.  Then each kind of
    # nesting level, as deep as may be and one deeper, and negations, groups
    # and quantifiers whose levels close before the next ones open.
    expression_texts = expressions + [
        text for levels in (MAX_NESTING, MAX_NESTING + 1) for text in (
            "not " * levels + "a", "(" * levels + "a" + ")" * levels,
            "a implies " * levels + "b", "size(" * levels + "a" + ")" * levels,
            "forall(x in s | " * levels + "x" + ")" * levels)] + [
        " and ".join(["not " * 60 + "a"] * 2), " or ".join(["(" * 60 + "a" + ")" * 60] * 2),
        " = ".join(["exists(x in s | " * 60 + "x" + ")" * 60] * 2)] + [
        edited for source in random.Random(0).sample(expressions, 60)
        for edited in _token_edits(source, replacements)]
    # Runs of operands, where a variable is read apart from the other
    # operands: chains, n-ary arguments, navigation and call heads, and
    # keywords where an operand stands; each with every one-token edit.
    operand_words = (*replacements, ".", ",", "not", "true", "forall", "size", "or", "x")
    runs = [" or ".join(f"a{i}" for i in range(12)), " and ".join(f"b{i}" for i in range(12)),
            "a and b or c and d or e implies f = g", "exactlyOne(a, b, c, d, e)",
            "exactlyOne(a.b, c, size(d) = 1)", "a.b", "a.b.c = x.y or z",
            'self.name <> "x" and self.attributes', "size(a) = 0 and isEmpty(b.c)",
            'size "(" a', 'hasStereotype(self, "x") or y', "a or true and not b",
            "not a implies true or false", "a and forall(x in s | x) or b",
            "exists(y in t | y.z) and not forall(x in s | x)"]
    expression_texts += [edited for source in runs
                         for edited in (source, *_token_edits(source, operand_words))]
    # The scanner cuts every text at the same places as the oracle's pattern.
    for text in package_texts + expression_texts:
        assert _cuts(_TOKEN, text) == _cuts(parse_oracle._TOKEN, text), text
    different, package_outcomes = _differences(
        parse_oracle.parse_package, parse_package, package_texts)
    assert different == []
    different, expression_outcomes = _differences(
        parse_oracle.parse_expr, parse_expr, expression_texts)
    assert different == []
    # Both kinds of outcome, and every message a definition line or an
    # expression can fail with.
    assert sum(not isinstance(new[0], type) for new in package_outcomes) > len(packages)
    assert sum(not isinstance(new[0], type) for new in expression_outcomes) > len(expressions)
    assert {"expected a constant name", "expected '='", "expected an integer",
            "expected a literal (integer, string, true or false)",
            "expected an option key", "expected an option value", "expected 'on'",
            "expected a stereotype name", "expected a metaclass name",
            "'on' is not a metaclass (expected one of Attribute, Class, Operation, "
            "Statechart, Transition)",
            "expected a tag name", "expected ':'", "expected 'string', 'int' or 'bool'",
            "'option' is not a tag type (expected string, int or bool)",
            "expected a constraint name", "expected 'error' or 'warning'",
            "'severity' is not a severity (expected error or warning)",
            "expected a property key", "expected 'when'",
            "expected 'all', 'stereotype(...)' or 'metaclass(...)'", "expected '('",
            "expected ')'", "expected a value", "expected a transform id",
            "expected 'on' or 'off'", "expected a definition or '}'",
            } <= _messages(package_outcomes)
    assert {"expected '('", "expected ')'", "expected ','", "expected 'in'", "expected '|'",
            "expected a feature name", "expected a stereotype name string",
            "expected a variable name", "expected an expression", "expected end of input",
            f"expression nested deeper than {MAX_NESTING} levels",
            } <= _messages(expression_outcomes)
