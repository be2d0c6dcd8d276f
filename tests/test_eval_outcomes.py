"""Evaluation outcomes pinned on about 1,500 cases over seeded models.

``tests/eval_outcomes.json`` holds, for every case, the expression's text
and what ``eval_expr`` made of it on each element in scope: the value (an
element shown as its path) or the ``EvalError`` message and location.  It
also holds the diagnostics ``check_constraints`` gives for each model when
its generated expressions are its constraints.  The cases are built from a
seed by ``_cases``:

- typed expressions over ``self`` (``generators.scoped_expr``), about one
  subterm in twelve deliberately ill typed;
- untyped ones (``generators.random_expr``) with ``count`` bound and ``x``
  and ``y`` unbound;
- fixed texts: ordering on sequences, features a metaclass lacks, nested
  quantifiers, navigation that cannot resolve its class;
- trees no text parses to, made by editing a parsed one so that its
  locations stay: wrong arity, unknown functions and comparison
  operators, and a value where a node should be.

The snapshot is the judge of any change to the evaluator: every outcome
must stay byte for byte.  Regenerate it only for a deliberate change of
the semantics or the messages, with ``python3 scripts/golden.py --write``.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

from eval_oracle import scope_pairs
from generators import random_expr, random_model, scoped_expr
from prefacer import expr as E
from prefacer.constraints import EvalError, check_constraints, eval_expr
from prefacer.model import Attribute, ClassDef, Model, State, Statechart, Transition
from prefacer.preface import ConstraintDef, Package, resolve
from prefacer.textio import format_expr, parse_expr

SNAPSHOT = Path(__file__).parent / "eval_outcomes.json"

METACLASSES = ("Class", "Attribute", "Operation", "Statechart", "Transition")

#: Texts evaluated on every metaclass, so most of them also meet elements
#: that lack the features they navigate.
FIXED = (
    "self.attributes < self.operations",
    "self.states <= self.states",
    "self.name < 3",
    'self.name >= "m"',
    "self.attributes = self.attributes",
    "self.superclasses <> self.superclasses",
    "self = self",
    "self.volume",
    "self.name.name",
    "size(self)",
    "isEmpty(self.name)",
    'hasStereotype(self.name, "event")',
    'hasStereotype(self, "event")',
    "self.stereotypes",
    "forall(a in self.attributes | exists(b in self.attributes | a.name = b.name))",
    "forall(a in self.superclasses | forall(b in a.superclasses | b.name <> self.name))",
    "exists(t in self.transitions | forall(s in t.attachedTo.states | s = t.source))",
    "forall(a in self.name | true)",
    "exists(a in self.attributes | a)",
    "forall(a in self.operations | a = a) and exists(a in self.operations | false)",
    "exactlyOne(true, 1)",
    'exactlyOne(self.name = "C0", false, exists(s in self.states | s = "s1"))',
    "not self.name",
    "1 + self.name",
    "self.name - 1",
    "size(self.superclasses) + size(self.attributes) - 1 > 0",
    "ghost or true",
    "true implies 3",
    "3 implies true",
    "false and 3",
    "true or 3",
    "3 and true",
    "self.source = self.target",
    "self.attachedTo.superclasses",
    "size(self.transitions) - size(self.states) < 0",
)

#: Trees that no text parses to: ``(text, edit)`` where ``edit`` turns the
#: parsed tree into the case, keeping its locations.
EDITED = (
    ("size(self.attributes)", lambda e: replace(e, args=())),
    ("size(self.attributes)", lambda e: replace(e, args=e.args * 2)),
    ("isEmpty(self.attributes)", lambda e: replace(e, args=e.args * 2)),
    ('hasStereotype(self, "event")', lambda e: replace(e, args=e.args[:1])),
    ('hasStereotype(self, "event")', lambda e: replace(e, args=e.args * 2)),
    ('hasStereotype(self, "event")',
     lambda e: replace(e, args=(e.args[0], replace(e.args[1], value=1)))),
    ("exactlyOne(true)", lambda e: replace(e, args=())),
    ("size(self.attributes)", lambda e: replace(e, fn="frob")),
    ("size(ghost)", lambda e: replace(e, fn="frob")),
    ("size(self.attributes) = 1", lambda e: replace(e, op="!=")),
    ('self.name = "x"', lambda e: replace(e, op="=>")),
    ("self.name = 1", lambda e: replace(e, op="!=")),
    ("self.attributes = self.attributes", lambda e: replace(e, op="~")),
    ("not true", lambda e: replace(e, operand="oops")),
    ("true and true", lambda e: replace(e, rhs=42)),
    ("false and true", lambda e: replace(e, rhs=42)),
    ("self.name.name", lambda e: replace(e, target=replace(e.target, target=None))),
)


def _dangling_model() -> Model:
    """A model ``builtin_check`` would refuse: a superclass and an
    attachment that name no class."""

    return Model("dangling", (
        ClassDef("Lone", superclasses=("Ghost",),
                 attributes=(Attribute("on", "Boolean"),)),
        ClassDef("Kid", superclasses=("Lone",)),
    ), (
        Statechart("Away", "Nowhere", (State("s0", initial=True), State("s1")),
                   (Transition("s0", "s1", "go"),)),
    ))


def _paths(model: Model) -> dict[int, str]:
    return {id(element): f"{metaclass}:{path}"
            for metaclass in METACLASSES
            for path, element in scope_pairs(model, metaclass)}


def _shown(value, paths: dict[int, str]):
    if type(value) is tuple:
        return [_shown(v, paths) for v in value]
    if id(value) in paths:
        return paths[id(value)]
    return repr(value)


def _outcome(e: E.Expr, bindings: dict, model: Model, paths: dict[int, str]) -> dict:
    try:
        value = eval_expr(e, dict(bindings), model)
    except EvalError as failure:
        return {"error": str(failure), "at": None if failure.loc is None else str(failure.loc)}
    return {"value": _shown(value, paths)}


def _reparsed(e: E.Expr, name: str) -> E.Expr:
    """The tree as read from its text, so that its nodes carry locations."""

    return parse_expr(format_expr(e), name)


def _cases():
    """``(model name, model, [(case name, text, tree, metaclass, extra
    bindings)], [constraint])`` for every model the snapshot covers."""

    rng = random.Random(9)
    models = [(f"model-{i}", random_model(rng)) for i in range(60)]
    models.append(("dangling", _dangling_model()))
    out = []
    for model_name, model in models:
        cases = []
        constraints = []
        for k in range(3):
            metaclass = rng.choice(METACLASSES)
            name = f"{model_name}/scoped-{k}"
            tree = _reparsed(scoped_expr(rng, metaclass), name)
            cases.append((name, format_expr(tree), tree, metaclass, {}))
            constraints.append(ConstraintDef(
                f"c{k}", metaclass, rng.choice(("error", "warning")), tree))
        for k in range(2):
            name = f"{model_name}/untyped-{k}"
            tree = _reparsed(random_expr(rng, 3), name)
            cases.append((name, format_expr(tree), tree, rng.choice(METACLASSES),
                          {"count": rng.randint(-3, 3)}))
        picks = FIXED if model_name == "dangling" else rng.sample(FIXED, 3)
        for text in picks:
            name = f"{model_name}/fixed-{FIXED.index(text)}"
            tree = parse_expr(text, name)
            for metaclass in METACLASSES:
                cases.append((name, text, tree, metaclass, {}))
        edits = range(len(EDITED)) if model_name == "dangling" \
            else (rng.randrange(len(EDITED)),)
        for index in edits:
            text, edit = EDITED[index]
            name = f"{model_name}/edited-{index}"
            cases.append((name, text, edit(parse_expr(text, name)),
                          rng.choice(METACLASSES), {}))
        constraints.append(ConstraintDef(
            "fixed", rng.choice(METACLASSES), "error",
            parse_expr(rng.choice(FIXED), f"{model_name}/constraint")))
        out.append((model_name, model, cases, constraints))
    return out


def snapshot_entries() -> list[dict]:
    """The entries of the snapshot, freshly made."""

    entries = []
    for model_name, model, cases, constraints in _cases():
        paths = _paths(model)
        for name, text, tree, metaclass, extra in cases:
            entries.append({
                "case": name, "text": text, "scope": metaclass,
                "outcomes": [
                    [path, _outcome(tree, {"self": element, **extra}, model, paths)]
                    for path, element in scope_pairs(model, metaclass)]})
        if model_name != "dangling":
            eff = resolve([Package("pins", (), tuple(constraints))])
            entries.append({
                "case": f"{model_name}/check_constraints",
                "diagnostics": [
                    [d.severity, d.code, d.path, d.message,
                     None if d.location is None else str(d.location), d.provenance]
                    for d in check_constraints(model, eff)]})
    return entries


def test_eval_outcomes_match_the_snapshot():
    snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    entries = snapshot_entries()
    assert len(entries) == len(snapshot) >= 500
    for entry, pinned in zip(entries, snapshot):
        assert entry == pinned, pinned["case"]
    # Every kind of failure, and plenty of values, are represented.
    errors = [outcome["error"] for entry in snapshot
              for _, outcome in entry.get("outcomes", ()) if "error" in outcome]
    values = [outcome for entry in snapshot
              for _, outcome in entry.get("outcomes", ()) if "value" in outcome]
    for kind in ("expected a boolean", "expected an integer", "expected a sequence",
                 "unbound variable", "cannot navigate", "is not a feature of",
                 "cannot compare", "ordering is not defined", "takes exactly one",
                 "takes exactly two", "at least one argument", "unknown function",
                 "hasStereotype expects an element", "hasStereotype expects a string",
                 "cannot resolve class", "unknown comparison operator",
                 "not an expression node"):
        assert any(kind in error for error in errors), kind
    assert len(values) > 500 and len(errors) > 500, (len(values), len(errors))
