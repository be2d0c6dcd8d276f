"""Expression evaluation and constraint checking."""

from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eval_oracle
from generators import random_expr, random_model, scoped_expr
from oracles import BruteEvalFailure, brute_eval, free_vars_reference
from test_locations import _edited
from test_textio import LEX_PIECES, read_sample
from prefacer import constraints
from prefacer import expr as E
from prefacer.constraints import (
    EvalError,
    check_constraints,
    compile_expr,
    eval_expr,
    iter_scope,
)
from prefacer.diagnostics import error_count, warning_count
from prefacer.model import (
    Attribute,
    ClassDef,
    Model,
    Operation,
    State,
    Statechart,
    Transition,
)
from prefacer.preface import (
    ConstraintDef,
    OptionDef,
    Package,
    TransformSelection,
    resolve,
)
from prefacer.textio import MAX_NESTING, ParseError, format_expr, parse_expr, parse_package


def ev(source: str, model: Model | None = None, **bindings):
    return eval_expr(parse_expr(source), dict(bindings), model)


SAMPLE = Model("m", (
    ClassDef("Base"),
    ClassDef("C", superclasses=("Base",), stereotypes=frozenset({"event"}),
             attributes=(Attribute("a", "Integer"), Attribute("busy", "Boolean")),
             operations=(Operation("go"), Operation("stop"))),
), (
    Statechart("SC", "C",
               (State("idle", initial=True), State("run")),
               (Transition("idle", "run", "go"), Transition("run", "idle", "stop"))),
))


# ---------------------------------------------------------------------------
# Evaluation semantics
# ---------------------------------------------------------------------------


def test_literals_variables_and_arithmetic():
    assert ev("2 + 3 - 1") == 4
    assert ev("x + 1", x=41) == 42
    assert ev('"alpha"') == "alpha"
    assert ev("true") is True


def test_comparisons_need_like_types():
    assert ev("2 < 3") is True
    assert ev('"a" < "b"') is True
    assert ev('"a" = "a"') is True
    assert ev("1 <> 2") is True
    with pytest.raises(EvalError):
        ev('1 = "one"')
    with pytest.raises(EvalError):
        ev("true < false")
    with pytest.raises(EvalError):
        ev("x < x", x=True)


def test_booleans_are_not_integers():
    with pytest.raises(EvalError):
        ev("x + 1", x=True)
    with pytest.raises(EvalError):
        ev("1 = x", x=True)
    with pytest.raises(EvalError):
        ev("x and true", x=1)


def test_and_or_stop_after_a_deciding_left_operand():
    # The right side would be a type error if it were ever evaluated.
    assert ev('false and (1 = "x")') is False
    assert ev('true or (1 = "x")') is True
    with pytest.raises(EvalError):
        ev('true and (1 = "x")')
    with pytest.raises(EvalError):
        ev('false or (1 = "x")')


def test_implies_always_evaluates_both_sides():
    assert ev("false implies false") is True
    assert ev("true implies false") is False
    with pytest.raises(EvalError):
        ev('false implies (1 = "x")')


def test_quantifiers_visit_every_binding():
    cls = SAMPLE.class_named("C")
    bindings = {"self": cls}
    # The first binding already decides each quantifier; the second one
    # raises.  A lazily stopping quantifier would return a value here.
    trap = parse_expr('forall(a in self.attributes | a.name <> "a" and size(a) = 0)')
    with pytest.raises(EvalError):
        eval_expr(trap, bindings, SAMPLE)
    trap = parse_expr('exists(a in self.attributes | a.name = "a" or size(a) = 0)')
    with pytest.raises(EvalError):
        eval_expr(trap, bindings, SAMPLE)


def test_quantifiers_over_empty_domains():
    empty = ClassDef("E")
    model = Model("m", (empty,))
    bindings = {"self": empty}
    assert eval_expr(parse_expr("forall(a in self.attributes | false)"), bindings, model) is True
    assert eval_expr(parse_expr("exists(a in self.attributes | true)"), bindings, model) is False


def test_unbound_variable_is_an_error():
    with pytest.raises(EvalError):
        ev("mystery")


def test_navigation_features():
    cls = SAMPLE.class_named("C")
    chart = SAMPLE.chart_named("SC")
    bindings = {"self": cls, "sc": chart}
    assert eval_expr(parse_expr("self.name"), bindings, SAMPLE) == "C"
    assert eval_expr(parse_expr("size(self.attributes)"), bindings, SAMPLE) == 2
    assert eval_expr(parse_expr("size(self.operations)"), bindings, SAMPLE) == 2
    assert eval_expr(parse_expr("self.superclasses"), bindings, SAMPLE) == (
        SAMPLE.class_named("Base"),)
    assert eval_expr(parse_expr("self.stereotypes"), bindings, SAMPLE) == ("event",)
    assert eval_expr(parse_expr("sc.states"), bindings, SAMPLE) == ("idle", "run")
    assert eval_expr(parse_expr("sc.attachedTo.name"), bindings, SAMPLE) == "C"
    assert eval_expr(parse_expr("size(sc.transitions)"), bindings, SAMPLE) == 2
    assert eval_expr(
        parse_expr("forall(t in sc.transitions | t.source <> t.target)"), bindings, SAMPLE) is True


def test_navigation_errors():
    cls = SAMPLE.class_named("C")
    bindings = {"self": cls, "n": 3}
    with pytest.raises(EvalError):
        eval_expr(parse_expr("self.volume"), bindings, SAMPLE)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("n.name"), bindings, SAMPLE)
    # Navigating to an unresolvable class is an error, not a silent skip.
    orphan = Statechart("X", "Ghost")
    with pytest.raises(EvalError):
        eval_expr(parse_expr("x.attachedTo"), {"x": orphan}, SAMPLE)


def test_builtin_calls():
    cls = SAMPLE.class_named("C")
    bindings = {"self": cls}
    assert eval_expr(parse_expr("isEmpty(self.attributes)"), bindings, SAMPLE) is False
    assert eval_expr(parse_expr('hasStereotype(self, "event")'), bindings, SAMPLE) is True
    assert eval_expr(parse_expr('hasStereotype(self, "entity")'), bindings, SAMPLE) is False
    with pytest.raises(EvalError):
        eval_expr(parse_expr("size(self.name)"), bindings, SAMPLE)
    with pytest.raises(EvalError):
        eval_expr(parse_expr('hasStereotype(self.name, "event")'), bindings, SAMPLE)


def test_exactly_one_counts_the_true_arguments():
    assert ev("exactlyOne(true)") is True
    assert ev("exactlyOne(false)") is False
    assert ev("exactlyOne(a, b, c)", a=False, b=True, c=False) is True
    assert ev("exactlyOne(a, b, c)", a=True, b=False, c=True) is False
    assert ev("exactlyOne(a, b, c)", a=False, b=False, c=False) is False


def test_exactly_one_evaluates_every_argument():
    with pytest.raises(EvalError, match="expected a boolean, got integer"):
        ev("exactlyOne(1, true)")
    # Two true arguments already decide the call; the third is still checked.
    with pytest.raises(EvalError):
        ev('exactlyOne(true, true, 1 = "x")')
    with pytest.raises(EvalError, match="at least one argument"):
        eval_expr(E.Call("exactlyOne", ()), {})


# ---------------------------------------------------------------------------
# Chains and nesting depth
# ---------------------------------------------------------------------------


def test_each_chain_operand_is_checked_at_the_node_that_joins_it():
    def failure(source):
        with pytest.raises(EvalError) as caught:
            ev(source, model=SAMPLE, self=SAMPLE.class_named("C"))
        return str(caught.value), caught.value.loc.column

    assert failure("1 and true and true") == ("expected a boolean, got integer", 3)
    assert failure("true and true and 1") == ("expected a boolean, got integer", 15)
    assert failure("false or 2 or true") == ("expected a boolean, got integer", 7)
    assert failure('1 + 2 - "a" + 4') == ("expected an integer, got string", 7)
    assert failure('"a" - 1 + 2') == ("expected an integer, got string", 5)
    assert failure("self.name.name.size") == ("cannot navigate '.name' on a string", 11)
    assert failure("self.operations.name") == (
        "cannot navigate '.name' on a sequence", 17)
    assert ev("1 - 2 + 3 - 4") == -2
    assert ev("false and 1 and ghost") is False
    assert ev("true or 1 or ghost") is True


@pytest.mark.parametrize("term, joiner, value", [
    ("true", " and ", True), ("false", " or ", False), ("1", " + ", 1200)])
def test_a_twelve_hundred_term_chain_evaluates(term, joiner, value):
    assert ev(joiner.join([term] * 1200)) == value


def test_a_twelve_hundred_step_navigation_fails_where_a_short_one_does():
    cls = SAMPLE.class_named("C")
    diagnostics = []
    for steps in (3, 1200):
        body = parse_expr("self" + ".name" * steps, f"nav{steps}")
        eff = eff_with(ConstraintDef("deep", "Class", "error", body))
        out = [d for d in check_constraints(SAMPLE, eff) if d.path == cls.name]
        diagnostics.append([(d.code, d.message, d.location.line, d.location.column)
                            for d in out])
    assert diagnostics[0] == diagnostics[1] == [(
        "E202", "constraint 'deep' could not be evaluated: "
        "cannot navigate '.name' on a string", 1, 11)]


def _deepest(shape: str) -> str:
    """The most deeply nested text of one shape that still parses: every
    level holds an implies, an or, an and, a comparison, a sum and a
    navigation around the next level, which the evaluator must reach."""

    for levels in range(MAX_NESTING, 0, -1):
        text = "self"
        for k in range(levels):
            text = shape.format(k=k, inner=f"false or true and 1 + {text}.name = 0 implies true")
        try:
            parse_expr(text)
        except ParseError:
            continue
        assert levels >= MAX_NESTING - 2
        return text
    raise AssertionError(shape)


@pytest.mark.parametrize("shape", [
    "({inner})", "exactlyOne({inner})", "exists(v{k} in self.attributes | {inner})"])
def test_the_deepest_text_that_parses_compiles_and_evaluates(shape):
    text = _deepest(shape)
    e = parse_expr(text)
    run = compile_expr(e)
    # The innermost level adds a class name to 1: a located EvalError
    # there, not a RecursionError on the way.
    with pytest.raises(EvalError, match="expected an integer, got string") as caught:
        run({"self": [SAMPLE.class_named("C")]}, 1, SAMPLE)
    assert caught.value.loc.column == text.index("+ self.name") + 1
    assert E.free_vars(e) == {"self"}


def test_free_vars_matches_the_recursive_walk_on_random_trees():
    rng = random.Random(77)
    for _ in range(2000):
        e = random_expr(rng, 4)
        assert E.free_vars(e) == free_vars_reference(e), e
    long = parse_expr(" or ".join(f"v{i % 7}" for i in range(1200)))
    assert E.free_vars(long) == {f"v{i}" for i in range(7)}
    nested = parse_expr("forall(a in a | exists(b in a.x | a and b and c)) or b")
    assert E.free_vars(nested) == free_vars_reference(nested) == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# Differential: the evaluator vs. the brute-force interpreter
# ---------------------------------------------------------------------------


def both_ways(e, element, model):
    try:
        mine = eval_expr(e, {"self": element}, model)
    except EvalError:
        mine = EvalError
    try:
        theirs = brute_eval(e, {"self": element}, model)
    except BruteEvalFailure:
        theirs = BruteEvalFailure
    if mine is EvalError or theirs is BruteEvalFailure:
        assert mine is EvalError and theirs is BruteEvalFailure, (e, element)
    else:
        assert mine == theirs, (e, element)


def test_evaluator_agrees_with_brute_force_on_random_input():
    rng = random.Random(421)
    checked = 0
    for _ in range(300):
        model = random_model(rng)
        metaclass = rng.choice(
            ("Class", "Attribute", "Operation", "Statechart", "Transition"))
        e = scoped_expr(rng, metaclass)
        for element in iter_scope(model, metaclass):
            both_ways(e, element, model)
            checked += 1
    assert checked > 300


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_evaluator_agreement_is_seed_independent(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    e = scoped_expr(rng, "Class")
    for element in iter_scope(model, "Class"):
        both_ways(e, element, model)


# ---------------------------------------------------------------------------
# Constraint checking
# ---------------------------------------------------------------------------


def eff_with(*definitions, extra=()):
    return resolve([Package("test-pkg", (), tuple(definitions) + tuple(extra))])


def test_violations_carry_severity_code_and_provenance():
    eff = eff_with(
        ConstraintDef("no_c", "Class", "error",
                      parse_expr('self.name <> "C"')),
        ConstraintDef("no_stop", "Operation", "warning",
                      parse_expr('self.name <> "stop"')),
    )
    out = check_constraints(SAMPLE, eff)
    assert [(d.code, d.path) for d in out] == [("E201", "C"), ("W201", "C.stop")]
    assert out[0].provenance == "test-pkg"
    assert out[1].severity == "warning"


def test_a_severity_that_is_no_error_is_a_counted_warning():
    # A library-built definition may carry any severity word; its code
    # decides, and the count sees the finding.
    eff = eff_with(ConstraintDef("no_c", "Class", "fatal", parse_expr('self.name <> "C"')))
    out = check_constraints(SAMPLE, eff)
    assert [(d.severity, d.code, d.path) for d in out] == [("warning", "W201", "C")]
    assert (error_count(out), warning_count(out)) == (0, 1)


def test_constraints_run_in_definition_order():
    eff = resolve([
        Package("a", (), (
            ConstraintDef("second", "Class", "error", parse_expr("false")),)),
        Package("b", (), (
            ConstraintDef("first", "Class", "error", parse_expr("false")),
            # Redefinition pushes "second" to the back of the order.
            ConstraintDef("second", "Class", "error", parse_expr("false")),)),
    ])
    out = [d for d in check_constraints(Model("m", (ClassDef("X"),)), eff)
           if d.code == "E201"]
    assert [d.message for d in out] == [
        "constraint 'first' violated", "constraint 'second' violated"]


def test_evaluation_failure_is_reported_per_element():
    eff = eff_with(ConstraintDef("broken", "Class", "error",
                                 parse_expr("self.name + 1")))
    out = [d for d in check_constraints(SAMPLE, eff) if d.code == "E202"]
    assert [d.path for d in out] == ["Base", "C"]
    assert "broken" in out[0].message


def test_multiple_inheritance_check_follows_the_option():
    diamond = Model("m", (
        ClassDef("A"), ClassDef("B"),
        ClassDef("AB", superclasses=("A", "B")),
    ))
    relaxed = eff_with()
    assert [d for d in check_constraints(diamond, relaxed) if d.code == "E203"] == []
    strict = eff_with(OptionDef("inheritance.multiple", "forbidden"))
    out = [d for d in check_constraints(diamond, strict) if d.code == "E203"]
    assert [d.path for d in out] == ["AB"]
    assert out[0].provenance == "test-pkg"


def test_unmatched_events_warn_only_when_induction_is_off():
    eff_off = eff_with()
    # Events that do name operations never warn.
    assert check_constraints(SAMPLE, eff_off) == []

    ghost = Model("m", (ClassDef("C"),), (
        Statechart("SC", "C", (State("a", initial=True),),
                   (Transition("a", "a", "ping"), Transition("a", "a", "ping"))),
    ))
    out = check_constraints(ghost, eff_off)
    assert [d.code for d in out] == ["W203"]  # deduplicated per event
    eff_on = eff_with(TransformSelection("statechart-to-class", True))
    assert check_constraints(ghost, eff_on) == []


def test_guard_variables_must_be_boolean_attributes():
    model = Model("m", (
        ClassDef("C", attributes=(Attribute("busy", "Boolean"),
                                  Attribute("n", "Integer"))),
    ), (
        Statechart("SC", "C", (State("a", initial=True),), (
            Transition("a", "a", "e1", guard=E.VarRef("busy")),
            Transition("a", "a", "e2", guard=E.VarRef("n")),
            Transition("a", "a", "e3", guard=E.VarRef("ghost")),
        )),
    ))
    eff = eff_with(TransformSelection("statechart-to-class", True))
    out = [d for d in check_constraints(model, eff) if d.code == "W204"]
    assert [d.path for d in out] == ["SC/1", "SC/2"]
    assert "'n'" in out[0].message
    assert "'ghost'" in out[1].message


# ---------------------------------------------------------------------------
# Batches: the closure evaluator, one element at a time, as the reference
# ---------------------------------------------------------------------------

METACLASSES = ("Class", "Attribute", "Operation", "Statechart", "Transition")


def _diagnostics(found) -> list[tuple]:
    return [(d.severity, d.code, d.path, d.message,
             None if d.location is None else str(d.location), d.provenance) for d in found]


def _agrees_with_the_reference(model: Model, eff) -> list[tuple]:
    mine = _diagnostics(check_constraints(model, eff))
    assert mine == _diagnostics(eval_oracle.check_constraints_reference(model, eff))
    return mine


def _random_constraints(rng: random.Random, count: int) -> list[ConstraintDef]:
    """Typed bodies over ``self`` (some ill typed) and untyped ones, whose
    ``x``, ``y`` and ``count`` are unbound; each read back from its text,
    so that its nodes carry the locations the diagnostics give."""

    out = []
    for k in range(count):
        metaclass = rng.choice(METACLASSES)
        body = scoped_expr(rng, metaclass, rng.randint(2, 4)) if rng.random() < 0.8 \
            else random_expr(rng, 3)
        out.append(ConstraintDef(f"c{k}", metaclass, rng.choice(("error", "warning")),
                                 parse_expr(format_expr(body), f"c{k}")))
    return out


def _batch_agrees_element_by_element(e: E.Expr, model: Model, metaclass: str) -> None:
    """One batch over the whole scope raises if and only if some element
    fails alone, and otherwise gives each element its value alone."""

    elements = iter_scope(model, metaclass)
    if not elements:
        return
    alone = []
    for element in elements:
        try:
            alone.append(eval_oracle.eval_expr(e, {"self": element}, model))
        except EvalError:
            alone.append(EvalError)
    try:
        together = compile_expr(e)({"self": elements}, len(elements), model)
    except EvalError:
        assert EvalError in alone, e
        return
    assert together == alone, e


def test_batches_agree_with_the_reference_on_seeded_models():
    rng = random.Random(2029)
    seen = set()
    for _ in range(400):
        model = random_model(rng, max_classes=rng.choice((3, 8, 14)))
        constraints = _random_constraints(rng, 4)
        seen.update(d[1] for d in _agrees_with_the_reference(
            model, eff_with(*constraints)))
        for definition in constraints:
            _batch_agrees_element_by_element(definition.body, model, definition.scope)
    assert {"E201", "W201", "E202"} <= seen


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batch_agreement_is_seed_independent(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_classes=10)
    constraints = _random_constraints(rng, 3)
    _agrees_with_the_reference(model, eff_with(*constraints))
    for definition in constraints:
        _batch_agrees_element_by_element(definition.body, model, definition.scope)


def test_finding_paths_agree_with_the_reference_on_scopes_full_of_findings(monkeypatch):
    """Every scope of every metaclass, each element a finding: violated
    everywhere, an E202 everywhere, not a boolean, or an E202 on some
    elements and holding on the rest; also in batches of three, so that
    findings straddle batches and owners with no element of the scope."""

    seen: dict[tuple[str, str], int] = {}
    for rows in (constraints.BATCH_ROWS, 3):
        monkeypatch.setattr(constraints, "BATCH_ROWS", rows)
        rng = random.Random(4040)
        for _ in range(60):
            model = random_model(rng, max_classes=12, max_states=8)
            definitions = []
            for metaclass in METACLASSES:
                name = "self.event" if metaclass == "Transition" else "self.name"
                for body in (f'{name} = "zz"', f"size({name}) = 0", name,
                             f'{name} < "m" or size({name}) = 0'):
                    definitions.append(ConstraintDef(
                        f"k{len(definitions)}", metaclass, rng.choice(("error", "warning")),
                        parse_expr(body, f"k{len(definitions)}")))
            scope_of = {d.name: d.scope for d in definitions}
            for _, code, _, message, *_ in _agrees_with_the_reference(
                    model, eff_with(*definitions)):
                if message.startswith("constraint "):
                    metaclass = scope_of[message.split("'")[1]]
                    seen[metaclass, code] = seen.get((metaclass, code), 0) + 1
    assert all(seen.get((metaclass, code), 0) > 30 for metaclass in METACLASSES
               for code in ("E202", "E201", "W201")), seen


def _recording_compiler(monkeypatch) -> list[tuple[int, set]]:
    """Wraps every node ``compile_expr`` compiles (it recurses through the
    module global); each run records its row count and its result's types."""

    calls = []
    compile_node = constraints.compile_expr

    def compile_recorded(e):
        run = compile_node(e)

        def recorded(cols, n, model):
            calls.append((n, None))
            values = run(cols, n, model)
            calls[-1] = (n, {type(value) for value in values})
            return values
        return recorded

    monkeypatch.setattr(constraints, "compile_expr", compile_recorded)
    return calls


def test_every_column_holds_one_type_and_no_node_runs_on_no_rows(monkeypatch):
    calls = _recording_compiler(monkeypatch)
    rng = random.Random(2029)  # the models and bodies of the seeded agreement test
    for _ in range(400):
        model = random_model(rng, max_classes=rng.choice((3, 8, 14)))
        check_constraints(model, eff_with(*_random_constraints(rng, 4)))
    finished = [kinds for _, kinds in calls if kinds is not None]
    assert len(finished) > 5_000
    assert all(len(kinds) == 1 for kinds in finished)
    assert all(n > 0 for n, _ in calls)


def test_a_quantifier_over_empty_domains_runs_no_body(monkeypatch):
    calls = _recording_compiler(monkeypatch)
    model = _classes(("A", ""), ("B", ""))
    body = '(a in self.attributes | a.name <> "x")'
    assert _checked(model, "forall" + body) == []
    assert _checked(model, "exists" + body) == [("E201", "A", "violated", None),
                                                 ("E201", "B", "violated", None)]
    assert calls and all(n > 0 for n, _ in calls)


def _classes(*specs) -> Model:
    """Classes from ``(name, attribute names)`` pairs; a name that ends in
    ``()`` gives its class the operation ``f``."""

    return Model("m", tuple(
        ClassDef(name.rstrip("()"), attributes=tuple(Attribute(a, "Integer") for a in attrs),
                 operations=(Operation("f"),) if name.endswith("()") else ())
        for name, attrs in specs))


def _checked(model: Model, text: str) -> list[tuple]:
    eff = eff_with(ConstraintDef("k", "Class", "error", parse_expr(text, "k")))
    return [(code, path, message.removeprefix("constraint 'k' "), where)
            for _, code, path, message, where, _ in _agrees_with_the_reference(model, eff)]


def test_the_first_failing_item_gives_the_error():
    # Item x fails at the second conjunct; item y, after it, fails earlier,
    # at the first, where a batch of both items meets y's failure first.
    # Alone, a class runs its items one at a time, so x's failure comes first.
    text = ('forall(a in self.attributes | (a.name <> "y" or size(a.name) = 0)'
            ' and (a.name <> "x" or 1 = "one"))')
    late = ("E202", "C", "could not be evaluated: cannot compare integer with string", "k:1:91")
    early = ("E202", "D", "could not be evaluated: expected a sequence, got string", "k:1:49")
    for items in ("xy", "wxy"):
        assert _checked(_classes(("C", items)), text) == [late]
        assert _checked(_classes(("B", ""), ("C", items), ("D", "y")), text) == [late, early]
    assert _checked(_classes(("D", "y")), text) == [early]


def test_and_runs_its_right_operand_only_on_undecided_rows():
    # size(self.name) fails on every class, but only B reaches it.
    model = _classes(("A", ""), ("B", ""), ("C", ""))
    assert _checked(model, 'self.name = "B" and size(self.name) = 0') == [
        ("E201", "A", "violated", None),
        ("E202", "B", "could not be evaluated: expected a sequence, got string", "k:1:21"),
        ("E201", "C", "violated", None)]
    # Here it would fail on A and C, which the left operand decides, so the
    # batch of all three classes does not raise.
    text = 'self.name = "B" and (self.name = "B" or size(self.name) = 0)'
    assert _checked(model, text) == [("E201", "A", "violated", None),
                                     ("E201", "C", "violated", None)]
    classes = list(model.classes)
    assert compile_expr(parse_expr(text))({"self": classes}, 3, model) == [False, True, False]


def test_an_element_failing_mid_scope_leaves_the_rest_reported():
    model = _classes(("A", ""), ("B()", ""), ("C", ""), ("D()", "x"), ("E", ""))
    assert _checked(model, 'self.name <> "C" and (size(self.operations) = 0 or self.name < 3)') \
        == [("E202", "B", "could not be evaluated: cannot compare string with integer", "k:1:62"),
            ("E201", "C", "violated", None),
            ("E202", "D", "could not be evaluated: cannot compare string with integer", "k:1:62")]


def test_each_scope_is_drawn_once_per_constraint(monkeypatch):
    drawn = []

    def counted(model, metaclass):
        for element in iter_scope(model, metaclass):
            drawn.append(metaclass)
            yield element

    model = _classes(("A", "ab"), ("B()", ""), ("C", "c"))
    eff = eff_with(  # the second fails on B, so its batch runs again element by element
        ConstraintDef("one", "Attribute", "error", parse_expr('self.name <> "c"')),
        ConstraintDef("two", "Class", "error", parse_expr("size(self.operations) = 0 or self.name < 3")))
    monkeypatch.setattr(constraints, "iter_scope", counted)
    check_constraints(model, eff)
    assert drawn == ["Attribute"] * 3 + ["Class"] * 3


def test_nested_quantifiers_are_run_in_bounded_batches(monkeypatch):
    """Four classes of 120 attributes: the inner body has 57,600 rows, over
    ten times ``BATCH_ROWS``, and is run in groups of at most that many.
    Class ``Ci`` repeats ``i`` attribute names, each with another type."""

    width = 120
    model = Model("m", tuple(
        ClassDef(f"C{i}", attributes=tuple(
            Attribute(f"a{j % (width - i)}", "Integer" if j < width - i else "String")
            for j in range(width)))
        for i in range(4)))
    assert len(model.classes) * width ** 2 > 10 * constraints.BATCH_ROWS
    eff = eff_with(ConstraintDef("distinct", "Class", "error", parse_expr(
        "forall(a in self.attributes | forall(b in self.attributes | a = b or a.name <> b.name))",
        "k")))
    expected = _diagnostics(eval_oracle.check_constraints_reference(model, eff))
    assert [d[1:3] for d in expected] == [("E201", "C1"), ("E201", "C2"), ("E201", "C3")]

    def peak() -> int:
        tracemalloc.start()
        try:
            assert _diagnostics(check_constraints(model, eff)) == expected
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < 1_000_000  # bytes; about 0.5 MB
    monkeypatch.setattr(constraints, "BATCH_ROWS", 10 ** 9)
    assert peak() > 2_000_000  # one batch of every row needs this much


# ---------------------------------------------------------------------------
# Edited expression texts
# ---------------------------------------------------------------------------


def _snapshot_expressions() -> list[str]:
    """The expression texts of ``tests/parse_outcomes.json``, and the
    bodies of the constraints its package texts declare."""

    snapshot = json.loads((Path(__file__).parent / "parse_outcomes.json").read_text("utf-8"))
    texts = [entry["text"] for entry in snapshot if entry["parser"] == "expr"]
    for entry in snapshot:
        if entry["parser"] == "package":
            try:
                pkg = parse_package(entry["text"])
            except ParseError:
                continue
            texts += [format_expr(d.body) for d in pkg.definitions if isinstance(d, ConstraintDef)]
    return texts


SNAPSHOT_EXPRESSIONS = _snapshot_expressions()
#: The transformed sample model, and each of its elements of every metaclass.
SAMPLE_MODEL = read_sample()[2]
SAMPLE_ELEMENTS = [element for metaclass in ("Class", "Attribute", "Operation", "Statechart",
                                             "Transition")
                   for element in iter_scope(SAMPLE_MODEL, metaclass)]
#: The lexer's pieces, and the words and features the evaluator knows.
EXPR_EDIT = st.tuples(
    st.sampled_from(("insert", "delete", "replace")), st.integers(0, 10**6),
    st.sampled_from(LEX_PIECES + (
        "self", "x", "size(", "isEmpty(", "hasStereotype(", "exactlyOne(", "forall(",
        "exists(", " in ", " | ", ".operations", ".attributes", ".name", ".states",
        ".event", ".source", "true", " or ", " implies ", " = ", '"C"')))


@given(st.sampled_from(SNAPSHOT_EXPRESSIONS), st.lists(EXPR_EDIT, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_an_edited_expression_evaluates_or_raises_eval_error(text, edits):
    """Whatever an edited text parses to, evaluating it with ``self``
    bound to any element of the sample gives a value or an ``EvalError``."""

    try:
        e = parse_expr(_edited(text, edits))
    except ParseError:
        return
    for element in SAMPLE_ELEMENTS:
        try:
            eval_expr(e, {"self": element}, SAMPLE_MODEL)
        except EvalError:
            pass
