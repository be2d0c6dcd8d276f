"""Expression evaluation and constraint checking."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_model, scoped_expr
from oracles import BruteEvalFailure, brute_eval
from prefacer import expr as E
from prefacer.constraints import (
    Env,
    EvalError,
    check_constraints,
    eval_expr,
    iter_scope,
)
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
from prefacer.textio import parse_expr


def ev(source: str, model: Model | None = None, **bindings):
    return eval_expr(parse_expr(source), Env(dict(bindings), model))


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
    env = Env({"self": cls}, SAMPLE)
    # The first binding already decides each quantifier; the second one
    # raises.  A lazily stopping quantifier would return a value here.
    trap = parse_expr('forall(a in self.attributes | a.name <> "a" and size(a) = 0)')
    with pytest.raises(EvalError):
        eval_expr(trap, env)
    trap = parse_expr('exists(a in self.attributes | a.name = "a" or size(a) = 0)')
    with pytest.raises(EvalError):
        eval_expr(trap, env)


def test_quantifiers_over_empty_domains():
    empty = ClassDef("E")
    env = Env({"self": empty}, Model("m", (empty,)))
    assert eval_expr(parse_expr("forall(a in self.attributes | false)"), env) is True
    assert eval_expr(parse_expr("exists(a in self.attributes | true)"), env) is False


def test_unbound_variable_is_an_error():
    with pytest.raises(EvalError):
        ev("mystery")


def test_navigation_features():
    cls = SAMPLE.class_named("C")
    chart = SAMPLE.chart_named("SC")
    env = Env({"self": cls, "sc": chart}, SAMPLE)
    assert eval_expr(parse_expr("self.name"), env) == "C"
    assert eval_expr(parse_expr("size(self.attributes)"), env) == 2
    assert eval_expr(parse_expr("size(self.operations)"), env) == 2
    assert eval_expr(parse_expr("self.superclasses"), env) == (SAMPLE.class_named("Base"),)
    assert eval_expr(parse_expr("self.stereotypes"), env) == ("event",)
    assert eval_expr(parse_expr("sc.states"), env) == ("idle", "run")
    assert eval_expr(parse_expr("sc.attachedTo.name"), env) == "C"
    assert eval_expr(parse_expr("size(sc.transitions)"), env) == 2
    assert eval_expr(
        parse_expr("forall(t in sc.transitions | t.source <> t.target)"), env) is True


def test_navigation_errors():
    cls = SAMPLE.class_named("C")
    env = Env({"self": cls, "n": 3}, SAMPLE)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("self.volume"), env)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("n.name"), env)
    # Navigating to an unresolvable class is an error, not a silent skip.
    orphan = Statechart("X", "Ghost")
    with pytest.raises(EvalError):
        eval_expr(parse_expr("x.attachedTo"), Env({"x": orphan}, SAMPLE))


def test_builtin_calls():
    cls = SAMPLE.class_named("C")
    env = Env({"self": cls}, SAMPLE)
    assert eval_expr(parse_expr("isEmpty(self.attributes)"), env) is False
    assert eval_expr(parse_expr('hasStereotype(self, "event")'), env) is True
    assert eval_expr(parse_expr('hasStereotype(self, "entity")'), env) is False
    with pytest.raises(EvalError):
        eval_expr(parse_expr("size(self.name)"), env)
    with pytest.raises(EvalError):
        eval_expr(parse_expr('hasStereotype(self.name, "event")'), env)


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
        eval_expr(E.Call("exactlyOne", ()), Env())


# ---------------------------------------------------------------------------
# Differential: the evaluator vs. the brute-force interpreter
# ---------------------------------------------------------------------------


def both_ways(e, element, model):
    try:
        mine = eval_expr(e, Env({"self": element}, model))
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
        for _, element in iter_scope(model, metaclass):
            both_ways(e, element, model)
            checked += 1
    assert checked > 300


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_evaluator_agreement_is_seed_independent(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    e = scoped_expr(rng, "Class")
    for _, element in iter_scope(model, "Class"):
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


def test_method_attachment_warns_per_chart():
    eff = eff_with(OptionDef("statechart.attach_to", "method"),
                   TransformSelection("statechart-to-class", True))
    out = [d for d in check_constraints(SAMPLE, eff) if d.code == "W205"]
    assert [d.path for d in out] == ["SC"]
