"""Statechart induction: the four rules, idempotence, conservativity."""

from __future__ import annotations

import io
import itertools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_model
from oracles import authored_view, brute_eval, exactly_one_reference
from prefacer import expr as E
from prefacer.cli import EXIT_DIAGNOSTICS, RunConfig
from prefacer.cli import run as cli_run
from prefacer.constraints import eval_expr
from prefacer.model import (
    AUTHORED,
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Origin,
    State,
    Statechart,
    Transition,
    UNREADABLE,
    builtin_check,
)
from prefacer.preface import (
    STATECHART_TO_CLASS,
    Package,
    TransformSelection,
    compose,
    resolve,
)
from prefacer.textio import (
    format_expr,
    parse_model,
    parse_package,
    print_model,
    print_transform_report,
)
from prefacer.transformer import TransformReport, apply_transforms, chart_events, exactly_one
from transform_oracle import transform_reference

ENABLED = resolve([Package("t", (), (TransformSelection(STATECHART_TO_CLASS, True),))])
DISABLED = resolve([Package("t", (), ())])


def transform(model):
    return apply_transforms(model, ENABLED)


def read_back(model: Model) -> Model:
    """What the printed ``model`` reads back as: every origin authored,
    and each operation's effective precondition authored."""

    def authored(op: Operation) -> Operation:
        return replace(op, pre_authored=op.effective_pre, pre_induced=None, origin=AUTHORED)

    return replace(model, classes=tuple(replace(
        cls,
        attributes=tuple(replace(a, origin=AUTHORED) for a in cls.attributes),
        operations=tuple(map(authored, cls.operations)),
        invariants=tuple(replace(i, origin=AUTHORED) for i in cls.invariants))
        for cls in model.classes))


def transform_class(cls, chart):
    """The pass over a model of ``cls`` and ``chart`` alone: the class it
    leaves and the report."""

    model, report = transform(Model("m", (cls,), (chart,)))
    return model.class_named(cls.name), report


def induced_attrs(cls):
    return [a for a in cls.attributes if a.origin.kind == "induced"]


# ---------------------------------------------------------------------------
# The worked three-state chart, rule by rule
# ---------------------------------------------------------------------------


def test_rule1_adds_one_boolean_flag_per_state(three_state_model):
    cls, report = transform_class(
        three_state_model.class_named("C"), three_state_model.statecharts[0])
    assert [(a.name, a.type_name) for a in cls.attributes] == [
        ("s1", "Boolean"), ("s2", "Boolean"), ("s3", "Boolean")]
    for a in cls.attributes:
        assert a.origin == Origin("induced", STATECHART_TO_CLASS, "SC")
    assert [path for path, _ in report.induced_attributes] == [
        "C.s1", "C.s2", "C.s3"]
    assert report.diagnostics == ()


def test_rule2_builds_the_canonical_mutex_invariant(three_state_model):
    cls, report = transform_class(
        three_state_model.class_named("C"), three_state_model.statecharts[0])
    (inv,) = cls.invariants
    assert format_expr(inv.expr) == "exactlyOne(s1, s2, s3)"
    assert inv.origin == Origin("induced", STATECHART_TO_CLASS, "SC")
    assert report.induced_invariants == (("C", inv.expr),)


def flags(names):
    return tuple(E.VarRef(n) for n in names)


def test_exactly_one_of_a_single_state_is_the_bare_flag():
    assert format_expr(exactly_one(flags(("s",)))) == "s"
    assert format_expr(exactly_one(flags(("a", "b")))) == "exactlyOne(a, b)"


def test_exactly_one_agrees_with_the_reference_encoding():
    for n in range(1, 11):
        names = tuple(f"s{i}" for i in range(n))
        built = exactly_one(flags(names))
        reference = exactly_one_reference(names)
        for values in itertools.product((False, True), repeat=n):
            bindings = dict(zip(names, values))
            assert eval_expr(built, bindings) == brute_eval(reference, bindings)


def _distinct_nodes_by_kind(e) -> dict[str, int]:
    """How many distinct node objects of each kind the tree is made of."""

    counts: dict[str, int] = {}
    seen: set[int] = set()
    work = [e]
    while work:
        node = work.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = type(node).__name__
        counts[kind] = counts.get(kind, 0) + 1
        if isinstance(node, E.Call):
            work.extend(node.args)
    return counts


def test_exactly_one_builds_each_literal_once():
    assert exactly_one(flags(("s",))) == E.VarRef("s")
    for n in (2, 3, 7, 40):
        names = tuple(f"s{i}" for i in range(n))
        chart = Statechart("SC", "C", tuple(State(name, initial=not i)
                                            for i, name in enumerate(names)))
        (inv,) = transform_class(ClassDef("C"), chart)[0].invariants
        assert _distinct_nodes_by_kind(inv.expr) == {"Call": 1, "VarRef": n}


def test_rule3_binds_existing_operations_and_invents_missing_ones():
    cls = ClassDef("C", operations=(Operation("m1"),))
    chart = Statechart("SC", "C", (State("x", initial=True),), (
        Transition("x", "x", "m1"), Transition("x", "x", "ping")))
    out, report = transform_class(cls, chart)
    ops = out.operations
    assert [op.name for op in ops] == ["m1", "ping"]
    assert ops[0].origin.kind == "authored"
    assert ops[1].origin == Origin("induced", STATECHART_TO_CLASS, "SC")
    assert [d.code for d in report.diagnostics] == ["I301"]
    assert report.induced_operations == (("C.ping", "ping()"),)


def test_rule4_induces_source_state_preconditions(three_state_model):
    transformed, report = transform(three_state_model)
    ops = {op.name: op for op in transformed.class_named("C").operations}
    assert format_expr(ops["m1"].pre_induced[0]) == "s1"
    assert format_expr(ops["m2"].pre_induced[0]) == "s2"
    assert format_expr(ops["m3"].pre_induced[0]) == "s1 or s2"
    assert ops["m1"].pre_authored is None
    assert ops["m1"].post_authored is None  # rule 4 never touches posts
    assert [path for path, _, _ in report.induced_preconditions] == [
        "C.m1", "C.m2", "C.m3"]


def test_rule4_disjuncts_follow_state_declaration_order():
    cls = ClassDef("C")
    chart = Statechart("SC", "C",
                       (State("a", initial=True), State("b"), State("c")), (
        Transition("c", "a", "go"), Transition("a", "b", "go")))
    model, _ = transform(Model("m", (cls,), (chart,)))
    (pre, _) = {o.name: o for o in model.class_named("C").operations}["go"].pre_induced
    assert format_expr(pre) == "a or c"


def test_authored_precondition_is_kept_and_conjoined_in_reports():
    cls = ClassDef("C", operations=(
        Operation("m1", pre_authored=E.VarRef("ready")),))
    chart = Statechart("SC", "C", (State("x", initial=True),),
                       (Transition("x", "x", "m1"),))
    model, report = transform(Model("m", (cls,), (chart,)))
    op = model.class_named("C").operations[0]
    assert op.pre_authored == E.VarRef("ready")
    assert format_expr(op.pre_induced[0]) == "x"
    (path, pre, effective) = report.induced_preconditions[0]
    assert (path, pre, effective) == ("C.m1", E.VarRef("x"), op.effective_pre)
    assert print_transform_report(report).endswith(
        "  C.m1: x; effective precondition: ready and x\n")


# ---------------------------------------------------------------------------
# Clashes
# ---------------------------------------------------------------------------


def test_rule1_clash_with_authored_attribute():
    cls = ClassDef("C", attributes=(Attribute("s1", "Integer"),))
    chart = Statechart("SC", "C", (State("s1", initial=True), State("s2")), ())
    out, report = transform_class(cls, chart)
    assert [d.code for d in report.diagnostics] == ["E301"]
    # The clashing flag is withheld, the other state is still induced.
    assert [(a.name, a.type_name) for a in out.attributes] == [
        ("s1", "Integer"), ("s2", "Boolean")]


def test_rule1_clash_with_authored_operation():
    cls = ClassDef("C", operations=(Operation("s1"),))
    chart = Statechart("SC", "C", (State("s1", initial=True),), ())
    _, report = transform_class(cls, chart)
    assert [d.code for d in report.diagnostics] == ["E301"]


def test_rule3_clash_with_authored_attribute():
    cls = ClassDef("C", attributes=(Attribute("ping", "String"),))
    chart = Statechart("SC", "C", (State("x", initial=True),),
                       (Transition("x", "x", "ping"),))
    out, report = transform_class(cls, chart)
    assert [d.code for d in report.diagnostics] == ["E302"]
    assert out.operations == ()


def test_rule4_skips_an_event_rule3_refused():
    cls = ClassDef("C", attributes=(Attribute("go", "Integer"),))
    chart = Statechart("SC", "C", (State("a", initial=True), State("b")),
                       (Transition("a", "b", "go"),))
    model, report = transform(Model("m", (cls,), (chart,)))
    assert [(d.code, d.path) for d in report.diagnostics] == [("E302", "C.go")]
    # Rule 1 induced both flags, so only the missing operation stops rule 4.
    assert [a.name for a in induced_attrs(model.class_named("C"))] == ["a", "b"]
    assert model.class_named("C").operations == ()
    assert report.induced_operations == report.induced_preconditions == ()
    assert "induced preconditions" not in print_transform_report(report)


#: One model per kind of member that can bear a name no expression can
#: read, with the path its E017 is reported at and the element whose
#: location it carries.
UNREADABLE_MEMBERS = {
    "attribute": ("model m\n  class C {{\n    attribute {name} : Boolean\n  }}\n",
                  "C.{name}", lambda m: m.classes[0].attributes[0]),
    "parameter": ("model m\n  class C {{\n    operation go({name} : Boolean)\n  }}\n",
                  "C.go", lambda m: m.classes[0].operations[0]),
    "state": ("model m\n  class C {{ }}\n  statechart SC for C {{\n"
              "    initial state {name}\n    state b\n"
              "    transition {name} -> b on go\n  }}\n",
              "SC/{name}", lambda m: m.statecharts[0].states[0]),
}


@pytest.mark.parametrize("keyword, reason", [
    *(pytest.param(keyword, "an expression keyword", id=keyword) for keyword in (
        "and", "or", "not", "implies", "forall", "exists", "in", "true", "false")),
    pytest.param("self", "the bound element", id="self")])
def test_a_state_named_by_an_expression_keyword_is_a_clash(keyword, reason, sample_dir, tmp_path):
    """A keyword would print as text that does not read back, and ``self``
    reads as the bound element: no expression can read either.  So an
    attribute, parameter or state of such a name is one E017 from
    ``builtin_check``, located like the member's other errors, and the
    model commands stop there: exit 1, no E301 from a transform, nothing
    written."""

    assert UNREADABLE == E.KEYWORDS | {"self"}
    assert (keyword in E.KEYWORDS) == (keyword != "self")
    preface_dir, root, _ = sample_dir
    for kind, (text, path, element_of) in UNREADABLE_MEMBERS.items():
        file = tmp_path / f"{kind}.model"
        file.write_text(text.format(name=keyword))
        model = parse_model(file.read_text(), str(file))
        where, loc = path.format(name=keyword), element_of(model).loc
        message = f"no expression can read '{keyword}': it is {reason}"
        (found,) = builtin_check(model)
        assert (found.code, found.path, found.message, found.location) == (
            "E017", where, message, loc), kind
        line = f"error E017 {loc} {where}: {message}\n"
        for command in ("validate", "transform", "skeleton"):
            target = tmp_path / f"{kind}-{command}-out"
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(RunConfig(command, str(preface_dir), root, str(file),
                                     output=str(target) if command != "validate" else None),
                           stdout=out, stderr=err)
            assert (code, err.getvalue()) == (EXIT_DIAGNOSTICS, line), (kind, command)
            assert out.getvalue() == ("1 errors, 0 warnings\n" if command == "validate" else "")
            assert not target.exists(), (kind, command)


def test_clash_withholds_the_invariant_but_not_the_rest():
    cls = ClassDef("C", attributes=(Attribute("s1", "Integer"),),
                   operations=(Operation("m1"),))
    chart = Statechart("SC", "C", (State("s1", initial=True), State("s2")),
                       (Transition("s2", "s1", "m1"),))
    model, report = transform(Model("m", (cls,), (chart,)))
    out = model.class_named("C")
    assert [d.code for d in report.diagnostics] == ["E301"]
    assert out.invariants == ()  # rule 2 withheld for this chart
    # Rule 1 still induced s2; rule 4 still ran: m1 fires from s2 only.
    assert [a.name for a in induced_attrs(out)] == ["s2"]
    op = out.operations[0]
    assert format_expr(op.pre_induced[0]) == "s2"


def test_precondition_clash_between_two_charts_warns():
    cls = ClassDef("C", operations=(Operation("shared"),))
    first = Statechart("A", "C", (State("a1", initial=True),),
                       (Transition("a1", "a1", "shared"),))
    second = Statechart("B", "C", (State("b1", initial=True),),
                        (Transition("b1", "b1", "shared"),))
    model, report = transform(Model("m", (cls,), (first, second)))
    assert [d.code for d in report.diagnostics if d.code == "W301"] == ["W301"]
    op = model.class_named("C").operations[0]
    # The first chart's precondition stands.
    assert op.pre_induced[1].chart_name == "A"
    assert format_expr(op.pre_induced[0]) == "a1"


def test_a_second_chart_on_a_class_sees_what_the_first_induced():
    first = Statechart("A", "C", (State("a1", initial=True), State("a2")),
                       (Transition("a1", "a2", "go"),))
    second = Statechart("B", "C", (State("b1", initial=True),), (
        Transition("b1", "b1", "go"), Transition("b1", "b1", "stop")))
    model, report = transform(Model("m", (ClassDef("C"),), (first, second)))
    assert print_model(model) == (
        "model m\n"
        "  class C {\n"
        "    attribute a1 : Boolean // induced by statechart-to-class\n"
        "    attribute a2 : Boolean // induced by statechart-to-class\n"
        "    attribute b1 : Boolean // induced by statechart-to-class\n"
        "    operation go() pre: a1 // induced by statechart-to-class\n"
        "    operation stop() pre: b1 // induced by statechart-to-class\n"
        "    invariant exactlyOne(a1, a2) // induced by statechart-to-class\n"
        "    invariant b1 // induced by statechart-to-class\n"
        "  }\n"
        "  statechart A for C {\n"
        "    initial state a1\n"
        "    state a2\n"
        "    transition a1 -> a2 on go\n"
        "  }\n"
        "  statechart B for C {\n"
        "    initial state b1\n"
        "    transition b1 -> b1 on go\n"
        "    transition b1 -> b1 on stop\n"
        "  }\n")
    # B binds the operation A induced and leaves A's precondition alone.
    assert [(d.code, d.path) for d in report.diagnostics] == [
        ("I301", "C.go"), ("I301", "C.stop"), ("W301", "C.go")]
    assert [o.origin.chart_name for o in model.class_named("C").operations] == ["A", "B"]
    assert (model, report) == transform_reference(
        Model("m", (ClassDef("C"),), (first, second)))


def test_one_rebuild_per_pass_agrees_with_chart_by_chart_rebuilds():
    rng = random.Random(433)
    shared = 0
    for index in range(300):
        # one or two classes, so that charts often share one
        model = random_model(rng, max_classes=1 + index % 2)
        owners = [chart.attached_to for chart in model.statecharts]
        shared += len(owners) != len(set(owners))
        assert transform(model) == transform_reference(model)
    assert shared > 50, shared


def test_the_pass_agrees_with_the_rule_by_rule_reference_on_clashing_models():
    """Once and again, on models with planted clashes: the model (origins
    included) and the report equal the four rules run one by one.  Half
    the models are read back from their text, so that their diagnostics
    carry locations."""

    rng = random.Random(434)
    seen = dict.fromkeys(("E301 attribute", "E301 operation", "E302", "W301", "withheld"), 0)
    for index in range(400):
        model = random_model(rng, max_classes=1 + index % 2, clashes=True)
        if index % 4 > 1:
            model = parse_model(print_model(model))
        once = transform(model)
        assert once == transform_reference(model)
        assert transform(once[0]) == transform_reference(once[0])
        for d in once[1].diagnostics:
            if d.code == "E301":
                seen["E301 operation" if "an operation" in d.message else "E301 attribute"] += 1
            elif d.code in seen:
                seen[d.code] += 1
        for chart in once[0].statecharts:
            seen["withheld"] += not any(
                inv.origin.chart_name == chart.name
                for inv in once[0].class_named(chart.attached_to).invariants)
    assert min(seen.values()) >= 20, seen


def test_a_chart_induces_with_one_origin_and_one_flag_per_state(three_state_model):
    model, _ = transform(three_state_model)
    cls = model.class_named("C")
    origins = [a.origin for a in cls.attributes] + [i.origin for i in cls.invariants] + [
        o.pre_induced[1] for o in cls.operations]
    assert len({id(origin) for origin in origins}) == 1
    (inv,) = cls.invariants
    flags = {id(flag) for flag in inv.expr.args}
    for op in cls.operations:
        work = [op.pre_induced[0]]
        while work:
            node = work.pop()
            if isinstance(node, E.Or):
                work += (node.lhs, node.rhs)
            else:
                assert id(node) in flags
    # an induced operation shares the origin too
    chart = Statechart("SC", "C", (State("a", initial=True), State("b")),
                       (Transition("a", "b", "go"), Transition("b", "a", "back")))
    cls, _ = transform_class(ClassDef("C"), chart)
    origins = [a.origin for a in cls.attributes] + [i.origin for i in cls.invariants] + [
        origin for o in cls.operations for origin in (o.origin, o.pre_induced[1])]
    assert len({id(origin) for origin in origins}) == 1
    assert cls.operations[0].pre_induced[0] is cls.invariants[0].expr.args[0]


# ---------------------------------------------------------------------------
# The pass as a whole
# ---------------------------------------------------------------------------


def test_disabled_transform_is_the_identity(three_state_model):
    model, report = apply_transforms(three_state_model, DISABLED)
    assert model == three_state_model
    assert report.diagnostics == ()
    assert report.induced_attributes == ()


def test_transforming_twice_changes_nothing(three_state_model):
    once, _ = transform(three_state_model)
    twice, second_report = transform(once)
    assert twice == once
    assert second_report.induced_attributes == ()
    assert second_report.induced_invariants == ()
    assert second_report.induced_operations == ()
    assert second_report.induced_preconditions == ()


def test_transforming_twice_is_a_no_op_at_six_hundred_states():
    # Every state has a ``reset`` transition, so that event's induced
    # precondition is a 600-deep ``or`` spine.
    names = [f"s{i}" for i in range(600)]
    chart = Statechart(
        "SC", "C",
        (State(names[0], initial=True), *(State(n) for n in names[1:])),
        (Transition("s0", "s1", "go"), *(Transition(n, "s0", "reset") for n in names)))
    once, _ = transform(Model("big", (ClassDef("C"),), (chart,)))
    twice, second_report = transform(once)
    assert twice is once
    assert second_report == TransformReport()


def test_idempotence_on_random_models():
    rng = random.Random(431)
    for _ in range(100):
        model = random_model(rng)
        once, _ = transform(model)
        twice, report = transform(once)
        assert twice == once
        assert report.induced_attributes == ()
        assert report.induced_preconditions == ()


def test_conservativity_on_random_models():
    rng = random.Random(432)
    for _ in range(100):
        model = random_model(rng)
        transformed, _ = transform(model)
        assert authored_view(transformed) == model


def test_the_printed_transform_reads_back_as_authored():
    rng = random.Random(435)
    induced = conjoined = 0
    for index in range(800):
        model = random_model(rng, max_classes=1 + index % 2, clashes=index % 2 == 1)
        transformed, report = transform(model)
        assert parse_model(print_model(transformed)) == read_back(transformed)
        induced += len(report.induced_invariants) + len(report.induced_preconditions)
        conjoined += sum(full is not None for _, _, full in report.induced_preconditions)
    assert induced > 1000 and conjoined > 20, (induced, conjoined)


def test_the_structural_check_passes_what_the_pass_induces():
    """``builtin_check`` checks the origin of every induced member (E015);
    the pass's own output, on the sample and on random models with and
    without clashes, passes it whole."""

    sample = Path(__file__).resolve().parent.parent / "sample"
    repo = {pkg.id: pkg for pkg in (parse_package(path.read_text(encoding="utf-8"))
                                    for path in sorted((sample / "defs").glob("*.preface")))}
    cases = [(parse_model((sample / "example.model").read_text(encoding="utf-8")),
              compose(repo, "project-p"))]
    rng = random.Random(436)
    cases += [(random_model(rng, clashes=index % 2 == 1), ENABLED) for index in range(200)]
    induced = Counter()
    for model, eff in cases:
        assert builtin_check(model) == []
        transformed, _ = apply_transforms(model, eff)
        assert builtin_check(transformed) == []
        for cls in transformed.classes:
            induced["operations"] += sum(op.origin.kind == "induced" for op in cls.operations)
            induced["preconditions"] += sum(op.pre_induced is not None for op in cls.operations)
            induced["invariants"] += sum(inv.origin.kind == "induced" for inv in cls.invariants)
    assert min(induced.values()) > 100, induced


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_idempotence_and_conservativity_are_seed_independent(seed):
    model = random_model(random.Random(seed))
    once, _ = transform(model)
    twice, _ = transform(once)
    assert twice == once
    assert authored_view(once) == model


def test_stale_induced_invariant_is_replaced_after_chart_change(three_state_model):
    once, _ = transform(three_state_model)
    chart = once.statecharts[0]
    grown = replace(chart, states=chart.states + (State("s4"),))
    regrown = replace(once, statecharts=(grown,))
    again, report = transform(regrown)
    cls = again.class_named("C")
    invariants = [i for i in cls.invariants if i.origin.kind == "induced"]
    assert len(invariants) == 1
    assert "s4" in format_expr(invariants[0].expr)
    assert report.induced_invariants != []


def test_a_stale_invariant_beside_the_current_one_is_dropped(three_state_model):
    once, _ = transform(three_state_model)
    cls = once.class_named("C")
    (current,) = cls.invariants
    stale = Invariant(E.VarRef("s1"), current.origin)
    doubled = replace(once, classes=(replace(cls, invariants=(stale, current)),))
    again, report = transform(doubled)
    assert again.class_named("C").invariants == (current,)
    assert report == TransformReport()
    assert (again, report) == transform_reference(doubled)


def test_chart_events_are_distinct_in_first_appearance_order(three_state_model):
    assert chart_events(three_state_model.statecharts[0]) == ("m1", "m2", "m3")
