"""Model structure: paths, lookup, and the structural checks."""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_model
from oracles import all_element_paths, inherits_from_itself_reference
from prefacer.diagnostics import Diagnostic, SourceLocation
from prefacer.expr import Literal
from prefacer.model import (
    Attribute,
    ClassDef,
    Invariant,
    MalformedPathError,
    Model,
    Operation,
    Origin,
    Param,
    State,
    Statechart,
    Transition,
    builtin_check,
    lookup_element,
    metaclass_of,
    stereotypes_of,
)


def codes(diags):
    return [d.code for d in diags]


# ---------------------------------------------------------------------------
# Lookup vs. exhaustive enumeration
# ---------------------------------------------------------------------------


def test_lookup_matches_exhaustive_enumeration_on_random_models():
    rng = random.Random(401)
    for _ in range(150):
        model = random_model(rng)
        table = all_element_paths(model)
        for path, element in table.items():
            assert lookup_element(model, path) is element, path
        # Paths that enumerate nothing must come back None.
        for path in ("Nope", "C0.zz", "SC0/zz", "SC9/0", "C0.a99"):
            if path not in table:
                assert lookup_element(model, path) is None


def test_lookup_prefers_class_over_chart_and_attribute_over_operation():
    model = Model("m", (
        ClassDef("X", attributes=(Attribute("n", "Integer"),),
                 operations=(Operation("n"),)),
    ), (
        Statechart("X", "X", (State("s", initial=True),), ()),
    ))
    assert isinstance(lookup_element(model, "X"), ClassDef)
    assert isinstance(lookup_element(model, "X.n"), Attribute)
    assert isinstance(lookup_element(model, "X/s"), State)


def test_lookup_transition_by_index():
    model = Model("m", (ClassDef("C"),), (
        Statechart("SC", "C", (State("a", initial=True), State("b")), (
            Transition("a", "b", "go"), Transition("b", "a", "back"))),
    ))
    assert lookup_element(model, "SC/0").event == "go"
    assert lookup_element(model, "SC/1").event == "back"
    assert lookup_element(model, "SC/2") is None


@pytest.mark.parametrize("path", [
    "", " C", "C ", "a.b.c", "a/b/c", "a.b/c", "a/b.c", "1C", "C.", "C/",
    "C.1x", "a b", "C\n.m", "SC\n/0",
])
def test_malformed_paths_raise(path):
    model = Model("m", (ClassDef("C"),), ())
    with pytest.raises(MalformedPathError):
        lookup_element(model, path)


#: The element-path grammar, written apart from ``lookup_element``: an
#: ASCII name, then optionally ``.`` and a name, or ``/`` and either a name
#: or ASCII digits.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_PATH = re.compile(f"{_NAME}(?:\\.{_NAME}|/(?:{_NAME}|[0-9]+))?")


def test_lookup_refuses_exactly_the_paths_outside_the_grammar():
    # Whether a path is malformed does not depend on the model: the same
    # paths are looked up on a model and on that model without its charts,
    # so a bad item under a chart that does not exist (X/1x) raises too.
    rng = random.Random(433)
    seen: Counter = Counter()
    for _ in range(60):
        model = random_model(rng)
        names = sorted({cls.name for cls in model.classes}
                       | {member.name for cls in model.classes
                          for member in cls.attributes + cls.operations}
                       | {chart.name for chart in model.statecharts}
                       | {state.name for chart in model.statecharts for state in chart.states})
        alphabet = names + ["X", "0", "01", "\u0661", ".", "/", " ", "_", "\n"]
        paths = ["X/1x"] + ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                            for _ in range(150)]
        for chartless in (False, True):
            shown = replace(model, statecharts=()) if chartless else model
            table = all_element_paths(shown)
            for path in paths:
                if not _PATH.fullmatch(path):
                    with pytest.raises(MalformedPathError):
                        lookup_element(shown, path)
                    seen["malformed"] += 1
                    continue
                head, separator, item = path.partition("/")
                # the enumeration writes a transition's index without leading zeros
                key = f"{head}/{int(item)}" if separator and item.isdigit() else path
                found = lookup_element(shown, path)
                assert found is table.get(key), path
                seen["found" if found is not None else "none"] += 1
    assert min(seen.values()) > 500 and len(seen) == 3, seen


def test_lookup_by_name_returns_the_first_of_duplicates():
    first, second = ClassDef("C", superclasses=("A",)), ClassDef("C")
    chart1 = Statechart("S", "C", (State("a", initial=True),), ())
    chart2 = Statechart("S", "C", (State("b", initial=True),), ())
    model = Model("m", (ClassDef("A"), first, second), (chart1, chart2))
    assert model.class_named("C") is first
    assert model.chart_named("S") is chart1
    assert model.class_named("Nope") is None
    assert model.chart_named("Nope") is None


@pytest.mark.parametrize("path", ["SC/\u00b2", "SC/\u0661"])
def test_non_ascii_digits_are_not_transition_indexes(path):
    model = Model("m", (ClassDef("C"),), (
        Statechart("SC", "C", (State("a", initial=True),), (
            Transition("a", "a", "go"), Transition("a", "a", "stay"))),
    ))
    with pytest.raises(MalformedPathError):
        lookup_element(model, path)


def test_metaclass_of_and_stereotypes_of():
    cls = ClassDef("C", stereotypes=frozenset({"event"}))
    assert metaclass_of(cls) == "Class"
    assert metaclass_of(Attribute("a", "Integer")) == "Attribute"
    assert metaclass_of(Operation("m")) == "Operation"
    assert metaclass_of(Statechart("S", "C")) == "Statechart"
    assert metaclass_of(Transition("a", "b", "e")) == "Transition"
    assert stereotypes_of(cls) == frozenset({"event"})
    assert stereotypes_of(Operation("m")) == frozenset()


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def test_random_models_are_structurally_clean():
    rng = random.Random(402)
    for _ in range(100):
        assert builtin_check(random_model(rng)) == []


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_generator_validity_is_seed_independent(seed):
    assert builtin_check(random_model(random.Random(seed))) == []


def test_duplicate_class_and_chart_names():
    model = Model("m", (ClassDef("C"), ClassDef("C")), (
        Statechart("S", "C", (State("a", initial=True),), ()),
        Statechart("S", "C", (State("a", initial=True),), ()),
    ))
    assert codes(builtin_check(model)) == ["E001", "E002"]


def test_duplicate_members_and_attr_op_collision():
    model = Model("m", (ClassDef("C",
        attributes=(Attribute("a", "Integer"), Attribute("a", "Integer")),
        operations=(Operation("m"), Operation("m"), Operation("a")),
    ),))
    assert codes(builtin_check(model)) == ["E004", "E005", "E006"]


def test_unknown_superclass_and_inheritance_cycle():
    model = Model("m", (
        ClassDef("A", superclasses=("Ghost",)),
        ClassDef("B", superclasses=("D",)),
        ClassDef("D", superclasses=("B",)),
    ))
    out = builtin_check(model)
    assert codes(out) == ["E007", "E008", "E008"]
    assert "Ghost" in out[0].message


def test_self_inheritance_is_a_cycle():
    model = Model("m", (ClassDef("A", superclasses=("A",)),))
    assert codes(builtin_check(model)) == ["E008"]


def test_bad_attribute_and_param_types():
    model = Model("m", (ClassDef("C",
        attributes=(Attribute("a", "Float"),),
        operations=(Operation("m", params=(Param("p", "Real"),)),),
    ),))
    assert codes(builtin_check(model)) == ["E009", "E016"]


def test_chart_problems_each_get_a_code():
    model = Model("m", (ClassDef("C"),), (
        Statechart("SC", "Ghost",
                   (State("a", initial=True), State("a")),
                   (Transition("a", "zz", "ok"), Transition("a", "a", "go now"))),
        Statechart("S2", "C", (State("x"), State("y")), ()),
    ))
    out = builtin_check(model)
    assert codes(out) == ["E003", "E010", "E012", "E014", "E011"]


def test_an_event_with_a_trailing_newline_is_not_an_identifier():
    model = Model("m", (ClassDef("C"),), (
        Statechart("SC", "C", (State("a", initial=True),), (Transition("a", "a", "go\n"),)),))
    assert codes(builtin_check(model)) == ["E014"]


def test_duplicate_params_detected():
    model = Model("m", (ClassDef("C", operations=(
        Operation("m", params=(Param("p", "Integer"), Param("p", "String"))),
    )),))
    assert codes(builtin_check(model)) == ["E013"]


def test_bad_origins_detected():
    model = Model("m", (ClassDef("C", attributes=(
        Attribute("a", "Integer", Origin("grown")),
        Attribute("b", "Integer", Origin("induced")),
    )),))
    assert codes(builtin_check(model)) == ["E015", "E015"]


_AT = SourceLocation("m.model", 3, 5)


@pytest.mark.parametrize("origin, message", [
    (Origin("grown"), "invalid origin kind 'grown'"),
    (Origin("induced", chart_name="SC"), "induced element lacks a rule id"),
])
@pytest.mark.parametrize("member", ["operation", "precondition", "invariant"])
def test_a_bad_origin_on_an_induced_member_is_one_error_at_its_member(member, origin, message):
    if member == "invariant":
        cls = ClassDef("C", invariants=(Invariant(Literal(True), origin),), loc=_AT)
        path = "C"
    else:
        op = (Operation("m", origin=origin, loc=_AT) if member == "operation"
              else Operation("m", pre_induced=(Literal(True), origin), loc=_AT))
        cls = ClassDef("C", operations=(op,), loc=SourceLocation("m.model", 2, 1))
        path = "C.m"
    (found,) = builtin_check(Model("m", (cls,)))
    assert (found.code, found.path, found.message, found.location) == ("E015", path, message, _AT)


def test_initial_state_count_must_be_one():
    two = Statechart("SC", "C", (State("a", initial=True), State("b", initial=True)), ())
    none = Statechart("SD", "C", (State("a"),), ())
    model = Model("m", (ClassDef("C"),), (two, none))
    out = builtin_check(model)
    assert codes(out) == ["E011", "E011"]
    assert "2 initial states" in out[0].message
    assert "0 initial states" in out[1].message


# ---------------------------------------------------------------------------
# Inheritance: unknown superclasses and cycles against the per-class walk
# ---------------------------------------------------------------------------


def _random_class_graph(rng: random.Random) -> Model:
    """Classes drawn from a small name pool, so names repeat; superclasses
    from the pool plus names no class bears, self-loops included.  Each
    class has its own location, so a diagnostic identifies its class."""

    pool = [f"K{i}" for i in range(rng.randint(1, 7))]
    supers_pool = pool + ["Ghost", "Nil"]
    classes = []
    for line in range(1, rng.randint(1, 12) + 1):
        supers = tuple(rng.choice(supers_pool) for _ in range(rng.randint(0, 3)))
        classes.append(ClassDef(rng.choice(pool), superclasses=supers,
                                loc=SourceLocation("g.model", line, 1)))
    return Model("g", tuple(classes))


def _hierarchy_diagnostics_reference(model: Model) -> list[Diagnostic]:
    names = {cls.name for cls in model.classes}
    out = []
    for cls in model.classes:
        for sup in cls.superclasses:
            if sup not in names:
                out.append(Diagnostic("error", "E007", cls.name,
                                      f"unknown superclass '{sup}' of '{cls.name}'", cls.loc))
        if inherits_from_itself_reference(model, cls):
            out.append(Diagnostic("error", "E008", cls.name,
                                  f"'{cls.name}' is its own transitive superclass", cls.loc))
    return out


def test_hierarchy_diagnostics_match_the_per_class_walk_on_random_graphs():
    rng = random.Random(404)
    cycles = duplicates = 0
    for _ in range(3000):
        model = _random_class_graph(rng)
        expected = _hierarchy_diagnostics_reference(model)
        got = [d for d in builtin_check(model) if d.code in ("E007", "E008")]
        assert got == expected, model
        cycles += any(d.code == "E008" for d in expected)
        duplicates += len({c.name for c in model.classes}) < len(model.classes)
    # The corpus must exercise both cycles and duplicate names.
    assert cycles > 500 and duplicates > 500


def test_cycle_in_a_long_chain_marks_exactly_its_members():
    # Each C{i} specializes C{i-1}, except that C2500 specializes C2501,
    # C2501 specializes C2502 and C2502 specializes C2500: a 3-cycle, with
    # C2503 (and the rest of the chain above it) hanging off it.  Only the
    # three members are E008.
    n = 5000
    supers = {f"C{i}": (f"C{i - 1}",) for i in range(1, n)}
    supers["C2502"] = ("C2500",)
    supers["C2501"] = ("C2502",)
    supers["C2500"] = ("C2501",)
    model = Model("chain", tuple(ClassDef(f"C{i}", superclasses=supers.get(f"C{i}", ()))
                                 for i in range(n)))
    out = builtin_check(model)
    assert [(d.code, d.path) for d in out] == [
        ("E008", "C2500"), ("E008", "C2501"), ("E008", "C2502")]


def test_a_twenty_thousand_class_chain_checks_without_recursion():
    n = 20000
    model = Model("chain", tuple(ClassDef(f"C{i}", superclasses=(f"C{i - 1}",) if i else ())
                                 for i in range(n)))
    assert builtin_check(model) == []
    looped = Model("loop", (ClassDef("C0", superclasses=(f"C{n - 1}",)),) + model.classes[1:])
    assert [d.path for d in builtin_check(looped)] == [f"C{i}" for i in range(n)]
