"""Skeleton and monitor emission."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from generators import random_model
from oracles import call_sequences_reference
from skeleton_oracle import skeleton_reference
from prefacer.model import (
    Attribute,
    ClassDef,
    Model,
    Operation,
    Param,
    State,
    Statechart,
    Transition,
)
from prefacer.preface import (
    STATECHART_TO_CLASS,
    OptionDef,
    Package,
    TransformSelection,
    compose,
    resolve,
)
from prefacer.skeletongen import (
    UntransformedInputError,
    _call_sequences,
    generate_monitor,
    generate_skeleton,
)
from prefacer.textio import parse_model, parse_package
from prefacer.transformer import apply_transforms

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def eff_with_options(*options):
    defs = (TransformSelection(STATECHART_TO_CLASS, True),) + tuple(
        OptionDef(k, v) for k, v in options)
    return resolve([Package("t", (), defs)])


DEFAULT_EFF = eff_with_options()


def transformed(model, eff=DEFAULT_EFF):
    out, report = apply_transforms(model, eff)
    assert not [d for d in report.diagnostics if d.severity == "error"]
    return out


WORKED_SKELETON = """\
// framing.default = unconstrained
// communication.paradigm = procedure_call
CLASS C
  FLAG s1
  FLAG s2
  FLAG s3
  ROUTINE m1()
    GUARD s1 ELSE TRAP precondition_violation
    TODO body
    ENTER s2 OF SC
  END
  ROUTINE m2()
    GUARD s2 ELSE TRAP precondition_violation
    TODO body
    ENTER s1 OF SC
  END
  ROUTINE m3()
    GUARD s1 or s2 ELSE TRAP precondition_violation
    TODO body
    ENTER s3 OF SC
  END
END
"""

WORKED_MONITOR = """\
MONITOR C
  // check after every operation
  ASSERT exactlyOne(s1, s2, s3)
  SEQUENCE m1
  SEQUENCE m1, m2
  SEQUENCE m1, m2, m3
  SEQUENCE m1, m3
  SEQUENCE m3
END
"""


def test_worked_skeleton_is_byte_exact(three_state_model):
    eff = eff_with_options(("statechart.unexpected_event", "error"))
    (unit,) = generate_skeleton(transformed(three_state_model, eff), eff)
    assert unit.class_name == "C"
    assert unit.text == WORKED_SKELETON


def test_worked_monitor_is_byte_exact(three_state_model):
    (unit,) = generate_monitor(transformed(three_state_model), DEFAULT_EFF)
    assert unit.monitor_text == WORKED_MONITOR


def test_violation_policy_switches_the_marker_lines_only(three_state_model):
    trap_eff = eff_with_options(("statechart.unexpected_event", "error"))
    ret_eff = eff_with_options(("statechart.unexpected_event", "ignore"))
    model = transformed(three_state_model, trap_eff)
    (trap,) = generate_skeleton(model, trap_eff)
    (ret,) = generate_skeleton(model, ret_eff)
    trap_lines = trap.text.splitlines()
    ret_lines = ret.text.splitlines()
    assert len(trap_lines) == len(ret_lines)
    differing = [
        (a, b) for a, b in zip(trap_lines, ret_lines) if a != b]
    assert len(differing) == 3  # one per guarded routine
    for a, b in differing:
        assert a.endswith("ELSE TRAP precondition_violation")
        assert b.endswith("ELSE RETURN // ignored")
        assert a.split("ELSE")[0] == b.split("ELSE")[0]


def test_header_records_the_effective_options(three_state_model):
    eff = eff_with_options(
        ("framing.default", "unmentioned_unchanged"),
        ("communication.paradigm", "asynchronous"))
    (unit,) = generate_skeleton(transformed(three_state_model, eff), eff)
    assert unit.text.splitlines()[:2] == [
        "// framing.default = unmentioned_unchanged",
        "// communication.paradigm = asynchronous"]


def test_authored_attributes_are_vars_induced_flags_are_flags():
    model = Model("m", (
        ClassDef("C",
                 attributes=(Attribute("n", "Integer"), Attribute("ok", "Boolean")),
                 operations=(Operation("poke", params=(Param("amount", "Integer"),)),)),
    ), (
        Statechart("SC", "C", (State("idle", initial=True),),
                   (Transition("idle", "idle", "poke"),)),
    ))
    (unit,) = generate_skeleton(transformed(model), DEFAULT_EFF)
    lines = unit.text.splitlines()
    assert "  VAR n : Integer" in lines
    assert "  VAR ok : Boolean" in lines
    assert "  FLAG idle" in lines
    assert "  ROUTINE poke(amount : Integer)" in lines


def test_multi_target_event_guards_each_move():
    model = Model("m", (ClassDef("C"),), (
        Statechart("SC", "C",
                   (State("a", initial=True), State("b"), State("c")), (
            Transition("a", "b", "split"), Transition("b", "c", "split"))),
    ))
    (unit,) = generate_skeleton(transformed(model), DEFAULT_EFF)
    assert ("    TODO body\n"
            "    GUARD a\n      ENTER b OF SC\n    END\n"
            "    GUARD b\n      ENTER c OF SC\n    END\n"
            "  END\n") in unit.text


def test_operations_without_preconditions_have_no_guard():
    model = Model("m", (ClassDef("C", operations=(Operation("free"),)),), ())
    (unit,) = generate_skeleton(model, DEFAULT_EFF)
    assert "GUARD" not in unit.text
    assert "ROUTINE free()" in unit.text


def test_untransformed_input_is_refused(three_state_model):
    with pytest.raises(UntransformedInputError):
        generate_skeleton(three_state_model, DEFAULT_EFF)
    with pytest.raises(UntransformedInputError):
        generate_monitor(three_state_model, DEFAULT_EFF)


def test_monitor_covers_only_chart_attached_classes():
    model = Model("m", (ClassDef("Plain"), ClassDef("C")), (
        Statechart("SC", "C", (State("a", initial=True),),
                   (Transition("a", "a", "tick"),)),
    ))
    units = generate_monitor(transformed(model), DEFAULT_EFF)
    assert [u.class_name for u in units] == ["C"]
    skeletons = generate_skeleton(transformed(model), DEFAULT_EFF)
    assert [u.class_name for u in skeletons] == ["Plain", "C"]


def test_monitor_sequences_reuse_no_transition():
    model = Model("m", (ClassDef("C"),), (
        Statechart("SC", "C", (State("a", initial=True), State("b")), (
            Transition("a", "b", "go"), Transition("b", "a", "back"))),
    ))
    (unit,) = generate_monitor(transformed(model), DEFAULT_EFF)
    sequences = [line.strip() for line in unit.monitor_text.splitlines()
                 if line.strip().startswith("SEQUENCE")]
    # go; go,back; go,back,?? -- the third call would need transition 0
    # again, so the walk stops at length 2.
    assert sequences == ["SEQUENCE go", "SEQUENCE go, back"]


def _random_chart(rng: random.Random) -> Statechart:
    """A chart whose transitions crowd on a hub state, loop back to their
    source and reuse a few event names; some charts have no initial state
    and some transitions name states the chart does not declare."""

    names = [f"s{i}" for i in range(rng.randint(0, 8))]
    initial = rng.choice(names) if names and rng.random() < 0.85 else None
    states = tuple(State(n, initial=n == initial) for n in names)
    pool = names + ["ghost"]
    hub = rng.choice(pool)
    transitions = []
    for _ in range(rng.randint(0, 24)):
        source = hub if rng.random() < 0.4 else rng.choice(pool)
        target = source if rng.random() < 0.2 else rng.choice(pool)
        transitions.append(Transition(source, target, rng.choice(("go", "back", "stop"))))
    return Statechart("SC", "C", states, tuple(transitions))


def test_call_sequences_match_the_reference_walk():
    rng = random.Random(442)
    for _ in range(800):
        chart = _random_chart(rng)
        for max_len in (1, 3, 4):
            assert _call_sequences(chart, max_len) == call_sequences_reference(chart, max_len)


def test_generation_is_deterministic():
    rng = random.Random(441)
    generated = 0
    for _ in range(40):
        model, report = apply_transforms(random_model(rng), DEFAULT_EFF)
        if any(d.severity == "error" for d in report.diagnostics):
            continue  # name clash between charts; generation would refuse
        first = generate_skeleton(model, DEFAULT_EFF)
        second = generate_skeleton(model, DEFAULT_EFF)
        assert first == second
        assert generate_monitor(model, DEFAULT_EFF) == generate_monitor(model, DEFAULT_EFF)
        generated += 1
    assert generated > 20


# ---------------------------------------------------------------------------
# ENTER lines against the flag assignments they stand for
# ---------------------------------------------------------------------------

_ENTER = re.compile(r"( *)ENTER (\S+) OF (\S+)")


def expand_entries(text: str, model: Model) -> str:
    """``text`` with each ``ENTER s OF SC`` line written out as the block it
    means: ``SET s := true``, then ``SET x := false`` for every other state
    ``x`` of ``SC``, in declaration order, at the same indentation."""

    states = {sc.name: sc.state_names() for sc in model.statecharts}
    out = []
    for line in text.splitlines():
        entry = _ENTER.fullmatch(line)
        if entry is None:
            out.append(line)
            continue
        pad, target, chart = entry.groups()
        out.append(f"{pad}SET {target} := true")
        out.extend(f"{pad}SET {name} := false" for name in states[chart] if name != target)
    return "\n".join(out) + "\n"


def assert_expands_to_the_reference(model, eff) -> None:
    got = [(u.class_name, expand_entries(u.text, model)) for u in generate_skeleton(model, eff)]
    assert got == skeleton_reference(model, eff)


def test_sample_skeleton_expands_to_the_flag_assignments():
    repo = {}
    for path in sorted((SAMPLE / "defs").glob("*.preface")):
        pkg = parse_package(path.read_text(encoding="utf-8"), str(path))
        repo[pkg.id] = pkg
    eff = compose(repo, "project-p")
    model = parse_model((SAMPLE / "example.model").read_text(encoding="utf-8"))
    assert_expands_to_the_reference(transformed(model, eff), eff)


def test_two_charts_on_a_class_expand_to_the_flag_assignments():
    model = Model("m", (ClassDef("C", operations=(Operation("go"),)), ClassDef("D")), (
        Statechart("A", "C", (State("a1", initial=True), State("a2"), State("a3")), (
            Transition("a1", "a2", "go"), Transition("a2", "a3", "go"),
            Transition("a1", "a2", "go"), Transition("a3", "a1", "back"))),
        Statechart("B", "C", (State("b1", initial=True), State("b2")), (
            Transition("b1", "b2", "go"), Transition("b2", "b2", "go"),
            Transition("b2", "b1", "stop"))),
    ))
    for policy in ("error", "ignore"):
        eff = eff_with_options(("statechart.unexpected_event", policy))
        out = transformed(model, eff)
        assert_expands_to_the_reference(out, eff)
    (unit, _) = generate_skeleton(out, eff)
    assert "    GUARD a1\n      ENTER a2 OF A\n    END\n" in unit.text
    assert "    TODO body\n    ENTER b1 OF B\n  END\n" in unit.text


def _own_state_names(model: Model) -> Model:
    """``model`` with each chart's states prefixed by the chart's name, so
    two charts on one class induce different flags instead of clashing."""

    charts = []
    for sc in model.statecharts:
        own = {st.name: f"{sc.name}_{st.name}" for st in sc.states}
        charts.append(replace(
            sc, states=tuple(replace(st, name=own[st.name]) for st in sc.states),
            transitions=tuple(replace(t, source=own[t.source], target=own[t.target])
                              for t in sc.transitions)))
    return replace(model, statecharts=tuple(charts))


def test_random_skeletons_expand_to_the_flag_assignments():
    rng = random.Random(443)
    policies = [eff_with_options(("statechart.unexpected_event", p)) for p in ("error", "ignore")]
    checked = two_chart_classes = 0
    for index in range(320):
        eff = policies[index % 2]
        model, report = apply_transforms(_own_state_names(random_model(rng)), eff)
        if any(d.severity == "error" for d in report.diagnostics):
            continue  # name clash between charts; generation would refuse
        assert_expands_to_the_reference(model, eff)
        checked += 1
        owners = [sc.attached_to for sc in model.statecharts]
        two_chart_classes += len(owners) != len(set(owners))
    assert checked >= 200
    assert two_chart_classes >= 20


def test_a_ring_of_six_hundred_states_has_a_linear_skeleton():
    names = [f"s{i}" for i in range(600)]
    model = Model("m", (ClassDef("C"),), (Statechart(
        "SC", "C", tuple(State(n, initial=not i) for i, n in enumerate(names)),
        tuple(Transition(n, names[(i + 1) % 600], "step") for i, n in enumerate(names))),))
    (unit,) = generate_skeleton(transformed(model), DEFAULT_EFF)
    lines = unit.text.splitlines()
    # One FLAG line per state and a guarded ENTER (three lines) per move;
    # spelling each move out as flag assignments took over 360,000 lines.
    assert len(lines) <= len(names) + 3 * 600 + 10
    assert lines.count("    END") == 600
