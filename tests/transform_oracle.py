"""The statechart transform as four separate rules, kept as the reference.

Each rule takes the attached class and the chart and returns the class it
rebuilt and a ``TransformReport`` of its own; ``transform_reference`` runs
them chart by chart and puts every rule's class back into the model before
the next rule looks it up.  ``transformer.apply_transforms`` does the same
work in one pass per chart over a working copy of each class, and must
agree with this reference in the model (origins included) and the report.
It lives apart from ``tests/oracles.py`` because the benchmark harness
imports that module.
"""

from __future__ import annotations

from prefacer import expr as E
from prefacer.diagnostics import Diagnostic, has_errors
from prefacer.model import (
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Origin,
    Statechart,
    member_path,
)
from prefacer.preface import STATECHART_TO_CLASS
from prefacer.record import replace
from prefacer.transformer import TransformReport


def induced_by(origin: Origin, chart: Statechart) -> bool:
    return (origin.kind == "induced"
            and origin.rule_id == STATECHART_TO_CLASS
            and origin.chart_name == chart.name)


def _origin_for(chart: Statechart) -> Origin:
    return Origin("induced", STATECHART_TO_CLASS, chart.name)


def rule1_state_attributes(cls: ClassDef, chart: Statechart) -> tuple[ClassDef, TransformReport]:
    """Give ``cls``, the class ``chart`` is attached to, one Boolean flag
    per state.

    A state whose name an authored attribute or operation already bears is
    reported as a name clash and skipped; the other states are still
    induced.  Flags this rule induced on an earlier run are recognised by
    their origin and left alone.  The model has passed ``builtin_check``,
    so no state bears a name that no expression can read.
    """

    attrs = {a.name: a for a in cls.attributes}
    ops = {o.name for o in cls.operations}

    added: list[Attribute] = []
    induced, diagnostics = [], []
    for state in chart.states:
        existing = attrs.get(state.name)
        if existing is not None:
            if induced_by(existing.origin, chart):
                continue
            diagnostics.append(Diagnostic(
                "E301", member_path(cls, state.name),
                f"cannot induce state attribute '{state.name}': the name is "
                f"already taken on '{cls.name}'", existing.loc))
            continue
        if state.name in ops:
            diagnostics.append(Diagnostic(
                "E301", member_path(cls, state.name),
                f"cannot induce state attribute '{state.name}': an operation "
                f"of '{cls.name}' has that name", cls.loc))
            continue
        flag = Attribute(state.name, "Boolean", _origin_for(chart))
        added.append(flag)
        attrs[state.name] = flag
        induced.append((member_path(cls, state.name), f"{state.name} : Boolean"))

    report = TransformReport(induced_attributes=tuple(induced), diagnostics=tuple(diagnostics))
    if not added:
        return cls, report
    return replace(cls, attributes=cls.attributes + tuple(added)), report


# ---------------------------------------------------------------------------
# Rule 2: the states are mutually exclusive and one always holds
# ---------------------------------------------------------------------------


def exactly_one(names: tuple[str, ...]) -> E.Expr:
    """Exactly one of ``names`` is true: the built-in call
    ``exactlyOne(a, b, ...)`` over the flags in declaration order, one
    node per name.  A single name is just that name.
    """

    flags = tuple(E.VarRef(n) for n in names)
    return flags[0] if len(flags) == 1 else E.Call("exactlyOne", flags)


def rule2_mutex_invariant(cls: ClassDef, chart: Statechart) -> tuple[ClassDef, TransformReport]:
    """Add the exactly-one invariant over the chart's state flags to ``cls``.

    Requires rule 1 to have run for this chart.  The invariant this rule
    added on an earlier run is recognised by origin; if the chart changed
    in between, the stale invariant is replaced rather than duplicated.
    """

    if not chart.states:
        return cls, TransformReport()
    wanted = exactly_one(chart.state_names())

    kept: list[Invariant] = []
    found = False
    for inv in cls.invariants:
        if induced_by(inv.origin, chart):
            if inv.expr == wanted and not found:
                found = True
                kept.append(inv)
            continue  # a stale induced invariant for this chart is dropped
        kept.append(inv)
    if not found:
        kept.append(Invariant(wanted, _origin_for(chart)))
    report = TransformReport(induced_invariants=() if found else ((cls.name, wanted),))
    if tuple(kept) == cls.invariants:
        return cls, report
    return replace(cls, invariants=tuple(kept)), report


# ---------------------------------------------------------------------------
# Rule 3: events are operations
# ---------------------------------------------------------------------------


def chart_events(chart: Statechart) -> tuple[str, ...]:
    """Distinct event names in transition declaration order."""

    return tuple(dict.fromkeys(t.event for t in chart.transitions))


def rule3_event_operations(cls: ClassDef, chart: Statechart) -> tuple[ClassDef, TransformReport]:
    """Bind every event to the same-named operation of ``cls``, the
    attached class.

    An event with no such operation gets a parameterless one, recorded
    with an informational diagnostic.  An event whose name an attribute
    already bears is a clash: nothing is induced for it.
    """

    op_names = {o.name for o in cls.operations}
    attr_names = {a.name for a in cls.attributes}

    added: list[Operation] = []
    induced, diagnostics = [], []
    for event in chart_events(chart):
        if event in op_names:
            continue
        if event in attr_names:
            diagnostics.append(Diagnostic(
                "E302", member_path(cls, event),
                f"cannot induce operation '{event}': an attribute of "
                f"'{cls.name}' has that name", cls.loc))
            continue
        op = Operation(event, origin=_origin_for(chart))
        added.append(op)
        op_names.add(event)
        induced.append((member_path(cls, event), f"{event}()"))
        diagnostics.append(Diagnostic(
            "I301", member_path(cls, event),
            f"induced parameterless operation '{event}' for event '{event}' "
            f"of '{chart.name}'"))

    report = TransformReport(induced_operations=tuple(induced), diagnostics=tuple(diagnostics))
    if not added:
        return cls, report
    return replace(cls, operations=cls.operations + tuple(added)), report


# ---------------------------------------------------------------------------
# Rule 4: events may only fire from their source states
# ---------------------------------------------------------------------------


def rule4_preconditions(cls: ClassDef, chart: Statechart) -> tuple[ClassDef, TransformReport]:
    """Give every event operation of ``cls``, the attached class, the
    induced precondition "the object is in one of the event's source
    states".

    The disjuncts follow state declaration order, and a single source
    prints as the bare flag.  Requires rules 1 and 3 for this chart; an
    event whose source flag fell to a rule-1 clash is skipped (the clash
    was already reported).  Postconditions are left alone.
    """

    attrs = {a.name: a for a in cls.attributes}
    order = {name: i for i, name in enumerate(chart.state_names())}
    sources_of: dict[str, set[str]] = {}
    for t in chart.transitions:
        sources_of.setdefault(t.event, set()).add(t.source)
    op_index: dict[str, int] = {}
    for i, o in enumerate(cls.operations):
        op_index.setdefault(o.name, i)

    new_ops = list(cls.operations)
    changed = False
    induced, diagnostics = [], []
    for event, source_set in sources_of.items():
        sources = sorted(source_set, key=lambda name: order.get(name, len(order)))
        flags_ok = all(
            name in attrs and induced_by(attrs[name].origin, chart)
            for name in sources)
        if not flags_ok:
            continue

        index = op_index.get(event)
        if index is None:
            continue
        op = new_ops[index]
        wanted = E.disjoin([E.VarRef(name) for name in sources])
        if op.pre_induced is not None:
            previous_origin = op.pre_induced[1]
            if previous_origin.chart_name != chart.name:
                diagnostics.append(Diagnostic(
                    "W301", member_path(cls, event),
                    f"precondition for '{event}' was already induced from "
                    f"'{previous_origin.chart_name}'; '{chart.name}' leaves it alone"))
                continue
            if op.pre_induced[0] == wanted:
                continue
        new_ops[index] = replace(op, pre_induced=(wanted, _origin_for(chart)))
        changed = True
        effective = new_ops[index].effective_pre if op.pre_authored is not None else None
        induced.append((member_path(cls, event), wanted, effective))

    report = TransformReport(induced_preconditions=tuple(induced),
                             diagnostics=tuple(diagnostics))
    if not changed:
        return cls, report
    return replace(cls, operations=tuple(new_ops)), report


def transform_reference(model: Model) -> tuple[Model, TransformReport]:
    """The pass with every rule's class put back into the model before the
    next rule looks it up: the reference that the one rebuild per pass
    must agree with."""

    reports = []

    def run(rule, chart):
        nonlocal model
        cls, found = rule(model.class_named(chart.attached_to), chart)
        reports.append(found)
        model = replace(model, classes=tuple(
            cls if c.name == cls.name else c for c in model.classes))
        return found

    for chart in model.statecharts:
        if not has_errors(run(rule1_state_attributes, chart).diagnostics):
            run(rule2_mutex_invariant, chart)
        run(rule3_event_operations, chart)
        run(rule4_preconditions, chart)
    return model, TransformReport(*(sum((getattr(r, name) for r in reports), ())
                                    for name in TransformReport.__match_args__))
