"""Statechart-to-class induction.

Four rules turn a statechart into ordinary class structure on the class it
is attached to:

1. one Boolean attribute per state ("the object is in s1"),
2. one class invariant requiring exactly one of those flags to hold,
   ``exactlyOne(s1, ..., sn)``, or the bare flag of a one-state chart,
3. one operation per distinct event name, bound by name and created
   parameterless when the class does not already have it,
4. one induced precondition per event: the disjunction of the flags of the
   states the event can fire from.

Everything a rule adds carries an ``Origin`` naming this transform and the
source chart.  That makes the whole pass idempotent (a second run finds
its own output and adds nothing) and conservative (authored elements are
never edited; an authored name standing in the way is reported as a clash
and the element is left alone, while the rest of the chart is still
processed).  Postconditions are never induced: which flags an operation
may change is a framing question, and the framing option is recorded in
generated code rather than guessed here.
"""

from __future__ import annotations

from . import expr as E
from .diagnostics import Diagnostic, has_errors
from .model import (
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Origin,
    Statechart,
    member_path,
)
from .preface import STATECHART_TO_CLASS, EffectiveDefinitions
from .record import record, replace


@record
class TransformReport:
    """What a transformation run added, and what it had to refuse; its
    expressions are formatted when rendered, by ``textio``."""

    induced_attributes: tuple[tuple[str, str], ...] = ()
    induced_invariants: tuple[tuple[str, E.Expr], ...] = ()
    induced_operations: tuple[tuple[str, str], ...] = ()
    induced_preconditions: tuple[tuple[str, E.Expr, E.Expr | None], ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()


def _origin_for(chart: Statechart) -> Origin:
    return Origin("induced", STATECHART_TO_CLASS, chart.name)


def induced_by(origin: Origin, chart: Statechart) -> bool:
    """Whether an element with this origin was induced from ``chart`` by
    this transform: the one test every consumer of induced output uses."""

    return (origin.kind == "induced"
            and origin.rule_id == STATECHART_TO_CLASS
            and origin.chart_name == chart.name)


def _attached(model: Model, chart: Statechart) -> ClassDef:
    cls = model.class_named(chart.attached_to)
    if cls is None:
        raise ValueError(
            f"statechart '{chart.name}' is attached to unknown class "
            f"'{chart.attached_to}'; run builtin_check first")
    return cls


# ---------------------------------------------------------------------------
# Rule 1: a Boolean attribute per state
# ---------------------------------------------------------------------------


def rule1_state_attributes(cls: ClassDef, chart: Statechart) -> tuple[ClassDef, TransformReport]:
    """Give ``cls``, the class ``chart`` is attached to, one Boolean flag
    per state.

    A state whose name an authored attribute or operation already bears is
    reported as a name clash and skipped; the other states are still
    induced.  Flags this rule induced on an earlier run are recognised by
    their origin and left alone.
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
                "error", "E301", member_path(cls, state.name),
                f"cannot induce state attribute '{state.name}': the name is "
                f"already taken on '{cls.name}'", existing.loc))
            continue
        if state.name in ops:
            diagnostics.append(Diagnostic(
                "error", "E301", member_path(cls, state.name),
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
                "error", "E302", member_path(cls, event),
                f"cannot induce operation '{event}': an attribute of "
                f"'{cls.name}' has that name", cls.loc))
            continue
        op = Operation(event, origin=_origin_for(chart))
        added.append(op)
        op_names.add(event)
        induced.append((member_path(cls, event), f"{event}()"))
        diagnostics.append(Diagnostic(
            "info", "I301", member_path(cls, event),
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
                    "warning", "W301", member_path(cls, event),
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


# ---------------------------------------------------------------------------
# The whole pass
# ---------------------------------------------------------------------------


def apply_transforms(model: Model, eff: EffectiveDefinitions) -> tuple[Model, TransformReport]:
    """Run the enabled transforms over every statechart in declaration order.

    With the transform disabled (or never selected) this is the identity.
    A clash on one element never aborts the others: rule 2 is withheld for
    a chart whose rule-1 run clashed (its invariant would name the wrong
    attribute), rule 4 skips the affected events, and everything else
    proceeds.  Applying the pass twice is a no-op the second time.

    The rules work on the attached class alone.  A class a chart changed is
    kept by name, so a later chart on the same class sees what the earlier
    ones induced, and the model is rebuilt once, at the end.
    """

    if not eff.transform_enabled(STATECHART_TO_CLASS):
        return model, TransformReport()
    if eff.option("statechart.attach_to") == "method":
        return model, TransformReport(diagnostics=tuple(Diagnostic(
            "warning", "W302", chart.name,
            "statechart attachment to methods is not supported; "
            f"'{chart.name}' was not transformed", chart.loc) for chart in model.statecharts))

    changed: dict[str, ClassDef] = {}
    reports = []
    for chart in model.statecharts:
        before = changed.get(chart.attached_to) or _attached(model, chart)
        cls, r1 = rule1_state_attributes(before, chart)
        reports.append(r1)
        if not has_errors(r1.diagnostics):
            cls, r2 = rule2_mutex_invariant(cls, chart)
            reports.append(r2)
        for rule in (rule3_event_operations, rule4_preconditions):
            cls, found = rule(cls, chart)
            reports.append(found)
        if cls is not before:
            changed[cls.name] = cls
    report = TransformReport(*(tuple(entry for found in reports for entry in getattr(found, name))
                               for name in TransformReport.__match_args__))
    if not changed:
        return model, report
    return replace(model, classes=tuple(
        changed.get(c.name, c) for c in model.classes)), report
