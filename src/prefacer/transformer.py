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

The pass visits each chart once and runs the four rules as steps over a
working copy of the attached class (``_Work``): lists of its attributes,
operations and invariants, and a name index over them, which later charts
on the same class share.  A chart's steps share one ``Origin`` and one
flag ``VarRef`` per state, so the invariant and the preconditions point
at the same flag nodes, and they append to the lists of one report.  Each
changed class is rebuilt once, the model once, at the end.
"""

from __future__ import annotations

from . import expr as E
from .diagnostics import Diagnostic
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


def induced_by(origin: Origin, chart: Statechart) -> bool:
    """Whether an element with this origin was induced from ``chart`` by
    this transform: the one test every consumer of induced output uses."""

    return (origin.kind == "induced"
            and origin.rule_id == STATECHART_TO_CLASS
            and origin.chart_name == chart.name)


def exactly_one(flags: tuple[E.Expr, ...]) -> E.Expr:
    """Exactly one of ``flags`` is true: the built-in call
    ``exactlyOne(a, b, ...)`` over the flags in the order given, or the
    one flag alone."""

    return flags[0] if len(flags) == 1 else E.Call("exactlyOne", flags)


def chart_events(chart: Statechart) -> tuple[str, ...]:
    """Distinct event names in transition declaration order."""

    return tuple(dict.fromkeys(t.event for t in chart.transitions))


class _Work:
    """The working copy of one class that charts are attached to: its
    members as lists the rule steps extend or edit, a name index over
    them, and whether any step changed the class."""

    __slots__ = ("cls", "attributes", "operations", "invariants", "attrs", "ops", "changed")

    def __init__(self, cls: ClassDef):
        self.cls, self.changed = cls, False
        self.attributes, self.operations = list(cls.attributes), list(cls.operations)
        self.invariants = list(cls.invariants)
        self.attrs = {a.name: a for a in cls.attributes}  # the last attribute of a name
        # name -> the index of the first operation of that name
        self.ops = {op.name: i for i, op in reversed(tuple(enumerate(cls.operations)))}


# ---------------------------------------------------------------------------
# The four rules.  Each is a step over the working copy of the attached
# class; it gives what it induces the chart's one ``origin`` and appends
# its entries and diagnostics to ``found``, the report's lists by field.
# ---------------------------------------------------------------------------


def _rule1_state_attributes(work: _Work, chart: Statechart, origin: Origin,
                            found: dict[str, list]) -> bool:
    """One Boolean flag per state; whether a state's name clashed.

    A state whose name an authored attribute or operation already bears is
    reported as a name clash and skipped; the other states are still
    induced.  Flags this rule induced on an earlier run are recognised by
    their origin and left alone.  No state bears a name that no expression
    can read: ``builtin_check`` refuses those (E017) before any transform.
    """

    cls, clashed = work.cls, False
    for state in chart.states:
        existing = work.attrs.get(state.name)
        if existing is not None:
            if induced_by(existing.origin, chart):
                continue
            found["diagnostics"].append(Diagnostic(
                "E301", member_path(cls, state.name),
                f"cannot induce state attribute '{state.name}': the name is "
                f"already taken on '{cls.name}'", existing.loc))
        elif state.name in work.ops:
            found["diagnostics"].append(Diagnostic(
                "E301", member_path(cls, state.name),
                f"cannot induce state attribute '{state.name}': an operation "
                f"of '{cls.name}' has that name", cls.loc))
        else:
            flag = work.attrs[state.name] = Attribute(state.name, "Boolean", origin)
            work.attributes.append(flag)
            work.changed = True
            found["induced_attributes"].append(
                (member_path(cls, state.name), f"{state.name} : Boolean"))
            continue
        clashed = True
    return clashed


def _rule2_mutex_invariant(work: _Work, chart: Statechart, origin: Origin,
                           flags: dict[str, E.VarRef], found: dict[str, list]) -> None:
    """The exactly-one invariant over the chart's state flags.

    Runs only when rule 1 had no clash for this chart.  The invariant this
    rule added on an earlier run is recognised by origin; if the chart
    changed in between, the stale invariant is replaced rather than
    duplicated.
    """

    wanted = exactly_one(tuple(flags[state.name] for state in chart.states))
    kept, have = [], False
    for inv in work.invariants:
        if induced_by(inv.origin, chart):
            if inv.expr == wanted and not have:
                have = True
                kept.append(inv)
            continue  # a stale induced invariant for this chart is dropped
        kept.append(inv)
    if not have:
        kept.append(Invariant(wanted, origin))
        found["induced_invariants"].append((work.cls.name, wanted))
    if not have or len(kept) != len(work.invariants):
        work.invariants, work.changed = kept, True


def _rule3_event_operations(work: _Work, chart: Statechart, origin: Origin,
                            found: dict[str, list]) -> None:
    """Bind every event to the same-named operation of the class.

    An event with no such operation gets a parameterless one, recorded
    with an informational diagnostic.  An event whose name an attribute
    already bears is a clash: nothing is induced for it.
    """

    cls = work.cls
    for event in chart_events(chart):
        if event in work.ops:
            continue
        path = member_path(cls, event)
        if event in work.attrs:
            found["diagnostics"].append(Diagnostic(
                "E302", path,
                f"cannot induce operation '{event}': an attribute of "
                f"'{cls.name}' has that name", cls.loc))
            continue
        work.ops[event] = len(work.operations)
        work.operations.append(Operation(event, origin=origin))
        work.changed = True
        found["induced_operations"].append((path, f"{event}()"))
        found["diagnostics"].append(Diagnostic(
            "I301", path,
            f"induced parameterless operation '{event}' for event '{event}' "
            f"of '{chart.name}'"))


def _rule4_preconditions(work: _Work, chart: Statechart, origin: Origin,
                         flags: dict[str, E.VarRef], found: dict[str, list]) -> None:
    """Give every event operation the induced precondition "the object is
    in one of the event's source states".

    The disjuncts follow state declaration order, and a single source
    prints as the bare flag.  Requires rules 1 and 3 for this chart; an
    event whose source flag fell to a rule-1 clash is skipped (the clash
    was already reported), and so is one whose operation rule 3 refused.
    Postconditions are left alone.
    """

    rank = {state.name: i for i, state in enumerate(chart.states)}
    sources_of: dict[str, set[str]] = {}
    for t in chart.transitions:
        sources_of.setdefault(t.event, set()).add(t.source)
    attrs = work.attrs
    ready = {name for name in rank if name in attrs and induced_by(attrs[name].origin, chart)}
    for event, source_set in sources_of.items():
        index = work.ops.get(event)
        if index is None or not source_set <= ready:
            continue
        op = work.operations[index]
        wanted = E.disjoin([flags[name] for name in sorted(source_set, key=rank.__getitem__)])
        if op.pre_induced is not None:
            previous_origin = op.pre_induced[1]
            if previous_origin.chart_name != chart.name:
                found["diagnostics"].append(Diagnostic(
                    "W301", member_path(work.cls, event),
                    f"precondition for '{event}' was already induced from "
                    f"'{previous_origin.chart_name}'; '{chart.name}' leaves it alone"))
                continue
            if op.pre_induced[0] == wanted:
                continue
        op = work.operations[index] = Operation(
            op.name, op.params, op.pre_authored, op.post_authored, (wanted, origin),
            op.origin, op.loc)
        work.changed = True
        found["induced_preconditions"].append((
            member_path(work.cls, event), wanted,
            op.effective_pre if op.pre_authored is not None else None))


# ---------------------------------------------------------------------------
# The whole pass
# ---------------------------------------------------------------------------


def apply_transforms(model: Model, eff: EffectiveDefinitions) -> tuple[Model, TransformReport]:
    """Run the enabled transforms over every statechart in declaration order.

    Requires a model that passed ``builtin_check`` without errors; on any
    other it may raise or return anything.  With the transform disabled (or
    never selected) this is the identity.  A clash on one element never
    aborts the others: rule 2 is withheld for a chart whose rule-1 run
    clashed (its invariant would name the wrong attribute), rule 4 skips the
    affected events, and everything else proceeds.  Applying the pass twice
    is a no-op the second time, and returns the model it was given.
    """

    if not eff.transform_enabled(STATECHART_TO_CLASS):
        return model, TransformReport()

    work: dict[str, _Work] = {}
    found: dict[str, list] = {name: [] for name in TransformReport.__match_args__}
    for chart in model.statecharts:
        target = work.get(chart.attached_to)
        if target is None:
            cls = model.class_named(chart.attached_to)
            if cls is None:
                raise ValueError(
                    f"statechart '{chart.name}' is attached to unknown class "
                    f"'{chart.attached_to}'; run builtin_check first")
            target = work[cls.name] = _Work(cls)
        origin = Origin("induced", STATECHART_TO_CLASS, chart.name)
        flags = {state.name: E.VarRef(state.name) for state in chart.states}
        if not _rule1_state_attributes(target, chart, origin, found):
            _rule2_mutex_invariant(target, chart, origin, flags, found)
        _rule3_event_operations(target, chart, origin, found)
        _rule4_preconditions(target, chart, origin, flags, found)
    report = TransformReport(**{name: tuple(entries) for name, entries in found.items()})
    changed = {name: replace(w.cls, attributes=tuple(w.attributes),
                             operations=tuple(w.operations), invariants=tuple(w.invariants))
               for name, w in work.items() if w.changed}
    if not changed:
        return model, report
    return replace(model, classes=tuple(changed.get(c.name, c) for c in model.classes)), report
