"""Emission of code skeletons and monitors from a transformed model.

The output is a neutral line-oriented pseudo-language (keywords ``CLASS``,
``ROUTINE``, ``GUARD``, ``TRAP``, ``RETURN``, ``ENTER``, ``ASSERT``) so the
result reads the same whatever the eventual implementation language.  Both
generators expect a model that already went through statechart induction:
the skeleton guards each routine with the operation's effective
precondition and keeps the state flags up to date, the monitor restates
the exactly-one state invariant as an executable check and scripts short
call sequences through the chart.

A state move is one line, ``ENTER <state> OF <chart>``: set ``<state>``'s
flag, then clear the flag of every other state of ``<chart>``, in
declaration order.  For the chart ``SC`` of states ``s1``, ``s2``, ``s3``
on class ``C``, ``ENTER s2 OF SC`` stands for ``SET s2 := true``, ``SET
s1 := false``, ``SET s3 := false``.  An event whose moves share a target
enters it unguarded; one with several targets wraps each move in ``GUARD
<source> ... END``.  The pseudo-language does not yet define these blocks
as alternatives judged on entry: read top to bottom, one call can take a
move and then a second one out of the state it just entered (ROADMAP item
4 gives the blocks that meaning).

What happens when a guard fails is the preface's decision, not ours:
``statechart.unexpected_event = error`` plants a ``TRAP
precondition_violation`` marker, ``ignore`` an early ``RETURN``.  The
header comment records the framing and communication options verbatim so
a reader of the generated file knows which interpretation was in force.
Output text is a byte-deterministic function of the model and the
effective definitions."""

from __future__ import annotations


from .model import ClassDef, Model, Statechart, Transition
from .preface import EffectiveDefinitions
from .record import record
from .textio import format_expr
from .transformer import induced_by


class UntransformedInputError(Exception):
    """A chart-attached class has no induced state flags: the model was
    not transformed (or the transform was disabled).  ``class_name`` and
    ``loc``, the chart's location, place the finding."""

    def __init__(self, cls: ClassDef, chart: Statechart):
        self.class_name, self.loc = cls.name, chart.loc
        super().__init__(f"class '{cls.name}' has no state flags for statechart "
                         f"'{chart.name}'; run the statechart-to-class transform first")


@record
class SkeletonUnit:
    """The generated text for one class: a skeleton or a monitor."""

    class_name: str
    text: str = ""
    monitor_text: str = ""


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _charts_by_class(model: Model) -> dict[str, list[Statechart]]:
    charts: dict[str, list[Statechart]] = {}
    for sc in model.statecharts:
        charts.setdefault(sc.attached_to, []).append(sc)
    return charts


def _require_transformed(cls: ClassDef, charts: list[Statechart]) -> None:
    for chart in charts:
        if not chart.states:
            continue
        if not any(induced_by(a.origin, chart) for a in cls.attributes):
            raise UntransformedInputError(cls, chart)


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------


def _move_lines(charts: list[Statechart]) -> dict[str, list[str]]:
    """Each event's state moves as routine body lines, chart by chart, from
    one pass over each chart's transitions: one ``ENTER`` line when every
    move of the event has the same target, else a guarded one per move."""

    lines: dict[str, list[str]] = {}
    for chart in charts:
        moves: dict[str, dict[tuple[str, str], None]] = {}
        for t in chart.transitions:
            moves.setdefault(t.event, {})[(t.source, t.target)] = None
        for event, pairs in moves.items():
            targets = {target for _, target in pairs}
            block = lines.setdefault(event, [])
            if len(targets) == 1:
                block.append(f"    ENTER {targets.pop()} OF {chart.name}")
                continue
            # Several different targets: pick the move whose source flag holds.
            for source, target in pairs:
                block += (f"    GUARD {source}", f"      ENTER {target} OF {chart.name}",
                          "    END")
    return lines


def generate_skeleton(model: Model, eff: EffectiveDefinitions) -> list[SkeletonUnit]:
    """One skeleton per class, in declaration order.

    Expects the output of ``apply_transforms`` with no error diagnostics;
    a chart-attached class without its induced flags raises
    ``UntransformedInputError``.
    """

    if eff.option("statechart.unexpected_event") == "ignore":
        on_violation = "RETURN // ignored"
    else:
        on_violation = "TRAP precondition_violation"
    header = [
        f"// framing.default = {eff.option('framing.default')}",
        f"// communication.paradigm = {eff.option('communication.paradigm')}",
    ]

    charts_of = _charts_by_class(model)
    units: list[SkeletonUnit] = []
    for cls in model.classes:
        charts = charts_of.get(cls.name, [])
        _require_transformed(cls, charts)
        moves = _move_lines(charts)
        lines = list(header)
        lines.append(f"CLASS {cls.name}")
        for attr in cls.attributes:
            if attr.origin.kind == "induced" and attr.type_name == "Boolean":
                lines.append(f"  FLAG {attr.name}")
            else:
                lines.append(f"  VAR {attr.name} : {attr.type_name}")
        for op in cls.operations:
            params = ", ".join(f"{p.name} : {p.type_name}" for p in op.params)
            lines.append(f"  ROUTINE {op.name}({params})")
            pre = op.effective_pre
            if pre is not None:
                lines.append(f"    GUARD {format_expr(pre)} ELSE {on_violation}")
            lines.append("    TODO body")
            lines.extend(moves.get(op.name, ()))
            lines.append("  END")
        lines.append("END")
        units.append(SkeletonUnit(cls.name, text="\n".join(lines) + "\n"))
    return units


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------


def _call_sequences(chart: Statechart, max_len: int = 3) -> list[tuple[str, ...]]:
    """Event sequences of every path from the initial state that reuses no
    transition, up to ``max_len`` calls, in transition declaration order."""

    initials = chart.initial_states()
    if not initials:
        return []
    outgoing: dict[str, list[tuple[int, Transition]]] = {}
    for index, t in enumerate(chart.transitions):
        outgoing.setdefault(t.source, []).append((index, t))
    sequences: list[tuple[str, ...]] = []
    # A depth-first stack of (moves left to try, transitions used, events):
    # a recursive inner function would hold itself through its closure cell,
    # a cycle that keeps the chart alive until the cyclic collector runs.
    stack = [(iter(outgoing.get(initials[0].name, ())), frozenset(), ())]
    while stack:
        moves, used, events = stack[-1]
        for index, t in moves:
            if index not in used:
                seq = events + (t.event,)
                sequences.append(seq)
                if len(seq) < max_len:
                    stack.append((iter(outgoing.get(t.target, ())), used | {index}, seq))
                break
        else:
            stack.pop()
    return list(dict.fromkeys(sequences))


def generate_monitor(model: Model, eff: EffectiveDefinitions) -> list[SkeletonUnit]:
    """One monitor per chart-attached class, in class declaration order.

    The monitor asserts each chart's exactly-one state invariant (to be
    checked after every operation) and scripts one call sequence per short
    transition path from the initial state.
    """

    charts_of = _charts_by_class(model)
    units: list[SkeletonUnit] = []
    for cls in model.classes:
        charts = charts_of.get(cls.name)
        if not charts:
            continue
        _require_transformed(cls, charts)
        lines = [f"MONITOR {cls.name}", "  // check after every operation"]
        for chart in charts:
            for inv in cls.invariants:
                if induced_by(inv.origin, chart):
                    lines.append(f"  ASSERT {format_expr(inv.expr)}")
        for chart in charts:
            for seq in _call_sequences(chart):
                lines.append("  SEQUENCE " + ", ".join(seq))
        lines.append("END")
        units.append(SkeletonUnit(cls.name, monitor_text="\n".join(lines) + "\n"))
    return units
