"""Emission of code skeletons and monitors from a transformed model.

The output is a neutral line-oriented pseudo-language (keywords ``CLASS``,
``ROUTINE``, ``GUARD``, ``TRAP``, ``RETURN``, ``SET``, ``ASSERT``) so the
result reads the same whatever the eventual implementation language.  Both
generators expect a model that already went through statechart induction:
the skeleton guards each routine with the operation's effective
precondition and keeps the state flags up to date, the monitor restates
the exactly-one state invariant as an executable check and scripts short
call sequences through the chart.

What happens when a guard fails is the preface's decision, not ours:
``statechart.unexpected_event = error`` plants a ``TRAP
precondition_violation`` marker, ``ignore`` an early ``RETURN``.  The
header comment records the framing and communication options verbatim so
a reader of the generated file knows which interpretation was in force.
Output text is a byte-deterministic function of the model and the
effective definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ClassDef, Model, Operation, Statechart, Transition
from .preface import EffectiveDefinitions
from .textio import format_expr
from .transformer import induced_by


class UntransformedInputError(Exception):
    """A chart-attached class has no induced state flags: the model was
    not transformed (or the transform was disabled)."""


@dataclass(frozen=True)
class SkeletonUnit:
    class_name: str
    text: str = ""
    monitor_text: str = ""


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _charts_of(model: Model, cls: ClassDef) -> list[Statechart]:
    return [sc for sc in model.statecharts if sc.attached_to == cls.name]


def _require_transformed(cls: ClassDef, charts: list[Statechart]) -> None:
    for chart in charts:
        if not chart.states:
            continue
        if not any(induced_by(a.origin, chart) for a in cls.attributes):
            raise UntransformedInputError(
                f"class '{cls.name}' has no state flags for statechart "
                f"'{chart.name}'; run the statechart-to-class transform first")


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------


def _update_lines(chart: Statechart, event: str, indent: str) -> list[str]:
    moves = list(dict.fromkeys(
        (t.source, t.target) for t in chart.transitions if t.event == event))
    if not moves:
        return []

    state_names = chart.state_names()

    def flag_block(target: str, pad: str) -> list[str]:
        block = [f"{pad}SET {target} := true"]
        block.extend(
            f"{pad}SET {name} := false" for name in state_names if name != target)
        return block

    targets = {target for _, target in moves}
    if len(targets) == 1:
        return flag_block(moves[0][1], indent)

    # Several different targets: pick the move whose source flag holds.
    lines: list[str] = []
    for source, target in moves:
        lines.append(f"{indent}GUARD {source}")
        lines.extend(flag_block(target, indent + "  "))
        lines.append(f"{indent}END")
    return lines


def _routine_lines(
    cls: ClassDef,
    op: Operation,
    charts: list[Statechart],
    on_violation: str,
) -> list[str]:
    params = ", ".join(f"{p.name} : {p.type_name}" for p in op.params)
    lines = [f"  ROUTINE {op.name}({params})"]
    pre = op.effective_pre
    if pre is not None:
        lines.append(f"    GUARD {format_expr(pre)} ELSE {on_violation}")
    lines.append("    TODO body")
    for chart in charts:
        if any(t.event == op.name for t in chart.transitions):
            lines.extend(_update_lines(chart, op.name, "    "))
    lines.append("  END")
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

    units: list[SkeletonUnit] = []
    for cls in model.classes:
        charts = _charts_of(model, cls)
        _require_transformed(cls, charts)
        lines = list(header)
        lines.append(f"CLASS {cls.name}")
        for attr in cls.attributes:
            if attr.origin.kind == "induced" and attr.type_name == "Boolean":
                lines.append(f"  FLAG {attr.name}")
            else:
                lines.append(f"  VAR {attr.name} : {attr.type_name}")
        for op in cls.operations:
            lines.extend(_routine_lines(cls, op, charts, on_violation))
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

    def walk(state: str, used: frozenset[int], events: tuple[str, ...]) -> None:
        for index, t in outgoing.get(state, ()):
            if index in used:
                continue
            seq = events + (t.event,)
            sequences.append(seq)
            if len(seq) < max_len:
                walk(t.target, used | {index}, seq)

    walk(initials[0].name, frozenset(), ())
    return list(dict.fromkeys(sequences))


def generate_monitor(model: Model, eff: EffectiveDefinitions) -> list[SkeletonUnit]:
    """One monitor per chart-attached class, in class declaration order.

    The monitor asserts each chart's exactly-one state invariant (to be
    checked after every operation) and scripts one call sequence per short
    transition path from the initial state.
    """

    units: list[SkeletonUnit] = []
    for cls in model.classes:
        charts = _charts_of(model, cls)
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
