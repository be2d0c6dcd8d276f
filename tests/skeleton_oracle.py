"""The skeleton generator with every state move written out as flag
assignments: the reference that ``ENTER <state> OF <chart>`` lines must
expand to.

It sits apart from ``oracles.py`` because the benchmark harness compiles
that module in its own process before it starts the worker, and the
worker's peak resident memory includes that process's peak.
"""

from __future__ import annotations

from prefacer.model import Model, Statechart
from prefacer.textio import format_expr

# The generator as it was before ``ENTER <state> OF <chart>``: each move is
# one ``SET`` line per state of the chart, and every routine scans every
# transition of every chart on its class.  ``_update_lines_reference`` is
# kept verbatim; the rest is the same generator without the check that the
# model was transformed.


def _update_lines_reference(chart: Statechart, event: str, indent: str) -> list[str]:
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


def skeleton_reference(model: Model, eff) -> list[tuple[str, str]]:
    """``(class name, skeleton text)`` for every class, in declaration
    order, with each state move spelled out as a block of ``SET`` lines."""

    if eff.option("statechart.unexpected_event") == "ignore":
        on_violation = "RETURN // ignored"
    else:
        on_violation = "TRAP precondition_violation"
    header = [
        f"// framing.default = {eff.option('framing.default')}",
        f"// communication.paradigm = {eff.option('communication.paradigm')}",
    ]
    units = []
    for cls in model.classes:
        charts = [sc for sc in model.statecharts if sc.attached_to == cls.name]
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
            for chart in charts:
                if any(t.event == op.name for t in chart.transitions):
                    lines.extend(_update_lines_reference(chart, op.name, "    "))
            lines.append("  END")
        lines.append("END")
        units.append((cls.name, "\n".join(lines) + "\n"))
    return units
