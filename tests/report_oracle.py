"""The compose report, written from the sequential replay alone.

``report_reference`` prints what ``textio.print_report`` prints, but takes
every value from ``oracles.replay_view``: the same sections in the same
order, each sorted by key, ``(default)`` on an option nobody set and an
``overrides`` note on every redefined constant or option.  It lives apart
from ``tests/oracles.py`` because the benchmark harness imports that
module, and its size shows in the harness's peak memory.
"""

from __future__ import annotations

from oracles import replay_view
from prefacer.preface import (
    OPTION_CATALOGUE,
    HasStereotype,
    IsMetaclass,
    MatchAll,
    Package,
)


def _literal(value) -> str:
    if value is True or value is False:
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return f'"{value}"'


def _predicate(predicate) -> str:
    match predicate:
        case MatchAll():
            return "all"
        case HasStereotype(name=name):
            return f"stereotype({name})"
        case IsMetaclass(metaclass=metaclass):
            return f"metaclass({metaclass})"
    raise TypeError(predicate)


def _note(history: tuple[tuple[str, object], ...]) -> str:
    *older, (winner, _) = history
    if not older:
        return "(default)" if winner == "catalogue-default" else f"({winner})"
    overridden = ", ".join(f"{pkg}: {_literal(value)}" for pkg, value in older)
    return f"({winner}, overrides {overridden})"


def report_reference(flattened: list[Package]) -> str:
    view = replay_view(flattened)
    scalars = sorted(view["scalars"].items())

    def note(key: str) -> str:
        value, pkg = view["scalars"][key]
        return _note(view["history"].get(key, ((pkg, value),)))

    sections = {
        "packages": [pkg.id for pkg in flattened],
        "constants": [f"{key} = {_literal(value)} {note(key)}"
                      for key, (value, _) in scalars if key not in OPTION_CATALOGUE],
        "options": [f"{key} = {value} {note(key)}"
                    for key, (value, _) in scalars if key in OPTION_CATALOGUE],
        "rules": [line for key, chain in sorted(view["rules"].items())
                  for line in [key] + [f"  when {_predicate(predicate)} -> {value} ({pkg})"
                                       for predicate, value, pkg in chain]],
        "constraints": [f"{name} on {scope} severity {severity} ({pkg})"
                        for name, (scope, severity, _, pkg)
                        in sorted(view["constraints"].items())],
        "stereotypes": [f"{name} on {base}"
                        + (" requires " + ", ".join(required) if required else "")
                        + f" ({pkg})"
                        for name, (base, required, pkg) in sorted(view["stereotypes"].items())],
        "tags": [f"{name} : {value_type} ({pkg})"
                 for name, (value_type, pkg) in sorted(view["tags"].items())],
        "transforms": [f"{tid} = {'on' if enabled else 'off'} ({pkg})"
                       for tid, (enabled, pkg) in sorted(view["transforms"].items())],
    }
    return "\n\n".join(
        title + "".join(f"\n  {line}" for line in lines or ["(none)"])
        for title, lines in sections.items()) + "\n"
