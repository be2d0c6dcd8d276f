"""The compose report, written from the sequential replay alone.

``report_reference`` prints what ``textio.print_report`` prints, but takes
every winner and override history from ``oracles.replay_view``: the same
sections in the same order, each sorted by key, ``(default)`` on an option
nobody set and an ``overrides`` note on every redefined constant or option.
Each scalar value is shown as its definition writes it, an option's bare and
a constant's as a literal, and a key is an option when an option wins it;
those two facts it reads from the packages in order.  It lives apart
from ``tests/oracles.py`` because the benchmark harness imports that
module, and its size shows in the harness's peak memory.
"""

from __future__ import annotations

from oracles import replay_view
from prefacer.preface import (
    OPTION_CATALOGUE,
    ConstDef,
    HasStereotype,
    IsMetaclass,
    MatchAll,
    OptionDef,
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


def _note(history: tuple[tuple[str, object], ...], written: list[str]) -> str:
    *older, (winner, _) = history
    if not older:
        return "(default)" if winner == "catalogue-default" else f"({winner})"
    overridden = ", ".join(f"{pkg}: {text}" for (pkg, _), text in zip(older, written))
    return f"({winner}, overrides {overridden})"


def report_reference(flattened: list[Package]) -> str:
    view = replay_view(flattened)
    # Each constant and option as written, oldest first, and whether an
    # option wins its key; a catalogue option nobody set is its default.
    written: dict[str, list[str]] = {}
    is_option = dict.fromkeys(OPTION_CATALOGUE, True)
    for d in (d for pkg in flattened for d in pkg.definitions):
        if isinstance(d, (ConstDef, OptionDef)):
            is_option[d.key] = isinstance(d, OptionDef)
            written.setdefault(d.key, []).append(d.value if is_option[d.key] else _literal(d.value))

    def line(key: str) -> str:
        value, pkg = view["scalars"][key]
        texts = written.get(key, [value])
        return f"{key} = {texts[-1]} {_note(view['history'].get(key, ((pkg, value),)), texts)}"

    keys = sorted(view["scalars"])
    sections = {
        "packages": [pkg.id for pkg in flattened],
        "constants": [line(key) for key in keys if not is_option[key]],
        "options": [line(key) for key in keys if is_option[key]],
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
