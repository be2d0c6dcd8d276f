"""Evaluation of constraint expressions against model elements.

Values are booleans, integers, strings, element references and homogeneous
sequences.  Evaluation is strict: a type mismatch anywhere is an
``EvalError`` carrying the offending subexpression's location, never a
silent ``false``.  The single concession is that ``and`` and ``or`` stop
after a deciding left operand, so the right side of ``false and x`` is
never looked at; every operand that *is* evaluated must be a boolean.
``exactlyOne`` evaluates all of its arguments, left to right, and each
must be a boolean; it holds when exactly one of them is true.
Quantifiers evaluate their body under every binding (``forall`` over an
empty sequence is true, ``exists`` false).

An expression is compiled once, then run over batches: ``compile_expr``
settles all dispatch and returns a function of ``(columns, n, model)``,
where ``columns`` holds n values for each bound name, one row per element,
and the result is the n values.  ``check_constraints`` runs a constraint
over its whole scope at once, and a quantifier runs its body over the items
of all its rows at once.  Outcomes are still those of each element alone:
an ``and`` or ``or`` runs a later operand only on the rows the earlier ones
left undecided, and a batch that raises ``EvalError`` runs again one row
at a time (the scope's elements, a quantifier's items, in order), so each
element gets the error of its own first failing node and item.  On one
row, a quantifier takes its items in groups that double from one, so the
row meets its first error about as soon as the element alone would.  No
batch holds more than ``BATCH_ROWS`` rows, but for one row whose domain is
longer.

A chain of ``and``, ``or``, ``+``/``-`` or ``.`` runs as one loop, so
evaluation recurses only through nesting, which the parser bounds at
``textio.MAX_NESTING`` levels.

The feature table is closed.  Classes navigate to ``name``,
``superclasses``, ``attributes``, ``operations`` and ``stereotypes``;
statecharts to ``name``, ``states`` (the state names), ``transitions`` and
``attachedTo``; transitions to ``source``, ``target`` and ``event``;
attributes and operations expose ``name`` only.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, repeat
from typing import Callable

from . import expr as E
from .diagnostics import Diagnostic, SourceLocation
from .model import (
    Attribute,
    ClassDef,
    Model,
    Operation,
    Statechart,
    Transition,
    member_path,
    metaclass_of,
    stereotypes_of,
    transition_path,
)
from .preface import STATECHART_TO_CLASS, EffectiveDefinitions, lookup_scalar

Value = object  # bool | int | str | element reference | tuple of Value

#: The most rows of one batch: a scope is run in slices of this many
#: elements, and a quantifier's body in groups of at most this many items.
BATCH_ROWS = 4096


class EvalError(Exception):
    """An expression could not be evaluated over the given bindings."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc
        super().__init__(message)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_ELEMENT_TYPES = (ClassDef, Attribute, Operation, Statechart, Transition)
_LABELS = {bool: "boolean", int: "integer", str: "string", tuple: "sequence",
           **dict.fromkeys(_ELEMENT_TYPES, "element")}
#: The exact types that pass each check without a look at every value.
_BOOL, _INT, _STR, _TUPLE = (frozenset({kind}) for kind in (bool, int, str, tuple))
_ELEMENTS, _ORDERED = frozenset(_ELEMENT_TYPES), frozenset({int, str})


def _type_label(value: Value) -> str:
    return next((label for kind, label in _LABELS.items() if isinstance(value, kind)),
                type(value).__name__)


def _need(value: Value, kind, loc, what: str = "", verb: str = "expected") -> Value:
    """``value`` if it is a ``kind``, else an ``EvalError`` at ``loc``."""
    if not isinstance(value, kind):
        what = what or {bool: "a boolean", tuple: "a sequence"}[kind]
        raise EvalError(f"{verb} {what}, got {_type_label(value)}", loc)
    return value


def _column(values: list, exact: frozenset, kind, loc, what: str = "",
            verb: str = "expected") -> list:
    """``values`` if each is a ``kind``, else the first one's ``EvalError``."""
    if not exact.issuperset(map(type, values)):
        for value in values:
            _need(value, kind, loc, what, verb)
    return values


def _raising(message: str, loc) -> Callable:
    def fail(*args):
        raise EvalError(message, loc)
    return fail


def _resolve_class(name: str, model: Model | None, nav: E.Nav) -> ClassDef:
    cls = model.class_named(name) if model is not None else None
    if cls is None:
        raise EvalError(f"cannot resolve class '{name}'", nav.loc)
    return cls


def _read(name: str, make: Callable | None = None) -> Callable:
    get = operator.attrgetter(name)
    return lambda xs, m, n: list(map(make, map(get, xs)) if make else map(get, xs))


#: Feature name -> element type -> getter of ``(elements, model, nav node)``
#: that returns the feature of each element.
_FEATURES = {
    "name": dict.fromkeys((ClassDef, Statechart, Attribute, Operation), _read("name")),
    "superclasses": {ClassDef: lambda cs, m, n: [tuple(
        [_resolve_class(name, m, n) for name in c.superclasses]) for c in cs]},
    "attributes": {ClassDef: _read("attributes", tuple)},
    "operations": {ClassDef: _read("operations", tuple)},
    "stereotypes": {ClassDef: lambda cs, m, n: [tuple(sorted(c.stereotypes)) for c in cs]},
    "states": {Statechart: lambda ss, m, n: [s.state_names() for s in ss]},
    "transitions": {Statechart: _read("transitions", tuple)},
    "attachedTo": {Statechart: lambda ss, m, n: [
        _resolve_class(s.attached_to, m, n) for s in ss]},
    "source": {Transition: _read("source")},
    "target": {Transition: _read("target")},
    "event": {Transition: _read("event")},
}


def _getter(value: Value, getters: dict, nav: E.Nav) -> Callable:
    """The getter for a value whose exact type the table does not list."""
    for kind, getter in getters.items():
        if isinstance(value, kind):
            return getter
    if isinstance(value, _ELEMENT_TYPES):
        raise EvalError(f"'{nav.feature}' is not a feature of {metaclass_of(value)}", nav.loc)
    raise EvalError(f"cannot navigate '.{nav.feature}' on a {_type_label(value)}", nav.loc)


def _groups(domains: list[tuple]):
    """A quantifier's body rows in groups: (the row of each item, the items).

    Over many rows, a group is whole rows of at most ``BATCH_ROWS`` items
    (or one longer row).  Over one row, the groups double from one item."""

    if len(domains) == 1:
        items, start, size = domains[0], 0, 1
        while start < len(items):
            group = list(items[start:start + size])
            yield [0] * len(group), group
            start, size = start + size, min(2 * size, BATCH_ROWS)
        return
    if sum(map(len, domains)) <= BATCH_ROWS:
        yield _spread(domains, 0)
        return
    start = size = 0
    for stop, items in enumerate(domains):
        if size and size + len(items) > BATCH_ROWS:
            yield _spread(domains[start:stop], start)
            start, size = stop, 0
        size += len(items)
    if size:
        yield _spread(domains[start:], start)


def _spread(domains: list[tuple], first: int) -> tuple[list[int], list]:
    rows = range(first, first + len(domains))
    return (list(chain.from_iterable(map(repeat, rows, map(len, domains)))),
            list(chain.from_iterable(domains)))


_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compile_expr(e: E.Expr) -> Callable:
    """Compile ``e`` into a function of ``(columns, n, model)`` that gives
    the value of ``e`` on each of the n rows of ``columns`` (one list of
    values per bound name), or raises ``EvalError`` where evaluating ``e``
    on some row fails.  It is never called on no rows.  Compiling never
    raises; neither recurses through a helper, so each nests about as
    deep as the parser."""

    loc = getattr(e, "loc", None)
    if isinstance(e, E.Literal):
        value = e.value
        return lambda cols, n, model: [value] * n
    if isinstance(e, E.VarRef):
        name, unbound = e.name, _raising(f"unbound variable '{e.name}'", loc)
        return lambda cols, n, model: cols[name] if name in cols else unbound()
    if isinstance(e, (E.And, E.Or, E.Add, E.Sub)):
        # A left-leaning chain; each operand is checked at the node that joins it.
        kinds = (E.Add, E.Sub) if isinstance(e, (E.Add, E.Sub)) else type(e)
        nodes = []
        while isinstance(e, kinds):
            nodes.append(e)
            e = e.lhs
        steps = [(compile_expr(e), nodes[-1].loc, operator.add)]
        for node in reversed(nodes):
            steps.append((compile_expr(node.rhs), node.loc,
                          operator.sub if isinstance(node, E.Sub) else operator.add))
        if kinds is not E.And and kinds is not E.Or:
            def total(cols, n, model):
                values = [0] * n
                for run, at, op in steps:
                    terms = run(cols, n, model)
                    if not _INT.issuperset(map(type, terms)):
                        for term in terms:
                            if type(term) is bool or not isinstance(term, int):
                                raise EvalError(f"expected an integer, got {_type_label(term)}", at)
                    values = list(map(op, values, terms))
                return values
            return total
        decisive = kinds is E.Or  # or stops at true, and at false
        def junction(cols, n, model):
            out, rows = [not decisive] * n, None  # rows: where each row's value goes
            for run, at, _ in steps:
                values = run(cols, n, model)
                if decisive not in values and _BOOL.issuperset(map(type, values)):
                    continue  # every row still undecided
                keep = []
                for index, value in enumerate(values):
                    if value is decisive:
                        out[index if rows is None else rows[index]] = decisive
                    elif type(value) is not bool:
                        _need(value, bool, at)
                    else:
                        keep.append(index)
                if not keep:
                    break
                rows = keep if rows is None else [rows[index] for index in keep]
                cols = {name: list(map(col.__getitem__, keep)) for name, col in cols.items()}
                n = len(keep)
            return out
        return junction
    if isinstance(e, E.Nav):
        steps = []
        while isinstance(e, E.Nav):
            steps.append((_FEATURES.get(e.feature, {}), e))
            e = e.target
        target, steps = compile_expr(e), steps[::-1]
        def navigate(cols, n, model):
            values = target(cols, n, model)
            for getters, nav in steps:
                kinds = set(map(type, values))
                getter = getters.get(kinds.pop()) if len(kinds) == 1 else None
                values = getter(values, model, nav) if getter else [
                    (getters.get(type(value)) or _getter(value, getters, nav))(
                        (value,), model, nav)[0] for value in values]
            return values
        return navigate
    if isinstance(e, E.Compare):
        lhs, rhs, ordered = compile_expr(e.lhs), compile_expr(e.rhs), e.op not in ("=", "<>")
        test = _COMPARISONS.get(e.op) or _raising(f"unknown comparison operator '{e.op}'", loc)
        def compare(cols, n, model):
            lefts, rights = lhs(cols, n, model), rhs(cols, n, model)
            kinds = set(map(type, lefts))
            if len(kinds) != 1 or kinds != set(map(type, rights)) \
                    or ordered and not kinds <= _ORDERED:
                for left, right in zip(lefts, rights):
                    if type(left) is type(right) and (not ordered or type(left) in _ORDERED):
                        continue
                    label = _type_label(left)
                    if label != _type_label(right):
                        raise EvalError(f"cannot compare {label} with {_type_label(right)}", loc)
                    if ordered and label not in ("integer", "string"):
                        raise EvalError(f"ordering is not defined on {label} values", loc)
            return list(map(test, lefts, rights))
        return compare
    if isinstance(e, (E.Forall, E.Exists)):
        domain, body, var = compile_expr(e.domain), compile_expr(e.body), e.var
        universal = isinstance(e, E.Forall)  # forall fails at false, exists holds at true
        outer = E.free_vars(e.body) - {var}  # the columns the body reads
        def quantifier(cols, n, model):
            results, flip = [universal] * n, not universal
            for rows, items in _groups(_column(domain(cols, n, model), _TUPLE, tuple, loc)):
                inner = {name: list(map(col.__getitem__, rows))
                         for name, col in cols.items() if name in outer}
                inner[var] = items
                try:
                    values = body(inner, len(items), model)
                except EvalError:
                    if n > 1 or len(items) == 1:
                        raise  # rows are run again one at a time above; one item is exact
                    values = []  # the items again one at a time, in order
                    for index in range(len(items)):
                        values += body({name: [col[index]] for name, col in inner.items()},
                                       1, model)
                        _need(values[-1], bool, loc)
                if flip in _column(values, _BOOL, bool, loc):
                    for row, value in zip(rows, values):
                        if value is flip:
                            results[row] = flip
            return results
        return quantifier
    if isinstance(e, E.Not):
        operand = compile_expr(e.operand)
        return lambda cols, n, model: list(map(
            operator.not_, _column(operand(cols, n, model), _BOOL, bool, loc)))
    if isinstance(e, E.Implies):
        lhs, rhs = compile_expr(e.lhs), compile_expr(e.rhs)
        return lambda cols, n, model: list(map(  # implication is <= on booleans
            operator.le, _column(lhs(cols, n, model), _BOOL, bool, loc),
            _column(rhs(cols, n, model), _BOOL, bool, loc)))
    if not isinstance(e, E.Call):
        return _raising(f"not an expression node: {e!r}", loc)
    fn, runs = e.fn, list(map(compile_expr, e.args))
    if fn in ("size", "isEmpty") and len(runs) == 1:
        arg, count = runs[0], len if fn == "size" else operator.not_
        return lambda cols, n, model: list(map(
            count, _column(arg(cols, n, model), _TUPLE, tuple, loc)))
    if fn == "hasStereotype" and len(runs) == 2:
        element_of, name_of = runs
        def has_stereotype(cols, n, model):
            verb = "hasStereotype expects"
            elements = _column(element_of(cols, n, model), _ELEMENTS, _ELEMENT_TYPES, loc,
                               "an element", verb)
            names = _column(name_of(cols, n, model), _STR, str, loc, "a string", verb)
            return [name in stereotypes_of(element) for element, name in zip(elements, names)]
        return has_stereotype
    if fn == "exactlyOne" and runs:
        def exactly_one(cols, n, model):
            counts = [0] * n
            for run in runs:
                counts = list(map(operator.add, counts,
                                  _column(run(cols, n, model), _BOOL, bool, loc)))
            return [count == 1 for count in counts]
        return exactly_one
    arity = {"size": "exactly one argument", "isEmpty": "exactly one argument",
             "hasStereotype": "exactly two arguments", "exactlyOne": "at least one argument"}
    message = f"{fn} takes {arity[fn]}" if fn in arity else f"unknown function '{fn}'"
    return _raising(message, loc)


def eval_expr(e: E.Expr, bindings: dict[str, Value], model: Model | None = None) -> Value:
    """Evaluate ``e`` with ``bindings`` for its variables and ``model`` to
    resolve element names; raises ``EvalError``, never anything else."""

    return compile_expr(e)({name: [value] for name, value in bindings.items()}, 1, model)[0]


# ---------------------------------------------------------------------------
# Constraint checking
# ---------------------------------------------------------------------------


def iter_scope(model: Model, metaclass: str) -> list[tuple[str, object]]:
    """(path, element) pairs of one metaclass, in declaration order."""

    if metaclass == "Class":
        return [(cls.name, cls) for cls in model.classes]
    if metaclass == "Attribute":
        return [(member_path(cls, attr.name), attr)
                for cls in model.classes for attr in cls.attributes]
    if metaclass == "Operation":
        return [(member_path(cls, op.name), op) for cls in model.classes for op in cls.operations]
    if metaclass == "Statechart":
        return [(chart.name, chart) for chart in model.statecharts]
    if metaclass == "Transition":
        return [(transition_path(chart, index), t) for chart in model.statecharts
                for index, t in enumerate(chart.transitions)]
    raise ValueError(f"unknown metaclass '{metaclass}'")


def _check_one(model: Model, definition, provenance_id: str,
               diags: list[Diagnostic]) -> None:
    holds_for = compile_expr(definition.body)
    scope = list(iter_scope(model, definition.scope))
    for start in range(0, len(scope), BATCH_ROWS):
        chunk = scope[start:start + BATCH_ROWS]
        elements = list(map(operator.itemgetter(1), chunk))
        try:
            outcomes = holds_for({"self": elements}, len(elements), model)
        except EvalError:  # again element by element, for each one's own outcome
            outcomes = []
            for element in elements:
                try:
                    outcomes += holds_for({"self": [element]}, 1, model)
                except EvalError as failure:
                    outcomes.append(failure)
        for (path, _), holds in compress(zip(chunk, outcomes),  # all but the holding
                                         map(operator.is_not, outcomes, repeat(True))):
            if isinstance(holds, EvalError):
                diags.append(Diagnostic(
                    "error", "E202", path,
                    f"constraint '{definition.name}' could not be evaluated: {holds}",
                    holds.loc, provenance_id))
            elif type(holds) is not bool:
                diags.append(Diagnostic(
                    "error", "E202", path,
                    f"constraint '{definition.name}' did not evaluate to a boolean",
                    definition.body.loc, provenance_id))
            elif not holds:
                code = "E201" if definition.severity == "error" else "W201"
                diags.append(Diagnostic(
                    definition.severity, code, path,
                    f"constraint '{definition.name}' violated", None, provenance_id))


def _check_single_inheritance(model: Model, eff: EffectiveDefinitions,
                              diags: list[Diagnostic]) -> None:
    for cls in model.classes:
        if len(cls.superclasses) > 1:
            diags.append(Diagnostic(
                "error", "E203", cls.name,
                f"'{cls.name}' has {len(cls.superclasses)} superclasses but "
                "inheritance.multiple is forbidden",
                cls.loc, lookup_scalar(eff, "inheritance.multiple")[1].package_id))


def _check_event_names(model: Model, diags: list[Diagnostic]) -> None:
    for chart in model.statecharts:
        cls = model.class_named(chart.attached_to)
        if cls is None:
            continue
        op_names = {op.name for op in cls.operations}
        warned: set[str] = set()
        for index, t in enumerate(chart.transitions):
            if t.event in op_names or t.event in warned:
                continue
            warned.add(t.event)
            diags.append(Diagnostic(
                "warning", "W203", transition_path(chart, index),
                f"event '{t.event}' names no operation of '{cls.name}'", t.loc))


def _check_guards(model: Model, diags: list[Diagnostic]) -> None:
    for chart in model.statecharts:
        cls = model.class_named(chart.attached_to)
        if cls is None:
            continue
        flags = {a.name for a in cls.attributes if a.type_name == "Boolean"}
        for index, t in enumerate(chart.transitions):
            if t.guard is None:
                continue
            loose = sorted(E.free_vars(t.guard) - flags - {"self"})
            if loose:
                diags.append(Diagnostic(
                    "warning", "W204", transition_path(chart, index),
                    "guard references "
                    + ", ".join(f"'{name}'" for name in loose)
                    + f", not Boolean attributes of '{cls.name}'",
                    t.loc))


def check_constraints(model: Model, eff: EffectiveDefinitions) -> list[Diagnostic]:
    """Evaluate every active constraint over its scope.

    Requires a model that passed ``builtin_check`` without errors.  The
    output is ordered: preface constraints first (by winning definition
    position, then element declaration order), then the option-activated
    built-in checks.  A false constraint yields a diagnostic at the
    constraint's own severity; an evaluation failure is always an error.
    """

    diags: list[Diagnostic] = []

    active = sorted(eff.winners("constraint").values(),
                    key=lambda pair: pair[1].definition_index)
    for definition, prov in active:
        _check_one(model, definition, prov.package_id, diags)

    if eff.option("inheritance.multiple") == "forbidden":
        _check_single_inheritance(model, eff, diags)
    if not eff.transform_enabled(STATECHART_TO_CLASS):
        _check_event_names(model, diags)
    _check_guards(model, diags)

    return diags
