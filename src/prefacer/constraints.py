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
over its whole scope at once, and a quantifier over many rows runs its
body over the items of all of them at once.  A scope is the bare elements
of its metaclass (``iter_scope``); a path is built only for an element
that gets a diagnostic, in one pass over the scope's owners.  Outcomes
are still those of each element alone: an ``and`` or ``or`` runs a later
operand only on the rows the earlier ones left undecided, and a scope's
batch that raises ``EvalError`` runs again one element at a time.  On one
row, a quantifier runs its items one at a time, in order, as the element
alone would, so each element gets the error of its own first failing node
and item.  No batch holds more than ``BATCH_ROWS`` rows, but for one row
whose domain is longer.

Each expression has one type, so each column holds values of one type,
and a check of a column's type reads its first value only.  That holds as
long as the model's records hold the types their fields declare.

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
from itertools import chain, compress, count, repeat
from typing import Callable

from . import expr as E
from .diagnostics import Diagnostic, SourceLocation
from .model import (
    METACLASSES,
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
#: elements, and a quantifier's body over many rows in groups of whole rows
#: of at most this many items.
BATCH_ROWS = 4096


class EvalError(Exception):
    """An expression could not be evaluated over the given bindings."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc
        super().__init__(message)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_ELEMENT_TYPES = tuple(METACLASSES.values())
_LABELS = {bool: "boolean", int: "integer", str: "string", tuple: "sequence",
           **dict.fromkeys(_ELEMENT_TYPES, "element")}


def _type_label(value: Value) -> str:
    return next((label for kind, label in _LABELS.items() if isinstance(value, kind)),
                type(value).__name__)


def _column(values: list, kind, loc, what: str = "", verb: str = "expected") -> list:
    """``values`` if they are ``kind``s, else an ``EvalError`` at ``loc``;
    a column holds one type, so its first value stands for all."""
    if not isinstance(values[0], kind):
        what = what or {bool: "a boolean", tuple: "a sequence"}[kind]
        raise EvalError(f"{verb} {what}, got {_type_label(values[0])}", loc)
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


def _no_getter(value: Value, nav: E.Nav) -> Callable:
    """Raise for a value whose type the feature's table does not list."""
    if isinstance(value, _ELEMENT_TYPES):
        raise EvalError(f"'{nav.feature}' is not a feature of {metaclass_of(value)}", nav.loc)
    raise EvalError(f"cannot navigate '.{nav.feature}' on a {_type_label(value)}", nav.loc)


def _groups(domains: list[tuple]):
    """A quantifier's body rows in groups: (the row of each item, the items).

    Over one row, each item is a group of its own.  Over many rows, a group
    is whole rows of at most ``BATCH_ROWS`` items (or one longer row).  No
    group is empty."""

    if len(domains) == 1:
        for item in domains[0]:
            yield [0], [item]
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
    values of one type per bound name), or raises ``EvalError`` where
    evaluating ``e`` on some row fails.  It is never called on no rows, and
    the values it gives are of one type too.  Compiling never raises;
    neither recurses through a helper, so each nests about as deep as the
    parser."""

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
                    if type(terms[0]) is bool or not isinstance(terms[0], int):
                        raise EvalError(f"expected an integer, got {_type_label(terms[0])}", at)
                    values = list(map(op, values, terms))
                return values
            return total
        decisive = kinds is E.Or  # or stops at true, and at false
        def junction(cols, n, model):
            out, rows = [not decisive] * n, None  # rows: where each row's value goes
            for run, at, _ in steps:
                values = _column(run(cols, n, model), bool, at)
                if decisive not in values:
                    continue  # every row still undecided
                keep = []
                for index, value in enumerate(values):
                    if value is decisive:
                        out[index if rows is None else rows[index]] = decisive
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
                getter = getters.get(type(values[0])) or _no_getter(values[0], nav)
                values = getter(values, model, nav)
            return values
        return navigate
    if isinstance(e, E.Compare):
        lhs, rhs, ordered = compile_expr(e.lhs), compile_expr(e.rhs), e.op not in ("=", "<>")
        test = _COMPARISONS.get(e.op) or _raising(f"unknown comparison operator '{e.op}'", loc)
        def compare(cols, n, model):
            lefts, rights = lhs(cols, n, model), rhs(cols, n, model)
            label, other = _type_label(lefts[0]), _type_label(rights[0])
            if label != other:
                raise EvalError(f"cannot compare {label} with {other}", loc)
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
            for rows, items in _groups(_column(domain(cols, n, model), tuple, loc)):
                inner = {name: list(map(col.__getitem__, rows))
                         for name, col in cols.items() if name in outer}
                inner[var] = items
                values = _column(body(inner, len(items), model), bool, loc)
                if flip in values:
                    for row, value in zip(rows, values):
                        if value is flip:
                            results[row] = flip
            return results
        return quantifier
    if isinstance(e, E.Not):
        operand = compile_expr(e.operand)
        return lambda cols, n, model: list(map(
            operator.not_, _column(operand(cols, n, model), bool, loc)))
    if isinstance(e, E.Implies):
        lhs, rhs = compile_expr(e.lhs), compile_expr(e.rhs)
        return lambda cols, n, model: list(map(  # implication is <= on booleans
            operator.le, _column(lhs(cols, n, model), bool, loc),
            _column(rhs(cols, n, model), bool, loc)))
    if not isinstance(e, E.Call):
        return _raising(f"not an expression node: {e!r}", loc)
    fn, runs = e.fn, list(map(compile_expr, e.args))
    if fn in ("size", "isEmpty") and len(runs) == 1:
        arg, count = runs[0], len if fn == "size" else operator.not_
        return lambda cols, n, model: list(map(
            count, _column(arg(cols, n, model), tuple, loc)))
    if fn == "hasStereotype" and len(runs) == 2:
        element_of, name_of = runs
        def has_stereotype(cols, n, model):
            verb = "hasStereotype expects"
            elements = _column(element_of(cols, n, model), _ELEMENT_TYPES, loc, "an element", verb)
            names = _column(name_of(cols, n, model), str, loc, "a string", verb)
            return [name in stereotypes_of(element) for element, name in zip(elements, names)]
        return has_stereotype
    if fn == "exactlyOne" and runs:
        def exactly_one(cols, n, model):
            counts = [0] * n
            for run in runs:
                counts = list(map(operator.add, counts,
                                  _column(run(cols, n, model), bool, loc)))
            return [count == 1 for count in counts]
        return exactly_one
    message = f"{fn} takes {E.CALLS[fn]}" if fn in E.CALLS else f"unknown function '{fn}'"
    return _raising(message, loc)


def eval_expr(e: E.Expr, bindings: dict[str, Value], model: Model | None = None) -> Value:
    """Evaluate ``e`` with ``bindings`` for its variables and ``model`` to
    resolve element names; raises ``EvalError``, never anything else."""

    return compile_expr(e)({name: [value] for name, value in bindings.items()}, 1, model)[0]


# ---------------------------------------------------------------------------
# Constraint checking
# ---------------------------------------------------------------------------


#: Metaclass -> the model's field of its owners and their field of it.
_OWNED = {"Attribute": ("classes", "attributes"), "Operation": ("classes", "operations"),
          "Transition": ("statecharts", "transitions")}


def iter_scope(model: Model, metaclass: str) -> list:
    """The elements of one metaclass, in declaration order."""

    if metaclass == "Class" or metaclass == "Statechart":
        return list(model.classes if metaclass == "Class" else model.statecharts)
    if metaclass not in _OWNED:
        raise ValueError(f"unknown metaclass '{metaclass}'")
    owners, members = _OWNED[metaclass]
    return list(chain.from_iterable(getattr(o, members) for o in getattr(model, owners)))


def _paths(model: Model, metaclass: str, scope: list, positions: list[int]) -> list[str]:
    """The paths of the elements at ``positions`` (ascending) of ``scope``,
    ``iter_scope(model, metaclass)``, in one pass over their owners."""

    if metaclass not in _OWNED:
        return [scope[at].name for at in positions]
    owners, members = _OWNED[metaclass]
    owners, paths, start, end = iter(getattr(model, owners)), [], 0, 0
    for at in positions:
        while at >= end:
            owner = next(owners)
            start, end = end, end + len(getattr(owner, members))
        paths.append(transition_path(owner, at - start) if metaclass == "Transition"
                     else member_path(owner, scope[at].name))
    return paths


def _check_one(model: Model, definition, provenance_id: str,
               diags: list[Diagnostic]) -> None:
    holds_for = compile_expr(definition.body)
    scope = list(iter_scope(model, definition.scope))
    found = []  # (position in the scope, outcome) of each element that does not hold
    for start in range(0, len(scope), BATCH_ROWS):
        elements = scope[start:start + BATCH_ROWS]
        try:
            outcomes = holds_for({"self": elements}, len(elements), model)
        except EvalError:  # again element by element, for each one's own outcome
            outcomes = []
            for element in elements:
                try:
                    outcomes += holds_for({"self": [element]}, 1, model)
                except EvalError as failure:
                    outcomes.append(failure)
        found += compress(zip(count(start), outcomes),  # all but the holding
                          map(operator.is_not, outcomes, repeat(True)))
    paths = _paths(model, definition.scope, scope, [at for at, _ in found])
    for path, (_, holds) in zip(paths, found):
        if isinstance(holds, EvalError):
            diags.append(Diagnostic(
                "E202", path,
                f"constraint '{definition.name}' could not be evaluated: {holds}",
                holds.loc, provenance_id))
        elif type(holds) is not bool:
            diags.append(Diagnostic(
                "E202", path,
                f"constraint '{definition.name}' did not evaluate to a boolean",
                definition.body.loc, provenance_id))
        elif not holds:
            diags.append(Diagnostic(
                "E201" if definition.severity == "error" else "W201", path,
                f"constraint '{definition.name}' violated", None, provenance_id))


def _check_single_inheritance(model: Model, eff: EffectiveDefinitions,
                              diags: list[Diagnostic]) -> None:
    for cls in model.classes:
        if len(cls.superclasses) > 1:
            diags.append(Diagnostic(
                "E203", cls.name,
                f"'{cls.name}' has {len(cls.superclasses)} superclasses but "
                "inheritance.multiple is forbidden",
                cls.loc, lookup_scalar(eff, "inheritance.multiple")[1].package_id))


def _check_event_names(model: Model, diags: list[Diagnostic]) -> None:
    for chart in model.statecharts:
        cls = model.class_named(chart.attached_to)
        op_names = {op.name for op in cls.operations}
        warned: set[str] = set()
        for index, t in enumerate(chart.transitions):
            if t.event in op_names or t.event in warned:
                continue
            warned.add(t.event)
            diags.append(Diagnostic("W203", transition_path(chart, index),
                                    f"event '{t.event}' names no operation of '{cls.name}'", t.loc))


def _check_guards(model: Model, diags: list[Diagnostic]) -> None:
    for chart in model.statecharts:
        cls = model.class_named(chart.attached_to)
        flags = {a.name for a in cls.attributes if a.type_name == "Boolean"}
        for index, t in enumerate(chart.transitions):
            if t.guard is None:
                continue
            loose = sorted(E.free_vars(t.guard) - flags - {"self"})
            if loose:
                diags.append(Diagnostic(
                    "W204", transition_path(chart, index),
                    "guard references "
                    + ", ".join(f"'{name}'" for name in loose)
                    + f", not Boolean attributes of '{cls.name}'",
                    t.loc))


def check_constraints(model: Model, eff: EffectiveDefinitions) -> list[Diagnostic]:
    """Evaluate every active constraint over its scope.

    On a model ``builtin_check`` refuses it may raise or return anything.
    The output is ordered: preface constraints first (by winning definition
    position, then element declaration order), then the option-activated
    built-in checks.  A false constraint yields E201 when its severity is
    ``error`` and W201 otherwise; an evaluation failure is always E202.
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
