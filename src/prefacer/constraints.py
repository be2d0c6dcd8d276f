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

The feature table is closed.  Classes navigate to ``name``,
``superclasses``, ``attributes``, ``operations`` and ``stereotypes``;
statecharts to ``name``, ``states`` (the state names), ``transitions`` and
``attachedTo``; transitions to ``source``, ``target`` and ``event``;
attributes and operations expose ``name`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as E
from .diagnostics import Diagnostic, SourceLocation
from .model import (
    Attribute,
    ClassDef,
    Model,
    ModelElement,
    Operation,
    Statechart,
    Transition,
    member_path,
    metaclass_of,
    stereotypes_of,
    transition_path,
)
from .preface import STATECHART_TO_CLASS, EffectiveDefinitions

Value = object  # bool | int | str | element reference | tuple of Value


class EvalError(Exception):
    """An expression could not be evaluated over the given bindings."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc
        super().__init__(message)


@dataclass
class Env:
    """Variable bindings plus the model used to resolve element names."""

    bindings: dict[str, Value] = field(default_factory=dict)
    model: Model | None = None

    def bound(self, name: str, value: Value) -> "Env":
        child = dict(self.bindings)
        child[name] = value
        return Env(child, self.model)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_ELEMENT_TYPES = (ClassDef, Attribute, Operation, Statechart, Transition)


def _type_label(value: Value) -> str:
    if type(value) is bool:
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, str):
        return "string"
    if isinstance(value, tuple):
        return "sequence"
    if isinstance(value, _ELEMENT_TYPES):
        return "element"
    return type(value).__name__


def _need_bool(value: Value, e: E.Expr) -> bool:
    if type(value) is not bool:
        raise EvalError(f"expected a boolean, got {_type_label(value)}", e.loc)
    return value


def _need_int(value: Value, e: E.Expr) -> int:
    if type(value) is bool or not isinstance(value, int):
        raise EvalError(f"expected an integer, got {_type_label(value)}", e.loc)
    return value


def _need_seq(value: Value, e: E.Expr) -> tuple:
    if not isinstance(value, tuple):
        raise EvalError(f"expected a sequence, got {_type_label(value)}", e.loc)
    return value


def _resolve_class(name: str, env: Env, e: E.Expr) -> ClassDef:
    cls = env.model.class_named(name) if env.model is not None else None
    if cls is None:
        raise EvalError(f"cannot resolve class '{name}'", e.loc)
    return cls


def _navigate(element: Value, e: E.Nav, env: Env) -> Value:
    feature = e.feature
    if isinstance(element, ClassDef):
        if feature == "name":
            return element.name
        if feature == "superclasses":
            return tuple(_resolve_class(n, env, e) for n in element.superclasses)
        if feature == "attributes":
            return tuple(element.attributes)
        if feature == "operations":
            return tuple(element.operations)
        if feature == "stereotypes":
            return tuple(sorted(element.stereotypes))
    elif isinstance(element, Statechart):
        if feature == "name":
            return element.name
        if feature == "states":
            return element.state_names()
        if feature == "transitions":
            return tuple(element.transitions)
        if feature == "attachedTo":
            return _resolve_class(element.attached_to, env, e)
    elif isinstance(element, Transition):
        if feature == "source":
            return element.source
        if feature == "target":
            return element.target
        if feature == "event":
            return element.event
    elif isinstance(element, (Attribute, Operation)):
        if feature == "name":
            return element.name
    else:
        raise EvalError(
            f"cannot navigate '.{feature}' on a {_type_label(element)}", e.loc)
    raise EvalError(
        f"'{feature}' is not a feature of {metaclass_of(element)}", e.loc)


def _call(e: E.Call, env: Env) -> Value:
    if e.fn == "size":
        if len(e.args) != 1:
            raise EvalError("size takes exactly one argument", e.loc)
        return len(_need_seq(eval_expr(e.args[0], env), e))
    if e.fn == "isEmpty":
        if len(e.args) != 1:
            raise EvalError("isEmpty takes exactly one argument", e.loc)
        return len(_need_seq(eval_expr(e.args[0], env), e)) == 0
    if e.fn == "hasStereotype":
        if len(e.args) != 2:
            raise EvalError("hasStereotype takes exactly two arguments", e.loc)
        element = eval_expr(e.args[0], env)
        if not isinstance(element, _ELEMENT_TYPES):
            raise EvalError(
                f"hasStereotype expects an element, got {_type_label(element)}", e.loc)
        name = eval_expr(e.args[1], env)
        if not isinstance(name, str):
            raise EvalError(
                f"hasStereotype expects a string, got {_type_label(name)}", e.loc)
        return name in stereotypes_of(element)
    if e.fn == "exactlyOne":
        if not e.args:
            raise EvalError("exactlyOne takes at least one argument", e.loc)
        return sum(_need_bool(eval_expr(arg, env), e) for arg in e.args) == 1
    raise EvalError(f"unknown function '{e.fn}'", e.loc)


def _compare(e: E.Compare, env: Env) -> bool:
    lhs = eval_expr(e.lhs, env)
    rhs = eval_expr(e.rhs, env)
    if _type_label(lhs) != _type_label(rhs):
        raise EvalError(
            f"cannot compare {_type_label(lhs)} with {_type_label(rhs)}", e.loc)
    if e.op == "=":
        return lhs == rhs
    if e.op == "<>":
        return lhs != rhs
    if _type_label(lhs) not in ("integer", "string"):
        raise EvalError(
            f"ordering is not defined on {_type_label(lhs)} values", e.loc)
    if e.op == "<":
        return lhs < rhs
    if e.op == "<=":
        return lhs <= rhs
    if e.op == ">":
        return lhs > rhs
    if e.op == ">=":
        return lhs >= rhs
    raise EvalError(f"unknown comparison operator '{e.op}'", e.loc)


def eval_expr(e: E.Expr, env: Env) -> Value:
    """Evaluate ``e`` under ``env``; raises ``EvalError``, never anything else."""

    if isinstance(e, E.Literal):
        return e.value
    if isinstance(e, E.VarRef):
        try:
            return env.bindings[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'", e.loc) from None
    if isinstance(e, E.Nav):
        return _navigate(eval_expr(e.target, env), e, env)
    if isinstance(e, E.Call):
        return _call(e, env)
    if isinstance(e, E.Forall):
        domain = _need_seq(eval_expr(e.domain, env), e)
        result = True
        for item in domain:
            result = _need_bool(eval_expr(e.body, env.bound(e.var, item)), e) and result
        return result
    if isinstance(e, E.Exists):
        domain = _need_seq(eval_expr(e.domain, env), e)
        result = False
        for item in domain:
            result = _need_bool(eval_expr(e.body, env.bound(e.var, item)), e) or result
        return result
    if isinstance(e, E.And):
        if not _need_bool(eval_expr(e.lhs, env), e):
            return False
        return _need_bool(eval_expr(e.rhs, env), e)
    if isinstance(e, E.Or):
        if _need_bool(eval_expr(e.lhs, env), e):
            return True
        return _need_bool(eval_expr(e.rhs, env), e)
    if isinstance(e, E.Not):
        return not _need_bool(eval_expr(e.operand, env), e)
    if isinstance(e, E.Implies):
        lhs = _need_bool(eval_expr(e.lhs, env), e)
        rhs = _need_bool(eval_expr(e.rhs, env), e)
        return (not lhs) or rhs
    if isinstance(e, E.Compare):
        return _compare(e, env)
    if isinstance(e, E.Add):
        return _need_int(eval_expr(e.lhs, env), e) + _need_int(eval_expr(e.rhs, env), e)
    if isinstance(e, E.Sub):
        return _need_int(eval_expr(e.lhs, env), e) - _need_int(eval_expr(e.rhs, env), e)
    raise EvalError(f"not an expression node: {e!r}", getattr(e, "loc", None))


# ---------------------------------------------------------------------------
# Constraint checking
# ---------------------------------------------------------------------------


def iter_scope(model: Model, metaclass: str):
    """(path, element) pairs of one metaclass, in declaration order."""

    if metaclass == "Class":
        for cls in model.classes:
            yield cls.name, cls
    elif metaclass == "Attribute":
        for cls in model.classes:
            for attr in cls.attributes:
                yield member_path(cls, attr.name), attr
    elif metaclass == "Operation":
        for cls in model.classes:
            for op in cls.operations:
                yield member_path(cls, op.name), op
    elif metaclass == "Statechart":
        for chart in model.statecharts:
            yield chart.name, chart
    elif metaclass == "Transition":
        for chart in model.statecharts:
            for index, t in enumerate(chart.transitions):
                yield transition_path(chart, index), t
    else:
        raise ValueError(f"unknown metaclass '{metaclass}'")


def _check_one(
    model: Model,
    definition,
    provenance_id: str,
    diags: list[Diagnostic],
) -> None:
    for path, element in iter_scope(model, definition.scope):
        env = Env({"self": element}, model)
        try:
            holds = eval_expr(definition.body, env)
        except EvalError as failure:
            diags.append(Diagnostic(
                "error", "E202", path,
                f"constraint '{definition.name}' could not be evaluated: {failure}",
                failure.loc, provenance_id))
            continue
        if type(holds) is not bool:
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
                cls.loc, eff.scalars["inheritance.multiple"][1].package_id))


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

    active = sorted(eff.constraints.values(), key=lambda pair: pair[1].definition_index)
    for definition, prov in active:
        _check_one(model, definition, prov.package_id, diags)

    if eff.option("inheritance.multiple") == "forbidden":
        _check_single_inheritance(model, eff, diags)
    if not eff.transform_enabled(STATECHART_TO_CLASS):
        _check_event_names(model, diags)
    if eff.option("statechart.attach_to") == "method":
        for chart in model.statecharts:
            diags.append(Diagnostic(
                "warning", "W205", chart.name,
                "statechart attachment to methods is not supported; "
                f"'{chart.name}' remains attached to class '{chart.attached_to}'",
                chart.loc))
    _check_guards(model, diags)

    return diags
