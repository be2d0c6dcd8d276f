"""Today's closure evaluator, kept as the reference for the batch one.

``compile_expr`` here turns an expression into one closure per node, a
function of ``(bindings, model)`` run once per element; it is the evaluator
``prefacer.constraints`` had before it evaluated a whole scope at a time,
copied as it was.  ``check_constraints_reference`` runs each winning
constraint with it one element at a time, then the option-activated
checks of ``prefacer.constraints``, which the batch evaluator does not
touch.  ``check_constraints`` must give exactly its diagnostics: the same
codes, paths, messages, locations and provenance, in the same order.  It
lives apart from ``tests/oracles.py`` because the benchmark harness imports
that module.
"""

from __future__ import annotations

import operator
from typing import Callable

from prefacer import expr as E
from prefacer.constraints import (
    EvalError,
    _check_event_names,
    _check_guards,
    _check_single_inheritance,
    iter_scope,
)
from prefacer.diagnostics import Diagnostic
from prefacer.model import (
    Attribute,
    ClassDef,
    Model,
    Operation,
    Statechart,
    Transition,
    metaclass_of,
    stereotypes_of,
)
from prefacer.preface import STATECHART_TO_CLASS, EffectiveDefinitions

Value = object  # bool | int | str | element reference | tuple of Value


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_ELEMENT_TYPES = (ClassDef, Attribute, Operation, Statechart, Transition)
_LABELS = {bool: "boolean", int: "integer", str: "string", tuple: "sequence",
           **dict.fromkeys(_ELEMENT_TYPES, "element")}


def _type_label(value: Value) -> str:
    return next((label for kind, label in _LABELS.items() if isinstance(value, kind)),
                type(value).__name__)


def _need(value: Value, kind, loc, what: str = "", verb: str = "expected") -> Value:
    """``value`` if it is a ``kind``, else an ``EvalError`` at ``loc``."""
    if not isinstance(value, kind):
        what = what or {bool: "a boolean", tuple: "a sequence"}[kind]
        raise EvalError(f"{verb} {what}, got {_type_label(value)}", loc)
    return value


def _raising(message: str, loc) -> Callable:
    def fail(*args):
        raise EvalError(message, loc)
    return fail


def _resolve_class(name: str, model: Model | None, nav: E.Nav) -> ClassDef:
    cls = model.class_named(name) if model is not None else None
    if cls is None:
        raise EvalError(f"cannot resolve class '{name}'", nav.loc)
    return cls


#: Feature name -> element type -> getter of ``(element, model, nav node)``.
_FEATURES = {
    "name": dict.fromkeys((ClassDef, Statechart, Attribute, Operation), lambda x, m, n: x.name),
    "superclasses": {ClassDef: lambda c, m, n: tuple(
        _resolve_class(name, m, n) for name in c.superclasses)},
    "attributes": {ClassDef: lambda c, m, n: tuple(c.attributes)},
    "operations": {ClassDef: lambda c, m, n: tuple(c.operations)},
    "stereotypes": {ClassDef: lambda c, m, n: tuple(sorted(c.stereotypes))},
    "states": {Statechart: lambda s, m, n: s.state_names()},
    "transitions": {Statechart: lambda s, m, n: tuple(s.transitions)},
    "attachedTo": {Statechart: lambda s, m, n: _resolve_class(s.attached_to, m, n)},
    "source": {Transition: lambda t, m, n: t.source},
    "target": {Transition: lambda t, m, n: t.target},
    "event": {Transition: lambda t, m, n: t.event},
}


def _getter(value: Value, getters: dict, nav: E.Nav) -> Callable:
    """The getter for a value whose exact type the table does not list."""
    for kind, getter in getters.items():
        if isinstance(value, kind):
            return getter
    if isinstance(value, _ELEMENT_TYPES):
        raise EvalError(f"'{nav.feature}' is not a feature of {metaclass_of(value)}", nav.loc)
    raise EvalError(f"cannot navigate '.{nav.feature}' on a {_type_label(value)}", nav.loc)


_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compile_expr(e: E.Expr) -> Callable:
    """Compile ``e`` into a function of ``(bindings, model)`` that raises
    ``EvalError`` exactly where evaluating ``e`` fails.  Compiling never raises;
    neither recurses through a helper, so each nests about as deep as the parser."""

    loc = getattr(e, "loc", None)
    if isinstance(e, E.Literal):
        value = e.value
        return lambda bindings, model: value
    if isinstance(e, E.VarRef):
        name, unbound = e.name, _raising(f"unbound variable '{e.name}'", loc)
        return lambda bindings, model: bindings[name] if name in bindings else unbound()
    if isinstance(e, (E.And, E.Or, E.Add, E.Sub)):
        # A left-leaning chain; each operand is checked at the node that joins it.
        kinds = (E.Add, E.Sub) if isinstance(e, (E.Add, E.Sub)) else type(e)
        nodes = []
        while isinstance(e, kinds):
            nodes.append(e)
            e = e.lhs
        steps = [(compile_expr(e), nodes[-1].loc, False)]
        for node in reversed(nodes):
            steps.append((compile_expr(node.rhs), node.loc, isinstance(node, E.Sub)))
        if kinds is not E.And and kinds is not E.Or:
            def total(bindings, model):
                value = 0
                for run, at, minus in steps:
                    term = run(bindings, model)
                    if type(term) is bool or not isinstance(term, int):
                        raise EvalError(f"expected an integer, got {_type_label(term)}", at)
                    value = value - term if minus else value + term
                return value
            return total
        decisive = kinds is E.Or  # or stops at true, and at false
        def junction(bindings, model):
            for run, at, _ in steps:
                value = run(bindings, model)
                if value is decisive:
                    return decisive
                if type(value) is not bool:
                    _need(value, bool, at)
            return not decisive
        return junction
    if isinstance(e, E.Nav):
        steps = []
        while isinstance(e, E.Nav):
            steps.append((_FEATURES.get(e.feature, {}), e))
            e = e.target
        target, steps = compile_expr(e), steps[::-1]
        def navigate(bindings, model):
            value = target(bindings, model)
            for getters, nav in steps:
                getter = getters.get(type(value)) or _getter(value, getters, nav)
                value = getter(value, model, nav)
            return value
        return navigate
    if isinstance(e, E.Compare):
        lhs, rhs, ordered = compile_expr(e.lhs), compile_expr(e.rhs), e.op not in ("=", "<>")
        test = _COMPARISONS.get(e.op) or _raising(f"unknown comparison operator '{e.op}'", loc)
        def compare(bindings, model):
            left, right = lhs(bindings, model), rhs(bindings, model)
            if type(left) is not type(right) or ordered and type(left) not in (int, str):
                label = _type_label(left)
                if label != _type_label(right):
                    raise EvalError(f"cannot compare {label} with {_type_label(right)}", loc)
                if ordered and label not in ("integer", "string"):
                    raise EvalError(f"ordering is not defined on {label} values", loc)
            return test(left, right)
        return compare
    if isinstance(e, (E.Forall, E.Exists)):
        domain, body, var = compile_expr(e.domain), compile_expr(e.body), e.var
        universal = isinstance(e, E.Forall)  # forall fails at false, exists holds at true
        def quantifier(bindings, model):
            result, inner = universal, dict(bindings)
            for item in _need(domain(bindings, model), tuple, loc):
                inner[var] = item
                value = body(inner, model)
                if value is not universal:
                    result = _need(value, bool, loc)
            return result
        return quantifier
    if isinstance(e, E.Not):
        operand = compile_expr(e.operand)
        return lambda bindings, model: not _need(operand(bindings, model), bool, loc)
    if isinstance(e, E.Implies):
        lhs, rhs = compile_expr(e.lhs), compile_expr(e.rhs)
        return lambda bindings, model: (  # implication is <= on booleans
            _need(lhs(bindings, model), bool, loc) <= _need(rhs(bindings, model), bool, loc))
    if not isinstance(e, E.Call):
        return _raising(f"not an expression node: {e!r}", loc)
    fn, runs = e.fn, list(map(compile_expr, e.args))
    if fn in ("size", "isEmpty") and len(runs) == 1:
        arg = runs[0]
        if fn == "size":
            return lambda bindings, model: len(_need(arg(bindings, model), tuple, loc))
        return lambda bindings, model: not _need(arg(bindings, model), tuple, loc)
    if fn == "hasStereotype" and len(runs) == 2:
        element_of, name_of = runs
        def has_stereotype(bindings, model):
            verb = "hasStereotype expects"
            element = _need(element_of(bindings, model), _ELEMENT_TYPES, loc, "an element", verb)
            name = _need(name_of(bindings, model), str, loc, "a string", verb)
            return name in stereotypes_of(element)
        return has_stereotype
    if fn == "exactlyOne" and runs:
        def exactly_one(bindings, model):
            count = 0
            for run in runs:
                count += _need(run(bindings, model), bool, loc)
            return count == 1
        return exactly_one
    arity = {"size": "exactly one argument", "isEmpty": "exactly one argument",
             "hasStereotype": "exactly two arguments", "exactlyOne": "at least one argument"}
    message = f"{fn} takes {arity[fn]}" if fn in arity else f"unknown function '{fn}'"
    return _raising(message, loc)


def eval_expr(e: E.Expr, bindings: dict[str, Value], model: Model | None = None) -> Value:
    """Evaluate ``e`` with ``bindings`` for its variables and ``model`` to
    resolve element names; raises ``EvalError``, never anything else."""

    return compile_expr(e)(bindings, model)



def check_constraints_reference(model: Model, eff: EffectiveDefinitions) -> list[Diagnostic]:
    """``check_constraints``, each constraint evaluated element by element."""

    diags: list[Diagnostic] = []
    active = sorted(eff.winners("constraint").values(),
                    key=lambda pair: pair[1].definition_index)
    for definition, prov in active:
        holds_for = compile_expr(definition.body)
        for path, element in iter_scope(model, definition.scope):
            try:
                holds = holds_for({"self": element}, model)
            except EvalError as failure:
                diags.append(Diagnostic(
                    "error", "E202", path,
                    f"constraint '{definition.name}' could not be evaluated: {failure}",
                    failure.loc, prov.package_id))
                continue
            if type(holds) is not bool:
                diags.append(Diagnostic(
                    "error", "E202", path,
                    f"constraint '{definition.name}' did not evaluate to a boolean",
                    definition.body.loc, prov.package_id))
            elif not holds:
                code = "E201" if definition.severity == "error" else "W201"
                diags.append(Diagnostic(
                    definition.severity, code, path,
                    f"constraint '{definition.name}' violated", None, prov.package_id))
    if eff.option("inheritance.multiple") == "forbidden":
        _check_single_inheritance(model, eff, diags)
    if not eff.transform_enabled(STATECHART_TO_CLASS):
        _check_event_names(model, diags)
    _check_guards(model, diags)
    return diags
