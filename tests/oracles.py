"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the intended behaviour, not
from the package sources: a different traversal for import flattening, a
``match``-based interpreter for expressions, and dumb exhaustive
enumerations where the real code uses indexed lookups.  Tests compare the
production code against these on randomly generated inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from prefacer.expr import (
    Add,
    And,
    Call,
    Compare,
    Exists,
    Expr,
    Forall,
    Implies,
    Literal,
    Nav,
    Not,
    Or,
    Sub,
    VarRef,
    disjoin,
)
from prefacer.model import (
    Attribute,
    ClassDef,
    Model,
    Operation,
    Statechart,
    Transition,
)
from prefacer.preface import (
    ConstDef,
    ConstraintDef,
    OptionDef,
    Package,
    PredicatedRuleDef,
    StereotypeDef,
    TagDef,
    TransformSelection,
    OPTION_CATALOGUE,
    render_literal,
)
from prefacer.diagnostics import SourceLocation
from prefacer.textio import ParseError


# ---------------------------------------------------------------------------
# Import flattening, iteratively
# ---------------------------------------------------------------------------


class OracleCompositionFailure(Exception):
    pass


def flatten_reference(repo: dict[str, Package], root_id: str) -> list[str]:
    """First-occurrence post-order of the import graph, with an explicit
    stack instead of recursion.  Returns package ids, root last."""

    if root_id not in repo:
        raise OracleCompositionFailure(f"unknown root {root_id}")

    order: list[str] = []
    done: set[str] = set()
    on_stack: set[str] = {root_id}
    stack: list[tuple[str, list[str], int]] = [(root_id, list(repo[root_id].imports), 0)]

    while stack:
        pkg_id, imports, cursor = stack[-1]
        if cursor < len(imports):
            stack[-1] = (pkg_id, imports, cursor + 1)
            child = imports[cursor]
            if child not in repo:
                raise OracleCompositionFailure(f"unknown import {child}")
            if child in done:
                continue
            if child in on_stack:
                raise OracleCompositionFailure(f"cycle through {child}")
            on_stack.add(child)
            stack.append((child, list(repo[child].imports), 0))
        else:
            stack.pop()
            on_stack.discard(pkg_id)
            done.add(pkg_id)
            order.append(pkg_id)
    return order


# ---------------------------------------------------------------------------
# Composition by sequential replay
# ---------------------------------------------------------------------------


def replay_view(flattened: list[Package]) -> dict:
    """Replay every definition of every package, in order, into plain
    dictionaries.  Later writes simply overwrite earlier ones; predicated
    rules pile up oldest first.  The result is an index-free snapshot
    comparable with ``snapshot_view`` below."""

    scalars: dict[str, tuple[object, str]] = {}
    history: dict[str, list[tuple[str, object]]] = {}
    rules: dict[str, list[tuple[object, str, str]]] = {}
    constraints: dict[str, tuple[str, str, Expr, str]] = {}
    stereotypes: dict[str, tuple[str, tuple[str, ...], str]] = {}
    tags: dict[str, tuple[str, str]] = {}
    transforms: dict[str, tuple[bool, str]] = {}

    for pkg in flattened:
        for d in pkg.definitions:
            if isinstance(d, (ConstDef, OptionDef)):
                scalars[d.key] = (d.value, pkg.id)
                history.setdefault(d.key, []).append((pkg.id, d.value))
            elif isinstance(d, PredicatedRuleDef):
                rules.setdefault(d.property_key, []).append(
                    (d.predicate, d.value, pkg.id))
            elif isinstance(d, ConstraintDef):
                constraints[d.name] = (d.scope, d.severity, d.body, pkg.id)
            elif isinstance(d, StereotypeDef):
                stereotypes[d.name] = (d.base, d.required_tags, pkg.id)
            elif isinstance(d, TagDef):
                tags[d.name] = (d.value_type, pkg.id)
            elif isinstance(d, TransformSelection):
                transforms[d.transform_id] = (d.enabled, pkg.id)

    for key, entry in OPTION_CATALOGUE.items():
        scalars.setdefault(key, (entry.default, "catalogue-default"))

    # Newest-first, to match the consultation order of predicated chains.
    return {
        "scalars": scalars,
        "history": {k: tuple(v) for k, v in history.items()},
        "rules": {k: tuple(reversed(v)) for k, v in rules.items()},
        "constraints": constraints,
        "stereotypes": stereotypes,
        "tags": tags,
        "transforms": transforms,
    }


def snapshot_view(eff) -> dict:
    """The same index-free snapshot, taken from an ``EffectiveDefinitions``."""

    def winners(kind: str, *fields: str) -> dict:
        return {key: tuple(getattr(d, f) for f in fields) + (prov.package_id,)
                for key, (d, prov) in eff.winners(kind).items()}

    def chains(kind: str) -> dict:
        return {key: chain for (k, key), chain in eff.chains.items() if k == kind}

    history = {key: tuple((p.package_id, d.value) for d, p in chain if p.definition_index >= 0)
               for key, chain in chains("scalar").items()}
    return {
        "scalars": winners("scalar", "value"),
        "history": {key: entries for key, entries in history.items() if entries},
        "rules": {key: tuple((d.predicate, d.value, p.package_id) for d, p in reversed(chain))
                  for key, chain in chains("rule").items()},
        "constraints": winners("constraint", "scope", "severity", "body"),
        "stereotypes": winners("stereotype", "base", "required_tags"),
        "tags": winners("tag", "value_type"),
        "transforms": winners("transform", "enabled"),
    }


def definition_keys(pkg: Package) -> set[tuple[str, str]]:
    """The (kind, key) pairs a package writes; packages with disjoint key
    sets can swap places in the replay without changing the outcome."""

    keys: set[tuple[str, str]] = set()
    for d in pkg.definitions:
        if isinstance(d, (ConstDef, OptionDef)):
            keys.add(("scalar", d.key))
        elif isinstance(d, PredicatedRuleDef):
            keys.add(("rule", d.property_key))
        elif isinstance(d, ConstraintDef):
            keys.add(("constraint", d.name))
        elif isinstance(d, StereotypeDef):
            keys.add(("stereotype", d.name))
        elif isinstance(d, TagDef):
            keys.add(("tag", d.name))
        elif isinstance(d, TransformSelection):
            keys.add(("transform", d.transform_id))
    return keys


# ---------------------------------------------------------------------------
# Brute-force expression interpreter
# ---------------------------------------------------------------------------


class BruteEvalFailure(Exception):
    """The oracle's counterpart of an evaluation error."""


_ELEMENTS = (ClassDef, Attribute, Operation, Statechart, Transition)


def _kind(v: object) -> str:
    if type(v) is bool:
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, str):
        return "str"
    if isinstance(v, tuple):
        return "seq"
    if isinstance(v, _ELEMENTS):
        return "elem"
    return "?"


def _as_bool(v: object) -> bool:
    if type(v) is not bool:
        raise BruteEvalFailure(f"not a bool: {_kind(v)}")
    return v


def _as_int(v: object) -> int:
    if _kind(v) != "int":
        raise BruteEvalFailure(f"not an int: {_kind(v)}")
    return v


def _as_seq(v: object) -> tuple:
    if not isinstance(v, tuple):
        raise BruteEvalFailure(f"not a sequence: {_kind(v)}")
    return v


def _class_by_name(model: Model | None, name: str) -> ClassDef:
    cls = model.class_named(name) if model is not None else None
    if cls is None:
        raise BruteEvalFailure(f"no class {name}")
    return cls


_FEATURES = {
    ClassDef: {
        "name": lambda e, m: e.name,
        "superclasses": lambda e, m: tuple(_class_by_name(m, n) for n in e.superclasses),
        "attributes": lambda e, m: tuple(e.attributes),
        "operations": lambda e, m: tuple(e.operations),
        "stereotypes": lambda e, m: tuple(sorted(e.stereotypes)),
    },
    Statechart: {
        "name": lambda e, m: e.name,
        "states": lambda e, m: tuple(s.name for s in e.states),
        "transitions": lambda e, m: tuple(e.transitions),
        "attachedTo": lambda e, m: _class_by_name(m, e.attached_to),
    },
    Transition: {
        "source": lambda e, m: e.source,
        "target": lambda e, m: e.target,
        "event": lambda e, m: e.event,
    },
    Attribute: {"name": lambda e, m: e.name},
    Operation: {"name": lambda e, m: e.name},
}


def brute_eval(e: Expr, bindings: dict[str, object], model: Model | None = None):
    """Evaluate an expression the slow, obvious way.

    Same semantics as the production evaluator is supposed to have:
    strict types, ``and``/``or`` stop on a deciding left operand, both
    quantifiers visit every element of their domain, and ``exactlyOne``
    evaluates every argument.
    """

    def ev(node: Expr, env: dict[str, object]) -> object:
        match node:
            case Literal(value=v):
                return v
            case VarRef(name=n):
                if n not in env:
                    raise BruteEvalFailure(f"unbound {n}")
                return env[n]
            case Nav(target=t, feature=f):
                subject = ev(t, env)
                table = _FEATURES.get(type(subject))
                if table is None or f not in table:
                    raise BruteEvalFailure(f"no feature {f} on {_kind(subject)}")
                return table[f](subject, model)
            case Call(fn="size", args=(arg,)):
                return len(_as_seq(ev(arg, env)))
            case Call(fn="isEmpty", args=(arg,)):
                return len(_as_seq(ev(arg, env))) == 0
            case Call(fn="hasStereotype", args=(subject_e, name_e)):
                subject = ev(subject_e, env)
                if not isinstance(subject, _ELEMENTS):
                    raise BruteEvalFailure("hasStereotype on a non-element")
                name = ev(name_e, env)
                if not isinstance(name, str):
                    raise BruteEvalFailure("hasStereotype name is not a string")
                carried = subject.stereotypes if isinstance(subject, ClassDef) else frozenset()
                return name in carried
            case Call(fn="exactlyOne", args=args) if args:
                values = [_as_bool(ev(arg, env)) for arg in args]
                return values.count(True) == 1
            case Call():
                raise BruteEvalFailure(f"unknown call {node.fn}/{len(node.args)}")
            case Forall(var=v, domain=d, body=b):
                outcome = True
                for item in _as_seq(ev(d, env)):
                    outcome = _as_bool(ev(b, {**env, v: item})) and outcome
                return outcome
            case Exists(var=v, domain=d, body=b):
                outcome = False
                for item in _as_seq(ev(d, env)):
                    outcome = _as_bool(ev(b, {**env, v: item})) or outcome
                return outcome
            case And(lhs=l, rhs=r):
                return _as_bool(ev(l, env)) and _as_bool(ev(r, env))
            case Or(lhs=l, rhs=r):
                return _as_bool(ev(l, env)) or _as_bool(ev(r, env))
            case Not(operand=o):
                return not _as_bool(ev(o, env))
            case Implies(lhs=l, rhs=r):
                a = _as_bool(ev(l, env))
                b = _as_bool(ev(r, env))
                return (not a) or b
            case Compare(op=op, lhs=l, rhs=r):
                a, b = ev(l, env), ev(r, env)
                if _kind(a) != _kind(b):
                    raise BruteEvalFailure(f"comparing {_kind(a)} with {_kind(b)}")
                if op == "=":
                    return a == b
                if op == "<>":
                    return a != b
                if _kind(a) not in ("int", "str"):
                    raise BruteEvalFailure(f"no order on {_kind(a)}")
                return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
            case Add(lhs=l, rhs=r):
                return _as_int(ev(l, env)) + _as_int(ev(r, env))
            case Sub(lhs=l, rhs=r):
                return _as_int(ev(l, env)) - _as_int(ev(r, env))
        raise BruteEvalFailure(f"unknown node {node!r}")

    return ev(e, dict(bindings))


def boolean_assignments_satisfying(e: Expr, names: list[str]) -> list[dict[str, bool]]:
    """All assignments of booleans to ``names`` under which ``e`` is true."""

    satisfying = []
    for values in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, values))
        if brute_eval(e, env) is True:
            satisfying.append(env)
    return satisfying


# ---------------------------------------------------------------------------
# Inheritance cycles, one class at a time
# ---------------------------------------------------------------------------


def _first_class_named(model: Model, name: str) -> ClassDef | None:
    for cls in model.classes:
        if cls.name == name:
            return cls
    return None


def inherits_from_itself_reference(model: Model, cls: ClassDef) -> bool:
    """Whether walking up from ``cls``'s own superclasses reaches its name.

    The per-class ancestry walk ``builtin_check`` used before it found
    cycles in one pass, kept as written except that each name is looked up
    by a linear scan: a name stands for the first class declared with it,
    and unknown names end the walk.  Cubic on a chain, so only for small
    models.
    """

    seen: set[str] = set()
    work = list(cls.superclasses)
    while work:
        name = work.pop()
        if name == cls.name:
            return True
        if name in seen:
            continue
        seen.add(name)
        parent = _first_class_named(model, name)
        if parent is not None:
            work.extend(parent.superclasses)
    return False


# ---------------------------------------------------------------------------
# Exhaustive element paths
# ---------------------------------------------------------------------------


def all_element_paths(model: Model) -> dict[str, object]:
    """Every addressable element of a model, path -> element, enumerated
    without any lookup machinery.  Mirrors the intended shadowing: the
    first declaration of a name wins, a class hides a same-named chart,
    an attribute a same-named operation."""

    table: dict[str, object] = {}
    for chart in model.statecharts:
        if chart.name in table:
            continue  # members of a shadowed duplicate are unreachable
        table[chart.name] = chart
        for index, t in enumerate(chart.transitions):
            table[f"{chart.name}/{index}"] = t
        for state in chart.states:
            table.setdefault(f"{chart.name}/{state.name}", state)
    seen_classes: set[str] = set()
    for cls in model.classes:
        if cls.name in seen_classes:
            continue
        seen_classes.add(cls.name)
        table[cls.name] = cls
        for op in reversed(cls.operations):
            table[f"{cls.name}.{op.name}"] = op
        for attr in reversed(cls.attributes):
            table[f"{cls.name}.{attr.name}"] = attr
    return table


# ---------------------------------------------------------------------------
# Transform conservativity
# ---------------------------------------------------------------------------


def authored_view(model: Model) -> Model:
    """The model with everything induced stripped away."""

    classes = []
    for cls in model.classes:
        classes.append(replace(
            cls,
            attributes=tuple(a for a in cls.attributes if a.origin.kind == "authored"),
            operations=tuple(
                replace(o, pre_induced=None)
                for o in cls.operations if o.origin.kind == "authored"),
            invariants=tuple(i for i in cls.invariants if i.origin.kind == "authored"),
        ))
    return replace(model, classes=tuple(classes))


# ---------------------------------------------------------------------------
# Expression printing, recursively
# ---------------------------------------------------------------------------

_IMPLIES, _OR, _AND, _NOT, _CMP, _ADD, _POSTFIX = range(1, 8)


def _fmt(e: Expr, floor: int) -> str:
    if isinstance(e, Literal):
        return render_literal(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Nav):
        return f"{_fmt(e.target, _POSTFIX)}.{e.feature}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt(a, _IMPLIES) for a in e.args)})"
    if isinstance(e, Forall):
        return f"forall({e.var} in {_fmt(e.domain, _IMPLIES)} | {_fmt(e.body, _IMPLIES)})"
    if isinstance(e, Exists):
        return f"exists({e.var} in {_fmt(e.domain, _IMPLIES)} | {_fmt(e.body, _IMPLIES)})"

    if isinstance(e, Implies):
        text, level = f"{_fmt(e.lhs, _OR)} implies {_fmt(e.rhs, _IMPLIES)}", _IMPLIES
    elif isinstance(e, Or):
        # Conjunctive operands are parenthesized even though precedence
        # does not demand it; disjunctions of conjunctions read better as
        # (a and not b) or (not a and b).
        lhs = _fmt(e.lhs, _NOT if isinstance(e.lhs, And) else _OR)
        rhs = _fmt(e.rhs, _NOT if isinstance(e.rhs, And) else _AND)
        text, level = f"{lhs} or {rhs}", _OR
    elif isinstance(e, And):
        text, level = f"{_fmt(e.lhs, _AND)} and {_fmt(e.rhs, _NOT)}", _AND
    elif isinstance(e, Not):
        text, level = f"not {_fmt(e.operand, _NOT)}", _NOT
    elif isinstance(e, Compare):
        text, level = f"{_fmt(e.lhs, _ADD)} {e.op} {_fmt(e.rhs, _ADD)}", _CMP
    elif isinstance(e, Add):
        text, level = f"{_fmt(e.lhs, _ADD)} + {_fmt(e.rhs, _POSTFIX)}", _ADD
    elif isinstance(e, Sub):
        text, level = f"{_fmt(e.lhs, _ADD)} - {_fmt(e.rhs, _POSTFIX)}", _ADD
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if level < floor else text


def format_expr_reference(e: Expr) -> str:
    """The recursive printer ``textio.format_expr`` replaced, kept as
    written: one call per node, each level building its own string.
    Recurses as deep as the tree, so only for trees a few hundred deep."""

    return _fmt(e, _IMPLIES)


def free_vars_reference(e: Expr) -> frozenset[str]:
    """The recursive ``expr.free_vars`` that an explicit-stack walk
    replaced, kept as written.  Recurses once per node of a chain, so only
    for trees a few hundred deep."""

    if isinstance(e, Literal):
        return frozenset()
    if isinstance(e, VarRef):
        return frozenset((e.name,))
    if isinstance(e, Nav):
        return free_vars_reference(e.target)
    if isinstance(e, Call):
        out: frozenset[str] = frozenset()
        for a in e.args:
            out |= free_vars_reference(a)
        return out
    if isinstance(e, (Forall, Exists)):
        return free_vars_reference(e.domain) | (free_vars_reference(e.body) - {e.var})
    if isinstance(e, Not):
        return free_vars_reference(e.operand)
    if isinstance(e, (And, Or, Implies, Compare, Add, Sub)):
        return free_vars_reference(e.lhs) | free_vars_reference(e.rhs)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Statechart induction and monitors, as first written
# ---------------------------------------------------------------------------


def conjoin(parts: list[Expr]) -> Expr:
    """Left-associated conjunction of one or more expressions."""

    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def exactly_one_reference(names: tuple[str, ...]) -> Expr:
    """Exactly one of ``names`` is true, as a disjunction of full
    conjunctions in declaration order, with fresh nodes for every literal
    of every conjunction."""

    terms: list[Expr] = []
    for index, _ in enumerate(names):
        literals: list[Expr] = [
            VarRef(n) if j == index else Not(VarRef(n))
            for j, n in enumerate(names)
        ]
        terms.append(conjoin(literals))
    return disjoin(terms)


def call_sequences_reference(chart: Statechart, max_len: int = 3) -> list[tuple[str, ...]]:
    """Event sequences of every path from the initial state that reuses no
    transition, up to ``max_len`` calls, in transition declaration order;
    every step scans all transitions of the chart."""

    initials = chart.initial_states()
    if not initials:
        return []
    sequences: list[tuple[str, ...]] = []

    def walk(state: str, used: frozenset[int], events: tuple[str, ...]) -> None:
        for index, t in enumerate(chart.transitions):
            if t.source != state or index in used:
                continue
            seq = events + (t.event,)
            sequences.append(seq)
            if len(seq) < max_len:
                walk(t.target, used | {index}, seq)

    walk(initials[0].name, frozenset(), ())
    return list(dict.fromkeys(sequences))


# ---------------------------------------------------------------------------
# Lexing, one character at a time
# ---------------------------------------------------------------------------

# The character loop the master-pattern lexer of ``textio`` replaced, kept
# as it was.  It differs from ``textio`` in one documented way: it reads any
# Unicode letter or digit as part of an identifier (``str.isalpha`` and
# ``str.isalnum``), where ``textio`` reads ASCII identifiers only.

_TWO_CHAR_SYMS = ("->", "<<", ">>", "<>", "<=", ">=")
_ONE_CHAR_SYMS = "{}()[]:,=.<>+-|"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "string" | "sym" | "eof"
    text: str
    loc: SourceLocation


def lex_reference(source: str, file: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)

    def here() -> SourceLocation:
        return SourceLocation(file, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start, loc = i, here()
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            col += i - start
            toks.append(Token("ident", source[start:i], loc))
            continue
        if "0" <= ch <= "9":
            start, loc = i, here()
            while i < n and "0" <= source[i] <= "9":
                i += 1
            col += i - start
            toks.append(Token("int", source[start:i], loc))
            continue
        if ch == '"':
            loc = here()
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                raise ParseError("unterminated string", loc)
            toks.append(Token("string", source[i + 1:j], loc))
            col += j + 1 - i
            i = j + 1
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_SYMS:
            toks.append(Token("sym", two, here()))
            i, col = i + 2, col + 2
            continue
        if ch in _ONE_CHAR_SYMS:
            toks.append(Token("sym", ch, here()))
            i, col = i + 1, col + 1
            continue
        raise ParseError(f"unexpected character {ch!r}", here())

    toks.append(Token("eof", "", SourceLocation(file, line, col)))
    return toks
