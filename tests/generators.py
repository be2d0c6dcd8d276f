"""Seeded random input generators.

Every generator takes a ``random.Random`` so a failing case can be
replayed from its seed.  Models come out structurally valid (no duplicate
names, known superclasses, exactly one initial state) and free of
accidental name clashes between states and class members: the pools are
disjoint.  Tests that need broken or clashing inputs build them by hand.
"""

from __future__ import annotations

import random

from prefacer import expr as E
from prefacer.model import (
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Param,
    State,
    Statechart,
    Transition,
)
from prefacer.preface import (
    OPTION_CATALOGUE,
    ConstDef,
    ConstraintDef,
    HasStereotype,
    IsMetaclass,
    MatchAll,
    OptionDef,
    Package,
    PredicatedRuleDef,
    StereotypeDef,
    TagDef,
    TransformSelection,
)

TYPES = ("Boolean", "Integer", "String")
STEREOTYPE_POOL = ("event", "entity", "boundary", "control")
WORDS = ("alpha", "beta", "gamma", "delta", "omega")


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def random_model(
    rng: random.Random,
    max_classes: int = 5,
    max_states: int = 6,
    charts: bool = True,
) -> Model:
    class_names = [f"C{i}" for i in range(rng.randint(1, max_classes))]
    classes = []
    for i, name in enumerate(class_names):
        supers: tuple[str, ...] = ()
        if i and rng.random() < 0.4:
            supers = tuple(rng.sample(class_names[:i], rng.randint(1, min(2, i))))
        stereotypes = frozenset(
            rng.sample(STEREOTYPE_POOL, rng.randint(1, 2))
        ) if rng.random() < 0.4 else frozenset()

        attrs = tuple(
            Attribute(f"a{j}", rng.choice(TYPES))
            for j in range(rng.randint(0, 3)))
        bool_attrs = [a.name for a in attrs if a.type_name == "Boolean"]

        ops = []
        for j in range(rng.randint(0, 3)):
            params = tuple(
                Param(f"p{k}", rng.choice(TYPES)) for k in range(rng.randint(0, 2)))
            pre = E.VarRef(rng.choice(bool_attrs)) \
                if bool_attrs and rng.random() < 0.2 else None
            post = E.Literal(True) if rng.random() < 0.1 else None
            ops.append(Operation(f"m{j}", params, pre, post))

        invariants = ()
        if bool_attrs and rng.random() < 0.2:
            invariants = (Invariant(E.VarRef(rng.choice(bool_attrs))),)

        classes.append(ClassDef(
            name, supers, stereotypes, (), attrs, tuple(ops), invariants))

    statecharts = []
    if charts:
        for i in range(rng.randint(0, 2)):
            owner = rng.choice(classes)
            state_names = [f"s{j}" for j in range(rng.randint(1, max_states))]
            states = tuple(
                State(n, initial=(j == 0)) for j, n in enumerate(state_names))
            transitions = []
            op_names = [op.name for op in owner.operations]
            flag_names = [a.name for a in owner.attributes if a.type_name == "Boolean"]
            for _ in range(rng.randint(0, 2 * len(state_names))):
                event = rng.choice(op_names) if op_names and rng.random() < 0.6 \
                    else f"e{rng.randint(0, 3)}"
                guard = E.VarRef(rng.choice(flag_names)) \
                    if flag_names and rng.random() < 0.2 else None
                transitions.append(Transition(
                    rng.choice(state_names), rng.choice(state_names), event, guard))
            statecharts.append(Statechart(
                f"SC{i}", owner.name, states, tuple(transitions)))

    return Model("m", tuple(classes), tuple(statecharts))


# ---------------------------------------------------------------------------
# Package repositories
# ---------------------------------------------------------------------------

_CONST_KEYS = ("max", "depth", "label", "flag")
_RULE_KEYS = ("persistence", "visibility")
_RULE_VALUES = ("persistent", "transient", "public", "hidden")
_CONSTRAINT_NAMES = ("named", "small", "flat")
_TAG_NAMES = ("owner", "weight", "pinned")
_TRANSFORM_IDS = ("statechart-to-class", "flatten-inheritance")
_METACLASSES = ("Class", "Attribute", "Operation", "Statechart", "Transition")


def _random_literal(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return rng.randint(-20, 20)
    if roll < 0.8:
        return rng.choice(WORDS)
    return rng.random() < 0.5


def _random_definition(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return ConstDef(rng.choice(_CONST_KEYS), _random_literal(rng))
    if kind == 1:
        key = rng.choice(list(OPTION_CATALOGUE))
        return OptionDef(key, rng.choice(OPTION_CATALOGUE[key].domain))
    if kind == 2:
        required = tuple(rng.sample(_TAG_NAMES, rng.randint(1, 2))) \
            if rng.random() < 0.3 else ()
        return StereotypeDef(
            rng.choice(STEREOTYPE_POOL), rng.choice(_METACLASSES), required)
    if kind == 3:
        return TagDef(rng.choice(_TAG_NAMES), rng.choice(("string", "int", "bool")))
    if kind == 4:
        body = E.Literal(True) if rng.random() < 0.5 else \
            E.Compare("<>", E.Nav(E.VarRef("self"), "name"), E.Literal(""))
        return ConstraintDef(
            rng.choice(_CONSTRAINT_NAMES), rng.choice(_METACLASSES),
            rng.choice(("error", "warning")), body)
    if kind == 5:
        roll = rng.random()
        if roll < 0.4:
            predicate = MatchAll()
        elif roll < 0.8:
            predicate = HasStereotype(rng.choice(STEREOTYPE_POOL))
        else:
            predicate = IsMetaclass(rng.choice(_METACLASSES))
        return PredicatedRuleDef(
            rng.choice(_RULE_KEYS), predicate, rng.choice(_RULE_VALUES))
    return TransformSelection(rng.choice(_TRANSFORM_IDS), rng.random() < 0.5)


def random_repo(
    rng: random.Random,
    max_packages: int = 6,
    max_defs: int = 10,
) -> tuple[dict[str, Package], str]:
    """An acyclic repository plus a root id.  Imports only ever point at
    earlier-created packages, so flattening always succeeds."""

    count = rng.randint(1, max_packages)
    ids = [f"p{i}" for i in range(count)]
    repo: dict[str, Package] = {}
    for i, pkg_id in enumerate(ids):
        candidates = ids[:i]
        imports = [c for c in candidates if rng.random() < 0.5][:3]
        rng.shuffle(imports)
        definitions = []
        named: set[tuple[type, str]] = set()
        for _ in range(rng.randint(0, max_defs)):
            d = _random_definition(rng)
            if isinstance(d, (StereotypeDef, TagDef)):
                # One declaration per name and package, like sane input.
                key = (type(d), d.name)
                if key in named:
                    continue
                named.add(key)
            definitions.append(d)
        repo[pkg_id] = Package(pkg_id, tuple(imports), tuple(definitions))
    return repo, ids[-1]


def inject_cycle(repo: dict[str, Package], rng: random.Random) -> dict[str, Package]:
    """A copy of ``repo`` with one import edge added to close a cycle."""

    from dataclasses import replace

    out = dict(repo)
    importers = [p for p in out.values() if p.imports]
    if importers:
        pkg = rng.choice(importers)
        back_id = rng.choice(pkg.imports)
        back = out[back_id]
        out[back_id] = replace(back, imports=back.imports + (pkg.id,))
    else:
        ids = sorted(out)
        if len(ids) == 1:
            only = out[ids[0]]
            out[ids[0]] = replace(only, imports=(only.id,))
        else:
            a, b = out[ids[0]], out[ids[1]]
            out[ids[0]] = replace(a, imports=a.imports + (b.id,))
            out[ids[1]] = replace(b, imports=b.imports + (a.id,))
    return out


# ---------------------------------------------------------------------------
# Expressions for print/parse round-trips
# ---------------------------------------------------------------------------

_VAR_POOL = ("self", "x", "y", "count")
_FEATURE_POOL = ("name", "attributes", "operations", "states", "source")


def random_expr(rng: random.Random, depth: int = 3) -> E.Expr:
    """An arbitrary well-formed expression tree; not necessarily typable,
    but always printable and reparsable."""

    if depth == 0:
        roll = rng.random()
        if roll < 0.35:
            return E.VarRef(rng.choice(_VAR_POOL))
        if roll < 0.55:
            return E.Literal(rng.randint(0, 99))
        if roll < 0.75:
            return E.Literal(rng.choice(WORDS))
        return E.Literal(rng.random() < 0.5)

    sub = lambda: random_expr(rng, rng.randint(0, depth - 1))
    kind = rng.randrange(13)
    if kind == 0:
        return E.Nav(sub(), rng.choice(_FEATURE_POOL))
    if kind == 1:
        return E.Call(rng.choice(("size", "isEmpty")), (sub(),))
    if kind == 2:
        return E.Call("hasStereotype", (sub(), E.Literal(rng.choice(STEREOTYPE_POOL))))
    if kind == 3:
        node = E.Forall if rng.random() < 0.5 else E.Exists
        return node(rng.choice(("a", "b")), sub(), sub())
    if kind == 4:
        return E.And(sub(), sub())
    if kind == 5:
        return E.Or(sub(), sub())
    if kind == 6:
        return E.Not(sub())
    if kind == 7:
        return E.Implies(sub(), sub())
    if kind == 8:
        return E.Compare(rng.choice(E.COMPARE_OPS), sub(), sub())
    if kind == 9:
        return E.Add(sub(), sub())
    if kind == 10:
        return E.Sub(sub(), sub())
    if kind == 11:
        return E.Call("exactlyOne", tuple(sub() for _ in range(rng.randint(1, 4))))
    return random_expr(rng, 0)


def random_package(rng: random.Random) -> Package:
    """A standalone package for print/parse round-trips."""

    imports = tuple(f"dep{i}" for i in range(rng.randint(0, 3)))
    definitions = tuple(
        _random_definition(rng) for _ in range(rng.randint(0, 8)))
    return Package(f"pkg-{rng.randint(0, 99)}", imports, definitions)


# ---------------------------------------------------------------------------
# Typed expressions over a model element
# ---------------------------------------------------------------------------

_SEQ_FEATURES = {
    "Class": (
        ("attributes", "Attribute"),
        ("operations", "Operation"),
        ("superclasses", "Class"),
        ("stereotypes", "str"),
    ),
    "Statechart": (("states", "str"), ("transitions", "Transition")),
}

_STR_FEATURES = {
    "Class": ("name",),
    "Attribute": ("name",),
    "Operation": ("name",),
    "Statechart": ("name",),
    "Transition": ("source", "target", "event"),
}


def scoped_expr(rng: random.Random, metaclass: str, depth: int = 3) -> E.Expr:
    """A boolean expression over ``self`` of the given metaclass.

    Mostly well typed, with a pinch of deliberate nonsense (about one
    subterm in twelve) so evaluator error paths get exercised too.
    """

    def element_vars(env: dict[str, str], kinds: tuple[str, ...]) -> list[str]:
        return [v for v, k in env.items() if k in kinds]

    def gen_elem(env: dict[str, str], d: int) -> tuple[E.Expr, str] | None:
        names = element_vars(env, ("Class", "Attribute", "Operation",
                                   "Statechart", "Transition"))
        if not names:
            return None
        name = rng.choice(names)
        out: E.Expr = E.VarRef(name)
        kind = env[name]
        if kind == "Statechart" and d > 0 and rng.random() < 0.3:
            out, kind = E.Nav(out, "attachedTo"), "Class"
        return out, kind

    def gen_seq(env: dict[str, str], d: int) -> tuple[E.Expr, str] | None:
        picked = gen_elem(env, d)
        if picked is None:
            return None
        elem, kind = picked
        features = _SEQ_FEATURES.get(kind)
        if not features:
            return None
        feature, item_kind = rng.choice(features)
        return E.Nav(elem, feature), item_kind

    def gen_int(env: dict[str, str], d: int) -> E.Expr:
        if d > 0 and rng.random() < 0.5:
            seq = gen_seq(env, d - 1)
            if seq is not None and rng.random() < 0.6:
                return E.Call("size", (seq[0],))
            node = E.Add if rng.random() < 0.5 else E.Sub
            return node(gen_int(env, d - 1), gen_int(env, d - 1))
        return E.Literal(rng.randint(0, 12))

    def gen_str(env: dict[str, str], d: int) -> E.Expr:
        string_vars = element_vars(env, ("str",))
        if string_vars and rng.random() < 0.4:
            return E.VarRef(rng.choice(string_vars))
        picked = gen_elem(env, d)
        if picked is not None and rng.random() < 0.6:
            elem, kind = picked
            return E.Nav(elem, rng.choice(_STR_FEATURES[kind]))
        return E.Literal(rng.choice(WORDS + ("", "s0", "m0")))

    def gen_bool(env: dict[str, str], d: int) -> E.Expr:
        if d > 0 and rng.random() < 0.08:  # deliberate type noise
            return gen_int(env, d - 1) if rng.random() < 0.5 else gen_str(env, d - 1)
        if d == 0:
            if rng.random() < 0.5:
                return E.Literal(rng.random() < 0.5)
            return E.Compare(
                rng.choice(E.COMPARE_OPS), gen_int(env, 0), gen_int(env, 0))
        roll = rng.randrange(9)
        if roll == 0:
            return E.And(gen_bool(env, d - 1), gen_bool(env, d - 1))
        if roll == 1:
            return E.Or(gen_bool(env, d - 1), gen_bool(env, d - 1))
        if roll == 2:
            return E.Not(gen_bool(env, d - 1))
        if roll == 3:
            return E.Implies(gen_bool(env, d - 1), gen_bool(env, d - 1))
        if roll == 4:
            seq = gen_seq(env, d - 1)
            if seq is not None:
                return E.Call("isEmpty", (seq[0],))
        if roll == 5:
            picked = gen_elem(env, d - 1)
            if picked is not None:
                return E.Call("hasStereotype", (
                    picked[0], E.Literal(rng.choice(STEREOTYPE_POOL))))
        if roll == 6:
            seq = gen_seq(env, d - 1)
            if seq is not None:
                var = f"it{len(env)}"
                node = E.Forall if rng.random() < 0.5 else E.Exists
                body = gen_bool({**env, var: seq[1]}, d - 1)
                return node(var, seq[0], body)
        if roll == 7:
            return E.Call("exactlyOne", tuple(
                gen_bool(env, d - 1) for _ in range(rng.randint(1, 4))))
        if rng.random() < 0.5:
            return E.Compare(
                rng.choice(("=", "<>", "<", "<=")), gen_int(env, d - 1),
                gen_int(env, d - 1))
        return E.Compare(
            rng.choice(("=", "<>")), gen_str(env, d - 1), gen_str(env, d - 1))

    return gen_bool({"self": metaclass}, depth)
