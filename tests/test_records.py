"""Every record class behaves like the ``dataclasses`` class it describes.

For each record class of a ``prefacer`` module, a twin is built with the
real ``dataclasses.dataclass`` from the same annotations and ``field``
specs, frozen and slotted as the record is.  Generated models, packages,
compositions, transform results and expression trees, plus hand-picked edge
cases, are converted into twins, and both sides must agree on ``repr``,
``==``/``!=``, hashing, ``dataclasses.replace``, ``fields``,
``__match_args__``, the ``__init__`` signature and ``FrozenInstanceError``.
"""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import itertools
import json
import pickle
import pkgutil
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields, is_dataclass, replace

from pathlib import Path

import pytest

import prefacer
from generators import random_expr, random_model, random_package, random_repo, scoped_expr
from prefacer import expr as E
from prefacer.cli import RunConfig
from prefacer.constraints import Env
from prefacer.diagnostics import Diagnostic, SourceLocation
from prefacer.model import ClassDef, Model, Operation, builtin_check
from prefacer.preface import (
    OPTION_CATALOGUE,
    STATECHART_TO_CLASS,
    ConstraintDef,
    IsMetaclass,
    Package,
    PredicatedRuleDef,
    TransformSelection,
    compose,
)
from prefacer.skeletongen import generate_monitor, generate_skeleton
from prefacer.textio import format_expr, parse_expr, parse_model, print_model
from prefacer.transformer import TransformReport, apply_transforms

#: The records that may be changed after construction; every other record
#: is frozen.
MUTABLE = {"Env", "RunConfig", "TransformReport"}

SRC = Path(prefacer.__file__).resolve().parent.parent


def _record_classes() -> list[type]:
    out = []
    for info in pkgutil.iter_modules(prefacer.__path__):
        module = importlib.import_module(f"prefacer.{info.name}")
        out.extend(value for value in vars(module).values()
                   if isinstance(value, type) and is_dataclass(value)
                   and value.__module__ == module.__name__)
    return out


RECORDS = _record_classes()


def _twin_class(cls: type) -> type:
    namespace = {"__annotations__": dict(cls.__annotations__),
                 "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    for f in fields(cls):
        namespace[f.name] = field(
            default=f.default, default_factory=f.default_factory, init=f.init,
            repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata,
            kw_only=f.kw_only)
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclass(frozen=cls.__name__ not in MUTABLE, slots="__slots__" in vars(cls))(
        type(cls.__name__, (), namespace))


TWINS = {cls: _twin_class(cls) for cls in RECORDS}


_TWIN_OF: dict[int, tuple[object, object]] = {}


def twin(value):
    """``value`` with every record in it, at any depth, replaced by its twin."""

    cls = type(value)
    if cls in TWINS:
        if id(value) not in _TWIN_OF:  # the record is kept alive with its twin
            _TWIN_OF[id(value)] = value, TWINS[cls](
                **{f.name: twin(getattr(value, f.name)) for f in fields(cls) if f.init})
        return _TWIN_OF[id(value)][1]
    if cls is frozenset:
        # Stereotype names, never records; a rebuilt frozenset may iterate,
        # and so print, in another order.
        return value
    if cls in (tuple, list):
        return cls(twin(item) for item in value)
    if cls is dict:
        return {key: twin(item) for key, item in value.items()}
    return value


def records_in(value, out: list) -> list:
    """Every record reachable from ``value``, in pre-order, repeats included."""

    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) in TWINS:
            out.append(value)
            stack.extend(reversed([getattr(value, f.name) for f in fields(value)]))
        elif isinstance(value, (tuple, list, frozenset)):
            stack.extend(reversed(list(value)))
        elif isinstance(value, dict):
            stack.extend(reversed(list(value.values())))
    return out


def corpus(seed: int) -> list:
    """Root objects built from one seed; the same seed builds equal but
    separate objects, in the same order."""

    rng = random.Random(seed)
    roots: list = [SourceLocation("f", 1, 2), Diagnostic("error", "E001", "C", "m"),
                   RunConfig("validate", "defs", "root", model_path="m.model"),
                   dict(OPTION_CATALOGUE)]
    for _ in range(4):
        repo, root = random_repo(rng)
        repo["t"] = Package("t", (root,), (TransformSelection(STATECHART_TO_CLASS, True),))
        eff = compose(repo, "t")
        model = random_model(rng)
        transformed, report = apply_transforms(model, eff)
        reread = parse_model(print_model(transformed))
        roots += [repo, eff, model, transformed, report, reread, builtin_check(reread),
                  Env({"self": model.classes[0], "n": 3}, model)]
        plain = random_model(rng, charts=False)
        roots += [generate_skeleton(plain, eff), generate_monitor(plain, eff)]
        for _ in range(8):
            tree = random_expr(rng, 4)
            roots += [tree, parse_expr(format_expr(tree))]
        roots += [random_package(rng), random_package(rng),
                  ConstraintDef("c", "Class", "error", scoped_expr(rng, "Class"))]
    roots += [ClassDef("T", tagged_values=(("owner", "me"), ("weight", 3))),
              PredicatedRuleDef("visibility", IsMetaclass("Class"), "public")]
    return roots


FIRST, SECOND = records_in(corpus(7), []), records_in(corpus(7), [])
OTHER = records_in(corpus(8), [])
EDGES = [E.Literal(True), E.Literal(1), E.Literal(1, SourceLocation("f", 9, 9)),
         E.Literal(0), E.Literal(False), E.Literal("1"),
         E.And(E.VarRef("x"), E.VarRef("y")), E.Or(E.VarRef("x"), E.VarRef("y")),
         E.Call("size", [E.VarRef("x")]), E.Call("size", (E.VarRef("x"),)),
         Operation("go"), Operation("go", pre_authored=E.Literal(True)),
         Operation("go", pre_authored=E.Literal(1))]


def _by_class(records: list) -> dict[type, list]:
    out: dict[type, list] = {}
    for r in records:
        out.setdefault(type(r), []).append(r)
    return out


def _hash_or_error(value):
    try:
        return ("hash", hash(value))
    except TypeError as error:
        return ("unhashable", str(error))


def test_every_record_class_is_built_by_the_corpus():
    assert len(FIRST) == len(SECOND) > 1000
    assert set(TWINS) - {type(r) for r in FIRST} == set()


def test_every_frozen_record_hashes():
    # ``EffectiveDefinitions`` keeps its ``chains`` table in a dict, so it
    # does not hash; nor does its twin.
    frozen = [r for r in FIRST + OTHER + EDGES if type(r).__name__ not in MUTABLE]
    assert {type(r) for r in frozen} == {cls for cls in RECORDS if cls.__name__ not in MUTABLE}
    for record in frozen:
        if type(record).__name__ == "EffectiveDefinitions":
            assert _hash_or_error(record) == ("unhashable", "unhashable type: 'dict'")
        else:
            assert hash(record) == hash(copy.copy(record)), record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_class_surface_agrees(cls):
    ref = TWINS[cls]
    flags = lambda c: [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
                        f.hash, f.compare, f.kw_only) for f in fields(c)]
    assert flags(cls) == flags(ref)
    assert cls.__match_args__ == ref.__match_args__
    assert str(inspect.signature(cls)) == str(inspect.signature(ref))
    assert getattr(cls, "__slots__", None) == getattr(ref, "__slots__", None)
    assert (cls.__hash__ is None) == (ref.__hash__ is None) == (cls.__name__ in MUTABLE)


def test_repr_agrees():
    for record in FIRST + EDGES:
        assert repr(record) == repr(twin(record))


def test_equality_and_hashing_agree():
    pairs = list(zip(FIRST, SECOND))
    for group in _by_class(FIRST + OTHER + EDGES).values():
        pairs += itertools.combinations(group[:25], 2)
    pairs += itertools.combinations(EDGES, 2)
    pairs += [(a, b) for a in EDGES for b in (None, 1, (), "x")]
    equal = 0
    for a, b in pairs:
        ta, tb = twin(a), twin(b)
        assert (a == b, b == a, a != b) == (ta == tb, tb == ta, ta != tb), (a, b)
        assert a == a and not a != a
        hashed, reference = _hash_or_error(a), _hash_or_error(ta)
        assert hashed[0] == reference[0] and (hashed[0] == "hash" or hashed == reference)
        if a == b:
            equal += 1
            assert hashed == _hash_or_error(b)
    assert len(FIRST) <= equal < len(pairs)
    assert E.Literal(True) == E.Literal(1) and E.Literal(True) != E.Literal("1")
    assert E.And(E.VarRef("x"), E.VarRef("y")) != E.Or(E.VarRef("x"), E.VarRef("y"))
    assert E.Literal(1).__eq__(E.VarRef("x")) is NotImplemented
    assert E.Literal(1).__eq__(1) is NotImplemented


def test_replace_agrees():
    others = _by_class(OTHER + EDGES)
    for record in FIRST[::5] + EDGES:
        init = [f for f in fields(record) if f.init]
        for f, other in itertools.product(init, others[type(record)][:3]):
            value = getattr(other, f.name)
            changed = replace(record, **{f.name: value})
            ref = replace(twin(record), **{f.name: twin(value)})
            assert type(changed) is type(record) and type(ref) is TWINS[type(record)]
            assert repr(changed) == repr(ref)
            assert (changed == record, changed == other) == (ref == twin(record), ref == twin(other))
        assert replace(record) == record and replace(record) is not record


def test_assignment_agrees():
    for group in _by_class(FIRST).values():
        record = replace(group[0])
        ref = replace(twin(group[0]))
        for name in [f.name for f in fields(record)]:
            outcomes = []
            for value in (record, ref):
                for action in (lambda: setattr(value, name, getattr(value, name, None)),
                               lambda: delattr(value, name)):
                    try:
                        action()
                        outcomes.append("done")
                    except FrozenInstanceError as error:
                        outcomes.append(f"frozen: {error}")
                    except AttributeError:
                        outcomes.append("attribute error")
            assert outcomes[:2] == outcomes[2:], (type(record), name)
            if type(record).__name__ not in MUTABLE:
                assert outcomes[0].startswith("frozen")


def test_copy_and_pickle_keep_the_record():
    for group in _by_class(FIRST).values():
        record = group[-1]
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record


def test_every_record_is_slotted_and_a_model_keeps_its_name_index():
    assert [cls for cls in RECORDS if "__slots__" not in vars(cls)] == []
    assert [r for r in FIRST + OTHER + EDGES if hasattr(r, "__dict__")] == []
    model = parse_model("model m\n  class A {\n  }\n  class B {\n  }\n"
                        "  class A specializes B {\n  }\n"
                        "  statechart S for A {\n    initial state s\n  }\n"
                        "  statechart S for B {\n    initial state t\n  }\n")
    first_a, first_s = model.classes[0], model.statecharts[0]
    for clone in (model, replace(model), copy.copy(model), copy.deepcopy(model),
                  pickle.loads(pickle.dumps(model))):
        assert clone == model
        assert clone.class_named("A") == first_a != model.classes[2]
        assert clone.class_named("A") is clone.classes[0]
        assert clone.class_named("B") is clone.classes[1]
        assert clone.chart_named("S") == first_s and clone.chart_named("S") is clone.statecharts[0]
        assert clone.class_named("C") is clone.chart_named("T") is None
    narrowed = replace(model, classes=model.classes[1:], statecharts=model.statecharts[1:])
    assert narrowed.class_named("A") is model.classes[2]
    assert narrowed.chart_named("S") is model.statecharts[1]


def test_mutable_records_stay_mutable_and_unhashable():
    report = TransformReport()
    report.induced_attributes.append(("C", "s1"))
    assert TransformReport() != report and report == TransformReport([("C", "s1")])
    assert TransformReport().induced_attributes is not TransformReport().induced_attributes
    env = Env()
    env.model = Model("m")
    assert env == Env({}, Model("m"))
    for value in (report, env, RunConfig("compose", "d", "r")):
        with pytest.raises(TypeError):
            hash(value)


# ---------------------------------------------------------------------------
# Structural equality at any depth
# ---------------------------------------------------------------------------


def _not_nest(depth: int, leaf: str) -> E.Expr:
    out: E.Expr = E.VarRef(leaf)
    for _ in range(depth):
        out = E.Not(out)
    return out


def test_deep_trees_compare_and_hash_without_recursion():
    chain = " and ".join(["true"] * 1200)
    pairs = [(parse_expr(chain), parse_expr(chain), parse_expr(chain + " and false")),
             (_not_nest(5000, "x"), _not_nest(5000, "x"), _not_nest(5000, "y"))]
    for a, b, different in pairs:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != different and not a == different
        op_a, op_b = Operation("go", pre_authored=a), Operation("go", pre_authored=b)
        assert op_a == op_b and (op_a,) == (op_b,) and hash(op_a) == hash(op_b)


# ---------------------------------------------------------------------------
# Start-up: the import generates no method but one ``__init__`` per record
# ---------------------------------------------------------------------------

_IMPORT_AUDIT = """\
import dataclasses, importlib, json, re, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
sources = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>"
                 and sources.append(args[0]))
import prefacer, prefacer.cli
imported = list(sources)
@dataclasses.dataclass(init=False, repr=False, eq=False)
class Probe:
    "A registration with nothing to generate."
    x: int
records = [(cls.__qualname__, cls.__doc__) for name, module in sorted(sys.modules.items())
           if name.startswith("prefacer") for cls in vars(module).values()
           if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")
           and cls.__module__ == name]
methods = [name for text in imported if isinstance(text, (str, bytes))
           for name in re.findall(r"^[ \\t]+def (\\w+)", text if isinstance(text, str)
                                  else text.decode(), re.M)]
print(json.dumps({"compiles": len(imported), "registration": len(sources) - len(imported),
                  "records": records, "methods": methods}))
"""


def _standard_imports() -> list[str]:
    """The modules outside the package that its modules import."""

    names = set()
    for path in (SRC / "prefacer").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return sorted(names)


def test_importing_the_package_generates_one_init_per_record():
    # The standard library is imported first: some of its modules compile
    # code (``namedtuple``) on import, and that is not the package's cost.
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_AUDIT, str(SRC), *_standard_imports()],
        capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(done.stdout)
    records = dict(seen["records"])
    assert len(records) == len(seen["records"]) == len(RECORDS)
    # Each generated method is nested in the factory ``exec`` defines.
    assert set(seen["methods"]) <= {"__init__"}
    assert len(seen["methods"]) <= len(records)
    # ``dataclasses`` itself compiles an empty factory per registration on
    # some releases; nothing else may be compiled.
    assert seen["compiles"] <= len(records) * (1 + seen["registration"])
    undocumented = [name for name, doc in records.items()
                    if not doc or doc.startswith(name + "(")]
    assert undocumented == []
