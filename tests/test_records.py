"""Every record class behaves like the ``dataclasses`` class it describes.

For each record class of a ``prefacer`` module, a twin is built with the
real ``dataclasses.dataclass`` from the same annotations and ``field``
specs, frozen and slotted, as every record is.  Generated models, packages,
compositions, transform results and expression trees, plus hand-picked edge
cases, are converted into twins, and both sides must agree on ``repr``,
``==``/``!=``, hashing, ``dataclasses.replace``, ``fields``,
``__match_args__``, the ``__init__`` signature and ``FrozenInstanceError``.
``record.replace`` must agree with ``dataclasses.replace``, and a
declaration that ``dataclass`` refuses must fail the same way as a record.
A record stores what it is given: its ``__post_init__`` sets only
``init=False`` fields.
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
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass, replace

from pathlib import Path

import pytest

import prefacer
from generators import random_expr, random_model, random_package, random_repo, scoped_expr
from prefacer import expr as E
from prefacer import record as R
from prefacer.cli import RunConfig
from prefacer.diagnostics import Diagnostic, SourceLocation
from prefacer.model import ClassDef, Operation, builtin_check
from prefacer.preface import (
    OPTION_CATALOGUE,
    STATECHART_TO_CLASS,
    ConstraintDef,
    Package,
    Predicate,
    PredicatedRuleDef,
    TransformSelection,
    compose,
)
from prefacer.skeletongen import generate_monitor, generate_skeleton
from prefacer.textio import (
    format_expr,
    parse_expr,
    parse_model,
    parse_package,
    print_model,
    print_package,
)
from prefacer.transformer import apply_transforms

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
            default=f.default, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
            metadata=f.metadata, kw_only=f.kw_only)
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclass(frozen=True, slots="__slots__" in vars(cls))(
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
    roots: list = [SourceLocation("f", 1, 2), Diagnostic("E001", "C", "m"),
                   RunConfig("validate", "defs", "root", model_path="m.model"),
                   dict(OPTION_CATALOGUE)]
    for _ in range(4):
        repo, root = random_repo(rng)
        repo["t"] = Package("t", (root,), (TransformSelection(STATECHART_TO_CLASS, True),))
        eff = compose(repo, "t")
        model = random_model(rng)
        transformed, report = apply_transforms(model, eff)
        reread = parse_model(print_model(transformed))
        roots += [repo, eff, model, transformed, report, reread, builtin_check(reread)]
        plain = random_model(rng, charts=False)
        roots += [generate_skeleton(plain, eff), generate_monitor(plain, eff)]
        for _ in range(8):
            tree = random_expr(rng, 4)
            roots += [tree, parse_expr(format_expr(tree))]
        roots += [random_package(rng), parse_package(print_package(random_package(rng))),
                  ConstraintDef("c", "Class", "error", scoped_expr(rng, "Class"))]
    roots += [ClassDef("T", tagged_values=(("owner", "me"), ("weight", 3))),
              PredicatedRuleDef("visibility", Predicate("metaclass", "Class"), "public")]
    return roots


FIRST, SECOND = records_in(corpus(7), []), records_in(corpus(7), [])
OTHER = records_in(corpus(8), [])
EDGES = [E.Literal(True), E.Literal(1), E.Literal(1, SourceLocation("f", 9, 9)),
         E.Literal(0), E.Literal(False), E.Literal("1"),
         E.And(E.VarRef("x"), E.VarRef("y")), E.Or(E.VarRef("x"), E.VarRef("y")),
         E.Call("size", (E.VarRef("x"),)),
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
    for record in FIRST + OTHER + EDGES:
        assert hash(record) == hash(copy.copy(record)), record
    eff = next(r for r in FIRST if type(r).__name__ == "EffectiveDefinitions")
    key = next(iter(eff.chains))
    with pytest.raises(TypeError):
        eff.chains[key] = ()
    assert dict(eff.chains) == dict(eff.table) and eff.chains[key] == eff.table[0][1]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_class_surface_agrees(cls):
    ref = TWINS[cls]
    flags = lambda c: [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
                        f.hash, f.compare, f.kw_only) for f in fields(c)]
    assert flags(cls) == flags(ref)
    assert cls.__match_args__ == ref.__match_args__
    assert str(inspect.signature(cls)) == str(inspect.signature(ref))
    assert getattr(cls, "__slots__", None) == getattr(ref, "__slots__", None)
    assert cls.__hash__ is not None and ref.__hash__ is not None


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


def test_record_replace_agrees_with_dataclasses_replace():
    others = _by_class(OTHER + EDGES)
    for record in FIRST + OTHER + EDGES:
        init = [f.name for f in fields(record) if f.init]
        for name, other in itertools.product([None, *init], others[type(record)][:2]):
            changes = {} if name is None else {name: getattr(other, name)}
            ours, ref = R.replace(record, **changes), replace(record, **changes)
            assert type(ours) is type(ref) and ours == ref and ours is not record
            assert all(getattr(ours, f.name) is getattr(ref, f.name) for f in fields(ref)
                       if f.init), (record, name)
            assert all(getattr(ours, f.name) == getattr(ref, f.name) for f in fields(ref))


def test_record_replace_refuses_an_init_false_field_and_rebuilds_a_model_index():
    model = parse_model("model m\n  class A {\n  }\n  class B {\n  }\n")
    refused = ValueError if sys.version_info < (3, 13) else TypeError
    for changes in ({"_class_index": {}}, {"name": "n", "_chart_index": {}}):
        with pytest.raises(refused) as ours:
            R.replace(model, **changes)
        with pytest.raises(refused) as ref:
            replace(model, **changes)
        assert str(ours.value) == str(ref.value)
    assert "init=False, it cannot be specified with replace()" in str(ours.value)
    narrowed = R.replace(model, classes=model.classes[1:])
    assert narrowed.class_named("B") is model.classes[1] and narrowed.class_named("A") is None
    assert model.class_named("A") is model.classes[0]


#: Class bodies that ``dataclass`` refuses, and one it accepts: an
#: ``init=False`` field is no ``__init__`` parameter, so its default does
#: not count.  ``record.field`` takes no ``default_factory``, so the two
#: bodies that give one are refused by ``field`` itself.
DECLARATIONS = [
    "x: list = []",
    "x: dict = field(default={})",
    "x: set = set()",
    "x: int = field(default=1, default_factory=int)",
    "x: int = 0\n    y: str",
    "x: list = field(default_factory=list)\n    y: str = ''\n    z: str",
    "x: int = field(default=0, init=False)\n    y: str",
]


@pytest.mark.parametrize("body", DECLARATIONS)
def test_a_declaration_fails_as_dataclass_fails(body):
    outcomes = []
    for decorate, make_field in ((R.record, R.field), (dataclass(frozen=True, slots=True), field)):
        try:
            exec(f"@decorate\nclass Declared:\n    {body}\n",
                 {"decorate": decorate, "field": make_field})
            outcomes.append(None)
        except (TypeError, ValueError) as error:
            outcomes.append((type(error), str(error)))
    if "default_factory" in body:
        assert outcomes[1] is not None
        assert outcomes[0] == (
            TypeError, "Field.__init__() got an unexpected keyword argument 'default_factory'")
    else:
        assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == ("init=False" in body)


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


def _assigned_to_self(function: ast.FunctionDef) -> list[str]:
    """The attributes ``function`` sets on ``self``, by assignment or through
    ``object.__setattr__``/``setattr``; a name not written out reads ``?``."""

    out = []
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.attr for t in targets if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"]
        elif (isinstance(node, ast.Call) and ast.unparse(node.func)
              in ("object.__setattr__", "setattr") and len(node.args) > 1):
            name = node.args[1]
            out.append(name.value if isinstance(name, ast.Constant) else "?")
    return out


def test_post_init_only_derives_init_false_fields():
    # A record stores what its constructor is given: ``__post_init__`` may
    # set a field ``init=False`` keeps out of ``__init__``, and nothing else.
    derived = {}
    for path in sorted((SRC / "prefacer").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef) or "record" not in [
                    ast.unparse(d).split("(")[0] for d in cls.decorator_list]:
                continue
            init_false = {
                node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "field"
                and any(k.arg == "init" and ast.literal_eval(k.value) is False
                        for k in node.value.keywords)}
            for function in cls.body:
                if isinstance(function, ast.FunctionDef) and function.name == "__post_init__":
                    assigned = _assigned_to_self(function)
                    assert assigned and set(assigned) <= init_false, (path.name, cls.name, assigned)
                    derived[cls.name] = sorted(assigned)
    assert derived["Model"] == ["_chart_index", "_class_index"]
    assert derived["EffectiveDefinitions"] == ["chains"]


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
# Start-up: the import compiles one ``__init__`` per parameter shape and no
# other method, and loads no ``dataclasses``
# ---------------------------------------------------------------------------

_IMPORT_AUDIT = """\
import importlib, json, re, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[4:]:
    importlib.import_module(name)
sources = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>"
                 and sources.append(args[0]))
import prefacer, prefacer.cli
imported = list(sources)
records = [(cls.__qualname__, cls.__doc__) for name, module in sorted(sys.modules.items())
           if name.startswith("prefacer") for cls in vars(module).values()
           if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")
           and cls.__module__ == name]
methods = [re.findall(r"^[ \\t]*def (\\w+)", text if isinstance(text, str) else text.decode(),
                      re.M) if isinstance(text, (str, bytes)) else None for text in imported]
# Read and print every kind of line, then read them all again.
from prefacer import textio
for _ in range(2):
    textio.print_model(textio.parse_model(sys.argv[2]))
    package = textio.parse_package(sys.argv[3])
    textio.print_package(package)
    repo = {name: textio.parse_package(f'package "{name}" {{ }}') for name in package.imports}
    textio.print_report(prefacer.preface.compose({**repo, package.id: package}, package.id))
used = [text if isinstance(text, str) else text.decode() for text in sources[len(imported):]]
print(json.dumps({"methods": methods, "records": records,
                  "templates": sorted(prefacer.record._TEMPLATES), "used": used}))
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


def _shape(cls: type) -> tuple[int, int, bool]:
    """What an ``__init__`` template is compiled for: the number of
    ``__init__`` fields and of ``init=False`` fields with a default, and
    whether there is a ``__post_init__``."""

    return (sum(f.init for f in fields(cls)),
            sum(not f.init and f.default is not MISSING for f in fields(cls)),
            hasattr(cls, "__post_init__"))


def test_importing_the_package_compiles_one_init_per_shape():
    # The standard library is imported first: some of its modules compile
    # code (``namedtuple``) on import, and that is not the package's cost.
    from test_textio import EVERY_DEFINITION_PACKAGE, EVERY_NODE_MODEL
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_AUDIT, str(SRC), EVERY_NODE_MODEL,
         EVERY_DEFINITION_PACKAGE, *_standard_imports()],
        capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(done.stdout)
    records = dict(seen["records"])
    assert len(records) == len(seen["records"]) == len(RECORDS)
    # Each compiled text defines one ``__init__``, the template of a shape
    # the records have; none is compiled for a record of its own.
    shapes = {_shape(cls) for cls in RECORDS}
    assert seen["methods"] == [["__init__"]] * len(shapes)
    assert [tuple(shape) for shape in seen["templates"]] == sorted(shapes)
    assert len(shapes) == 8 < len(records)
    undocumented = [name for name, doc in records.items()
                    if not doc or doc.startswith(name + "(")]
    assert undocumented == []
    # Reading, printing and reporting every kind of line compiles nothing:
    # the readers and printers are written out, not generated.
    assert seen["used"] == []


def test_importing_the_package_loads_no_dataclasses():
    # ``json`` too, which only ``--format json`` needs; so the probe prints a repr
    done = subprocess.run(
        [sys.executable, "-I", "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n"
         "import prefacer, prefacer.cli\n"
         "print(repr([name for name in ('dataclasses', 'inspect', 'copy', 'json')"
         " if name in sys.modules]))", str(SRC)],
        capture_output=True, text=True, timeout=120, check=True)
    assert ast.literal_eval(done.stdout) == []


#: Records declared after import, each a body for ``record`` and for
#: ``dataclass``: a shape no package record has (12 fields, five defaulted,
#: and a ``__post_init__``), two records of one shared shape that no package
#: record has either, a field named ``self``, and an ``init=False`` field
#: whose default no ``__post_init__`` replaces.
LATE = {
    "Wide": "".join(f"    f{i}: int{f' = {i}' if i > 6 else ''}\n" for i in range(12))
    + "    total: int = field(init=False)\n"
    "    def __post_init__(self):\n"
    "        object.__setattr__(self, 'total', self.f0 + self.f11)\n",
    "Left": "".join(f"    l{i}: int\n" for i in range(10)),
    "Right": "".join(f"    r{i}: str = 'r{i}'\n" for i in range(10)),
    "Selfish": "    self: int\n    other: str = ''\n",
    "Unset": "    x: int\n    y: int = field(default=5, init=False)\n",
}


def _declare(decorate, make_field) -> dict[str, type]:
    namespace = {"decorate": decorate, "field": make_field}
    for name, body in LATE.items():
        exec(f"@decorate\nclass {name}:\n{body}", namespace)
    return {name: namespace[name] for name in LATE}


def test_a_record_declared_after_import_agrees_through_its_shape_template():
    before = set(R._TEMPLATES)
    ours = _declare(R.record, R.field)
    refs = _declare(dataclass(frozen=True, slots=True), field)
    assert {(12, 0, True), (10, 0, False)} - before == {(12, 0, True), (10, 0, False)}
    assert {(12, 0, True), (10, 0, False), (1, 1, False)} <= set(R._TEMPLATES)
    left, right = ours["Left"].__init__, ours["Right"].__init__
    assert left.__code__.co_code == right.__code__.co_code
    assert left.__code__.co_varnames != right.__code__.co_varnames
    argument_sets = {"Wide": [list(range(7)), list(range(12)), [1] * 12],
                     "Left": [list(range(10)), list(range(1, 11))],
                     "Right": [[], ["x"] * 10, ["y"]],
                     "Selfish": [[1], [1, "o"], [2]],
                     "Unset": [[1], [2]]}
    for name, cls in ours.items():
        ref = refs[name]
        assert str(inspect.signature(cls)) == str(inspect.signature(ref))
        assert str(inspect.signature(cls.__init__)) == str(inspect.signature(ref.__init__))
        built = [(cls(*args), ref(*args)) for args in argument_sets[name]]
        for (a, ref_a), (b, ref_b) in itertools.product(built, repeat=2):
            assert repr(a) == repr(ref_a)
            assert (a == b, a != b, hash(a) == hash(b)) == (ref_a == ref_b, ref_a != ref_b,
                                                            hash(ref_a) == hash(ref_b))
        for value in (built[0][0], built[0][1]):
            with pytest.raises(FrozenInstanceError) as frozen:
                setattr(value, fields(value)[0].name, 0)
            assert str(frozen.value) == f"cannot assign to field {fields(value)[0].name!r}"
        errors = []
        for make in (cls, ref):
            with pytest.raises(TypeError) as missing:
                make(*[0] * 13, bogus=1)
            errors.append(str(missing.value))
        assert errors[0] == errors[1]
    # Each record of the shared shape sets its own slots, whichever was built last.
    for _ in range(2):
        for name, fill in (("Left", 5), ("Right", "s")):
            made = ours[name](*[fill] * 10)
            assert [getattr(made, f.name) for f in fields(made)] == [fill] * 10
    assert ours["Selfish"](self=3).self == 3
    assert (ours["Unset"](1).y, repr(ours["Unset"](1))) == (5, "Unset(x=1, y=5)")
