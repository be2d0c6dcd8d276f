"""Records: the package's data classes, cheap to define.

``@record`` reads a class's annotated fields and their ``field`` specs into
the record's own field table, and creates the class once more, slotted.  The
``__init__`` (the ``dataclasses`` signature, fields and the defaults of
``init=False`` fields set through their slots, then ``__post_init__``),
``replace``, and the ``__repr__``, ``__eq__``, ``__hash__`` and
``__reduce__`` all records share read that table.  A record stores exactly
what its constructor is given: ``__post_init__`` derives the ``init=False``
fields that have no default and never normalises the others.  A ``loc``
field reads through ``diagnostics.location_slot``: a parse stores its
``(token index, token table)`` pair there, which the first read turns into
its ``SourceLocation``, and ``replace`` carries it over unread.  No record
compiles its ``__init__``:
it takes the code compiled once per shape (``__init__`` field count, count
of defaulted ``init=False`` fields, ``__post_init__`` or not), with its
field names and defaults.

Start-up imports no ``dataclasses``.  Outside readers get its registry all the
same: ``make_dataclass`` builds it on the first read of
``__dataclass_fields__``.  A table it refuses, or a field ``replace``
cannot take, is handed to it to raise its error.

``==``, ``hash`` and ``repr`` walk explicit stacks, so trees of any depth
compare (leaves with ``==``), hash and print (the ``dataclasses`` text).
"""

from __future__ import annotations

from types import CodeType, FunctionType

MISSING = object()  # a ``field`` spec left unset

_FIELDS: dict[type, tuple[Field, ...]] = {}  # record class -> its field table
#: Record class -> its compared fields, last first, for a stack to pop in order.
_COMPARED: dict[type, tuple[str, ...]] = {}
_SHOWN: dict[type, tuple[str, ...]] = {}  # record class -> the fields ``repr`` shows
#: Record class -> its ``__init__`` fields' names and slot getters, in order.
_STORED: dict[type, dict] = {}


class Field:
    """A row of a field table: the spec ``dataclasses.field`` takes, a name and a type."""

    __slots__ = ("name", "type", "default", "init", "repr", "compare")

    def __init__(self, *, default=MISSING, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


field = Field


class _Registry:
    """``__dataclass_fields__``, built on first read and kept in its place."""

    def __get__(self, instance, cls):
        made = _dataclass(cls.__name__, _FIELDS[cls], init=False, repr=False, eq=False)
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return made.__dataclass_fields__


def _dataclass(name: str, table, **options):
    from dataclasses import field, make_dataclass
    return make_dataclass(name, [(f.name, f.type, field(**{
        spec: getattr(f, spec) for spec in Field.__slots__[2:]
        if getattr(f, spec) is not MISSING})) for f in table], **options)


def record(cls):
    """Make ``cls`` a record, a frozen value: ``@record``."""

    namespace = {key: value for key, value in vars(cls).items()
                 if key not in ("__dict__", "__weakref__")}
    table = []
    for name, type_ in namespace.get("__annotations__", {}).items():
        spec = namespace.pop(name, MISSING)
        table.append(spec if isinstance(spec, Field) else Field(default=spec))
        table[-1].name, table[-1].type = name, type_
    # unsorted: a default before a non-default
    given = [f.default is not MISSING for f in table if f.init]
    if sorted(given) != given or any(f.default.__class__.__hash__ is None for f in table):
        _dataclass(cls.__name__, table)  # raises what ``dataclass`` raises
    namespace.setdefault("__match_args__", tuple(f.name for f in table if f.init))
    namespace.update(__slots__=tuple(f.name for f in table), __qualname__=cls.__qualname__,
                     __dataclass_fields__=_Registry(), __repr__=_repr, __eq__=_eq,
                     __hash__=_hash, __reduce__=_reduce, __setattr__=_frozen,
                     __delattr__=_frozen)
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    _FIELDS[cls] = table = tuple(table)
    _COMPARED[cls] = tuple(f.name for f in reversed(table) if f.compare)
    _SHOWN[cls] = tuple(f.name for f in table if f.repr)
    cls.__init__ = _init(cls, table)
    _STORED[cls] = {f.name: vars(cls)[f.name].__get__ for f in table if f.init}
    if "loc" in namespace["__slots__"]:  # after ``_init`` took the slot's setter
        from .diagnostics import location_slot
        cls.loc = location_slot(vars(cls)["loc"])
    return cls


def replace(obj, /, **changes):
    """``dataclasses.replace`` for a record."""

    cls = obj.__class__
    stored = _STORED[cls]
    if not changes.keys() <= stored.keys():
        from dataclasses import replace
        return replace(obj, **changes)  # raises its error
    return cls(*[changes[name] if name in changes else get(obj) for name, get in stored.items()])


#: (``__init__`` field count, ``init=False`` defaults, has ``__post_init__``)
#: -> the ``__init__`` template
_TEMPLATES: dict[tuple[int, int, bool], CodeType] = {}


def _template(count: int, unset: int, post: bool) -> CodeType:
    if (count, unset, post) not in _TEMPLATES:
        body = ([f"s{i}(self, a{i})" for i in range(count)]
                + [f"s{count + i}(self, d{i})" for i in range(unset)]
                + ["self.__post_init__()"] * post)
        namespace: dict = {}
        exec(f"def __init__(self, {', '.join(f'a{i}' for i in range(count))}):\n "
             + "\n ".join(body or ["pass"]), {}, namespace)
        _TEMPLATES[count, unset, post] = namespace["__init__"].__code__
    return _TEMPLATES[count, unset, post]


def _init(cls, table):
    # The slots' setters and the ``init=False`` defaults are the template's
    # globals.  As in ``dataclasses``, those defaults are set before
    # ``__post_init__``, and a field named ``self`` renames the instance.
    fields = [f for f in table if f.init]
    unset = [f for f in table if not f.init and f.default is not MISSING]
    names = [f.name for f in fields]
    code = _template(len(fields), len(unset), hasattr(cls, "__post_init__")).replace(
        co_varnames=("__dataclass_self__" if "self" in names else "self", *names))
    defaults = tuple(f.default for f in fields if f.default is not MISSING) or None
    setters = {f"s{i}": vars(cls)[f.name].__set__ for i, f in enumerate(fields + unset)}
    init = FunctionType(code, {**setters, **{f"d{i}": f.default for i, f in enumerate(unset)}},
                        "__init__", defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    return init


_BRACKETS = {tuple: "()", list: "[]", dict: "{}"}


def _repr(self) -> str:
    # Last in first out: text, a value (in a 1-tuple), or an open value's id.
    parts, stack, inside = [], [(self,)], set()
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
        elif item.__class__ is int:
            inside.discard(item)
        else:
            value = item[0]
            names, brackets = _SHOWN.get(value.__class__), _BRACKETS.get(value.__class__)
            if names is not None:
                brackets = f"{value.__class__.__qualname__}(", ")"
            if brackets is None:
                parts.append(repr(value))
            elif id(value) in inside:  # inside itself, as ``dataclasses`` and ``list`` write it
                parts.append("..." if names is not None else "...".join(brackets))
            else:
                inside.add(id(value))
                parts.append(brackets[0])
                one = value.__class__ is tuple and len(value) == 1
                stack += (id(value), ",)" if one else brackets[1])
                if names is not None:
                    entries = [(f", {name}=", getattr(value, name)) for name in names]
                elif brackets == "{}":
                    entries = [pair for key, entry in value.items()
                               for pair in ((", ", key), (": ", entry))]
                else:
                    entries = [(", ", entry) for entry in value]
                for index in range(len(entries) - 1, -1, -1):
                    label, entry = entries[index]
                    stack += ((entry,), label if index else label[2:])
    return "".join(parts)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        names = _COMPARED.get(a.__class__) if a.__class__ is b.__class__ else None
        if names is not None:
            stack.extend([(getattr(a, name), getattr(b, name)) for name in names])
        elif a.__class__ is b.__class__ is tuple:
            if len(a) != len(b):
                return False
            stack.extend(zip(a[::-1], b[::-1]))
        elif not a == b:
            return False
    return True


def _hash(self) -> int:
    parts, stack = [], [self]
    while stack:
        value = stack.pop()
        names = _COMPARED.get(value.__class__)
        if names is not None:
            parts.append(value.__class__)
            stack.extend([getattr(value, name) for name in names])
        elif value.__class__ is tuple:
            parts.append(len(value))
            stack.extend(value)
        else:
            parts.append(value)
    return hash(tuple(parts))


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _reduce(self):
    cls = self.__class__
    return cls, tuple(getattr(self, f.name) for f in _FIELDS[cls] if f.init)
