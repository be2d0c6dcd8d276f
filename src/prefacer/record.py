"""Records: the package's data classes, cheap to define.

``@record`` gives an annotated class one generated ``__init__`` (the
``dataclasses`` signature, defaults and ``default_factory``, then
``__post_init__``) and the ``__repr__``, ``__eq__`` and ``__hash__`` that all
records share.  A record is frozen unless ``mutable=True``, which also makes
it unhashable.  ``dataclasses`` would compile five or six methods per class,
and every command pays that at start-up before it does any work.  Every
record is slotted: ``__init__`` sets each field through its slot's
descriptor, past a frozen record's ``__setattr__``, and leaves a field with
``init=False`` to ``__post_init__``.

``dataclasses`` stays as the field registry: ``dataclass(init=False,
repr=False, eq=False, slots=True)`` generates no method, and keeps
``is_dataclass``, ``fields``, ``replace`` and ``__match_args__`` working.
The benchmark reads records through it: ``perfbench/check.py`` walks
expressions through ``__dataclass_fields__`` and ``perfbench/worker.py``
through ``fields``.

``==`` walks an explicit stack through records and tuples, so trees of any
depth compare, and compares leaves with ``==`` (``Literal(True) ==
Literal(1)``).  ``hash`` hashes the same walk, flattened; ``repr`` writes
the ``dataclasses`` text by such a walk through lists and dicts too.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

#: Record class -> its compared fields, last first, for a stack to pop in order.
_COMPARED: dict[type, tuple[str, ...]] = {}
_SHOWN: dict[type, tuple[str, ...]] = {}  # record class -> the fields ``repr`` shows


class _Factory:
    def __repr__(self) -> str:  # as ``inspect.signature`` shows a factory default
        return "<factory>"


def record(cls=None, /, *, mutable: bool = False):
    """Make ``cls`` a record; ``@record`` or ``@record(mutable=True)``."""

    def wrap(cls):
        cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
        _COMPARED[cls] = tuple(f.name for f in reversed(fields(cls)) if f.compare)
        _SHOWN[cls] = tuple(f.name for f in fields(cls) if f.repr)
        cls.__init__, cls.__repr__, cls.__eq__ = _init(cls), _repr, _eq
        if mutable:
            cls.__hash__ = None
        else:
            cls.__hash__, cls.__reduce__ = _hash, _reduce
            cls.__setattr__ = cls.__delattr__ = _frozen
        return cls

    return wrap if cls is None else wrap(cls)


def _init(cls):
    env, params, body = {"__factory": _Factory()}, [], []
    init_fields = [f for f in fields(cls) if f.init]
    for f in init_fields:
        param = value = f.name
        if f.default is not MISSING:
            env[f"__d_{f.name}"], param = f.default, f"{f.name}=__d_{f.name}"
        elif f.default_factory is not MISSING:
            env[f"__d_{f.name}"], param = f.default_factory, f"{f.name}=__factory"
            value = f"__d_{f.name}() if {f.name} is __factory else {f.name}"
        params.append(param)
        env[f"__s_{f.name}"] = vars(cls)[f.name].__set__
        body.append(f"__s_{f.name}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace: dict = {}
    exec(f"def make({', '.join(env)}):\n def __init__(self, {', '.join(params)}):\n  "
         + "\n  ".join(body or ["pass"]) + "\n return __init__", {}, namespace)
    init = namespace["make"](*env.values())
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in init_fields}, "return": None}
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
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _reduce(self):
    cls = self.__class__
    return cls, tuple(getattr(self, f.name) for f in fields(cls) if f.init)
