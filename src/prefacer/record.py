"""Records: the package's data classes, cheap to define.

``@record`` gives an annotated class one generated ``__init__`` (the
``dataclasses`` signature, defaults and ``default_factory``, then
``__post_init__``) and the ``__repr__``, ``__eq__`` and ``__hash__`` that all
records share.  A record is frozen unless ``mutable=True``, which also makes
it unhashable.  ``dataclasses`` would compile five or six methods per class,
and every command pays that at start-up before it does any work.

``dataclasses`` stays as the field registry: ``dataclass(init=False,
repr=False, eq=False)`` generates no method, and keeps ``is_dataclass``,
``fields``, ``replace`` and ``__match_args__`` working.  The benchmark reads
records through it: ``perfbench/check.py`` walks expressions through
``__dataclass_fields__`` and ``perfbench/worker.py`` through ``fields``.

``==`` walks an explicit stack through records and tuples, so trees of any
depth compare, and compares leaves with ``==`` (``Literal(True) ==
Literal(1)``).  ``hash`` hashes the same walk, flattened.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

#: Record class -> its compared fields, last first, for a stack to pop in order.
_COMPARED: dict[type, tuple[str, ...]] = {}
_SHOWN: dict[type, tuple[str, ...]] = {}  # record class -> the fields ``repr`` shows


class _Factory:
    def __repr__(self) -> str:  # as ``inspect.signature`` shows a factory default
        return "<factory>"


def record(cls=None, /, *, slots: bool = False, mutable: bool = False):
    """Make ``cls`` a record; ``@record`` or ``@record(slots=True, ...)``."""

    def wrap(cls):
        cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
        _COMPARED[cls] = tuple(f.name for f in reversed(fields(cls)) if f.compare)
        _SHOWN[cls] = tuple(f.name for f in fields(cls) if f.repr)
        cls.__init__, cls.__repr__, cls.__eq__ = _init(cls, mutable), _repr, _eq
        if mutable:
            cls.__hash__ = None
        else:
            cls.__hash__, cls.__reduce__ = _hash, _reduce
            cls.__setattr__ = cls.__delattr__ = _frozen
        return cls

    return wrap if cls is None else wrap(cls)


def _init(cls, mutable: bool):
    env, params, body = {"__set": object.__setattr__, "__factory": _Factory()}, [], []
    for f in fields(cls):
        param = value = f.name
        if f.default is not MISSING:
            env[f"__d_{f.name}"], param = f.default, f"{f.name}=__d_{f.name}"
        elif f.default_factory is not MISSING:
            env[f"__d_{f.name}"], param = f.default_factory, f"{f.name}=__factory"
            value = f"__d_{f.name}() if {f.name} is __factory else {f.name}"
        params.append(param)
        body.append(f"self.{f.name} = {value}" if mutable else f"__set(self, {f.name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace: dict = {}
    exec(f"def make({', '.join(env)}):\n def __init__(self, {', '.join(params)}):\n  "
         + "\n  ".join(body or ["pass"]) + "\n return __init__", {}, namespace)
    init = namespace["make"](*env.values())
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields(cls)}, "return": None}
    return init


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in _SHOWN[self.__class__])
    return f"{self.__class__.__qualname__}({shown})"


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
    return self.__class__, tuple(getattr(self, name) for name in self.__dataclass_fields__)
