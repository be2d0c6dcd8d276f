"""In-memory representation of models: classes plus statecharts.

The element vocabulary is deliberately small.  A model holds class
definitions and statecharts; a class holds attributes, operations and
invariants; a statechart holds states and event-labelled transitions and is
attached to exactly one class by name.  Every induced element (one created
by a transformation rather than written by the modeller) carries an
``Origin`` recording which rule produced it and from which chart, which is
what makes transformations idempotent and conservative.

Name resolution is deferred: the records (``record.record``) happily
represent broken models, and ``builtin_check`` reports every structural
violation as a diagnostic instead of raising.  All values are frozen
after construction.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, SourceLocation
from .expr import KEYWORDS, And, Expr, LiteralValue
from .record import field, record

# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

#: The closed set of attribute / parameter types.
ATTRIBUTE_TYPES = frozenset({"Boolean", "Integer", "String"})

#: Names no expression can read: a keyword, or ``self``, the bound element.
#: No attribute, parameter or state may bear one (E017).
UNREADABLE = KEYWORDS | {"self"}


def is_identifier(text: str) -> bool:
    return text.isascii() and text.isidentifier()  # [A-Za-z_][A-Za-z0-9_]*


class MalformedPathError(ValueError):
    """Raised by ``lookup_element`` for syntactically invalid paths."""


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@record
class Origin:
    """Where an element came from.

    ``kind`` is ``"authored"`` or ``"induced"``; induced elements name the
    rule that created them and the statechart they were derived from.
    """

    kind: str
    rule_id: str | None = None
    chart_name: str | None = None


AUTHORED = Origin("authored")
NO_STEREOTYPES: frozenset[str] = frozenset()  # shared by every class without any


@record
class Attribute:
    """A typed attribute of a class."""

    name: str
    type_name: str
    origin: Origin = AUTHORED
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Param:
    """A typed parameter of an operation."""

    name: str
    type_name: str


@record
class Operation:
    """An operation of a class.

    Authored pre/postconditions are kept apart from the induced
    precondition so that transformation never rewrites modeller text; the
    effective precondition is the conjunction of both parts.
    """

    name: str
    params: tuple[Param, ...] = ()
    pre_authored: Expr | None = None
    post_authored: Expr | None = None
    pre_induced: tuple[Expr, Origin] | None = None
    origin: Origin = AUTHORED
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)

    @property
    def effective_pre(self) -> Expr | None:
        """``pre_authored and pre_induced``, either alone, or ``None``: the
        one definition the printer, skeletons and transform report share."""

        if self.pre_induced is None:
            return self.pre_authored
        if self.pre_authored is None:
            return self.pre_induced[0]
        return And(self.pre_authored, self.pre_induced[0])


@record
class Invariant:
    """A Boolean condition every instance of the class satisfies."""

    expr: Expr
    origin: Origin = AUTHORED


@record
class ClassDef:
    """A class: its superclasses, stereotypes and members."""

    name: str
    superclasses: tuple[str, ...] = ()
    stereotypes: frozenset[str] = NO_STEREOTYPES
    tagged_values: tuple[tuple[str, LiteralValue], ...] = ()
    attributes: tuple[Attribute, ...] = ()
    operations: tuple[Operation, ...] = ()
    invariants: tuple[Invariant, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class State:
    """A state of a statechart; exactly one per chart is initial."""

    name: str
    initial: bool = False
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Transition:
    """A move between two states on an event, with an optional guard."""

    source: str
    target: str
    event: str
    guard: Expr | None = None
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Statechart:
    """The states and transitions of one class's lifecycle."""

    name: str
    attached_to: str
    states: tuple[State, ...] = ()
    transitions: tuple[Transition, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)

    def initial_states(self) -> tuple[State, ...]:
        return tuple(s for s in self.states if s.initial)

    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)


@record
class Model:
    """A model: classes plus the statecharts attached to them."""

    name: str
    classes: tuple[ClassDef, ...] = ()
    statecharts: tuple[Statechart, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)
    # Name -> the first class or chart of that name, built from the fields
    # above: equality, hashing and repr ignore them, and a replaced, copied
    # or unpickled model builds its own.
    _class_index: dict[str, ClassDef] = field(init=False, repr=False, compare=False)
    _chart_index: dict[str, Statechart] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # read backwards, so the first element of a name is the one kept
        object.__setattr__(self, "_class_index", {c.name: c for c in reversed(self.classes)})
        object.__setattr__(self, "_chart_index", {c.name: c for c in reversed(self.statecharts)})

    def class_named(self, name: str) -> ClassDef | None:
        """The first class declared with ``name``, or ``None``."""

        return self._class_index.get(name)

    def chart_named(self, name: str) -> Statechart | None:
        """The first statechart declared with ``name``, or ``None``."""

        return self._chart_index.get(name)


ModelElement = Model | ClassDef | Attribute | Operation | Statechart | Transition | State


#: The metaclasses constraints and stereotypes may scope over, each with
#: the record class of its elements.
METACLASSES = {"Class": ClassDef, "Attribute": Attribute, "Operation": Operation,
               "Statechart": Statechart, "Transition": Transition}

_METACLASS_OF = {**{kind: name for name, kind in METACLASSES.items()},
                 State: "State", Model: "Model"}


def metaclass_of(element: ModelElement) -> str:
    if element.__class__ not in _METACLASS_OF:
        raise TypeError(f"not a model element: {element!r}")
    return _METACLASS_OF[element.__class__]


def stereotypes_of(element: ModelElement) -> frozenset[str]:
    """Stereotype set of an element; empty for kinds that cannot carry one."""

    if isinstance(element, ClassDef):
        return element.stereotypes
    return frozenset()


# ---------------------------------------------------------------------------
# Paths and lookup
# ---------------------------------------------------------------------------
#
# Paths address elements textually:
#
#   C           a class (or a statechart, if no class has the name)
#   C.m1        an attribute or operation of class C
#   SC/s2       a state of statechart SC
#   SC/3        the transition at index 3 of statechart SC


def member_path(cls: ClassDef, member_name: str) -> str:
    return f"{cls.name}.{member_name}"


def state_path(chart: Statechart, state_name: str) -> str:
    return f"{chart.name}/{state_name}"


def transition_path(chart: Statechart, index: int) -> str:
    return f"{chart.name}/{index}"


def lookup_element(model: Model, path: str) -> ModelElement | None:
    """Resolve a textual path; ``None`` when nothing bears the name.

    Raises ``MalformedPathError`` for syntactically invalid paths: a head
    that is not a name, mixed separators, more than two segments, or an
    item that is not a name (nor ASCII digits, after ``/``), whether or not
    the head names anything.
    """

    separator = "/" if "/" in path else "."
    head, *items = path.split(separator)
    item = items[0] if len(items) == 1 else ""  # a third segment is malformed
    by_index = separator == "/" and item.isascii() and item.isdigit()
    if not is_identifier(head) or items and not (by_index or is_identifier(item)):
        raise MalformedPathError(f"malformed element path: {path!r}")
    if not items:  # a record is never false
        return model.class_named(head) or model.chart_named(head)
    if separator == ".":
        cls = model.class_named(head)
        members = () if cls is None else cls.attributes + cls.operations
        return next((member for member in members if member.name == item), None)
    chart = model.chart_named(head)
    if chart is None:
        return None
    if by_index:
        index = int(item)
        return chart.transitions[index] if index < len(chart.transitions) else None
    return next((state for state in chart.states if state.name == item), None)


# ---------------------------------------------------------------------------
# Structural checking
# ---------------------------------------------------------------------------


def _unreadable(path: str, name: str, loc: SourceLocation | None) -> Diagnostic:
    return Diagnostic("E017", path, f"no expression can read '{name}': it is "
                      + ("the bound element" if name == "self" else "an expression keyword"), loc)


def _check_origin(origin: Origin, path: str, loc: SourceLocation | None,
                  diags: list[Diagnostic]) -> None:
    if origin.kind not in ("authored", "induced"):
        diags.append(Diagnostic("E015", path, f"invalid origin kind {origin.kind!r}", loc))
    elif origin.kind == "induced" and not origin.rule_id:
        diags.append(Diagnostic("E015", path, "induced element lacks a rule id", loc))


def _check_class(model: Model, cls: ClassDef, on_cycle: bool,
                 diags: list[Diagnostic]) -> None:
    # A member's path is built only for a diagnostic, and the shared
    # ``AUTHORED`` origin needs no check.
    attr_names: set[str] = set()
    for attr in cls.attributes:
        if attr.name in attr_names:
            diags.append(Diagnostic("E004", member_path(cls, attr.name),
                                    f"duplicate attribute name '{attr.name}'", attr.loc))
        attr_names.add(attr.name)
        if attr.name in UNREADABLE:
            diags.append(_unreadable(member_path(cls, attr.name), attr.name, attr.loc))
        if attr.type_name not in ATTRIBUTE_TYPES:
            diags.append(Diagnostic(
                "E009", member_path(cls, attr.name),
                f"attribute type '{attr.type_name}' is not one of Boolean, Integer, String",
                attr.loc))
        if attr.origin is not AUTHORED:
            _check_origin(attr.origin, member_path(cls, attr.name), attr.loc, diags)

    op_names: set[str] = set()
    for op in cls.operations:
        if op.name in op_names:
            diags.append(Diagnostic("E005", member_path(cls, op.name),
                                    f"duplicate operation name '{op.name}'", op.loc))
        op_names.add(op.name)
        if op.name in attr_names:
            diags.append(Diagnostic(
                "E006", member_path(cls, op.name),
                f"'{op.name}' names both an attribute and an operation of '{cls.name}'",
                op.loc))
        param_names: set[str] = set()
        for param in op.params:
            if param.name in param_names:
                diags.append(Diagnostic("E013", member_path(cls, op.name),
                                        f"duplicate parameter name '{param.name}'", op.loc))
            param_names.add(param.name)
            if param.name in UNREADABLE:
                diags.append(_unreadable(member_path(cls, op.name), param.name, op.loc))
            if param.type_name not in ATTRIBUTE_TYPES:
                diags.append(Diagnostic(
                    "E016", member_path(cls, op.name),
                    f"parameter type '{param.type_name}' is not one of Boolean, Integer, String",
                    op.loc))
        if op.origin is not AUTHORED:
            _check_origin(op.origin, member_path(cls, op.name), op.loc, diags)
        if op.pre_induced is not None:
            _check_origin(op.pre_induced[1], member_path(cls, op.name), op.loc, diags)

    for sup in cls.superclasses:
        if model.class_named(sup) is None:
            diags.append(Diagnostic(
                "E007", cls.name, f"unknown superclass '{sup}' of '{cls.name}'", cls.loc))
    if on_cycle:
        diags.append(Diagnostic(
            "E008", cls.name, f"'{cls.name}' is its own transitive superclass", cls.loc))

    for inv in cls.invariants:
        if inv.origin is not AUTHORED:
            _check_origin(inv.origin, cls.name, cls.loc, diags)


def _names_on_cycles(graph: dict[str, tuple[str, ...]],
                     reach: dict[str, int] | None = None) -> set[str]:
    """The names that reach themselves along one or more edges: members of
    strongly connected components of two or more names, and names with an
    edge to themselves.  Given ``reach``, a bit for each name, it leaves
    each name the bits of every name it reaches, itself included.

    Tarjan's algorithm with an explicit stack of (name, successor
    iterator) frames, so the depth of the graph never meets the recursion
    limit.  Every successor must be a key of ``graph``.
    """

    order: dict[str, int] = {}
    low: dict[str, int] = {}
    component: list[str] = []
    on_component: set[str] = set()
    cyclic: set[str] = set()

    for root in graph:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        component.append(root)
        on_component.add(root)
        frames = [(root, iter(graph[root]))]
        while frames:
            name, successors = frames[-1]
            for succ in successors:
                if succ not in order:
                    order[succ] = low[succ] = len(order)
                    component.append(succ)
                    on_component.add(succ)
                    frames.append((succ, iter(graph[succ])))
                    break
                if succ in on_component:
                    low[name] = min(low[name], order[succ])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[name])
                if low[name] == order[name]:
                    members = []
                    while True:
                        member = component.pop()
                        on_component.discard(member)
                        members.append(member)
                        if member == name:
                            break
                    if len(members) > 1 or name in graph[name]:
                        cyclic.update(members)
                    if reach is not None:  # each component it reaches is done
                        bits = 0
                        for reached in [n for member in members for n in (member, *graph[member])]:
                            bits |= reach[reached]
                        reach.update(dict.fromkeys(members, bits))
    return cyclic


def _classes_on_cycles(model: Model) -> list[bool]:
    """For each class of ``model``, whether walking up from its own
    superclasses reaches its name (E008).

    A superclass name stands for the first class declared with it, and
    unknown names lead nowhere, so the first class of each name is on a
    cycle exactly when its name is.  A later class of a repeated name
    (already an E001 error) has superclasses of its own: it is on a cycle
    exactly when one of them reaches its name, which the same pass finds
    when the model repeats a name.
    """

    index = model._class_index

    def edges(cls: ClassDef) -> tuple[str, ...]:
        return tuple(s for s in cls.superclasses if s in index)

    graph = {name: edges(cls) for name, cls in index.items()}
    repeated = len(index) < len(model.classes)  # only then are bits needed
    bit = {name: 1 << at for at, name in enumerate(graph)} if repeated else {}
    reach = dict(bit) if repeated else None
    cyclic = _names_on_cycles(graph, reach)
    return [cls.name in cyclic if index[cls.name] is cls
            else any(reach[s] & bit[cls.name] for s in edges(cls))
            for cls in model.classes]


def _check_chart(model: Model, chart: Statechart, diags: list[Diagnostic]) -> None:
    if model.class_named(chart.attached_to) is None:
        diags.append(Diagnostic(
            "E003", chart.name,
            f"statechart '{chart.name}' is attached to unknown class '{chart.attached_to}'",
            chart.loc))

    state_names: set[str] = set()
    for state in chart.states:
        if state.name in state_names:
            diags.append(Diagnostic(
                "E010", state_path(chart, state.name),
                f"duplicate state name '{state.name}'", state.loc))
        state_names.add(state.name)
        if state.name in UNREADABLE:
            diags.append(_unreadable(state_path(chart, state.name), state.name, state.loc))

    initials = chart.initial_states()
    if len(initials) != 1:
        diags.append(Diagnostic(
            "E011", chart.name,
            f"statechart '{chart.name}' declares {len(initials)} initial states, expected exactly 1",
            chart.loc))

    for index, t in enumerate(chart.transitions):  # the path only for a diagnostic
        if t.source not in state_names or t.target not in state_names:
            diags += [Diagnostic("E012", transition_path(chart, index),
                                 f"transition {label} '{end}' is not a declared state", t.loc)
                      for end, label in ((t.source, "source"), (t.target, "target"))
                      if end not in state_names]
        if not is_identifier(t.event):
            diags.append(Diagnostic("E014", transition_path(chart, index),
                                    f"transition event {t.event!r} is not a valid identifier",
                                    t.loc))


def builtin_check(model: Model) -> list[Diagnostic]:
    """Check every structural invariant; one diagnostic per violation.

    Pure: the model is never mutated, and the diagnostics come out in
    declaration order so repeated runs agree byte for byte.
    """

    diags: list[Diagnostic] = []

    seen_classes: set[str] = set()
    for cls, on_cycle in zip(model.classes, _classes_on_cycles(model)):
        if cls.name in seen_classes:
            diags.append(Diagnostic(
                "E001", cls.name, f"duplicate class name '{cls.name}'", cls.loc))
        seen_classes.add(cls.name)
        _check_class(model, cls, on_cycle, diags)

    seen_charts: set[str] = set()
    for chart in model.statecharts:
        if chart.name in seen_charts:
            diags.append(Diagnostic(
                "E002", chart.name, f"duplicate statechart name '{chart.name}'", chart.loc))
        seen_charts.add(chart.name)
        _check_chart(model, chart, diags)

    return diags
