"""Seeded project generators for the three workloads.

A project is a preface directory, a root package id and a model file,
plus everything the checks need to judge the program's output: the
generator's own description of the model (before and after statechart
induction) and the diagnostics ``validate`` must report.  Expected
diagnostics come from the generator's own replay of the import order and
its own Python predicate for each constraint body; nothing here imports
the program.

All randomness flows from one ``random.Random`` per project, seeded with
the workload name, the run seed and the project index, so the same seed
gives byte-identical inputs.  Sizes are fixed per workload and only names
and wiring vary with the seed, which keeps operation times comparable
between seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Generator-side model description
# ---------------------------------------------------------------------------


@dataclass
class Op:
    name: str
    params: list[tuple[str, str]] = field(default_factory=list)
    pre: str | None = None
    post: str | None = None


@dataclass
class Cls:
    name: str
    supers: list[str] = field(default_factory=list)
    stereotypes: list[str] = field(default_factory=list)
    attrs: list[tuple[str, str]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    invariants: list[str] = field(default_factory=list)


@dataclass
class Chart:
    name: str
    cls: str
    states: list[str]
    initial: str
    # (source, target, event, guard text or None)
    transitions: list[tuple[str, str, str, str | None]]

    def events(self) -> list[str]:
        seen: list[str] = []
        for _, _, event, _ in self.transitions:
            if event not in seen:
                seen.append(event)
        return seen


@dataclass
class ModelSpec:
    name: str
    classes: list[Cls]
    charts: list[Chart]

    def chart_of(self, cls_name: str) -> Chart | None:
        for chart in self.charts:
            if chart.cls == cls_name:
                return chart
        return None

    def induced_view(self) -> "ModelSpec":
        """The model as statechart induction should leave it: one flag per
        state, then one operation per event that no operation names yet."""

        classes = []
        for cls in self.classes:
            chart = self.chart_of(cls.name)
            attrs, ops = list(cls.attrs), list(cls.ops)
            if chart is not None:
                attrs += [(s, "Boolean") for s in chart.states]
                authored = {op.name for op in cls.ops}
                ops += [Op(e) for e in chart.events() if e not in authored]
            classes.append(Cls(cls.name, cls.supers, cls.stereotypes, attrs, ops,
                               cls.invariants))
        return ModelSpec(self.name, classes, self.charts)


def model_text(spec: ModelSpec) -> str:
    lines = [f"model {spec.name}"]
    for cls in spec.classes:
        head = f"class {cls.name}"
        if cls.supers:
            head += " specializes " + ", ".join(cls.supers)
        if cls.stereotypes:
            head += " <<" + ", ".join(cls.stereotypes) + ">>"
        lines.append(head + " {")
        for name, type_name in cls.attrs:
            lines.append(f"  attribute {name} : {type_name}")
        for op in cls.ops:
            line = f"  operation {op.name}(" + ", ".join(
                f"{n} : {t}" for n, t in op.params) + ")"
            if op.pre is not None:
                line += f" pre: {op.pre}"
            if op.post is not None:
                line += f" post: {op.post}"
            lines.append(line)
        for inv in cls.invariants:
            lines.append(f"  invariant {inv}")
        lines.append("}")
    for chart in spec.charts:
        lines.append(f"statechart {chart.name} for {chart.cls} {{")
        for state in chart.states:
            lines.append(("  initial state " if state == chart.initial else "  state ")
                         + state)
        for source, target, event, guard in chart.transitions:
            line = f"  transition {source} -> {target} on {event}"
            if guard is not None:
                line += f" [{guard}]"
            lines.append(line)
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constraints: text for the program, a predicate for the expectation
# ---------------------------------------------------------------------------


@dataclass
class Constraint:
    name: str
    scope: str  # Class | Attribute | Operation | Transition
    severity: str  # error | warning
    body: str
    #: (element, classes by name) -> bool; the element's shape depends on
    #: the scope (see ``scope_elements``).
    holds: object


@dataclass
class Package:
    id: str
    imports: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)

    def add(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)
        self.lines.append(f"constraint {constraint.name} on {constraint.scope} "
                          f"severity {constraint.severity} : {constraint.body}")

    def text(self) -> str:
        out = [f'package "{self.id}" {{']
        out += [f'  import "{i}"' for i in self.imports]
        out += [f"  {line}" for line in self.lines]
        out.append("}")
        return "\n".join(out) + "\n"


def flatten(packages: dict[str, Package], root: str) -> list[str]:
    """Import order: depth first, imports before importer in listed order,
    first occurrence only, root last.  Iterative, so depth is no limit."""

    order: list[str] = []
    done: set[str] = set()
    stack: list[tuple[str, int]] = [(root, 0)]
    while stack:
        pkg_id, cursor = stack.pop()
        imports = packages[pkg_id].imports
        if cursor < len(imports):
            stack.append((pkg_id, cursor + 1))
            if imports[cursor] not in done:
                stack.append((imports[cursor], 0))
        elif pkg_id not in done:
            done.add(pkg_id)
            order.append(pkg_id)
    return order


def winning_constraints(packages: dict[str, Package],
                        root: str) -> dict[str, tuple[Constraint, str]]:
    """Replay the flattened order: the newest definition of a name wins."""

    winners: dict[str, tuple[Constraint, str]] = {}
    for pkg_id in flatten(packages, root):
        for constraint in packages[pkg_id].constraints:
            winners[constraint.name] = (constraint, pkg_id)
    return winners


def scope_elements(spec: ModelSpec, scope: str):
    """(path, element) pairs; elements are generator-side objects."""

    if scope == "Class":
        for cls in spec.classes:
            yield cls.name, cls
    elif scope == "Attribute":
        for cls in spec.classes:
            for name, type_name in cls.attrs:
                yield f"{cls.name}.{name}", (name, type_name)
    elif scope == "Operation":
        for cls in spec.classes:
            for op in cls.ops:
                yield f"{cls.name}.{op.name}", op
    elif scope == "Transition":
        for chart in spec.charts:
            for index, t in enumerate(chart.transitions):
                yield f"{chart.name}/{index}", t
    else:
        raise ValueError(scope)


def expected_diagnostics(packages: dict[str, Package], root: str,
                         spec: ModelSpec) -> tuple[set[tuple[str, str, str, str]], int]:
    """Violations as (code, path, constraint, provenance), and how many
    constraint x element pairs the check has to evaluate."""

    expected: set[tuple[str, str, str, str]] = set()
    evaluations = 0
    classes = {cls.name: cls for cls in spec.classes}
    for name, (constraint, pkg_id) in winning_constraints(packages, root).items():
        for path, element in scope_elements(spec, constraint.scope):
            evaluations += 1
            if not constraint.holds(element, classes):
                code = "E201" if constraint.severity == "error" else "W201"
                expected.add((code, path, name, pkg_id))
    return expected, evaluations


# Constraint templates.  Each returns (body text, predicate).

def _attr_not_named(bad: str):
    return f'self.name <> "{bad}"', lambda a, _: a[0] != bad


def _op_not_named(bad: str):
    return f'self.name <> "{bad}"', lambda o, _: o.name != bad


def _no_attr_named(bad: str):
    return (f'forall(a in self.attributes | a.name <> "{bad}")',
            lambda c, _: all(n != bad for n, _t in c.attrs))


def _attrs_at_most(k: int):
    return f"size(self.attributes) <= {k}", lambda c, _: len(c.attrs) <= k


def _ops_at_most(k: int):
    return f"size(self.operations) <= {k}", lambda c, _: len(c.ops) <= k


def _parent_not(stereotype: str):
    return (f'forall(s in self.superclasses | not hasStereotype(s, "{stereotype}"))',
            lambda c, classes: all(stereotype not in classes[s].stereotypes
                                   for s in c.supers))


def _stereotyped_has_ops(stereotype: str, k: int):
    return (f'not hasStereotype(self, "{stereotype}") or size(self.operations) >= {k}',
            lambda c, _: stereotype not in c.stereotypes or len(c.ops) >= k)


def _members_distinct():
    return ("forall(a in self.attributes | forall(o in self.operations | "
            "a.name <> o.name))",
            lambda c, _: not ({n for n, _t in c.attrs} & {o.name for o in c.ops}))


def _no_self_loop():
    return "self.source <> self.target", lambda t, _: t[0] != t[1]


def _event_not(bad: str):
    return f'self.event <> "{bad}"', lambda t, _: t[2] != bad


def _constraint(name: str, scope: str, severity: str, template) -> Constraint:
    body, holds = template
    return Constraint(name, scope, severity, body, holds)


# ---------------------------------------------------------------------------
# Naming
# ---------------------------------------------------------------------------

_SYLLABLES = ("ka", "lo", "mi", "ru", "te", "vo", "ze", "pa", "ni", "so",
              "du", "fe", "gi", "ho", "ju", "be")


def _word(rng: random.Random, parts: int = 2) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(parts))


# ---------------------------------------------------------------------------
# Projects
# ---------------------------------------------------------------------------


#: The four operations of a project, in the order they run.  ``revalidate``
#: reads the model that ``transform`` wrote.
OPERATIONS = ("validate", "transform", "revalidate", "skeleton")


@dataclass
class Project:
    """One generated project: the inputs of four CLI operations and what
    their outputs must be.

    Every operation gets inputs of its own, ``inputs[kind]`` = (preface
    directory, model file or None for ``revalidate``): a copy of the
    project's package and model text that ends in a comment naming the
    project and the operation.  So no file path and no file text repeats
    within a run, and a cache kept by the program across calls in one
    process, keyed by either, finds nothing to reuse.
    """

    index: int
    root: str
    inputs: dict[str, tuple[str, str | None]]
    spec: ModelSpec
    expected_validate: set[tuple[str, str, str, str]]
    expected_revalidate: set[tuple[str, str, str, str]]
    evaluations: int
    revalidate_evaluations: int
    packages_flattened: int
    definitions_replayed: int


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_packages(directory: str, packages: dict[str, Package], tag: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for pkg_id, pkg in packages.items():
        _write(os.path.join(directory, f"{pkg_id}.preface"), pkg.text() + f"// {tag}\n")


def _finish(index: int, directory: str, packages: dict[str, Package], root: str,
            spec: ModelSpec) -> Project:
    """Write every operation's inputs under ``directory`` and work out what
    the outputs must be."""

    text = model_text(spec)
    inputs: dict[str, tuple[str, str | None]] = {}
    for kind in OPERATIONS:
        tag = f"project {index}, {kind}"
        preface_dir = os.path.join(directory, kind)
        _write_packages(preface_dir, packages, tag)
        model_path = None
        if kind != "revalidate":
            model_path = os.path.join(directory, f"{kind}.model")
            _write(model_path, text + f"// {tag}\n")
        inputs[kind] = (preface_dir, model_path)
    expected_validate, evaluations = expected_diagnostics(packages, root, spec)
    expected_revalidate, revalidate_evaluations = expected_diagnostics(
        packages, root, spec.induced_view())
    for code, *_ in expected_validate | expected_revalidate:
        if not code.startswith("W"):
            raise AssertionError(f"generator planted an error diagnostic {code}")
    order = flatten(packages, root)
    definitions = sum(len(packages[p].lines) for p in order)
    return Project(index, root, inputs, spec, expected_validate, expected_revalidate,
                   evaluations, revalidate_evaluations, len(order), definitions)


# -- statechart shapes ---------------------------------------------------------


def _chart(rng: random.Random, name: str, cls: str, prefix: str, n: int,
           hubs: int, fan_out: int, guards: tuple[str, ...],
           planted_events: tuple[str, ...] = ()) -> Chart:
    """A ring of ``n`` states with ``hubs`` hub states (the initial state
    among them) that fan out on shared events, plus resets back home.

    Ring events repeat every tenth state or so, so each event fires from
    several sources.  A guard sits on roughly one transition in ten.
    """

    states = [f"{prefix}{i}" for i in range(n)]
    ring_events = max(2, n // 10)
    transitions: list[tuple[str, str, str, str | None]] = []

    def guard() -> str | None:
        return rng.choice(guards) if guards and rng.random() < 0.1 else None

    for i in range(n):
        transitions.append((states[i], states[(i + 1) % n],
                            f"{prefix}step{i % ring_events}", guard()))
    hub_states = [states[0]] + rng.sample(states[1:], min(hubs, n) - 1)
    for hub in hub_states:
        for j in range(fan_out):
            transitions.append((hub, rng.choice(states), f"{prefix}go{j}", guard()))
    for source in rng.sample(states[1:], max(1, n // 15)):
        transitions.append((source, states[0], f"{prefix}reset", None))
    for event in planted_events:
        transitions.append((rng.choice(states), rng.choice(states), event, None))
    return Chart(name, cls, states, states[0], transitions)


# -- hierarchy -----------------------------------------------------------------

HIERARCHY_CLASSES = 400
HIERARCHY_CHAINS = 2
HIERARCHY_CHARTED = 0.1


def _hierarchy_packages() -> dict[str, Package]:
    core = Package("core")
    core.lines += [
        "transform statechart-to-class on",
        "option statechart.unexpected_event = error",
        "stereotype sealed on Class",
        "stereotype entity on Class",
        "const depth_max = 1000",
    ]
    core.add(_constraint("no_tmp", "Attribute", "warning", _attr_not_named("tmp")))
    core.add(_constraint("sealed_parent", "Class", "warning", _parent_not("sealed")))
    core.add(_constraint("op_budget", "Class", "error", _ops_at_most(12)))
    core.add(_constraint("no_legacy", "Operation", "warning", _op_not_named("legacy")))
    proj = Package("proj", ["core"])
    proj.lines.append("const depth_max = 2000")
    proj.add(Constraint(
        "no_tmp", "Attribute", "warning",
        'self.name <> "tmp" and self.name <> "scratch"',
        lambda a, _: a[0] not in ("tmp", "scratch")))
    proj.add(_constraint("entity_ops", "Class", "warning", _stereotyped_has_ops("entity", 2)))
    return {"core": core, "proj": proj}


def hierarchy_project(rng: random.Random, index: int, directory: str) -> Project:
    """Long single-inheritance chains; a tenth of the classes carry a
    small statechart.  The preface is two small packages."""

    packages = _hierarchy_packages()

    classes: list[Cls] = []
    charts: list[Chart] = []
    per_chain = HIERARCHY_CLASSES // HIERARCHY_CHAINS
    for chain in range(HIERARCHY_CHAINS):
        parent = None
        for depth in range(per_chain):
            name = f"{_word(rng).capitalize()}{chain}x{depth}"
            cls = Cls(name, [parent] if parent else [])
            if rng.random() < 0.03:
                cls.stereotypes.append("sealed")
            if rng.random() < 0.3:
                cls.stereotypes.append("entity")
            for k in range(rng.randint(2, 4)):
                attr = f"a{k}{_word(rng, 1)}"
                if rng.random() < 0.03:
                    attr = rng.choice(("tmp", "scratch"))
                if all(attr != a for a, _ in cls.attrs):
                    cls.attrs.append((attr, rng.choice(("Boolean", "Integer", "String"))))
            for k in range(rng.randint(1, 4)):
                op = "legacy" if rng.random() < 0.02 else f"op{k}{_word(rng, 1)}"
                if all(op != o.name for o in cls.ops):
                    cls.ops.append(Op(op, [("x", "Integer")] if k % 2 else []))
            if rng.random() < HIERARCHY_CHARTED:
                cls.attrs.append(("busy", "Boolean"))
                chart = _chart(rng, f"Sc{name}", name, "q", rng.randint(4, 8),
                               hubs=1, fan_out=2, guards=("not busy",))
                bound = chart.events()[0]
                cls.ops.append(Op(bound, pre="not busy"))
                charts.append(chart)
            classes.append(cls)
            parent = name
    spec = ModelSpec(f"hier{index}", classes, charts)
    return _finish(index, directory, packages, "proj", spec)


# -- statecharts ---------------------------------------------------------------

#: State counts of the charts in every statecharts project (one per class).
STATECHART_SIZES = (150, 80, 50, 40, 30, 25, 25, 20, 20, 20, 15, 15, 15, 12, 12, 10, 10, 8, 8, 6)


def _statechart_packages(rng: random.Random) -> dict[str, Package]:
    core = Package("core")
    core.lines += [
        "transform statechart-to-class on",
        "option statechart.unexpected_event = error",
        "stereotype device on Class",
    ]
    core.add(_constraint("no_panic", "Transition", "warning", _event_not("panic")))
    core.add(_constraint("no_loop", "Transition", "warning", _no_self_loop()))
    core.add(_constraint("has_attrs", "Class", "error", _attrs_at_most(1000)))
    proj = Package("proj", ["core"])
    proj.lines.append("option statechart.unexpected_event = "
                      + rng.choice(("error", "ignore")))
    proj.add(Constraint(
        "no_panic", "Transition", "warning",
        'self.event <> "panic" and self.event <> "abort"',
        lambda t, _: t[2] not in ("panic", "abort")))
    return {"core": core, "proj": proj}


def statecharts_project(rng: random.Random, index: int, directory: str) -> Project:
    """One class per chart; charts of 6 to 150 states with hub states,
    shared events and guards."""

    packages = _statechart_packages(rng)

    sizes = list(STATECHART_SIZES)
    rng.shuffle(sizes)
    prefixes = rng.sample([a + b for a in _SYLLABLES for b in _SYLLABLES], len(sizes))
    classes: list[Cls] = []
    charts: list[Chart] = []
    for number, (n, prefix) in enumerate(zip(sizes, prefixes)):
        name = f"{prefix.capitalize()}Dev{number}"
        planted = tuple(e for e in ("panic", "abort") if rng.random() < 0.3)
        chart = _chart(rng, f"Sc{name}", name, prefix, n, hubs=max(1, n // 40),
                       fan_out=min(20, max(2, n // 6)),
                       guards=("not busy", "ready and not busy"),
                       planted_events=planted)
        cls = Cls(name, stereotypes=["device"] if number % 3 == 0 else [],
                  attrs=[("busy", "Boolean"), ("ready", "Boolean"), ("count", "Integer")],
                  invariants=["count >= 0"])
        events = chart.events()
        cls.ops.append(Op(events[0], pre="not busy"))
        cls.ops.append(Op(events[1]))
        cls.ops.append(Op("reset_all", post="count = 0"))
        classes.append(cls)
        charts.append(chart)
    spec = ModelSpec(f"charts{index}", classes, charts)
    return _finish(index, directory, packages, "proj", spec)


# -- prefaces ------------------------------------------------------------------

PREFACE_FOUNDATIONS = 4
PREFACE_PROFILES = 48
PREFACE_DEFINITIONS = 36
PREFACE_MODEL_CLASSES = 48
#: Project roots in the library; a run with more projects gets more.
PREFACE_ROOTS = 32

_BAD_ATTRS = ("tmp", "scratch", "old")
_BAD_OPS = ("legacy", "hack")
_BAD_EVENTS = ("panic", "abort")
_STEREOTYPES = ("entity", "control", "boundary", "sealed", "event")
_OPTIONS = {
    "aggregation.semantics": ("strong", "weak"),
    "statechart.unexpected_event": ("error", "ignore"),
    "inheritance.multiple": ("allowed", "forbidden"),
    "framing.default": ("unmentioned_unchanged", "unconstrained"),
    "communication.paradigm": ("synchronous", "asynchronous", "procedure_call"),
}

#: Constraint names with their scope, severity and a family of bodies; a
#: redefinition picks a member of the family with fresh parameters.
_CONSTRAINT_FAMILIES = {
    "attr_clean": ("Attribute", "warning", lambda r: _attr_not_named(r.choice(_BAD_ATTRS))),
    "attr_clean2": ("Attribute", "warning", lambda r: _attr_not_named(r.choice(_BAD_ATTRS))),
    "op_clean": ("Operation", "warning", lambda r: _op_not_named(r.choice(_BAD_OPS))),
    "op_clean2": ("Operation", "warning", lambda r: _op_not_named(r.choice(_BAD_OPS))),
    "no_bad_attr": ("Class", "warning", lambda r: _no_attr_named(r.choice(_BAD_ATTRS))),
    "attr_budget": ("Class", "warning", lambda r: _attrs_at_most(r.randint(6, 12))),
    "op_budget": ("Class", "warning", lambda r: _ops_at_most(r.randint(5, 9))),
    "parent_ok": ("Class", "warning", lambda r: _parent_not(r.choice(_STEREOTYPES))),
    "stereo_ops": ("Class", "warning",
                   lambda r: _stereotyped_has_ops(r.choice(_STEREOTYPES), r.randint(3, 6))),
    "distinct": ("Class", "error", lambda r: _members_distinct()),
    "no_loop": ("Transition", "warning", lambda r: _no_self_loop()),
    "event_ok": ("Transition", "warning", lambda r: _event_not(r.choice(_BAD_EVENTS))),
}


def _preface_package(rng: random.Random, pkg_id: str, imports: list[str],
                     foundation: bool) -> Package:
    pkg = Package(pkg_id, imports)
    if foundation:
        pkg.lines += [f"stereotype {s} on Class" for s in _STEREOTYPES]
        pkg.lines.append("transform statechart-to-class on")
    stereotypes_here = set(_STEREOTYPES) if foundation else set()
    tags_here: set[str] = set()
    constraints_here: set[str] = set()
    while len(pkg.lines) < PREFACE_DEFINITIONS:
        kind = rng.random()
        if kind < 0.25:
            value = rng.choice((str(rng.randint(0, 999)), f'"{_word(rng)}"',
                                rng.choice(("true", "false"))))
            pkg.lines.append(f"const k{rng.randint(0, 59)} = {value}")
        elif kind < 0.35:
            key = rng.choice(sorted(_OPTIONS))
            pkg.lines.append(f"option {key} = {rng.choice(_OPTIONS[key])}")
        elif kind < 0.40:
            name = rng.choice(_STEREOTYPES)
            if name not in stereotypes_here:
                stereotypes_here.add(name)
                pkg.lines.append(f"stereotype {name} on Class")
        elif kind < 0.45:
            name = f"t{rng.randint(0, 19)}"
            if name not in tags_here:
                tags_here.add(name)
                pkg.lines.append(f"tagdef {name} : {rng.choice(('string', 'int', 'bool'))}")
        elif kind < 0.60:
            predicate = rng.choice(("all", f"stereotype({rng.choice(_STEREOTYPES)})",
                                    "metaclass(Operation)", "metaclass(Attribute)"))
            pkg.lines.append(f"rule p{rng.randint(0, 9)} when {predicate} = v{rng.randint(0, 5)}")
        elif kind < 0.63:
            pkg.lines.append(f"transform audit-trail {rng.choice(('on', 'off'))}")
        else:
            name = rng.choice(sorted(_CONSTRAINT_FAMILIES))
            if name in constraints_here:
                continue
            constraints_here.add(name)
            scope, severity, family = _CONSTRAINT_FAMILIES[name]
            pkg.add(_constraint(name, scope, severity, family(rng)))
    return pkg


def preface_library(rng: random.Random, roots: int) -> dict[str, Package]:
    """Foundations in a chain, profiles importing foundations and earlier
    profiles (so imports form diamonds), and ``roots`` project roots."""

    packages: dict[str, Package] = {}
    for i in range(PREFACE_FOUNDATIONS):
        packages[f"found{i}"] = _preface_package(
            rng, f"found{i}", [f"found{i - 1}"] if i else [], foundation=i == 0)
    lower = list(packages)
    for i in range(PREFACE_PROFILES):
        imports = rng.sample(lower, min(len(lower), rng.randint(1, 3)))
        if "found0" not in imports and rng.random() < 0.5:
            imports.append("found0")
        packages[f"prof{i}"] = _preface_package(rng, f"prof{i}", imports, False)
        lower.append(f"prof{i}")
    profiles = [p for p in packages if p.startswith("prof")]
    for i in range(roots):
        imports = ["found0"] + rng.sample(profiles, rng.randint(2, 4))
        packages[f"root{i}"] = _preface_package(rng, f"root{i}", imports, False)
    return packages


def _preface_model(rng: random.Random, index: int) -> ModelSpec:
    classes: list[Cls] = []
    charts: list[Chart] = []
    for i in range(PREFACE_MODEL_CLASSES):
        name = f"{_word(rng).capitalize()}M{i}"
        supers = [classes[i - 1 - rng.randint(0, min(i - 1, 4))].name] if i else []
        cls = Cls(name, supers, sorted(rng.sample(_STEREOTYPES, rng.randint(0, 2))))
        for k in range(rng.randint(4, 10)):
            attr = rng.choice(_BAD_ATTRS) if rng.random() < 0.05 else f"a{k}{_word(rng, 1)}"
            if all(attr != a for a, _ in cls.attrs):
                cls.attrs.append((attr, rng.choice(("Boolean", "Integer", "String"))))
        for k in range(rng.randint(3, 8)):
            op = rng.choice(_BAD_OPS) if rng.random() < 0.05 else f"op{k}{_word(rng, 1)}"
            if all(op != o.name for o in cls.ops):
                cls.ops.append(Op(op))
        if i % 6 == 0:
            cls.attrs.append(("busy", "Boolean"))
            planted = (rng.choice(_BAD_EVENTS),) if rng.random() < 0.5 else ()
            chart = _chart(rng, f"Sc{name}", name, "w", rng.randint(5, 10), hubs=1,
                           fan_out=3, guards=("not busy",), planted_events=planted)
            # A self loop now and then, for the no_loop constraint.
            if rng.random() < 0.5:
                state = rng.choice(chart.states)
                chart.transitions.append((state, state, "wstep0", None))
            charts.append(chart)
        classes.append(cls)
    return ModelSpec(f"lib{index}", classes, charts)


def prefaces_projects(rng: random.Random, count: int, directory: str) -> list[Project]:
    """``count`` projects on one library; project ``i`` composes root
    ``root<i>`` against a model of its own.  Every operation reads a copy
    of the whole library of its own (see ``Project``)."""

    packages = preface_library(rng, max(count, PREFACE_ROOTS))
    projects = []
    for i in range(count):
        project_dir = os.path.join(directory, f"p{i}")
        os.makedirs(project_dir, exist_ok=True)
        projects.append(_finish(i, project_dir, packages, f"root{i}",
                                _preface_model(rng, i)))
    return projects


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("hierarchy", "statecharts", "prefaces")


def generate(workload: str, seed: int, count: int, directory: str) -> list[Project]:
    """``count`` projects of one workload under ``directory``."""

    if workload == "prefaces":
        return prefaces_projects(random.Random(f"prefaces:{seed}"), count, directory)
    make = {"hierarchy": hierarchy_project, "statecharts": statecharts_project}[workload]
    projects = []
    for i in range(count):
        project_dir = os.path.join(directory, f"p{i}")
        os.makedirs(project_dir, exist_ok=True)
        projects.append(make(random.Random(f"{workload}:{seed}:{i}"), i, project_dir))
    return projects
