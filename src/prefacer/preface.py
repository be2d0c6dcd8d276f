"""Definition packages and their composition into one effective language.

A preface is an ordered arrangement of packages, each contributing
definitions: named constants, option selections, stereotypes, tag types,
well-formedness constraints, predicated property rules and transform
switches.  Composition is redefinition by position: later definitions are
redefinitions of earlier ones, and a package's own body counts as coming
after everything it imports.

``flatten_imports`` turns the import graph into that total order (imports
first, in listed order, depth first, each package emitted once, root last).
``resolve`` then replays every definition in order into one provenance
table, ``EffectiveDefinitions.chains``: each ``(kind, key)`` holds every
definition of that key with where it came from, oldest first.  ``KINDS``
names the kind and the key of each definition class; constants and options
share the ``scalar`` kind.  The newest entry of a chain wins, and
``explain`` hands out a constant's or option's chain as it stands: the
override history that is the reason a key means what it does.  A predicated
rule chain is consulted newest first, so a later, more specific rule
shadows an older general one exactly like an if-then-else with the newest
test on top.

An option the preface never mentions gets a one-entry chain holding the
built-in catalogue default, with the synthetic provenance
``catalogue-default``, so that ``explain`` stays total over option keys.
That id is reserved: ``validate_preface`` reports a package that takes
it (E110).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterable, Iterator

from .diagnostics import Diagnostic, SourceLocation
from .expr import Expr, LiteralValue
from .model import METACLASSES, ModelElement, stereotypes_of, metaclass_of
from .record import field, record

# ---------------------------------------------------------------------------
# Option catalogue
# ---------------------------------------------------------------------------


@record
class OptionEntry:
    """An option's value domain and its catalogue default."""

    domain: tuple[str, ...]
    default: str


#: Every option key a preface may set, with its value domain and default.
OPTION_CATALOGUE: dict[str, OptionEntry] = {
    "aggregation.semantics": OptionEntry(("strong", "weak"), "weak"),
    "statechart.unexpected_event": OptionEntry(("error", "ignore"), "error"),
    "inheritance.multiple": OptionEntry(("allowed", "forbidden"), "allowed"),
    "framing.default": OptionEntry(("unmentioned_unchanged", "unconstrained"), "unconstrained"),
    "communication.paradigm": OptionEntry(
        ("synchronous", "asynchronous", "procedure_call"), "procedure_call"),
}

#: Synthetic provenance for option values nobody set explicitly.
CATALOGUE_DEFAULT = "catalogue-default"

#: Id of the statechart induction transform, the one transform shipped here.
STATECHART_TO_CLASS = "statechart-to-class"


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


@record
class ConstDef:
    """``const key = value``: a named constant."""

    key: str
    value: LiteralValue
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class OptionDef:
    """``option key = value``: a semantic option selection."""

    key: str
    value: str
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class StereotypeDef:
    """``stereotype name on base``, with the tags it requires."""

    name: str
    base: str
    required_tags: tuple[str, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class TagDef:
    """``tagdef name : type``: a tag and the type of its values."""

    name: str
    value_type: str  # "string" | "int" | "bool"
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class ConstraintDef:
    """A named well-formedness constraint over one metaclass."""

    name: str
    scope: str  # a metaclass name
    severity: str  # "error" | "warning"
    body: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Predicate:
    """The case a rule tests, by the word the rule writes: ``all``,
    ``stereotype(name)`` or ``metaclass(name)``."""

    kind: str  # "all" | "stereotype" | "metaclass"
    name: str | None = None  # the stereotype or metaclass; None for "all"


@record
class PredicatedRuleDef:
    """One case of a property rule: the value where the predicate holds."""

    property_key: str
    predicate: Predicate
    value: str
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class TransformSelection:
    """``transform id on|off``: switches a transform."""

    transform_id: str
    enabled: bool
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


Definition = (
    ConstDef
    | OptionDef
    | StereotypeDef
    | TagDef
    | ConstraintDef
    | PredicatedRuleDef
    | TransformSelection
)

#: Definition class -> (kind, name of its key field).  Two definitions
#: override each other exactly when they share kind and key.
KINDS: dict[type, tuple[str, str]] = {
    ConstDef: ("scalar", "key"),
    OptionDef: ("scalar", "key"),
    StereotypeDef: ("stereotype", "name"),
    TagDef: ("tag", "name"),
    ConstraintDef: ("constraint", "name"),
    PredicatedRuleDef: ("rule", "property_key"),
    TransformSelection: ("transform", "transform_id"),
}


@record
class Package:
    """One definition package: an id, ordered imports, ordered definitions."""

    id: str
    imports: tuple[str, ...] = ()
    definitions: tuple[Definition, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


#: Package id -> package.  Insertion order is the load order and only
#: matters for diagnostic ordering, never for composition.
PackageRepository = dict[str, Package]


# ---------------------------------------------------------------------------
# Composition errors
# ---------------------------------------------------------------------------


class CompositionError(Exception):
    """A preface cannot be flattened into a definition order."""


class CycleDetectedError(CompositionError):
    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("import cycle: " + " -> ".join(self.cycle))


class UnknownImportError(CompositionError):
    def __init__(self, importing: str, missing: str):
        self.importing = importing
        self.missing = missing
        super().__init__(f"package '{importing}' imports unknown package '{missing}'")


class UnknownRootError(CompositionError):
    def __init__(self, root_id: str):
        self.root_id = root_id
        super().__init__(f"root package '{root_id}' is not in the repository")


class NotDefinedError(KeyError):
    """A scalar key has no definition and no catalogue default."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"'{key}' is not defined by the preface")

    def __str__(self) -> str:
        return f"'{self.key}' is not defined by the preface"


class NoApplicableRuleError(LookupError):
    """No entry of a predicated chain matches the subject."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no applicable rule for '{key}'")


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------


def _walk_imports(repo: PackageRepository,
                  start_ids: Iterable[str]) -> Iterator[tuple[str, str, Any]]:
    """Iterative depth-first walk over imports, from each start in turn.

    Yields ``("unknown", importer, missing)``, ``("cycle", pkg_id, path)``
    for an import back onto the current path (``path`` runs from ``pkg_id``
    round to it again) and ``("done", pkg_id, None)`` once every import of
    a package is done, in ``flatten_imports`` order.  Bad edges are skipped.
    """

    done: set[str] = set()
    for start in start_ids:
        if start in done:
            continue
        path = {start: iter(repo[start].imports)}  # package -> imports left
        while path:
            pkg_id, imports = next(reversed(path.items()))
            for imported in imports:
                if imported not in repo:
                    yield "unknown", pkg_id, imported
                elif imported in path:
                    trail = list(path)
                    yield "cycle", imported, trail[trail.index(imported):] + [imported]
                elif imported not in done:
                    path[imported] = iter(repo[imported].imports)
                    break
            else:
                path.popitem()
                done.add(pkg_id)
                yield "done", pkg_id, None


def flatten_imports(repo: PackageRepository, root_id: str) -> list[Package]:
    """Total package order for composition: depth first, imports before
    importer, first occurrence only, root last.
    """

    if root_id not in repo:
        raise UnknownRootError(root_id)

    emitted: list[Package] = []
    for event, pkg_id, detail in _walk_imports(repo, (root_id,)):
        if event == "unknown":
            raise UnknownImportError(pkg_id, detail)
        if event == "cycle":
            raise CycleDetectedError(detail)
        emitted.append(repo[pkg_id])
    return emitted


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


@record
class Provenance:
    """Which package supplied a winning definition, and where it sat in the
    flattened definition list."""

    package_id: str
    definition_index: int


def render_literal(value: LiteralValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f'"{value}"'


#: Every definition of one ``(kind, key)`` with its provenance, oldest first.
Chain = tuple[tuple[Definition, Provenance], ...]


@record
class EffectiveDefinitions:
    """The language member a flattened preface denotes, as one provenance
    table.

    ``table`` pairs each ``(kind, key)`` of ``KINDS`` with its chain, so
    ``chain[-1]`` is the winner.  It is ordered by first definition, with
    the catalogue defaults of unset options last.  ``chains`` indexes it.
    """

    flattened_order: tuple[str, ...]
    table: tuple[tuple[tuple[str, str], Chain], ...]
    chains: MappingProxyType[tuple[str, str], Chain] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chains", MappingProxyType(dict(self.table)))

    def winners(self, kind: str) -> dict[str, tuple[Definition, Provenance]]:
        """The winning definition of every key of ``kind``, by key."""

        return {key: chain[-1] for (k, key), chain in self.chains.items() if k == kind}

    def option(self, key: str) -> str:
        return str(self.chains["scalar", key][-1][0].value)

    def transform_enabled(self, transform_id: str) -> bool:
        chain = self.chains.get(("transform", transform_id))
        return chain is not None and chain[-1][0].enabled


def resolve(flattened: list[Package]) -> EffectiveDefinitions:
    """Replay every definition in flattened order onto the end of its chain,
    then give each option nobody set its catalogue default."""

    chains: dict[tuple[str, str], list[tuple[Definition, Provenance]]] = {}
    index = 0
    for pkg in flattened:
        for definition in pkg.definitions:
            kind, key_field = KINDS[type(definition)]
            chains.setdefault((kind, getattr(definition, key_field)), []).append(
                (definition, Provenance(pkg.id, index)))
            index += 1

    for key, entry in OPTION_CATALOGUE.items():
        chains.setdefault(("scalar", key), [
            (OptionDef(key, entry.default), Provenance(CATALOGUE_DEFAULT, -1))])

    return EffectiveDefinitions(
        tuple(pkg.id for pkg in flattened), tuple((k, tuple(v)) for k, v in chains.items()))


def compose(repo: PackageRepository, root_id: str) -> EffectiveDefinitions:
    """``resolve`` over ``flatten_imports``; the usual entry point."""

    return resolve(flatten_imports(repo, root_id))


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------


def explain(eff: EffectiveDefinitions, key: str) -> Chain:
    """Every definition of a constant or option key with its provenance, in
    flattened order, winner last: the key's chain in ``eff.chains``."""

    try:
        return eff.chains["scalar", key]
    except KeyError:
        raise NotDefinedError(key) from None


def lookup_scalar(eff: EffectiveDefinitions, key: str) -> tuple[LiteralValue, Provenance]:
    """The winning value of a constant or option key."""

    definition, prov = explain(eff, key)[-1]
    return definition.value, prov


def resolve_predicated(
    eff: EffectiveDefinitions, property_key: str, subject: ModelElement,
) -> tuple[str, Provenance]:
    """Walk the property's chain newest first; the first match wins.

    A ``stereotype`` case consults the subject's stereotype set (empty for
    element kinds that cannot carry one), a ``metaclass`` case its
    metaclass, and ``all`` matches everything, so a chain reads as an
    if-then-else with the newest, most specific case on top.
    """

    for definition, prov in reversed(eff.chains.get(("rule", property_key), ())):
        if _matches(definition.predicate, subject):
            return definition.value, prov
    raise NoApplicableRuleError(property_key)


def _matches(predicate: Predicate, subject: ModelElement) -> bool:
    kind = predicate.kind
    if kind == "all":
        return True
    if kind == "stereotype":
        return predicate.name in stereotypes_of(subject)
    if kind == "metaclass":
        return metaclass_of(subject) == predicate.name
    raise ValueError(f"unknown predicate kind: {kind!r}")


# ---------------------------------------------------------------------------
# Preface validation
# ---------------------------------------------------------------------------


def _cycle_diagnostics(repo: PackageRepository) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    reported: set[frozenset[str]] = set()
    for event, pkg_id, cycle in _walk_imports(repo, repo):
        if event != "cycle" or frozenset(cycle) in reported:
            continue
        reported.add(frozenset(cycle))
        diags.append(Diagnostic(
            "error", "E102", pkg_id, "import cycle: " + " -> ".join(cycle),
            repo[pkg_id].loc))
    return diags


def validate_preface(repo: PackageRepository, root_id: str) -> list[Diagnostic]:
    """Repository-wide hygiene checks, reported as diagnostics.

    Composition itself raises (see ``flatten_imports``); this reports the
    same problems, plus the ones composition tolerates: a package that
    takes the reserved id ``catalogue-default``, unknown option keys or
    values, duplicate stereotype or tag definitions inside one package,
    and predicated rules whose stereotype test nothing declares.
    """

    diags: list[Diagnostic] = []

    if root_id not in repo:
        diags.append(Diagnostic(
            "error", "E107", root_id,
            f"root package '{root_id}' is not in the repository"))

    for pkg in repo.values():
        if pkg.id == CATALOGUE_DEFAULT:
            diags.append(Diagnostic(
                "error", "E110", pkg.id,
                f"package id '{CATALOGUE_DEFAULT}' is reserved", pkg.loc))
        for imported in pkg.imports:
            if imported not in repo:
                diags.append(Diagnostic(
                    "error", "E101", pkg.id,
                    f"package '{pkg.id}' imports unknown package '{imported}'",
                    pkg.loc))

    diags.extend(_cycle_diagnostics(repo))

    declared_stereotypes: set[str] = set()
    for pkg in repo.values():
        for definition in pkg.definitions:
            if isinstance(definition, StereotypeDef):
                declared_stereotypes.add(definition.name)

    for pkg in repo.values():
        seen_stereotypes: set[str] = set()
        seen_tags: set[str] = set()
        for definition in pkg.definitions:
            if isinstance(definition, OptionDef):
                entry = OPTION_CATALOGUE.get(definition.key)
                if entry is None:
                    diags.append(Diagnostic(
                        "error", "E103", pkg.id,
                        f"unknown option key '{definition.key}'", definition.loc))
                elif definition.value not in entry.domain:
                    diags.append(Diagnostic(
                        "error", "E104", pkg.id,
                        f"'{definition.value}' is not a valid value for "
                        f"'{definition.key}' (expected one of "
                        f"{', '.join(entry.domain)})",
                        definition.loc))
            elif isinstance(definition, StereotypeDef):
                if definition.name in seen_stereotypes:
                    diags.append(Diagnostic(
                        "error", "E105", pkg.id,
                        f"stereotype '{definition.name}' defined twice in "
                        f"package '{pkg.id}'", definition.loc))
                seen_stereotypes.add(definition.name)
            elif isinstance(definition, TagDef):
                if definition.name in seen_tags:
                    diags.append(Diagnostic(
                        "error", "E106", pkg.id,
                        f"tag '{definition.name}' defined twice in package "
                        f"'{pkg.id}'", definition.loc))
                seen_tags.add(definition.name)
            elif isinstance(definition, PredicatedRuleDef):
                kind, name = definition.predicate.kind, definition.predicate.name
                if kind == "stereotype" and name not in declared_stereotypes:
                    diags.append(Diagnostic(
                        "warning", "W101", pkg.id,
                        f"rule for '{definition.property_key}' tests stereotype "
                        f"'{name}', which no package declares",
                        definition.loc))
                if kind == "metaclass" and name not in METACLASSES:
                    diags.append(Diagnostic(
                        "error", "E109", pkg.id,
                        f"rule for '{definition.property_key}' tests unknown "
                        f"metaclass '{name}'",
                        definition.loc))

    # Base changes are judged in composition order, so "newest" is the one
    # ``compose`` keeps; packages the root never reaches are not compared.
    stereotype_base: dict[str, str] = {}
    walk = _walk_imports(repo, (root_id,)) if root_id in repo else ()
    for event, pkg_id, _ in walk:
        if event != "done":
            continue
        for definition in repo[pkg_id].definitions:
            if not isinstance(definition, StereotypeDef):
                continue
            previous_base = stereotype_base.get(definition.name)
            if previous_base is not None and previous_base != definition.base:
                diags.append(Diagnostic(
                    "warning", "W102", pkg_id,
                    f"stereotype '{definition.name}' redefined on metaclass "
                    f"'{definition.base}' (previously '{previous_base}'); "
                    "the newest definition wins",
                    definition.loc))
            stereotype_base[definition.name] = definition.base

    return diags
