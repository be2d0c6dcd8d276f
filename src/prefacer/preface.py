"""Definition packages and their composition into one effective language.

A preface is an ordered arrangement of packages, each contributing
definitions: named constants, option selections, stereotypes, tag types,
well-formedness constraints, predicated property rules and transform
switches.  Composition is redefinition by position: later definitions are
redefinitions of earlier ones, and a package's own body counts as coming
after everything it imports.

``flatten_imports`` turns the import graph into that total order (imports
first, in listed order, depth first, each package emitted once, root last).
``resolve`` then replays every definition in order into an
``EffectiveDefinitions``: for scalar keys and registries the last
definition wins; predicated rules stack into a chain consulted newest
first, so a later, more specific rule shadows an older general one exactly
like an if-then-else with the newest test on top.

Options the preface never mentions fall back to the built-in catalogue
default, recorded with the synthetic provenance ``catalogue-default`` so
that ``explain`` stays total over option keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .diagnostics import Diagnostic, SourceLocation
from .expr import Expr, LiteralValue
from .model import METACLASSES, Model, ModelElement, stereotypes_of, metaclass_of

# ---------------------------------------------------------------------------
# Option catalogue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptionEntry:
    domain: tuple[str, ...]
    default: str


#: Every option key a preface may set, with its value domain and default.
OPTION_CATALOGUE: dict[str, OptionEntry] = {
    "aggregation.semantics": OptionEntry(("strong", "weak"), "weak"),
    "statechart.attach_to": OptionEntry(("class", "method"), "class"),
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


@dataclass(frozen=True)
class ConstDef:
    key: str
    value: LiteralValue
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OptionDef:
    key: str
    value: str
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StereotypeDef:
    name: str
    base: str
    required_tags: tuple[str, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_tags", tuple(self.required_tags))


@dataclass(frozen=True)
class TagDef:
    name: str
    value_type: str  # "string" | "int" | "bool"
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ConstraintDef:
    name: str
    scope: str  # a metaclass name
    severity: str  # "error" | "warning"
    body: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MatchAll:
    pass


@dataclass(frozen=True)
class HasStereotype:
    name: str


@dataclass(frozen=True)
class IsMetaclass:
    metaclass: str


Predicate = MatchAll | HasStereotype | IsMetaclass


@dataclass(frozen=True)
class PredicatedRuleDef:
    property_key: str
    predicate: Predicate
    value: str
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TransformSelection:
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


@dataclass(frozen=True)
class Package:
    """One definition package: an id, ordered imports, ordered definitions."""

    id: str
    imports: tuple[str, ...] = ()
    definitions: tuple[Definition, ...] = ()
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "imports", tuple(self.imports))
        object.__setattr__(self, "definitions", tuple(self.definitions))


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


@dataclass(frozen=True)
class Provenance:
    """Which package supplied a winning definition, and where it sat in the
    flattened definition list."""

    package_id: str
    definition_index: int


@dataclass(frozen=True)
class ChainEntry:
    package_id: str
    value: LiteralValue

    def render(self) -> str:
        return render_literal(self.value)


@dataclass(frozen=True)
class OverrideChain:
    """All definitions of one key, oldest first; the last entry wins."""

    key: str
    entries: tuple[ChainEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def winner(self) -> ChainEntry:
        return self.entries[-1]


def render_literal(value: LiteralValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f'"{value}"'


@dataclass(frozen=True)
class EffectiveDefinitions:
    """The language member a flattened preface denotes.

    Mappings are insertion-ordered by first definition; the stored values
    are always the newest (winning) ones.  ``predicated`` chains are kept
    newest first, which is the order ``resolve_predicated`` consults them
    in.  ``scalar_history`` powers ``explain`` and the report printer.
    """

    scalars: dict[str, tuple[LiteralValue, Provenance]]
    predicated: dict[str, tuple[tuple[Predicate, str, Provenance], ...]]
    constraints: dict[str, tuple[ConstraintDef, Provenance]]
    stereotypes: dict[str, tuple[StereotypeDef, Provenance]]
    tags: dict[str, tuple[TagDef, Provenance]]
    transforms: dict[str, tuple[bool, Provenance]]
    flattened_order: tuple[str, ...]
    scalar_history: dict[str, tuple[ChainEntry, ...]]

    def option(self, key: str) -> str:
        value, _ = self.scalars[key]
        return str(value)

    def transform_enabled(self, transform_id: str) -> bool:
        entry = self.transforms.get(transform_id)
        return entry is not None and entry[0]


def resolve(flattened: list[Package]) -> EffectiveDefinitions:
    """Replay every definition in flattened order; the newest wins.

    Constraints are replaced wholesale when redefined under the same name.
    Predicated rules accumulate instead of replacing: each redefinition is
    pushed onto the front of its property's chain.
    """

    scalars: dict[str, tuple[LiteralValue, Provenance]] = {}
    history: dict[str, list[ChainEntry]] = {}
    predicated: dict[str, list[tuple[Predicate, str, Provenance]]] = {}
    constraints: dict[str, tuple[ConstraintDef, Provenance]] = {}
    stereotypes: dict[str, tuple[StereotypeDef, Provenance]] = {}
    tags: dict[str, tuple[TagDef, Provenance]] = {}
    transforms: dict[str, tuple[bool, Provenance]] = {}

    index = 0
    for pkg in flattened:
        for definition in pkg.definitions:
            prov = Provenance(pkg.id, index)
            index += 1
            if isinstance(definition, (ConstDef, OptionDef)):
                scalars[definition.key] = (definition.value, prov)
                history.setdefault(definition.key, []).append(
                    ChainEntry(pkg.id, definition.value))
            elif isinstance(definition, PredicatedRuleDef):
                chain = predicated.setdefault(definition.property_key, [])
                chain.insert(0, (definition.predicate, definition.value, prov))
            elif isinstance(definition, ConstraintDef):
                constraints[definition.name] = (definition, prov)
            elif isinstance(definition, StereotypeDef):
                stereotypes[definition.name] = (definition, prov)
            elif isinstance(definition, TagDef):
                tags[definition.name] = (definition, prov)
            elif isinstance(definition, TransformSelection):
                transforms[definition.transform_id] = (definition.enabled, prov)
            else:
                raise TypeError(f"unknown definition kind: {definition!r}")

    for key, entry in OPTION_CATALOGUE.items():
        if key not in scalars:
            scalars[key] = (entry.default, Provenance(CATALOGUE_DEFAULT, -1))

    return EffectiveDefinitions(
        scalars=scalars,
        predicated={k: tuple(v) for k, v in predicated.items()},
        constraints=constraints,
        stereotypes=stereotypes,
        tags=tags,
        transforms=transforms,
        flattened_order=tuple(pkg.id for pkg in flattened),
        scalar_history={k: tuple(v) for k, v in history.items()},
    )


def compose(repo: PackageRepository, root_id: str) -> EffectiveDefinitions:
    """``resolve`` over ``flatten_imports``; the usual entry point."""

    return resolve(flatten_imports(repo, root_id))


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------


def lookup_scalar(eff: EffectiveDefinitions, key: str) -> tuple[LiteralValue, Provenance]:
    """The winning value of a constant or option key."""

    try:
        return eff.scalars[key]
    except KeyError:
        raise NotDefinedError(key) from None


def resolve_predicated(
    eff: EffectiveDefinitions,
    property_key: str,
    subject: ModelElement,
    model: Model,
) -> tuple[str, Provenance]:
    """Walk the property's chain newest first; the first match wins.

    Matching a ``HasStereotype`` test consults the subject's stereotype
    set (empty for element kinds that cannot carry one), ``IsMetaclass``
    its metaclass, and ``MatchAll`` everything, so a chain reads as an
    if-then-else with the newest, most specific case on top.
    """

    chain = eff.predicated.get(property_key, ())
    for predicate, value, prov in chain:
        if _matches(predicate, subject):
            return value, prov
    raise NoApplicableRuleError(property_key)


def _matches(predicate: Predicate, subject: ModelElement) -> bool:
    if isinstance(predicate, MatchAll):
        return True
    if isinstance(predicate, HasStereotype):
        return predicate.name in stereotypes_of(subject)
    if isinstance(predicate, IsMetaclass):
        return metaclass_of(subject) == predicate.metaclass
    raise TypeError(f"unknown predicate: {predicate!r}")


def explain(eff: EffectiveDefinitions, key: str) -> OverrideChain:
    """Every definition of ``key`` in flattened order, winner last.

    Option keys nobody set explain as a single catalogue-default entry.
    """

    entries = eff.scalar_history.get(key)
    if entries:
        return OverrideChain(key, entries)
    if key in OPTION_CATALOGUE:
        return OverrideChain(
            key, (ChainEntry(CATALOGUE_DEFAULT, OPTION_CATALOGUE[key].default),))
    raise NotDefinedError(key)


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
    same problems, plus the ones composition tolerates: unknown option
    keys or values, duplicate stereotype or tag definitions inside one
    package, and predicated rules whose stereotype test nothing declares.
    """

    diags: list[Diagnostic] = []

    if root_id not in repo:
        diags.append(Diagnostic(
            "error", "E107", root_id,
            f"root package '{root_id}' is not in the repository"))

    for pkg in repo.values():
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
                predicate = definition.predicate
                if (isinstance(predicate, HasStereotype)
                        and predicate.name not in declared_stereotypes):
                    diags.append(Diagnostic(
                        "warning", "W101", pkg.id,
                        f"rule for '{definition.property_key}' tests stereotype "
                        f"'{predicate.name}', which no package declares",
                        definition.loc))
                if (isinstance(predicate, IsMetaclass)
                        and predicate.metaclass not in METACLASSES):
                    diags.append(Diagnostic(
                        "error", "E109", pkg.id,
                        f"rule for '{definition.property_key}' tests unknown "
                        f"metaclass '{predicate.metaclass}'",
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
