"""Composition: flattening, redefinition order, predicated rules, hygiene."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import inject_cycle, random_model, random_repo
from oracles import (
    OracleCompositionFailure,
    definition_keys,
    flatten_reference,
    replay_view,
    snapshot_view,
)
from rule_oracle import flattened_definitions, model_elements, resolve_reference
from prefacer.model import Attribute, ClassDef, Statechart
from prefacer.preface import (
    CATALOGUE_DEFAULT,
    OPTION_CATALOGUE,
    CompositionError,
    ConstDef,
    ConstraintDef,
    CycleDetectedError,
    NoApplicableRuleError,
    NotDefinedError,
    OptionDef,
    Package,
    Predicate,
    PredicatedRuleDef,
    Provenance,
    StereotypeDef,
    TagDef,
    TransformSelection,
    UnknownImportError,
    UnknownRootError,
    compose,
    explain,
    flatten_imports,
    lookup_scalar,
    resolve,
    resolve_predicated,
    validate_preface,
)
from prefacer.expr import Literal
from prefacer.textio import parse_package


def ids(flattened):
    return [pkg.id for pkg in flattened]


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------


def test_imports_come_before_the_importer(worked_repo):
    repo, root = worked_repo
    assert ids(flatten_imports(repo, root)) == ["uml-core", "client-c", "project-p"]


def test_diamond_is_emitted_once():
    repo = {
        "base": Package("base"),
        "left": Package("left", ("base",)),
        "right": Package("right", ("base",)),
        "top": Package("top", ("left", "right")),
    }
    assert ids(flatten_imports(repo, "top")) == ["base", "left", "right", "top"]


def test_import_order_is_respected_depth_first():
    repo = {
        "a": Package("a"),
        "b": Package("b", ("a",)),
        "c": Package("c"),
        "root": Package("root", ("c", "b")),
    }
    assert ids(flatten_imports(repo, "root")) == ["c", "a", "b", "root"]


def test_unknown_root_and_unknown_import():
    repo = {"a": Package("a", ("ghost",))}
    with pytest.raises(UnknownRootError):
        flatten_imports(repo, "nope")
    with pytest.raises(UnknownImportError) as failure:
        flatten_imports(repo, "a")
    assert failure.value.missing == "ghost"


def test_cycle_reports_its_path():
    repo = {
        "a": Package("a", ("b",)),
        "b": Package("b", ("c",)),
        "c": Package("c", ("a",)),
    }
    with pytest.raises(CycleDetectedError) as failure:
        flatten_imports(repo, "a")
    cycle = failure.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b", "c"}


def test_flattening_agrees_with_reference_on_random_repos():
    rng = random.Random(411)
    for _ in range(300):
        repo, root = random_repo(rng)
        assert ids(flatten_imports(repo, root)) == flatten_reference(repo, root)


def test_cyclic_repos_fail_in_both_implementations():
    rng = random.Random(412)
    failures = 0
    for _ in range(200):
        repo, root = random_repo(rng)
        cyclic = inject_cycle(repo, rng)
        oracle_failed = False
        try:
            flatten_reference(cyclic, root)
        except OracleCompositionFailure:
            oracle_failed = True
        try:
            flatten_imports(cyclic, root)
        except CompositionError:
            assert oracle_failed
            failures += 1
        else:
            # The injected edge may sit outside the part reachable from
            # the root; then neither implementation may complain.
            assert not oracle_failed
    assert failures > 50


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def test_last_definition_wins_with_provenance(worked_repo):
    repo, root = worked_repo
    eff = compose(repo, root)
    value, prov = lookup_scalar(eff, "max")
    assert value == 8
    assert prov == Provenance("project-p", 6)


def test_missing_key_raises_not_defined(worked_eff):
    with pytest.raises(NotDefinedError):
        lookup_scalar(worked_eff, "ghost")


def test_unset_options_fall_back_to_the_catalogue(worked_eff):
    for key, entry in OPTION_CATALOGUE.items():
        value, prov = lookup_scalar(worked_eff, key)
        if key == "statechart.unexpected_event":
            assert (value, prov.package_id) == ("error", "uml-core")
        else:
            assert (value, prov.package_id) == (entry.default, CATALOGUE_DEFAULT)
            assert prov.definition_index == -1


def test_constraints_are_replaced_wholesale_by_name():
    first = ConstraintDef("named", "Class", "error", Literal(True))
    second = ConstraintDef("named", "Operation", "warning", Literal(False))
    eff = resolve([Package("a", (), (first,)), Package("b", (), (second,))])
    definition, prov = eff.winners("constraint")["named"]
    assert definition is second
    assert prov.package_id == "b"


def test_registries_keep_the_newest_definition():
    eff = resolve([
        Package("a", (), (
            StereotypeDef("event", "Class"),
            TagDef("owner", "string"),
            TransformSelection("statechart-to-class", True),
        )),
        Package("b", (), (
            StereotypeDef("event", "Operation"),
            TagDef("owner", "int"),
            TransformSelection("statechart-to-class", False),
        )),
    ])
    assert eff.winners("stereotype")["event"][0].base == "Operation"
    assert eff.winners("tag")["owner"][0].value_type == "int"
    assert eff.transform_enabled("statechart-to-class") is False


def test_resolution_agrees_with_sequential_replay_on_random_repos():
    rng = random.Random(413)
    for _ in range(300):
        repo, root = random_repo(rng)
        flattened = flatten_imports(repo, root)
        assert snapshot_view(resolve(flattened)) == replay_view(flattened)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_replay_agreement_is_seed_independent(seed):
    rng = random.Random(seed)
    repo, root = random_repo(rng)
    flattened = flatten_imports(repo, root)
    assert snapshot_view(resolve(flattened)) == replay_view(flattened)


# ---------------------------------------------------------------------------
# Predicated rules
# ---------------------------------------------------------------------------


def test_newest_matching_rule_wins(worked_eff):
    plain = ClassDef("Order")
    flagged = ClassDef("Alert", stereotypes=frozenset({"event"}))

    value, prov = resolve_predicated(worked_eff, "persistence", flagged)
    assert (value, prov.package_id) == ("transient", "client-c")
    value, prov = resolve_predicated(worked_eff, "persistence", plain)
    assert (value, prov.package_id) == ("persistent", "uml-core")


def test_metaclass_predicate_matches_by_kind():
    eff = resolve([Package("a", (), (
        PredicatedRuleDef("visibility", Predicate("all"), "public"),
        PredicatedRuleDef("visibility", Predicate("metaclass", "Statechart"), "hidden"),
    ))])
    chart = Statechart("SC", "C")
    value, _ = resolve_predicated(eff, "visibility", chart)
    assert value == "hidden"
    value, _ = resolve_predicated(eff, "visibility", ClassDef("C"))
    assert value == "public"


def test_stereotype_predicate_never_matches_a_bare_attribute():
    eff = resolve([Package("a", (), (
        PredicatedRuleDef("persistence", Predicate("stereotype", "event"), "transient"),
    ))])
    with pytest.raises(NoApplicableRuleError):
        resolve_predicated(eff, "persistence", Attribute("a", "Integer"))


def test_unknown_property_has_no_applicable_rule(worked_eff):
    with pytest.raises(NoApplicableRuleError):
        resolve_predicated(worked_eff, "ghost", ClassDef("C"))


def test_rule_resolution_agrees_with_an_independent_replay():
    rng = random.Random(2039)
    winners: Counter = Counter()
    for _ in range(500):
        repo, root = random_repo(rng)
        eff = compose(repo, root)
        definitions = flattened_definitions(repo, root)
        keys = {d.property_key for _, d in definitions if isinstance(d, PredicatedRuleDef)}
        model = random_model(rng)
        for key in sorted(keys) + ["ghost"]:
            for element in model_elements(model):
                expected = resolve_reference(definitions, key, element)
                if expected is None:
                    with pytest.raises(NoApplicableRuleError):
                        resolve_predicated(eff, key, element)
                    winners[None] += 1
                else:
                    rule, prov = expected
                    assert resolve_predicated(eff, key, element) == (rule.value, prov)
                    winners[rule.predicate.kind] += 1
    # every kind of case decides some elements, and some elements none
    assert min(winners[kind] for kind in ("all", "stereotype", "metaclass", None)) > 50


def test_a_rule_of_an_unknown_kind_is_refused_when_matched():
    eff = resolve([Package("a", (), (
        PredicatedRuleDef("visibility", Predicate("all"), "public"),
        PredicatedRuleDef("visibility", Predicate("tagged", "owner"), "hidden"),
    ))])
    with pytest.raises(ValueError, match="unknown predicate kind: 'tagged'"):
        resolve_predicated(eff, "visibility", ClassDef("C"))


# ---------------------------------------------------------------------------
# Explain
# ---------------------------------------------------------------------------


def test_explain_shows_the_whole_chain(worked_eff):
    chain = explain(worked_eff, "max")
    assert chain == ((ConstDef("max", 10), Provenance("uml-core", 0)),
                     (ConstDef("max", 8), Provenance("project-p", 6)))
    assert chain[-1][0].value == 8


def test_explain_answers_for_unset_options(worked_eff):
    chain = explain(worked_eff, "framing.default")
    assert chain == (
        (OptionDef("framing.default", "unconstrained"), Provenance(CATALOGUE_DEFAULT, -1)),)


def test_explain_raises_for_unknown_keys(worked_eff):
    with pytest.raises(NotDefinedError):
        explain(worked_eff, "ghost")


# ---------------------------------------------------------------------------
# Hygiene diagnostics
# ---------------------------------------------------------------------------


def vcodes(repo, root):
    return [d.code for d in validate_preface(repo, root)]


def test_validation_is_quiet_on_the_worked_repo(worked_repo):
    repo, root = worked_repo
    assert validate_preface(repo, root) == []


def test_unknown_root_and_import_are_reported():
    repo = {"a": Package("a", ("ghost",))}
    assert vcodes(repo, "nope") == ["E107", "E101"]


def test_cycles_are_reported_once_per_loop():
    repo = {
        "a": Package("a", ("b",)),
        "b": Package("b", ("a",)),
        "c": Package("c", ("c",)),
    }
    out = [d for d in validate_preface(repo, "a") if d.code == "E102"]
    assert len(out) == 2


def test_import_diagnostics_are_pinned_byte_for_byte():
    # One cycle only "w" reaches, one the root enters half way round, a
    # self-import and an unknown import, in a deliberately mixed load order.
    texts = [
        ("w.preface", 'package "w" {\n  import "x"\n  import "ghost"\n}\n'),
        ("x.preface", '// x\npackage "x" {\n  import "y"\n}\n'),
        ("y.preface", 'package "y" {\n  import "x"\n}\n'),
        ("root.preface", 'package "root" {\n  import "b"\n  import "s"\n}\n'),
        ("a.preface", 'package "a" {\n  import "b"\n}\n'),
        ("b.preface", '// b\n\n  package "b" {\n  import "c"\n}\n'),
        ("c.preface", 'package "c" {\n  import "a"\n}\n'),
        ("s.preface", 'package "s" {\n  import "s"\n}\n'),
    ]
    repo = {}
    for file, text in texts:
        pkg = parse_package(text, file)
        repo[pkg.id] = pkg
    out = [(d.code, d.path, d.message, str(d.location))
           for d in validate_preface(repo, "root")]
    assert out == [
        ("E101", "w", "package 'w' imports unknown package 'ghost'", "w.preface:1:1"),
        ("E102", "x", "import cycle: x -> y -> x", "x.preface:2:1"),
        ("E102", "b", "import cycle: b -> c -> a -> b", "b.preface:3:3"),
        ("E102", "s", "import cycle: s -> s", "s.preface:1:1"),
    ]


def chain_repo(length: int, root_first: bool) -> dict[str, Package]:
    """``p0`` imports ``p1`` imports ... ``p<length-1>``; ``p0`` is the root."""

    packages = [Package(f"p{i}", (f"p{i + 1}",) if i + 1 < length else ())
                for i in range(length)]
    if not root_first:
        packages.reverse()
    return {pkg.id: pkg for pkg in packages}


@pytest.mark.parametrize("root_first", [True, False])
def test_a_thousand_package_chain_flattens_and_validates(root_first):
    repo = chain_repo(1000, root_first)
    assert ids(flatten_imports(repo, "p0")) == [f"p{i}" for i in range(999, -1, -1)]
    assert validate_preface(repo, "p0") == []


def test_option_key_and_value_are_checked():
    repo = {"a": Package("a", (), (
        OptionDef("nonsense.key", "x"),
        OptionDef("framing.default", "sideways"),
        OptionDef("framing.default", "unconstrained"),
    ))}
    assert vcodes(repo, "a") == ["E103", "E104"]


def test_duplicates_inside_one_package_are_reported():
    repo = {"a": Package("a", (), (
        StereotypeDef("event", "Class"),
        StereotypeDef("event", "Class"),
        TagDef("owner", "string"),
        TagDef("owner", "int"),
    ))}
    assert vcodes(repo, "a") == ["E105", "E106"]


def test_stereotype_base_change_warns_across_packages():
    repo = {
        "a": Package("a", (), (StereotypeDef("event", "Class"),)),
        "b": Package("b", ("a",), (StereotypeDef("event", "Operation"),)),
    }
    out = validate_preface(repo, "b")
    assert [d.code for d in out] == ["W102"]
    assert out[0].severity == "warning"


def test_stereotype_base_change_names_the_definition_that_wins():
    # Loaded a, b, r; flattened b, a, r: the definition in "a" wins.
    repo = {
        "a": Package("a", (), (StereotypeDef("ev", "Class"),)),
        "b": Package("b", (), (StereotypeDef("ev", "Attribute"),)),
        "r": Package("r", ("b", "a")),
    }
    assert compose(repo, "r").winners("stereotype")["ev"][0].base == "Class"
    out = validate_preface(repo, "r")
    assert [(d.code, d.path, d.message) for d in out] == [(
        "W102", "a",
        "stereotype 'ev' redefined on metaclass 'Class' (previously "
        "'Attribute'); the newest definition wins")]


def test_stereotype_base_change_outside_the_root_is_not_reported():
    repo = {
        "a": Package("a", (), (StereotypeDef("ev", "Class"),)),
        "b": Package("b", ("a",), (StereotypeDef("ev", "Operation"),)),
        "r": Package("r"),
    }
    assert validate_preface(repo, "r") == []


def test_rule_predicates_are_checked():
    repo = {"a": Package("a", (), (
        PredicatedRuleDef("persistence", Predicate("stereotype", "ghostly"), "x"),
        PredicatedRuleDef("persistence", Predicate("metaclass", "Widget"), "x"),
    ))}
    assert vcodes(repo, "a") == ["W101", "E109"]


def test_rule_stereotype_may_be_declared_by_any_package():
    repo = {
        "base": Package("base", (), (StereotypeDef("event", "Class"),)),
        "user": Package("user", ("base",), (
            PredicatedRuleDef("persistence", Predicate("stereotype", "event"), "x"),)),
    }
    assert validate_preface(repo, "user") == []


def test_random_repos_validate_without_errors():
    rng = random.Random(414)
    for _ in range(100):
        repo, root = random_repo(rng)
        hard = [d for d in validate_preface(repo, root) if d.severity == "error"]
        assert hard == []
