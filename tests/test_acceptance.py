"""Acceptance gate: nine behavioural criteria, one test (and one report
line under ``pytest -v``) per criterion.

Fast criteria reproduce worked examples exactly and must finish inside
``FAST_BUDGET`` seconds; bulk criteria run randomized corpora against
independent oracles and must finish inside ``SLOW_BUDGET`` seconds.  Every
tolerance and corpus size is pinned here as a constant.
"""

from __future__ import annotations

import random
from time import perf_counter

from generators import random_model, random_package, random_repo, scoped_expr
from oracles import (
    BruteEvalFailure,
    authored_view,
    boolean_assignments_satisfying,
    brute_eval,
    definition_keys,
    flatten_reference,
    replay_view,
    snapshot_view,
)
from prefacer import expr as E
from prefacer.constraints import EvalError, eval_expr, iter_scope
from prefacer.model import ClassDef, Model
from prefacer.preface import (
    ConstDef,
    OptionDef,
    Package,
    Provenance,
    TransformSelection,
    compose,
    explain,
    flatten_imports,
    lookup_scalar,
    resolve,
    resolve_predicated,
)
from prefacer.skeletongen import generate_monitor, generate_skeleton
from prefacer.textio import parse_model, parse_package, print_model, print_package, print_report
from prefacer.transformer import apply_transforms

FAST_BUDGET = 1.0   # seconds, worked-example criteria
SLOW_BUDGET = 30.0  # seconds, randomized-corpus criteria

REPO_CORPUS = 1000      # criterion 5
MODEL_CORPUS = 200      # criterion 6
ROUND_TRIP_CORPUS = 500 # criterion 7
EVAL_CORPUS = 500       # criterion 8


def report(criterion: int, detail: str, elapsed: float) -> None:
    print(f"criterion {criterion}: PASS - {detail} ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


def test_criterion_1_constant_override_with_provenance(worked_repo):
    repo, root = worked_repo
    start = perf_counter()
    eff = compose(repo, root)
    value, provenance = lookup_scalar(eff, "max")
    chain = explain(eff, "max")
    line = next(l for l in print_report(eff).splitlines() if "max" in l)
    elapsed = perf_counter() - start

    assert (value, provenance) == (8, Provenance("project-p", 6))
    assert chain == ((ConstDef("max", 10), Provenance("uml-core", 0)),
                     (ConstDef("max", 8), Provenance("project-p", 6)))
    assert line == "  max = 8 (project-p, overrides uml-core: 10)"
    assert elapsed < FAST_BUDGET
    report(1, "max = 8 from project-p, chain uml-core:10 -> project-p:8", elapsed)


def test_criterion_2_import_order_decides_the_winner():
    start = perf_counter()
    repo = {
        "team-t": Package("team-t", (), (ConstDef("naming", "team"),)),
        "client-c": Package("client-c", (), (ConstDef("naming", "client"),)),
        "version-1": Package("version-1", ("team-t", "client-c"), ()),
        "version-2": Package("version-2", ("client-c", "team-t"), ()),
    }
    first_value, first_prov = lookup_scalar(compose(repo, "version-1"), "naming")
    second_value, second_prov = lookup_scalar(compose(repo, "version-2"), "naming")
    elapsed = perf_counter() - start

    assert (first_value, first_prov.package_id) == ("client", "client-c")
    assert (second_value, second_prov.package_id) == ("team", "team-t")
    assert first_value != second_value
    assert elapsed < FAST_BUDGET
    report(2, "version-1 -> client, version-2 -> team", elapsed)


def test_criterion_3_predicated_chain_is_if_then_else(worked_eff):
    def longhand(cls: ClassDef) -> tuple[str, str]:
        # the chain, written out by hand: newest case first
        if "event" in cls.stereotypes:
            return "transient", "client-c"
        return "persistent", "uml-core"

    model = Model("shapes", tuple(
        ClassDef(name, stereotypes=frozenset({"event"}) if name in "BD" else frozenset())
        for name in "ABCDE"))

    start = perf_counter()
    outcomes = {}
    for element in iter_scope(model, "Class"):
        value, provenance = resolve_predicated(worked_eff, "persistence", element)
        assert (value, provenance.package_id) == longhand(element), element.name
        outcomes[element.name] = value
    elapsed = perf_counter() - start

    assert outcomes == {"A": "persistent", "B": "transient", "C": "persistent",
                        "D": "transient", "E": "persistent"}
    assert elapsed < FAST_BUDGET
    report(3, "5 classes, 2 transient by stereotype, 3 persistent by default", elapsed)


def _disjuncts(e: E.Expr) -> set[str]:
    if isinstance(e, E.Or):
        return _disjuncts(e.lhs) | _disjuncts(e.rhs)
    assert isinstance(e, E.VarRef)
    return {e.name}


def test_criterion_4_three_state_induction(three_state_model, worked_eff):
    start = perf_counter()
    transformed, result = apply_transforms(three_state_model, worked_eff)
    elapsed = perf_counter() - start

    assert not any(d.severity == "error" for d in result.diagnostics)
    cls = transformed.class_named("C")

    flags = [a for a in cls.attributes if a.origin.kind == "induced"]
    assert [(a.name, a.type_name) for a in flags] == [
        ("s1", "Boolean"), ("s2", "Boolean"), ("s3", "Boolean")]

    (invariant,) = [i for i in cls.invariants if i.origin.kind == "induced"]
    names = ["s1", "s2", "s3"]
    satisfying = boolean_assignments_satisfying(invariant.expr, names)
    assert len(satisfying) == 3  # of the 2**3 = 8 assignments
    assert all(sum(env.values()) == 1 for env in satisfying)  # the one-hot ones

    preconditions = {
        op.name: _disjuncts(op.pre_induced[0])
        for op in cls.operations if op.pre_induced is not None}
    assert preconditions == {"m1": {"s1"}, "m2": {"s2"}, "m3": {"s1", "s2"}}
    assert elapsed < FAST_BUDGET
    report(4, "flags s1..s3, one-hot invariant (3 of 8), preconditions bound", elapsed)


# ---------------------------------------------------------------------------
# Randomized corpora against oracles
# ---------------------------------------------------------------------------


def test_criterion_5_composition_agrees_with_replay_oracle():
    rng = random.Random(4601)
    agreements = swaps = 0
    start = perf_counter()
    for _ in range(REPO_CORPUS):
        repo, root = random_repo(rng)
        order = flatten_imports(repo, root)
        assert [pkg.id for pkg in order] == flatten_reference(repo, root)
        eff = resolve(order)
        assert snapshot_view(eff) == replay_view(order)
        agreements += 1

        for i in range(len(order) - 1):
            if definition_keys(order[i]) & definition_keys(order[i + 1]):
                continue
            swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2:]
            other = resolve(swapped)
            scalars, other_scalars = eff.winners("scalar"), other.winners("scalar")
            assert other_scalars.keys() == scalars.keys()
            for key, (definition, provenance) in scalars.items():
                other_definition, other_provenance = other_scalars[key]
                assert other_definition.value == definition.value, key
                assert other_provenance.package_id == provenance.package_id, key
            swaps += 1
            break
    elapsed = perf_counter() - start

    assert agreements == REPO_CORPUS
    assert swaps >= REPO_CORPUS // 10  # plenty of repos expose a disjoint pair
    assert elapsed < SLOW_BUDGET
    report(5, f"{agreements} repositories replayed, {swaps} disjoint swaps", elapsed)


def test_criterion_6_transform_idempotent_and_conservative():
    eff = resolve([Package("t", (), (
        TransformSelection("statechart-to-class", True),))])
    rng = random.Random(4602)
    start = perf_counter()
    for _ in range(MODEL_CORPUS):
        model = random_model(rng)
        once, _ = apply_transforms(model, eff)
        twice, _ = apply_transforms(once, eff)
        assert twice == once
        assert authored_view(once) == model
    elapsed = perf_counter() - start

    assert elapsed < SLOW_BUDGET
    report(6, f"{MODEL_CORPUS} models: second pass identity, authored view intact",
           elapsed)


def test_criterion_7_print_parse_round_trip():
    rng = random.Random(4603)
    start = perf_counter()
    half = ROUND_TRIP_CORPUS // 2
    for _ in range(half):
        model = random_model(rng)
        assert parse_model(print_model(model)) == model
    for _ in range(ROUND_TRIP_CORPUS - half):
        pkg = random_package(rng)
        assert parse_package(print_package(pkg)) == pkg
    elapsed = perf_counter() - start

    assert elapsed < SLOW_BUDGET
    report(7, f"{half} models and {ROUND_TRIP_CORPUS - half} packages round-tripped",
           elapsed)


def test_criterion_8_evaluator_agrees_with_brute_force():
    rng = random.Random(4604)
    pairs = 0
    start = perf_counter()
    while pairs < EVAL_CORPUS:
        model = random_model(rng)
        metaclass = rng.choice(("Class", "Statechart"))
        elements = iter_scope(model, metaclass)
        if not elements:
            continue
        expression = scoped_expr(rng, metaclass, depth=2)
        element = rng.choice(elements)
        try:
            mine = eval_expr(expression, {"self": element}, model)
        except EvalError:
            mine = EvalError
        try:
            reference = brute_eval(expression, {"self": element}, model)
        except BruteEvalFailure:
            reference = BruteEvalFailure
        if mine is EvalError or reference is BruteEvalFailure:
            assert mine is EvalError and reference is BruteEvalFailure, expression
        else:
            assert mine == reference, expression
        pairs += 1
    elapsed = perf_counter() - start

    assert pairs == EVAL_CORPUS
    assert elapsed < SLOW_BUDGET
    report(8, f"{pairs} (model, expression) pairs agreed", elapsed)


# ---------------------------------------------------------------------------
# Policy switch
# ---------------------------------------------------------------------------


def test_criterion_9_unexpected_event_policy_switch(three_state_model):
    def eff_for(policy: str):
        return resolve([Package("t", (), (
            TransformSelection("statechart-to-class", True),
            OptionDef("statechart.unexpected_event", policy),))])

    start = perf_counter()
    trap_eff, return_eff = eff_for("error"), eff_for("ignore")
    transformed, _ = apply_transforms(three_state_model, trap_eff)
    (trap_unit,) = generate_skeleton(transformed, trap_eff)
    (return_unit,) = generate_skeleton(transformed, return_eff)
    (trap_monitor,) = generate_monitor(transformed, trap_eff)
    (return_monitor,) = generate_monitor(transformed, return_eff)
    elapsed = perf_counter() - start

    trap_lines = trap_unit.text.splitlines()
    return_lines = return_unit.text.splitlines()
    assert len(trap_lines) == len(return_lines)
    differing = [(a, b) for a, b in zip(trap_lines, return_lines) if a != b]
    assert differing, "the policy must be visible in the output"
    for trap_line, return_line in differing:
        # same guard, different policy marker after it
        assert trap_line.endswith("ELSE TRAP precondition_violation")
        assert return_line.endswith("ELSE RETURN // ignored")
        assert (trap_line.split("ELSE")[0] == return_line.split("ELSE")[0])
    assert trap_monitor.monitor_text == return_monitor.monitor_text
    assert elapsed < FAST_BUDGET
    report(9, f"{len(differing)} marker lines differ, monitors identical", elapsed)
