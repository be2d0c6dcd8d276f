"""Shared fixtures: the worked composition trio and the three-state chart."""

from __future__ import annotations

import pytest

from prefacer.model import ClassDef, Model, Operation, State, Statechart, Transition
from prefacer.preface import (
    ConstDef,
    OptionDef,
    Package,
    Predicate,
    PredicatedRuleDef,
    StereotypeDef,
    TransformSelection,
    compose,
)
from prefacer.textio import print_model, print_package


def make_worked_repo() -> tuple[dict[str, Package], str]:
    """Three packages: a general-purpose base, a client profile that
    narrows one rule, and a project that imports both and overrides a
    constant.  The project is the root."""

    uml_core = Package("uml-core", (), (
        ConstDef("max", 10),
        StereotypeDef("event", "Class"),
        PredicatedRuleDef("persistence", Predicate("all"), "persistent"),
        OptionDef("statechart.unexpected_event", "error"),
        TransformSelection("statechart-to-class", True),
    ))
    client_c = Package("client-c", (), (
        PredicatedRuleDef("persistence", Predicate("stereotype", "event"), "transient"),
    ))
    project_p = Package("project-p", ("uml-core", "client-c"), (
        ConstDef("max", 8),
    ))
    repo = {"uml-core": uml_core, "client-c": client_c, "project-p": project_p}
    return repo, "project-p"


def make_three_state_model() -> Model:
    """One class, one chart: three states, four transitions, three events."""

    cls = ClassDef("C", operations=(
        Operation("m1"), Operation("m2"), Operation("m3")))
    chart = Statechart("SC", "C", (
        State("s1", initial=True), State("s2"), State("s3"),
    ), (
        Transition("s1", "s2", "m1"),
        Transition("s2", "s1", "m2"),
        Transition("s1", "s3", "m3"),
        Transition("s2", "s3", "m3"),
    ))
    return Model("example", (cls,), (chart,))


@pytest.fixture
def worked_repo():
    return make_worked_repo()


@pytest.fixture
def worked_eff():
    repo, root = make_worked_repo()
    return compose(repo, root)


@pytest.fixture
def three_state_model():
    return make_three_state_model()


@pytest.fixture
def sample_dir(tmp_path):
    """The worked repo and model written out as files for CLI runs."""

    repo, root = make_worked_repo()
    preface_dir = tmp_path / "defs"
    preface_dir.mkdir()
    for pkg in repo.values():
        (preface_dir / f"{pkg.id}.preface").write_text(print_package(pkg))
    model_path = tmp_path / "example.model"
    model_path.write_text(print_model(make_three_state_model()))
    return preface_dir, root, model_path
