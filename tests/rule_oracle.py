"""An independent replay of predicated rule resolution.

Written from the README, not from ``preface.resolve_predicated``: the
flattened definitions are read newest first, and the first rule of the
property whose case holds wins.  ``all`` holds for every element,
``stereotype(s)`` for an element that carries ``s`` (only classes carry
stereotypes), and ``metaclass(M)`` for an element of kind ``M``.  It is kept
out of ``tests/oracles.py`` because the benchmark harness imports that
module, and its size shows in the harness's peak memory.
"""

from __future__ import annotations

from oracles import flatten_reference
from prefacer.model import Attribute, ClassDef, Model, Operation, State, Statechart, Transition
from prefacer.preface import Definition, Package, PredicatedRuleDef, Provenance

#: Element class -> the metaclass name a rule writes for it.
_KIND = {Model: "Model", ClassDef: "Class", Attribute: "Attribute",
         Operation: "Operation", Statechart: "Statechart", State: "State",
         Transition: "Transition"}


def model_elements(model: Model) -> list:
    """The model itself, each class with its attributes and operations, and
    each chart with its states and transitions."""

    elements: list = [model]
    for cls in model.classes:
        elements += [cls, *cls.attributes, *cls.operations]
    for chart in model.statecharts:
        elements += [chart, *chart.states, *chart.transitions]
    return elements


def flattened_definitions(repo: dict[str, Package], root_id: str) -> list[tuple[str, Definition]]:
    """Every definition of the composition, with its package id, in order."""

    return [(pkg_id, definition) for pkg_id in flatten_reference(repo, root_id)
            for definition in repo[pkg_id].definitions]


def _holds(predicate, element) -> bool:
    if predicate.kind == "all":
        return True
    if predicate.kind == "stereotype":
        return isinstance(element, ClassDef) and predicate.name in element.stereotypes
    assert predicate.kind == "metaclass", predicate
    return _KIND[type(element)] == predicate.name


def resolve_reference(definitions: list[tuple[str, Definition]], property_key: str,
                      element) -> tuple[PredicatedRuleDef, Provenance] | None:
    """The rule that decides the property for the element, with where it
    sits in ``definitions``; None if no rule of the property holds."""

    for index in range(len(definitions) - 1, -1, -1):
        pkg_id, definition = definitions[index]
        if (isinstance(definition, PredicatedRuleDef)
                and definition.property_key == property_key
                and _holds(definition.predicate, element)):
            return definition, Provenance(pkg_id, index)
    return None
