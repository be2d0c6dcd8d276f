"""``repr`` of a record at any depth, without recursion.

``record._repr`` writes the text ``dataclasses`` would, walking an explicit
stack through records and tuples; ``tests/test_records.py`` holds it to the
real ``dataclasses`` twins on generated corpora.  Here it must also write
trees far deeper than the interpreter's recursion limit, and stop at a
record that holds itself, also through a list or a dict.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from prefacer import expr as E
from prefacer.constraints import Env
from prefacer.model import Operation
from prefacer.textio import parse_expr
from prefacer.transformer import TransformReport


def test_a_twelve_hundred_term_conjunction_has_a_repr():
    tree = parse_expr(" and ".join(["true"] * 1200))
    leaf = "Literal(value=True)"
    assert repr(tree) == "And(lhs=" * 1199 + leaf + f", rhs={leaf})" * 1199
    assert repr(Operation("go", pre_authored=tree)).startswith(
        "Operation(name='go', params=(), pre_authored=And(lhs=And(")


def test_nests_deeper_than_the_recursion_limit_have_a_repr():
    depth = sys.getrecursionlimit() * 3
    nots: E.Expr = E.VarRef("x")
    calls: E.Expr = E.VarRef("x")
    for _ in range(depth):
        nots, calls = E.Not(nots), E.Call("size", (calls,))
    assert repr(nots) == "Not(operand=" * depth + "VarRef(name='x')" + ")" * depth
    assert repr(calls) == ("Call(fn='size', args=(" * depth + "VarRef(name='x')"
                           + ",))" * depth)


def test_containers_are_written_as_the_built_in_repr_writes_them():
    report = TransformReport([("C", "s1")], [("C", E.Literal(1))])
    report.diagnostics.append(None)
    assert repr(report) == (
        "TransformReport(induced_attributes=[('C', 's1')], "
        "induced_invariants=[('C', Literal(value=1))], induced_operations=[], "
        "induced_preconditions=[], diagnostics=[None])")
    assert repr(E.Call("f", ())) == "Call(fn='f', args=())"
    assert repr(E.Call("f", (E.VarRef("a"), E.Literal("b")))) == \
        "Call(fn='f', args=(VarRef(name='a'), Literal(value='b')))"


@dataclass
class EnvTwin:
    bindings: dict = field(default_factory=dict)
    model: object = None


def test_a_record_inside_itself_is_written_as_dataclasses_writes_it():
    env, twin = Env(), EnvTwin()
    env.model, twin.model = env, twin
    assert repr(env) == repr(twin).replace("EnvTwin", "Env") == "Env(bindings={}, model=...)"
    shared = E.VarRef("x")  # the same node twice is no cycle
    assert repr(E.And(shared, shared)) == \
        "And(lhs=VarRef(name='x'), rhs=VarRef(name='x'))"


@dataclass
class TransformReportTwin:
    induced_attributes: list = field(default_factory=list)
    induced_invariants: list = field(default_factory=list)
    induced_operations: list = field(default_factory=list)
    induced_preconditions: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)


def test_a_record_inside_itself_through_a_list_or_a_dict_is_written_as_dataclasses_writes_it():
    report, twin = TransformReport(), TransformReportTwin()
    for value in (report, twin):
        value.induced_attributes.append(value)
        value.diagnostics.append(value.diagnostics)
    assert repr(report) == repr(twin).replace("Twin", "") == (
        "TransformReport(induced_attributes=[...], induced_invariants=[], "
        "induced_operations=[], induced_preconditions=[], diagnostics=[[...]])")
    env, twin = Env(), EnvTwin()
    for value in (env, twin):
        value.bindings.update({"self": value, "n": (value.bindings, [1]), E.VarRef("x"): 2})
    assert repr(env) == repr(twin).replace("EnvTwin", "Env") == (
        "Env(bindings={'self': ..., 'n': ({...}, [1]), VarRef(name='x'): 2}, model=None)")
