"""``repr`` of a record at any depth, without recursion.

``record._repr`` writes the text ``dataclasses`` would, walking an explicit
stack through records and tuples; ``tests/test_records.py`` holds it to the
real ``dataclasses`` twins on generated corpora.  Here it must also write
trees far deeper than the interpreter's recursion limit, and stop at a
record that holds itself through a list or a dict it was given.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from prefacer import expr as E
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
    report = TransformReport((("C", "s1"),), (("C", E.Literal(1)),), diagnostics=(None,))
    assert repr(report) == (
        "TransformReport(induced_attributes=(('C', 's1'),), "
        "induced_invariants=(('C', Literal(value=1)),), induced_operations=(), "
        "induced_preconditions=(), diagnostics=(None,))")
    assert repr(E.Call("f", ())) == "Call(fn='f', args=())"
    assert repr(E.Call("f", (E.VarRef("a"), E.Literal("b")))) == \
        "Call(fn='f', args=(VarRef(name='a'), Literal(value='b')))"
    assert repr(E.Call("f", [E.VarRef("a"), [], {}])) == \
        "Call(fn='f', args=[VarRef(name='a'), [], {}])"


@dataclass
class CallTwin:
    fn: str
    args: list


@dataclass
class LiteralTwin:
    value: dict


def test_a_record_inside_itself_is_written_as_dataclasses_writes_it():
    # A frozen record holds itself only through a container it was given.
    call, twin = E.Call("f", []), CallTwin("f", [])
    call.args.append(call)
    twin.args.append(twin)
    assert repr(call) == repr(twin).replace("CallTwin", "Call") == "Call(fn='f', args=[...])"
    shared = E.VarRef("x")  # the same node twice is no cycle
    assert repr(E.And(shared, shared)) == \
        "And(lhs=VarRef(name='x'), rhs=VarRef(name='x'))"


def test_a_record_inside_itself_through_a_list_or_a_dict_is_written_as_dataclasses_writes_it():
    call, twin = E.Call("f", []), CallTwin("f", [])
    for value in (call, twin):
        value.args.extend((value, value.args))
    assert repr(call) == repr(twin).replace("CallTwin", "Call") == (
        "Call(fn='f', args=[..., [...]])")
    literal, twin = E.Literal({}), LiteralTwin({})
    for value in (literal, twin):
        value.value.update({"self": value, "n": (value.value, [1]), E.VarRef("x"): 2})
    assert repr(literal) == repr(twin).replace("LiteralTwin", "Literal") == (
        "Literal(value={'self': ..., 'n': ({...}, [1]), VarRef(name='x'): 2})")
