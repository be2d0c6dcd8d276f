"""Today's model member productions, kept as the reference for the new ones.

``_parse_class``, ``_parse_operation`` and ``_parse_chart`` here read each
member line one checked primitive (``ident``, ``eat``, ``take``) at a time;
they are the productions ``prefacer.textio`` had before its member lines
read their fixed tokens straight off the token list, copied as they were
but for one call of ``_Parser.at``, which is gone, written out.
``parse_model`` here is ``textio.parse_model`` over these productions.
On every text, ``textio.parse_model`` must give an equal model with every
element and node at the same location, or raise the same ``ParseError``
at the same place.
"""

from __future__ import annotations

from prefacer.model import (
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Param,
    State,
    Statechart,
    Transition,
)
from prefacer.textio import _idents, _Parser, collector_paused


def _parse_operation(p: _Parser, index: int) -> Operation:
    name = p.ident("an operation name")
    p.eat("(")
    params: list[Param] = []
    if p.texts[p.pos] != ")":  # was ``p.at(")")``
        while True:
            pname = p.ident("a parameter name")
            p.eat(":")
            params.append(Param(pname, p.ident("a type name")))
            if not p.take(","):
                break
    p.eat(")")
    pre = post = None
    if p.take("pre"):
        p.eat(":")
        pre = p.expression()
    if p.take("post"):
        p.eat(":")
        post = p.expression()
    return Operation(name, tuple(params), pre, post, loc=p.loc(index))


def _parse_class(p: _Parser) -> ClassDef:
    loc = p.loc(p.eat("class"))
    name = p.ident("a class name")
    superclasses = _idents(p, ",", "a class name") if p.take("specializes") else []
    stereotypes: list[str] = []
    if p.take("<<"):
        stereotypes = _idents(p, ",", "a stereotype name")
        p.eat(">>")
    p.eat("{")
    attributes: list[Attribute] = []
    operations: list[Operation] = []
    invariants: list[Invariant] = []
    texts = p.texts
    while not p.take("}"):
        index = p.pos
        word = texts[index]
        if word not in ("attribute", "operation", "invariant"):
            raise p.fail("'attribute', 'operation', 'invariant' or '}'")
        p.pos = index + 1
        if word == "attribute":
            attr_name = p.ident("an attribute name")
            p.eat(":")
            attributes.append(
                Attribute(attr_name, p.ident("a type name"), loc=p.loc(index)))
        elif word == "operation":
            operations.append(_parse_operation(p, index))
        else:
            invariants.append(Invariant(p.expression()))
    return ClassDef(
        name,
        superclasses=tuple(superclasses),
        stereotypes=frozenset(stereotypes),
        attributes=tuple(attributes),
        operations=tuple(operations),
        invariants=tuple(invariants),
        loc=loc)


def _parse_chart(p: _Parser) -> Statechart:
    loc = p.loc(p.eat("statechart"))
    name = p.ident("a statechart name")
    p.eat("for")
    attached_to = p.ident("a class name")
    p.eat("{")
    states: list[State] = []
    transitions: list[Transition] = []
    texts = p.texts
    while not p.take("}"):
        index = p.pos
        word = texts[index]
        if word == "state" or word == "initial":
            initial = p.take("initial")
            state_index = p.eat("state")
            states.append(State(p.ident("a state name"), initial, loc=p.loc(state_index)))
        elif word == "transition":
            p.pos = index + 1
            source = p.ident("a state name")
            p.eat("->")
            target = p.ident("a state name")
            p.eat("on")
            event = p.ident("an event name")
            guard = None
            if p.take("["):
                guard = p.expression()
                p.eat("]")
            transitions.append(Transition(source, target, event, guard, loc=p.loc(index)))
        else:
            raise p.fail("'state', 'initial', 'transition' or '}'")
    return Statechart(name, attached_to, tuple(states), tuple(transitions), loc=loc)


@collector_paused()
def parse_model(source: str, file: str = "<model>") -> Model:
    """Parse one model file.  Name resolution is not attempted here; a
    structurally broken model parses fine and fails ``builtin_check``."""

    p = _Parser(source, file)
    loc = p.loc(p.eat("model"))
    name = p.ident("a model name")
    classes: list[ClassDef] = []
    charts: list[Statechart] = []
    texts = p.texts
    while True:
        word = texts[p.pos]
        if word == "class":
            classes.append(_parse_class(p))
        elif word == "statechart":
            charts.append(_parse_chart(p))
        elif not word:
            return Model(name, tuple(classes), tuple(charts), loc=loc)
        else:
            raise p.fail("'class', 'statechart' or end of input")
