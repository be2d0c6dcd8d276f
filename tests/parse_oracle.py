"""Today's productions, kept as the reference for the ones ``prefacer.textio`` has.

``_parse_class``, ``_parse_operation`` and ``_parse_chart`` here read each
member line one checked primitive (``ident``, ``eat``, ``take``) at a time;
they are the productions ``prefacer.textio`` had before its member lines
read their fixed tokens straight off the token list, copied as they were
but for one call of ``_Parser.at``, which is gone, written out.

The package definition parsers (``_parse_const`` to ``_parse_transform``),
``parse_package``, ``_idents`` and ``_Parser``'s expression methods are the
ones ``prefacer.textio`` had before its definition lines read their tokens
by index and its expressions were parsed by precedence climbing: five
methods, one frame each per nesting level.  ``_TOKEN`` is its scanner
pattern before its repeats became possessive; it must cut every text into
the same tokens at the same offsets as ``textio._TOKEN``.

``parse_model``, ``parse_package`` and ``parse_expr`` here are
``textio``'s entry points over these productions.  On every text, each
must give an equal tree with every element and node at the same location
as its ``textio`` namesake, or raise the same ``ParseError`` at the same
place.
"""

from __future__ import annotations

import re

from prefacer import expr as E
from prefacer.diagnostics import SourceLocation
from prefacer.model import (
    METACLASSES,
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
from prefacer.preface import (
    ConstDef,
    ConstraintDef,
    Definition,
    OptionDef,
    Package,
    Predicate,
    PredicatedRuleDef,
    StereotypeDef,
    TagDef,
    TransformSelection,
)
from prefacer.textio import ImportAfterDefinitionError, ParseError, collector_paused
from prefacer.textio import _Parser as _Primitives

_TOKEN = re.compile(r"""
    [ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    ( [A-Za-z_][A-Za-z0-9_]*
    | [0-9]+
    | "[^"\n]*"
    | ->|<<|>>|<>|<=|>=|[{}()\[\]:,=.<>+|-]
    | .
    |
    )
""", re.VERBOSE)

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_COMPARE = frozenset(E.COMPARE_OPS)
_CALLS = frozenset({"size", "isEmpty", "hasStereotype", "exactlyOne"})


class _Parser(_Primitives):
    """``textio._Parser``'s primitives with the expression methods it had."""

    __slots__ = ()

    def expression(self) -> E.Expr:
        texts = self.texts
        out = self._conjunction()
        while texts[self.pos] == "or":
            index = self.pos
            self.pos = index + 1
            out = E.Or(out, self._conjunction(), loc=self.loc(index))
        if texts[self.pos] != "implies":
            return out
        index = self.pos
        self.pos = index + 1
        self.deeper(index)
        rhs = self.expression()
        self.depth -= 1
        return E.Implies(out, rhs, loc=self.loc(index))

    def _conjunction(self) -> E.Expr:
        texts = self.texts
        out = self._negation()
        while texts[self.pos] == "and":
            index = self.pos
            self.pos = index + 1
            out = E.And(out, self._negation(), loc=self.loc(index))
        return out

    def _negation(self) -> E.Expr:
        texts = self.texts
        first = self.pos
        while texts[self.pos] == "not":
            self.deeper(self.pos)
            self.pos += 1
        nots = range(first, self.pos)
        out = self._sum()
        index = self.pos
        if texts[index] in _COMPARE:
            self.pos = index + 1
            out = E.Compare(texts[index], out, self._sum(), loc=self.loc(index))
        for index in reversed(nots):
            out = E.Not(out, loc=self.loc(index))
        self.depth -= len(nots)
        return out

    def _sum(self) -> E.Expr:
        texts = self.texts
        out = self._operand()
        while True:
            index = self.pos
            op = texts[index]
            if op == "+":
                node = E.Add
            elif op == "-":
                node = E.Sub
            else:
                return out
            self.pos = index + 1
            out = node(out, self._operand(), loc=self.loc(index))

    def _operand(self) -> E.Expr:
        texts = self.texts
        index = self.pos
        text = texts[index]
        head = text[:1]
        if head in _IDENT_START:
            if text in E.KEYWORDS:
                if text == "true" or text == "false":
                    self.pos = index + 1
                    out = E.Literal(text == "true", loc=self.loc(index))
                elif text == "forall" or text == "exists":
                    out = self._quantifier(index)
                else:
                    raise self.fail("an expression")
            # A call is told by the next text with any quotes taken off, so
            # ``size "("`` fails at the string, expecting '('.
            elif text in _CALLS and texts[index + 1] in ("(", '"("'):
                out = self._call(index)
            else:
                self.pos = index + 1
                out = E.VarRef(text, loc=self.loc(index))
        elif head in _DIGITS:
            self.pos = index + 1
            out = E.Literal(int(text), loc=self.loc(index))
        elif head == '"':
            self.pos = index + 1
            out = E.Literal(text[1:-1], loc=self.loc(index))
        elif text == "(":
            self.pos = index + 1
            self.deeper(index)
            out = self.expression()
            self.eat(")")
            self.depth -= 1
        else:
            raise self.fail("an expression")
        while texts[self.pos] == ".":
            index = self.pos + 1
            self.pos = index
            out = E.Nav(out, self.ident("a feature name"), loc=self.loc(index))
        return out

    def _quantifier(self, index: int) -> E.Expr:
        node = E.Forall if self.texts[index] == "forall" else E.Exists
        self.pos = index + 1
        self.deeper(self.eat("("))
        var = self.ident("a variable name")
        self.eat("in")
        domain = self.expression()
        self.eat("|")
        body = self.expression()
        self.eat(")")
        self.depth -= 1
        return node(var, domain, body, loc=self.loc(index))

    def _call(self, index: int) -> E.Expr:
        fn = self.texts[index]
        self.pos = index + 1
        self.deeper(self.eat("("))
        if fn == "hasStereotype":
            element = self.expression()
            self.eat(",")
            name_index = self.pos
            name = self.string("a stereotype name string")
            args: tuple[E.Expr, ...] = (element, E.Literal(name, loc=self.loc(name_index)))
        elif fn == "exactlyOne":
            found = [self.expression()]
            while self.take(","):
                found.append(self.expression())
            args = tuple(found)
        else:
            args = (self.expression(),)
        self.eat(")")
        self.depth -= 1
        return E.Call(fn, args, loc=self.loc(index))

    # -- literals (package constants) ----------------------------------------

    def literal(self):
        text = self.texts[self.pos]
        head = text[:1]
        if head in _DIGITS:
            self.pos += 1
            return int(text)
        if text == "-":
            self.pos += 1
            number = self.texts[self.pos]
            if number[:1] not in _DIGITS:
                raise self.fail("an integer")
            self.pos += 1
            return -int(number)
        if head == '"':
            self.pos += 1
            return text[1:-1]
        if text == "true" or text == "false":
            self.pos += 1
            return text == "true"
        raise self.fail("a literal (integer, string, true or false)")

    def metaclass(self) -> str:
        index = self.pos
        name = self.ident("a metaclass name")
        if name not in METACLASSES:
            raise ParseError(
                f"'{name}' is not a metaclass (expected one of "
                f"{', '.join(sorted(METACLASSES))})", self.loc(index))
        return name


def _idents(p: _Parser, separator: str, what: str) -> list[str]:
    """One identifier, then more after each ``separator``: a comma-separated
    name list, a dashed transform id or a dotted option key."""

    idents = [p.ident(what)]
    while p.take(separator):
        idents.append(p.ident(what))
    return idents


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


# Each definition parser starts after its keyword, whose location it is given.


def _parse_const(p: _Parser, loc: SourceLocation) -> Definition:
    key = p.ident("a constant name")
    p.eat("=")
    return ConstDef(key, p.literal(), loc=loc)


def _parse_option(p: _Parser, loc: SourceLocation) -> Definition:
    key = ".".join(_idents(p, ".", "an option key"))
    p.eat("=")
    return OptionDef(key, p.ident("an option value"), loc=loc)


def _parse_stereotype(p: _Parser, loc: SourceLocation) -> Definition:
    name = p.ident("a stereotype name")
    p.eat("on")
    base = p.metaclass()
    required = _idents(p, ",", "a tag name") if p.take("requires") else []
    return StereotypeDef(name, base, tuple(required), loc=loc)


def _parse_tagdef(p: _Parser, loc: SourceLocation) -> Definition:
    name = p.ident("a tag name")
    p.eat(":")
    index = p.pos
    value_type = p.ident("'string', 'int' or 'bool'")
    if value_type not in ("string", "int", "bool"):
        raise ParseError(
            f"'{value_type}' is not a tag type (expected string, int or bool)",
            p.loc(index))
    return TagDef(name, value_type, loc=loc)


def _parse_constraint(p: _Parser, loc: SourceLocation) -> Definition:
    name = p.ident("a constraint name")
    p.eat("on")
    scope = p.metaclass()
    severity = "error"
    if p.take("severity"):
        index = p.pos
        severity = p.ident("'error' or 'warning'")
        if severity not in ("error", "warning"):
            raise ParseError(
                f"'{severity}' is not a severity (expected error or warning)",
                p.loc(index))
    p.eat(":")
    return ConstraintDef(name, scope, severity, p.expression(), loc=loc)


def _parse_rule(p: _Parser, loc: SourceLocation) -> Definition:
    key = p.ident("a property key")
    p.eat("when")
    predicate: Predicate
    if p.take("all"):
        predicate = Predicate("all")
    elif p.take("stereotype"):
        p.eat("(")
        predicate = Predicate("stereotype", p.ident("a stereotype name"))
        p.eat(")")
    elif p.take("metaclass"):
        p.eat("(")
        predicate = Predicate("metaclass", p.metaclass())
        p.eat(")")
    else:
        raise p.fail("'all', 'stereotype(...)' or 'metaclass(...)'")
    p.eat("=")
    return PredicatedRuleDef(key, predicate, p.ident("a value"), loc=loc)


def _parse_transform(p: _Parser, loc: SourceLocation) -> Definition:
    transform_id = "-".join(_idents(p, "-", "a transform id"))
    if p.take("on"):
        return TransformSelection(transform_id, True, loc=loc)
    if p.take("off"):
        return TransformSelection(transform_id, False, loc=loc)
    raise p.fail("'on' or 'off'")


_DEFINITIONS = {
    "const": _parse_const,
    "option": _parse_option,
    "stereotype": _parse_stereotype,
    "tagdef": _parse_tagdef,
    "constraint": _parse_constraint,
    "rule": _parse_rule,
    "transform": _parse_transform,
}


@collector_paused()
def parse_package(source: str, file: str = "<package>") -> Package:
    """Parse one package file: quoted id, imports first, then definitions."""

    p = _Parser(source, file)
    loc = p.loc(p.eat("package"))
    pkg_id = p.string("a quoted package id")
    p.eat("{")
    imports: list[str] = []
    while p.take("import"):
        imports.append(p.string("a quoted package id"))
    definitions: list[Definition] = []
    texts = p.texts
    while not p.take("}"):
        index = p.pos
        word = texts[index]
        parse = _DEFINITIONS.get(word)
        if parse is None:
            if word == "import":
                raise ImportAfterDefinitionError(
                    "imports must precede all definitions", p.loc(index))
            raise p.fail("a definition or '}'")
        p.pos = index + 1
        definitions.append(parse(p, p.loc(index)))
    p.expect_eof()
    return Package(pkg_id, tuple(imports), tuple(definitions), loc=loc)


@collector_paused()
def parse_expr(source: str, file: str = "<expr>") -> E.Expr:
    parser = _Parser(source, file)
    out = parser.expression()
    parser.expect_eof()
    return out
