"""Text formats: parsing and printing of models, packages and reports.

Two line-oriented surface syntaxes share one expression sub-grammar:

* model files declare classes (attributes, operations with optional
  pre/postconditions, invariants) and statecharts (states, transitions);
* package files declare imports followed by definitions (constants,
  options, stereotypes, tag types, constraints, predicated rules and
  transform switches).

Comments run from ``//`` to end of line in both.  Parsers are recursive
descent over a shared token stream and fail with a located ``ParseError``;
they never guess.

The lexer is one master-pattern regular expression scanned with
``finditer``, as in the "Writing a Tokenizer" recipe of the ``re``
documentation.  Identifiers are ASCII (``[A-Za-z_][A-Za-z0-9_]*``, what
``model.is_identifier`` accepts) and integers are runs of ASCII digits; any
other character outside a string or comment is a located "unexpected
character".  A token is a plain ``(kind, text, line, column)`` tuple: a
``SourceLocation`` is built only where one is kept, on a node, an element
or a ``ParseError``.  ``parse_expr``, ``parse_model`` and ``parse_package``
pause the cyclic garbage collector while they build their tree and then
restore the caller's setting.  That is safe because a parse only allocates
and its trees hold no reference cycles, so reference counting alone frees
them; collections during the parse would only traverse the growing tree.

Printers emit a canonical form (two-space indentation, declaration order,
``LF`` line ends) chosen so that parse-print-parse is the identity on
everything structural except origins.  Induced elements are annotated
with a trailing ``// induced by <rule>`` comment, which the parser, like
any comment, ignores: a printed transformed model reads back with every
element authored (an induced precondition merged into the authored one),
so transforming that text again reports E301 clashes.

Expression operator precedence, loosest first::

    implies < or < and < not < comparison < + - < navigation/call
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from typing import Iterator, NamedTuple

from . import expr as E
from .diagnostics import SourceLocation
from .model import (
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
from .preface import (
    CATALOGUE_DEFAULT,
    OPTION_CATALOGUE,
    ChainEntry,
    ConstDef,
    ConstraintDef,
    Definition,
    EffectiveDefinitions,
    HasStereotype,
    IsMetaclass,
    MatchAll,
    OptionDef,
    Package,
    Predicate,
    PredicatedRuleDef,
    StereotypeDef,
    TagDef,
    TransformSelection,
    render_literal,
)


class ParseError(Exception):
    def __init__(self, message: str, loc: SourceLocation):
        self.loc = loc
        super().__init__(f"{loc}: {message}")


class ImportAfterDefinitionError(ParseError):
    """Imports must all precede the first definition of a package."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "sym" | "eof"
    text: str
    line: int
    column: int


#: Blanks, then one alternative per token kind, tried in order.  Two-character
#: symbols come before one-character ones; the last alternative but one
#: catches any character no other accepts (a stray quote is an unterminated
#: string), and the last matches trailing blanks at the end of input.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<newline>\n)
    | (?P<comment>//[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<string>"[^"\n]*")
    | (?P<sym>->|<<|>>|<>|<=|>=|[{}()\[\]:,=.<>+|-])
    | (?P<bad>.)
    | \Z
    )
""", re.VERBOSE)

#: Builds a ``Token`` from a tuple without the Python-level ``__new__``.
_new_token = tuple.__new__


def _lex(source: str, file: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line, line_start, comment_start = 1, 0, -1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "comment":
            comment_start = match.start(kind)
        elif kind == "bad":
            ch = match[kind]
            message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(
                message, SourceLocation(file, line, match.start(kind) - line_start + 1))
        else:
            text = match[kind]
            if kind == "string":
                text = text[1:-1]
            append(_new_token(Token, (kind, text, line, match.start(kind) - line_start + 1)))
    # A comment on the last line runs to the end of input, and the end
    # token sits where the comment began.
    end = comment_start if comment_start >= line_start else len(source)
    append(Token("eof", "", line, end - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser plumbing
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, file: str):
        self.file = file
        self.toks = _lex(source, file)
        self.pos = 0

    def loc(self, tok: Token) -> SourceLocation:
        """The location of ``tok``, built only where it is kept."""

        return SourceLocation(self.file, tok.line, tok.column)

    # -- stream primitives --------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(f"expected {expected}, found {found}", self.loc(tok))

    # -- matchers ------------------------------------------------------------

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_word(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def eat_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            raise self.fail(f"'{text}'")
        return self.advance()

    def eat_word(self, text: str) -> Token:
        if not self.at_word(text):
            raise self.fail(f"'{text}'")
        return self.advance()

    def take_word(self, text: str) -> bool:
        if self.at_word(text):
            self.advance()
            return True
        return False

    def ident(self, what: str = "an identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(what)
        return self.advance()

    def string(self, what: str = "a quoted string") -> Token:
        tok = self.peek()
        if tok.kind != "string":
            raise self.fail(what)
        return self.advance()

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail("end of input")

    # -- shared expression grammar -------------------------------------------

    _RESERVED = frozenset({
        "and", "or", "not", "implies", "forall", "exists", "in",
        "true", "false",
    })

    def expression(self) -> E.Expr:
        return self._implies()

    def _implies(self) -> E.Expr:
        lhs = self._or()
        if self.at_word("implies"):
            loc = self.loc(self.advance())
            return E.Implies(lhs, self._implies(), loc=loc)
        return lhs

    def _or(self) -> E.Expr:
        out = self._and()
        while self.at_word("or"):
            loc = self.loc(self.advance())
            out = E.Or(out, self._and(), loc=loc)
        return out

    def _and(self) -> E.Expr:
        out = self._not()
        while self.at_word("and"):
            loc = self.loc(self.advance())
            out = E.And(out, self._not(), loc=loc)
        return out

    def _not(self) -> E.Expr:
        if self.at_word("not"):
            loc = self.loc(self.advance())
            return E.Not(self._not(), loc=loc)
        return self._comparison()

    def _comparison(self) -> E.Expr:
        lhs = self._additive()
        tok = self.peek()
        if tok.kind == "sym" and tok.text in E.COMPARE_OPS:
            self.advance()
            return E.Compare(tok.text, lhs, self._additive(), loc=self.loc(tok))
        return lhs

    def _additive(self) -> E.Expr:
        out = self._postfix()
        while self.at_sym("+") or self.at_sym("-"):
            tok = self.advance()
            rhs = self._postfix()
            out = E.Add(out, rhs, loc=self.loc(tok)) if tok.text == "+" else \
                E.Sub(out, rhs, loc=self.loc(tok))
        return out

    def _postfix(self) -> E.Expr:
        out = self._primary()
        while self.at_sym("."):
            self.advance()
            feature = self.ident("a feature name")
            out = E.Nav(out, feature.text, loc=self.loc(feature))
        return out

    def _quantifier(self, keyword: str) -> E.Expr:
        loc = self.loc(self.eat_word(keyword))
        self.eat_sym("(")
        var = self.ident("a variable name").text
        self.eat_word("in")
        domain = self.expression()
        self.eat_sym("|")
        body = self.expression()
        self.eat_sym(")")
        node = E.Forall if keyword == "forall" else E.Exists
        return node(var, domain, body, loc=loc)

    def _primary(self) -> E.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return E.Literal(int(tok.text), loc=self.loc(tok))
        if tok.kind == "string":
            self.advance()
            return E.Literal(tok.text, loc=self.loc(tok))
        if self.at_sym("("):
            self.advance()
            inner = self.expression()
            self.eat_sym(")")
            return inner
        if tok.kind != "ident":
            raise self.fail("an expression")
        if tok.text == "true" or tok.text == "false":
            self.advance()
            return E.Literal(tok.text == "true", loc=self.loc(tok))
        if tok.text in ("forall", "exists"):
            return self._quantifier(tok.text)
        if tok.text in ("size", "isEmpty") and self.toks[self.pos + 1].text == "(":
            self.advance()
            self.eat_sym("(")
            arg = self.expression()
            self.eat_sym(")")
            return E.Call(tok.text, (arg,), loc=self.loc(tok))
        if tok.text == "hasStereotype" and self.toks[self.pos + 1].text == "(":
            self.advance()
            self.eat_sym("(")
            element = self.expression()
            self.eat_sym(",")
            name = self.string("a stereotype name string")
            self.eat_sym(")")
            return E.Call(
                "hasStereotype",
                (element, E.Literal(name.text, loc=self.loc(name))),
                loc=self.loc(tok))
        if tok.text == "exactlyOne" and self.toks[self.pos + 1].text == "(":
            self.advance()
            self.eat_sym("(")
            args = [self.expression()]
            while self.at_sym(","):
                self.advance()
                args.append(self.expression())
            self.eat_sym(")")
            return E.Call("exactlyOne", tuple(args), loc=self.loc(tok))
        if tok.text in self._RESERVED:
            raise self.fail("an expression")
        self.advance()
        return E.VarRef(tok.text, loc=self.loc(tok))

    # -- literals (package constants) ----------------------------------------

    def literal(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        if self.at_sym("-"):
            self.advance()
            number = self.peek()
            if number.kind != "int":
                raise self.fail("an integer")
            self.advance()
            return -int(number.text)
        if tok.kind == "string":
            self.advance()
            return tok.text
        if tok.kind == "ident" and tok.text in ("true", "false"):
            self.advance()
            return tok.text == "true"
        raise self.fail("a literal (integer, string, true or false)")

    def metaclass(self) -> str:
        tok = self.ident("a metaclass name")
        if tok.text not in METACLASSES:
            raise ParseError(
                f"'{tok.text}' is not a metaclass (expected one of "
                f"{', '.join(sorted(METACLASSES))})", self.loc(tok))
        return tok.text


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's state.

    A parse allocates its whole tree before any of it can die, so every
    collection it would trigger traverses the growing tree in vain; the
    trees hold no cycles, so reference counting alone frees them."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def parse_expr(source: str, file: str = "<expr>") -> E.Expr:
    parser = _Parser(source, file)
    out = parser.expression()
    parser.expect_eof()
    return out


def _parse_member(p: _Parser):
    if p.at_word("attribute"):
        loc = p.loc(p.advance())
        name = p.ident("an attribute name").text
        p.eat_sym(":")
        type_name = p.ident("a type name").text
        return Attribute(name, type_name, loc=loc)
    if p.at_word("operation"):
        loc = p.loc(p.advance())
        name = p.ident("an operation name").text
        p.eat_sym("(")
        params: list[Param] = []
        if not p.at_sym(")"):
            while True:
                pname = p.ident("a parameter name").text
                p.eat_sym(":")
                ptype = p.ident("a type name").text
                params.append(Param(pname, ptype))
                if not p.at_sym(","):
                    break
                p.advance()
        p.eat_sym(")")
        pre = post = None
        if p.at_word("pre"):
            p.advance()
            p.eat_sym(":")
            pre = p.expression()
        if p.at_word("post"):
            p.advance()
            p.eat_sym(":")
            post = p.expression()
        return Operation(name, tuple(params), pre, post, loc=loc)
    if p.at_word("invariant"):
        p.advance()
        return Invariant(p.expression())
    raise p.fail("'attribute', 'operation', 'invariant' or '}'")


def _parse_class(p: _Parser) -> ClassDef:
    loc = p.loc(p.eat_word("class"))
    name = p.ident("a class name").text
    superclasses: list[str] = []
    if p.take_word("specializes"):
        superclasses.append(p.ident("a class name").text)
        while p.at_sym(","):
            p.advance()
            superclasses.append(p.ident("a class name").text)
    stereotypes: list[str] = []
    if p.at_sym("<<"):
        p.advance()
        stereotypes.append(p.ident("a stereotype name").text)
        while p.at_sym(","):
            p.advance()
            stereotypes.append(p.ident("a stereotype name").text)
        p.eat_sym(">>")
    p.eat_sym("{")
    attributes: list[Attribute] = []
    operations: list[Operation] = []
    invariants: list[Invariant] = []
    while not p.at_sym("}"):
        member = _parse_member(p)
        if isinstance(member, Attribute):
            attributes.append(member)
        elif isinstance(member, Operation):
            operations.append(member)
        else:
            invariants.append(member)
    p.eat_sym("}")
    return ClassDef(
        name,
        superclasses=tuple(superclasses),
        stereotypes=frozenset(stereotypes),
        attributes=tuple(attributes),
        operations=tuple(operations),
        invariants=tuple(invariants),
        loc=loc)


def _parse_chart(p: _Parser) -> Statechart:
    loc = p.loc(p.eat_word("statechart"))
    name = p.ident("a statechart name").text
    p.eat_word("for")
    attached_to = p.ident("a class name").text
    p.eat_sym("{")
    states: list[State] = []
    transitions: list[Transition] = []
    while not p.at_sym("}"):
        if p.at_word("initial") or p.at_word("state"):
            initial = p.take_word("initial")
            state_loc = p.loc(p.eat_word("state"))
            states.append(State(p.ident("a state name").text, initial, loc=state_loc))
        elif p.at_word("transition"):
            t_loc = p.loc(p.advance())
            source = p.ident("a state name").text
            p.eat_sym("->")
            target = p.ident("a state name").text
            p.eat_word("on")
            event = p.ident("an event name").text
            guard = None
            if p.at_sym("["):
                p.advance()
                guard = p.expression()
                p.eat_sym("]")
            transitions.append(Transition(source, target, event, guard, loc=t_loc))
        else:
            raise p.fail("'state', 'initial', 'transition' or '}'")
    p.eat_sym("}")
    return Statechart(name, attached_to, tuple(states), tuple(transitions), loc=loc)


@_collector_paused()
def parse_model(source: str, file: str = "<model>") -> Model:
    """Parse one model file.  Name resolution is not attempted here; a
    structurally broken model parses fine and fails ``builtin_check``."""

    p = _Parser(source, file)
    loc = p.loc(p.eat_word("model"))
    name = p.ident("a model name").text
    classes: list[ClassDef] = []
    charts: list[Statechart] = []
    while p.peek().kind != "eof":
        if p.at_word("class"):
            classes.append(_parse_class(p))
        elif p.at_word("statechart"):
            charts.append(_parse_chart(p))
        else:
            raise p.fail("'class', 'statechart' or end of input")
    return Model(name, tuple(classes), tuple(charts), loc=loc)


# ---------------------------------------------------------------------------
# Package parsing
# ---------------------------------------------------------------------------


def _dashed_ident(p: _Parser) -> str:
    parts = [p.ident("a transform id").text]
    while p.at_sym("-"):
        p.advance()
        parts.append(p.ident("a transform id").text)
    return "-".join(parts)


def _dotted_ident(p: _Parser) -> str:
    parts = [p.ident("an option key").text]
    while p.at_sym("."):
        p.advance()
        parts.append(p.ident("an option key").text)
    return ".".join(parts)


def _parse_definition(p: _Parser) -> Definition:
    if p.at_word("const"):
        loc = p.loc(p.advance())
        key = p.ident("a constant name").text
        p.eat_sym("=")
        return ConstDef(key, p.literal(), loc=loc)
    if p.at_word("option"):
        loc = p.loc(p.advance())
        key = _dotted_ident(p)
        p.eat_sym("=")
        return OptionDef(key, p.ident("an option value").text, loc=loc)
    if p.at_word("stereotype"):
        loc = p.loc(p.advance())
        name = p.ident("a stereotype name").text
        p.eat_word("on")
        base = p.metaclass()
        required: list[str] = []
        if p.take_word("requires"):
            required.append(p.ident("a tag name").text)
            while p.at_sym(","):
                p.advance()
                required.append(p.ident("a tag name").text)
        return StereotypeDef(name, base, tuple(required), loc=loc)
    if p.at_word("tagdef"):
        loc = p.loc(p.advance())
        name = p.ident("a tag name").text
        p.eat_sym(":")
        value_type = p.ident("'string', 'int' or 'bool'")
        if value_type.text not in ("string", "int", "bool"):
            raise ParseError(
                f"'{value_type.text}' is not a tag type (expected string, int or bool)",
                p.loc(value_type))
        return TagDef(name, value_type.text, loc=loc)
    if p.at_word("constraint"):
        loc = p.loc(p.advance())
        name = p.ident("a constraint name").text
        p.eat_word("on")
        scope = p.metaclass()
        severity = "error"
        if p.take_word("severity"):
            tok = p.ident("'error' or 'warning'")
            if tok.text not in ("error", "warning"):
                raise ParseError(
                    f"'{tok.text}' is not a severity (expected error or warning)",
                    p.loc(tok))
            severity = tok.text
        p.eat_sym(":")
        return ConstraintDef(name, scope, severity, p.expression(), loc=loc)
    if p.at_word("rule"):
        loc = p.loc(p.advance())
        key = p.ident("a property key").text
        p.eat_word("when")
        predicate: Predicate
        if p.take_word("all"):
            predicate = MatchAll()
        elif p.at_word("stereotype"):
            p.advance()
            p.eat_sym("(")
            predicate = HasStereotype(p.ident("a stereotype name").text)
            p.eat_sym(")")
        elif p.at_word("metaclass"):
            p.advance()
            p.eat_sym("(")
            predicate = IsMetaclass(p.metaclass())
            p.eat_sym(")")
        else:
            raise p.fail("'all', 'stereotype(...)' or 'metaclass(...)'")
        p.eat_sym("=")
        return PredicatedRuleDef(key, predicate, p.ident("a value").text, loc=loc)
    if p.at_word("transform"):
        loc = p.loc(p.advance())
        transform_id = _dashed_ident(p)
        if p.take_word("on"):
            return TransformSelection(transform_id, True, loc=loc)
        if p.take_word("off"):
            return TransformSelection(transform_id, False, loc=loc)
        raise p.fail("'on' or 'off'")
    raise p.fail("a definition or '}'")


@_collector_paused()
def parse_package(source: str, file: str = "<package>") -> Package:
    """Parse one package file: quoted id, imports first, then definitions."""

    p = _Parser(source, file)
    loc = p.loc(p.eat_word("package"))
    pkg_id = p.string("a quoted package id").text
    p.eat_sym("{")
    imports: list[str] = []
    while p.at_word("import"):
        p.advance()
        imports.append(p.string("a quoted package id").text)
    definitions: list[Definition] = []
    while not p.at_sym("}"):
        if p.at_word("import"):
            raise ImportAfterDefinitionError(
                "imports must precede all definitions", p.loc(p.peek()))
        definitions.append(_parse_definition(p))
    p.eat_sym("}")
    p.expect_eof()
    return Package(pkg_id, tuple(imports), tuple(definitions), loc=loc)


# ---------------------------------------------------------------------------
# Expression printing
# ---------------------------------------------------------------------------

_IMPLIES, _OR, _AND, _NOT, _CMP, _ADD, _POSTFIX = range(1, 8)

#: Binary operators spelled the same in every node: the text between the
#: operands, the operator's own level, and the floors its left and right
#: operands print at.  ``Compare`` spells its own operator.
_INFIX: dict[type, tuple[str, int, int, int]] = {
    E.Implies: (" implies ", _IMPLIES, _OR, _IMPLIES),
    E.Or: (" or ", _OR, _OR, _AND),
    E.And: (" and ", _AND, _AND, _NOT),
    E.Add: (" + ", _ADD, _ADD, _POSTFIX),
    E.Sub: (" - ", _ADD, _ADD, _POSTFIX),
}


def format_expr(e: E.Expr) -> str:
    """Canonical text of an expression, with the fewest parentheses that
    keep reparsing structure-faithful.

    One pass over an explicit stack, so a tree of any depth prints without
    recursion; the pieces of text go into one list, joined once.
    """

    if isinstance(e, E.VarRef):
        return e.name
    if isinstance(e, E.Literal):
        return render_literal(e.value)

    parts: list[str] = []
    # Work still to do, last in first out: text to emit as it is, or a node
    # to print at a floor, parenthesized when its own level is lower.
    stack: list[str | tuple[E.Expr, int]] = [(e, _IMPLIES)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, floor = item
        kind = type(node)
        if kind is E.VarRef:
            parts.append(node.name)
        elif kind is E.Not:
            if _NOT < floor:
                parts.append("(")
                stack.append(")")
            parts.append("not ")
            stack.append((node.operand, _NOT))
        elif kind in _INFIX or kind is E.Compare:
            if kind is E.Compare:
                text, level, lhs_floor, rhs_floor = f" {node.op} ", _CMP, _ADD, _ADD
            else:
                text, level, lhs_floor, rhs_floor = _INFIX[kind]
            if kind is E.Or:
                # Conjunctive operands are parenthesized even though
                # precedence does not demand it; disjunctions of
                # conjunctions read better as (a and not b) or (not a and b).
                if type(node.lhs) is E.And:
                    lhs_floor = _NOT
                if type(node.rhs) is E.And:
                    rhs_floor = _NOT
            if level < floor:
                parts.append("(")
                stack.append(")")
            stack += ((node.rhs, rhs_floor), text, (node.lhs, lhs_floor))
        elif kind is E.Literal:
            parts.append(render_literal(node.value))
        elif kind is E.Nav:
            stack += ("." + node.feature, (node.target, _POSTFIX))
        elif kind is E.Call:
            parts.append(node.fn + "(")
            stack.append(")")
            for index in range(len(node.args) - 1, -1, -1):
                stack.append((node.args[index], _IMPLIES))
                if index:
                    stack.append(", ")
        elif kind is E.Forall or kind is E.Exists:
            keyword = "forall" if kind is E.Forall else "exists"
            parts.append(f"{keyword}({node.var} in ")
            stack += (")", (node.body, _IMPLIES), " | ", (node.domain, _IMPLIES))
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Model printing
# ---------------------------------------------------------------------------


def _induced_note(origin) -> str:
    return f" // induced by {origin.rule_id}" if origin.kind == "induced" else ""


def _print_operation(op: Operation) -> str:
    params = ", ".join(f"{p.name} : {p.type_name}" for p in op.params)
    line = f"operation {op.name}({params})"
    pre = op.effective_pre
    if pre is not None:
        line += f" pre: {format_expr(pre)}"
    if op.post_authored is not None:
        line += f" post: {format_expr(op.post_authored)}"
    if op.origin.kind == "induced":
        line += _induced_note(op.origin)
    elif op.pre_induced is not None:
        line += _induced_note(op.pre_induced[1])
    return line


def print_model(model: Model) -> str:
    """Canonical model text: declaration order, two-space indentation,
    induced elements annotated, one trailing newline."""

    lines = [f"model {model.name}"]
    for cls in model.classes:
        head = f"  class {cls.name}"
        if cls.superclasses:
            head += " specializes " + ", ".join(cls.superclasses)
        if cls.stereotypes:
            head += " <<" + ", ".join(sorted(cls.stereotypes)) + ">>"
        lines.append(head + " {")
        for attr in cls.attributes:
            lines.append(
                f"    attribute {attr.name} : {attr.type_name}"
                + _induced_note(attr.origin))
        for op in cls.operations:
            lines.append("    " + _print_operation(op))
        for inv in cls.invariants:
            lines.append(
                f"    invariant {format_expr(inv.expr)}" + _induced_note(inv.origin))
        lines.append("  }")
    for chart in model.statecharts:
        lines.append(f"  statechart {chart.name} for {chart.attached_to} {{")
        for state in chart.states:
            prefix = "initial state" if state.initial else "state"
            lines.append(f"    {prefix} {state.name}")
        for t in chart.transitions:
            line = f"    transition {t.source} -> {t.target} on {t.event}"
            if t.guard is not None:
                line += f" [{format_expr(t.guard)}]"
            lines.append(line)
        lines.append("  }")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Package printing
# ---------------------------------------------------------------------------


def _print_predicate(predicate: Predicate) -> str:
    if isinstance(predicate, MatchAll):
        return "all"
    if isinstance(predicate, HasStereotype):
        return f"stereotype({predicate.name})"
    return f"metaclass({predicate.metaclass})"


def _print_definition(definition: Definition) -> str:
    if isinstance(definition, ConstDef):
        return f"const {definition.key} = {render_literal(definition.value)}"
    if isinstance(definition, OptionDef):
        return f"option {definition.key} = {definition.value}"
    if isinstance(definition, StereotypeDef):
        line = f"stereotype {definition.name} on {definition.base}"
        if definition.required_tags:
            line += " requires " + ", ".join(definition.required_tags)
        return line
    if isinstance(definition, TagDef):
        return f"tagdef {definition.name} : {definition.value_type}"
    if isinstance(definition, ConstraintDef):
        return (f"constraint {definition.name} on {definition.scope} "
                f"severity {definition.severity} : {format_expr(definition.body)}")
    if isinstance(definition, PredicatedRuleDef):
        return (f"rule {definition.property_key} when "
                f"{_print_predicate(definition.predicate)} = {definition.value}")
    if isinstance(definition, TransformSelection):
        return (f"transform {definition.transform_id} "
                + ("on" if definition.enabled else "off"))
    raise TypeError(f"unknown definition kind: {definition!r}")


def print_package(pkg: Package) -> str:
    lines = [f'package "{pkg.id}" {{']
    for imported in pkg.imports:
        lines.append(f'  import "{imported}"')
    for definition in pkg.definitions:
        lines.append("  " + _print_definition(definition))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report printing
# ---------------------------------------------------------------------------


def _chain_note(entries: tuple[ChainEntry, ...]) -> str:
    if len(entries) == 1 and entries[0].package_id == CATALOGUE_DEFAULT:
        return "(default)"
    winner = entries[-1]
    if len(entries) == 1:
        return f"({winner.package_id})"
    overridden = ", ".join(
        f"{entry.package_id}: {entry.render()}" for entry in entries[:-1])
    return f"({winner.package_id}, overrides {overridden})"


def print_report(eff: EffectiveDefinitions) -> str:
    """Human-readable summary of a composed preface.

    Each section is sorted by key; scalar lines show the winning value and
    the full override chain, e.g. ``max = 8 (project-p, overrides
    uml-core: 10)``.  Catalogue defaults are marked ``(default)``.
    """

    out: list[str] = []

    def section(title: str, lines: list[str]) -> None:
        out.append(title)
        out.extend(lines if lines else ["  (none)"])
        out.append("")

    section("packages", [f"  {pkg_id}" for pkg_id in eff.flattened_order])

    constants = []
    for key in sorted(k for k in eff.scalars if k not in OPTION_CATALOGUE):
        value, _ = eff.scalars[key]
        constants.append(
            f"  {key} = {render_literal(value)} "
            + _chain_note(eff.scalar_history[key]))
    section("constants", constants)

    options = []
    for key in sorted(k for k in eff.scalars if k in OPTION_CATALOGUE):
        value, prov = eff.scalars[key]
        if prov.package_id == CATALOGUE_DEFAULT:
            options.append(f"  {key} = {value} (default)")
        else:
            options.append(
                f"  {key} = {value} " + _chain_note(eff.scalar_history[key]))
    section("options", options)

    rules = []
    for key in sorted(eff.predicated):
        rules.append(f"  {key}")
        for predicate, value, prov in eff.predicated[key]:
            rules.append(
                f"    when {_print_predicate(predicate)} -> {value} ({prov.package_id})")
    section("rules", rules)

    constraint_lines = []
    for name in sorted(eff.constraints):
        definition, prov = eff.constraints[name]
        constraint_lines.append(
            f"  {name} on {definition.scope} severity {definition.severity} "
            f"({prov.package_id})")
    section("constraints", constraint_lines)

    stereotype_lines = []
    for name in sorted(eff.stereotypes):
        definition, prov = eff.stereotypes[name]
        line = f"  {name} on {definition.base}"
        if definition.required_tags:
            line += " requires " + ", ".join(definition.required_tags)
        stereotype_lines.append(line + f" ({prov.package_id})")
    section("stereotypes", stereotype_lines)

    tag_lines = []
    for name in sorted(eff.tags):
        definition, prov = eff.tags[name]
        tag_lines.append(f"  {name} : {definition.value_type} ({prov.package_id})")
    section("tags", tag_lines)

    transform_lines = []
    for transform_id in sorted(eff.transforms):
        enabled, prov = eff.transforms[transform_id]
        transform_lines.append(
            f"  {transform_id} = " + ("on" if enabled else "off")
            + f" ({prov.package_id})")
    section("transforms", transform_lines)

    return "\n".join(out[:-1]) + "\n" if out else "\n"


def print_transform_report(report) -> str:
    """Render what a transformation run induced (diagnostics excluded)."""

    out: list[str] = []

    def section(title: str, entries: list[tuple[str, str]]) -> None:
        if not entries:
            return
        out.append(title)
        for path, description in entries:
            out.append(f"  {path}: {description}")

    section("induced attributes", report.induced_attributes)
    section("induced invariants", report.induced_invariants)
    section("induced operations", report.induced_operations)
    section("induced preconditions", report.induced_preconditions)
    if not out:
        return "nothing induced\n"
    return "\n".join(out) + "\n"
