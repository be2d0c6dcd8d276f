"""Text formats: parsing and printing of models, packages and reports.

Two line-oriented surface syntaxes share one expression sub-grammar:

* model files declare classes (attributes, operations with optional
  pre/postconditions, invariants) and statecharts (states, transitions);
* package files declare imports followed by definitions (constants,
  options, stereotypes, tag types, constraints, predicated rules and
  transform switches).

Comments run from ``//`` to end of line in both.  Parsers are recursive
descent over the token texts of one scan and fail with a located
``ParseError``; they never guess.

The scanner is one ``findall`` of one regular expression, so the whole
text is cut up in C into one flat list of token texts, with no tuple or
offset per match.  Each match is the blanks and comments before a token,
then the token, or one character no token accepts, or ``""`` at the end.
Identifiers are ASCII (``[A-Za-z_][A-Za-z0-9_]*``, what
``model.is_identifier`` accepts) and integers are runs of ASCII digits;
any other character outside a string or comment is a located
"unexpected character".  A string keeps its quotes, so the first
character of a text tells its kind: a letter or ``_`` starts an
identifier, a digit an integer, ``"`` a string, anything else is a
symbol, and the empty text is the end of input.  A node, an element or a
``ParseError`` keeps a ``LazyLocation``: its token's index and the
parse's ``_token_table`` (file name and text, no token list).  On the
first read of a location the table finds every token start, in one more
pass of the same expression, and the line starts; a parse none of whose
locations is read never pays for them.

Expressions nest at most ``MAX_NESTING`` levels deep; deeper text is a
located ``ParseError``, so no text makes a parser (or the evaluator, on
what a parser built) exhaust the interpreter's recursion limit.

``read_package_header`` reads a package file only as far as its last
import, matching ``_TOKEN`` one token at a time, and hands any text whose
header is broken to ``parse_package`` for the error.

``parse_expr``, ``parse_model`` and ``parse_package`` pause the cyclic
garbage collector while they build their tree and then restore the
caller's setting.  That is safe because a parse only allocates and its
trees hold no reference cycles, so reference counting alone frees them;
collections during the parse would only traverse the growing tree.

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
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from typing import Iterator, Sequence

from . import expr as E
from .diagnostics import LazyLocation, SourceLocation
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
    Chain,
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


#: How deeply an expression may nest.  Each ``(`` (of a group, a call or a
#: quantifier), each ``not`` and each right operand of ``implies`` opens
#: one level; text that opens more fails at the token opening the extra
#: level.  At this depth a parse, a print and an evaluation all stay far
#: below the interpreter's default recursion limit.
MAX_NESTING = 100

# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

#: Blanks, line ends and comments, then the one group: a token
#: (two-character symbols before one-character ones), or one character no
#: token accepts (a stray quote is an unterminated string), or ``""`` at
#: the end of input.
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
#: The one-character texts that are tokens.
_SINGLE = _IDENT_START | _DIGITS | frozenset("{}()[]:,=.<>+|-")


def _scan(source: str, file: str):
    """The token texts of ``source``, ending in ``""`` (the end of input)
    and with strings in their quotes, and the parse's ``_token_table``."""

    texts = _TOKEN.findall(source)
    # Blanks or a comment after the last token give a second "" at the end.
    if len(texts) > 1 and not texts[-2]:
        texts.pop()
    table = _token_table(file, source)
    refused = [text for text in set(texts) if len(text) == 1 and text not in _SINGLE]
    if refused:
        index = min(map(texts.index, refused))
        found = texts[index]
        raise ParseError(
            "unterminated string" if found == '"' else f"unexpected character {found!r}",
            LazyLocation(index, table))
    return texts, table


def _offsets(text: str) -> tuple[list[int], list[int]]:
    """Where each token of ``text`` starts, and where each line starts.

    The end of input sits at the end of the text or, when the last line
    ends in a comment, where that comment begins.
    """

    starts = [found.start(1) for found in _TOKEN.finditer(text)]
    end = bisect_left(starts, len(text))
    # What follows the last token on the last line is blanks and maybe a comment.
    tail = _TOKEN.match(text, starts[end - 1]).end() if end else 0
    comment = text.find("//", max(tail, text.rfind("\n") + 1))
    if comment >= 0:
        starts[end] = comment
    # each line starts one past the lines before it
    lines = list(accumulate((len(line) + 1 for line in text.split("\n")), initial=0))
    return starts, lines


def _token_table(file: str, text: str):
    """Where the token at an index is; the offsets are found on the first call."""

    starts = lines = None

    def position(index: int) -> tuple[str, int, int]:
        nonlocal starts, lines
        if starts is None:
            starts, lines = _offsets(text)
        offset = starts[index]
        line = bisect_right(lines, offset)
        return file, line, offset - lines[line - 1] + 1

    return position


# ---------------------------------------------------------------------------
# Parser plumbing
# ---------------------------------------------------------------------------

_COMPARE = frozenset(E.COMPARE_OPS)

#: The built-in calls of the expression grammar.
_CALLS = frozenset({"size", "isEmpty", "hasStereotype", "exactlyOne"})


class _Parser:
    """A position in the token texts of one source.  The primitives look
    at ``texts[pos]``; a method that consumes a token returns its text
    (unquoted, for a string) or its index, which ``loc`` turns into a
    location where one is kept."""

    __slots__ = ("texts", "table", "pos", "depth")

    def __init__(self, source: str, file: str):
        self.texts, self.table = _scan(source, file)
        self.pos = self.depth = 0

    def loc(self, index: int) -> LazyLocation:
        """The location of the token at ``index``."""

        return LazyLocation(index, self.table)

    # -- primitives ------------------------------------------------------------

    def fail(self, expected: str) -> ParseError:
        text = self.texts[self.pos]
        found = repr(text) if text else "end of input"
        return ParseError(f"expected {expected}, found {found}", self.loc(self.pos))

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def eat(self, text: str) -> int:
        """Consume ``text``, or fail; the index of the token eaten."""

        index = self.pos
        if self.texts[index] != text:
            raise self.fail(f"'{text}'")
        self.pos = index + 1
        return index

    def take(self, text: str) -> bool:
        """Consume ``text`` if it is next."""

        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def ident(self, what: str) -> str:
        text = self.texts[self.pos]
        if text[:1] not in _IDENT_START:
            raise self.fail(what)
        self.pos += 1
        return text

    def string(self, what: str) -> str:
        text = self.texts[self.pos]
        if text[:1] != '"':
            raise self.fail(what)
        self.pos += 1
        return text[1:-1]

    def expect_eof(self) -> None:
        if self.texts[self.pos]:
            raise self.fail("end of input")

    def deeper(self, index: int) -> None:
        """Open one more nesting level at the token at ``index``."""

        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", self.loc(index))

    # -- shared expression grammar -------------------------------------------
    #
    # Five methods, one per frame of the recursion through a nesting level:
    # ``expression`` (implies, or), ``_conjunction`` (and), ``_negation``
    # (not, comparison), ``_sum`` (+ -) and ``_operand`` (literals,
    # variables, groups, calls, quantifiers, navigation).

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


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's state.

    A parse allocates its whole tree before any of it can die, so every
    collection it would trigger traverses the growing tree in vain; the
    trees hold no cycles, so reference counting alone frees them.  A
    caller that parses many texts in a row, like the command line reading
    a preface directory, pauses it once around the whole loop."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def parse_expr(source: str, file: str = "<expr>") -> E.Expr:
    parser = _Parser(source, file)
    out = parser.expression()
    parser.expect_eof()
    return out


def _parse_operation(p: _Parser, index: int) -> Operation:
    name = p.ident("an operation name")
    p.eat("(")
    params: list[Param] = []
    if not p.at(")"):
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


def _idents(p: _Parser, separator: str, what: str) -> list[str]:
    """One identifier, then more after each ``separator``: a comma-separated
    name list, a dashed transform id or a dotted option key."""

    idents = [p.ident(what)]
    while p.take(separator):
        idents.append(p.ident(what))
    return idents


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


# ---------------------------------------------------------------------------
# Package parsing
# ---------------------------------------------------------------------------

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
        predicate = MatchAll()
    elif p.take("stereotype"):
        p.eat("(")
        predicate = HasStereotype(p.ident("a stereotype name"))
        p.eat(")")
    elif p.take("metaclass"):
        p.eat("(")
        predicate = IsMetaclass(p.metaclass())
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


def read_package_header(source: str, file: str = "<package>") -> Package:
    """The id, imports and location of a package file, as a ``Package``
    without definitions, read no further than its last import.

    Text that does not start like a package (``package``, a quoted id,
    ``{``, then ``import`` and a quoted id any number of times) goes to
    ``parse_package``, so a broken header fails with the same
    ``ParseError``; whatever follows the imports is not read."""

    # A lone '"' is a refused character, not a quoted id.
    texts = (found[1] for found in _TOKEN.finditer(source))
    pkg_id = next(texts, "") if next(texts) == "package" else ""
    if pkg_id[:1] != '"' or pkg_id == '"' or next(texts, "") != "{":
        return parse_package(source, file)
    imports: list[str] = []
    while next(texts, "") == "import":
        imported = next(texts, "")
        if imported[:1] != '"' or imported == '"':
            return parse_package(source, file)
        imports.append(imported[1:-1])
    loc = LazyLocation(0, _token_table(file, source))
    return Package(pkg_id[1:-1], tuple(imports), loc=loc)


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


def _scalar_value(definition: ConstDef | OptionDef) -> str:
    """The value as the definition's own line writes it: a constant's as a
    literal, an option's bare."""

    return _print_definition(definition).split(" = ", 1)[1]


def _chain_note(chain: Chain) -> str:
    *older, (_, winner) = chain
    if not older:
        return "(default)" if winner.package_id == CATALOGUE_DEFAULT else f"({winner.package_id})"
    overridden = ", ".join(
        f"{prov.package_id}: {_scalar_value(definition)}" for definition, prov in older)
    return f"({winner.package_id}, overrides {overridden})"


def print_report(eff: EffectiveDefinitions) -> str:
    """Human-readable summary of a composed preface.

    One pass over the chains, sorted by kind and key, fills the sections.
    Scalar lines show the winning value and the full override chain, e.g.
    ``max = 8 (project-p, overrides uml-core: 10)``, each value as its
    definition's line writes it.
    A key goes under ``options`` when an option wins it, whether or not the
    catalogue knows the key; catalogue defaults are marked ``(default)``.
    Rules list every case, newest first.
    """

    sections: dict[str, list[str]] = {title: [] for title in (
        "packages", "constants", "options", "rules", "constraints", "stereotypes",
        "tags", "transforms")}
    sections["packages"] = [f"  {pkg_id}" for pkg_id in eff.flattened_order]
    for kind, key in sorted(eff.chains):
        chain = eff.chains[kind, key]
        definition, prov = chain[-1]
        source = f"({prov.package_id})"
        if kind == "scalar":
            sections["options" if isinstance(definition, OptionDef) else "constants"].append(
                f"  {key} = {_scalar_value(definition)} {_chain_note(chain)}")
        elif kind == "rule":
            sections["rules"].append(f"  {key}")
            sections["rules"].extend(
                f"    when {_print_predicate(d.predicate)} -> {d.value} ({p.package_id})"
                for d, p in reversed(chain))
        elif kind == "constraint":
            sections["constraints"].append(
                f"  {key} on {definition.scope} severity {definition.severity} {source}")
        elif kind == "transform":
            sections["transforms"].append(
                f"  {key} = {'on' if definition.enabled else 'off'} {source}")
        else:  # a stereotype or tag: its definition line without the keyword
            sections[kind + "s"].append(
                "  " + _print_definition(definition).split(" ", 1)[1] + f" {source}")

    return "\n\n".join(title + "".join("\n" + line for line in lines or ["  (none)"])
                       for title, lines in sections.items()) + "\n"


def transform_report_sections(report) -> list[tuple[str, Sequence[tuple[str, str]]]]:
    """The four sections of a ``TransformReport``, the fields of its JSON
    form: titles with ``(path, description)`` entries, the induced
    expressions formatted here.  A precondition's description adds its
    effective precondition when an authored part was joined by ``and`` to
    the induced one."""

    return [
        ("induced attributes", report.induced_attributes),
        ("induced invariants", [(p, format_expr(e)) for p, e in report.induced_invariants]),
        ("induced operations", report.induced_operations),
        ("induced preconditions", [
            (p, format_expr(pre) if full is None
             else f"{format_expr(pre)}; effective precondition: {format_expr(full)}")
            for p, pre, full in report.induced_preconditions]),
    ]


def print_transform_report(report) -> str:
    """What a transformation run induced (diagnostics excluded): each
    non-empty section's title, then one ``  path: description`` line each."""

    out: list[str] = []
    for title, entries in transform_report_sections(report):
        if entries:
            out.append(title)
            out.extend(f"  {path}: {description}" for path, description in entries)
    if not out:
        return "nothing induced\n"
    return "\n".join(out) + "\n"
