"""Text formats: parsing and printing of models, packages and reports.

Two line-oriented surface syntaxes share one expression sub-grammar:

* model files declare classes (attributes, operations with optional
  pre/postconditions, invariants) and statecharts (states, transitions);
* package files declare imports followed by definitions (constants,
  options, stereotypes, tag types, constraints, predicated rules and
  transform switches).

Comments run from ``//`` to end of line in both.  Parsers read the token
texts of one scan and fail with a located ``ParseError``; they never
guess.  A line of fixed shape (a class or chart head, a member line, a
package definition line) reads its tokens by index off the token list,
checks each where it stands, builds its record positionally and moves the
position once, past the line.  A token out of place replays the checked
primitives (``ident``, ``eat``, ``metaclass``) from the start of that
part of the line, and they raise the same ``ParseError`` at the same
token; there is no second way through the grammar.  Expressions are
parsed by precedence climbing (see ``_Parser.expression``).

The scanner is one ``findall`` of one regular expression, so the whole
text is cut up in C into one flat list of token texts, with no tuple or
offset per match.  Each match is the blanks and comments before a token,
then the token, or one character no token accepts, or ``""`` at the end.
Identifiers are ASCII (``[A-Za-z_][A-Za-z0-9_]*``, what
``model.is_identifier`` accepts) and integers are runs of ASCII digits;
any other character outside a string or comment is a located
"unexpected character" (one match of ``_CLEAN`` tells a text that has
none).  A string keeps its quotes, so the first character of a text
tells its kind: a letter or ``_`` starts an identifier, a digit an
integer, ``"`` a string, anything else is a symbol, and the empty text
is the end of input.  A node or an element keeps the pair of its
token's index and the parse's ``_token_table`` (file name and text, no
token list) in its ``loc`` slot, which the first read turns into the
``SourceLocation`` the slot then keeps (``diagnostics.location_slot``); a
``ParseError`` gets its ``SourceLocation`` from the table.  On its first
call the table finds every token start, in one more pass of the same
expression, and the line starts; a parse none of whose locations is read
never pays for them, nor builds a location object.

Expressions nest at most ``MAX_NESTING`` levels deep; deeper text is a
located ``ParseError``, so no text makes a parser (or the evaluator, on
what a parser built) exhaust the interpreter's recursion limit.

``read_package_header`` reads a package file only as far as its last
import, matching ``_TOKEN`` one token at a time, and hands any text whose
header is broken to ``parse_package`` for the error.

``cli.run`` pauses the cyclic garbage collector once per command, and
``parse_expr``, ``parse_model`` and ``parse_package`` pause it for library
callers, each restoring the caller's setting.  Nothing ``cli.run`` makes
holds a reference cycle, nor does ``cli.main`` after its first call, which
builds the argument parser it keeps (``tests/test_cli.py`` pins both), so
reference counting alone frees it all; a collection would only traverse
live trees.

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
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from typing import Iterator, Sequence

from . import expr as E
from .diagnostics import SourceLocation
from .model import (
    AUTHORED,
    METACLASSES,
    NO_STEREOTYPES,
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
#: the end of input.  The group's last choice always matches, so no match
#: backtracks into a repeat: each repeat is possessive, which spares the
#: matcher its backtracking marks and changes no match.
_TOKEN_PATTERN = r"""
    [ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+
    ( [A-Za-z_][A-Za-z0-9_]*+
    | [0-9]++
    | "[^"\n]*+"
    | ->|<<|>>|<>|<=|>=|[{}()\[\]:,=.<>+|-]
    | .
    |
    )
"""
if sys.version_info < (3, 11):  # no possessive repeats: the same matches, slower
    _TOKEN_PATTERN = _TOKEN_PATTERN.replace("*+", "*").replace("++", "+")
_TOKEN = re.compile(_TOKEN_PATTERN, re.VERBOSE)

#: A text in which no token refuses a character: runs of the characters
#: tokens and blanks are made of, strings and comments.  Each run is taken
#: whole (the lookaheads keep a failing match from trying shorter ones),
#: so the match fails in linear time too.
_TOKEN_CHARS = r"[A-Za-z0-9_ \t\r\n{}()\[\]:,=.<>+|-]"
_CLEAN = re.compile(
    "(?:" + _TOKEN_CHARS + "+(?!" + _TOKEN_CHARS + r""")|"[^"\n]*"|//[^\n]*(?![^\n]))*""")

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
    # One match clears a text; in any other, a token refuses a character.
    if not _CLEAN.fullmatch(source):
        refused = [text for text in set(texts) if len(text) == 1 and text not in _SINGLE]
        index = min(map(texts.index, refused))
        found = texts[index]
        raise ParseError(
            "unterminated string" if found == '"' else f"unexpected character {found!r}",
            table(index))
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
    """The ``SourceLocation`` of the token at an index; offsets found on the first call."""

    starts = lines = None

    def position(index: int) -> SourceLocation:
        nonlocal starts, lines
        if starts is None:
            starts, lines = _offsets(text)
        offset = starts[index]
        line = bisect_right(lines, offset)
        return SourceLocation(file, line, offset - lines[line - 1] + 1)

    return position


# ---------------------------------------------------------------------------
# Parser plumbing
# ---------------------------------------------------------------------------

#: The built-in calls of the expression grammar.
_CALLS = E.CALLS

#: Expression levels, loosest first, which the parser and the printer
#: share; ``_END`` is the level of a token that continues no expression.
_END, _IMPLIES, _OR, _AND, _NOT, _CMP, _ADD, _POSTFIX = range(8)

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

#: Each binary operator's text: its level and the node it makes.
_BINARY = {text.strip(): (level, node) for node, (text, level, _, _) in _INFIX.items()}
_BINARY.update(dict.fromkeys(E.COMPARE_OPS, (_CMP, E.Compare)))
_NO_OPERATOR = (_END, None)


class _Parser:
    """A position in the token texts of one source.  The primitives look
    at ``texts[pos]``; a method that consumes a token returns its text
    (unquoted, for a string) or its index, which a record keeps in the
    pair ``(index, table)``, and that ``loc`` locates for a
    ``ParseError``."""

    __slots__ = ("texts", "table", "pos", "depth")

    def __init__(self, source: str, file: str):
        self.texts, self.table = _scan(source, file)
        self.pos = self.depth = 0

    def loc(self, index: int) -> SourceLocation:
        """The location of the token at ``index``, for a ``ParseError``."""

        return self.table(index)

    # -- primitives ------------------------------------------------------------

    def fail(self, expected: str) -> ParseError:
        text = self.texts[self.pos]
        found = repr(text) if text else "end of input"
        return ParseError(f"expected {expected}, found {found}", self.loc(self.pos))

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

    def replay(self, index: int, *steps: str) -> None:
        """Raise what the primitives raise on a line read straight off the
        token list: from the token at ``index``, read each step with
        ``metaclass`` if it is "a metaclass name", with ``ident`` if it
        describes another name (it has a blank), and else ``eat`` it.  A
        caller whose check is stricter than its steps raises after them."""

        self.pos = index
        for step in steps:
            if step == "a metaclass name":
                self.metaclass()
            elif " " in step:
                self.ident(step)
            else:
                self.eat(step)

    def deeper(self, index: int) -> None:
        """Open one more nesting level at the token at ``index``."""

        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", self.loc(index))

    # -- shared expression grammar -------------------------------------------
    #
    # Precedence climbing, after Pratt's "Top down operator precedence"
    # (POPL 1973): two methods, so one frame each per nesting level.
    # ``expression`` reads the operands of one level left to right, with the
    # ``not``s before them, the variables among them and the binary
    # operators between them; ``_operand`` reads a literal, a group, a call
    # or a quantifier, then the navigations from it or from a variable.

    def expression(self) -> E.Expr:
        """An expression.  Each operator waits on a stack until one no
        tighter than it follows its right operand (for ``implies``, one
        looser: it groups to the right); that completes the operand.  A
        ``not`` waits the same way, at its own level, for the negation it
        starts: its ``not``s, then a sum, then maybe a comparison and a
        second sum."""

        texts, table = self.texts, self.table
        depth = self.depth
        # (level, node, left operand or None for a ``not``, operator index)
        waiting: list = []
        negation = True  # one starts first, and after 'and', 'or' and 'implies'
        while True:
            if negation:
                compared = False
                while texts[self.pos] == "not":
                    self.deeper(self.pos)
                    waiting.append((_NOT, E.Not, None, self.pos))
                    self.pos += 1
            index = self.pos
            text = texts[index]
            # A variable, the one operand that cannot fail, is read here.  A
            # call is told by the next text with any quotes taken off, so
            # ``size "("`` fails at the string, expecting '('.
            if (text[:1] in _IDENT_START and text not in E.KEYWORDS
                    and not (text in _CALLS and texts[index + 1] in ("(", '"("'))):
                self.pos = index + 1
                out = E.VarRef(text, (index, table))
                if texts[index + 1] == ".":
                    out = self._operand(out)
            else:
                out = self._operand()
            index = self.pos
            level, node = _BINARY.get(texts[index], _NO_OPERATOR)
            if level == _CMP:
                if compared:  # comparisons do not chain: it ends here
                    level = _END
                compared = True
            floor = level + 1 if level == _IMPLIES else level
            while waiting and waiting[-1][0] >= floor:
                _, make, lhs, at = waiting.pop()
                if lhs is None:
                    out = make(out, (at, table))
                    self.depth -= 1
                elif make is E.Compare:
                    out = make(texts[at], lhs, out, (at, table))
                else:
                    out = make(lhs, out, (at, table))
            if level == _END:
                self.depth = depth  # each 'implies' opened a level
                return out
            waiting.append((level, node, out, index))
            self.pos = index + 1
            if level == _IMPLIES:
                self.deeper(index)
            negation = level <= _AND

    def _operand(self, out: E.Expr | None = None) -> E.Expr:
        """An operand other than a variable, or ``out``, the variable
        ``expression`` just read; then the navigations from it."""

        texts, table = self.texts, self.table
        if out is None:
            index = self.pos
            text = texts[index]
            head = text[:1]
            if head in _IDENT_START:
                if text not in E.KEYWORDS:  # the head of a call
                    out = self._call(index)
                elif text == "true" or text == "false":
                    self.pos = index + 1
                    out = E.Literal(text == "true", (index, table))
                elif text == "forall" or text == "exists":
                    out = self._quantifier(index)
                else:
                    raise self.fail("an expression")
            elif head in _DIGITS:
                self.pos = index + 1
                out = E.Literal(int(text), (index, table))
            elif head == '"':
                self.pos = index + 1
                out = E.Literal(text[1:-1], (index, table))
            elif text == "(":
                self.pos = index + 1
                self.deeper(index)
                out = self.expression()
                self.eat(")")
                self.depth -= 1
            else:
                raise self.fail("an expression")
        index = self.pos
        while texts[index] == ".":
            index += 1
            if texts[index][:1] not in _IDENT_START:
                self.pos = index
                raise self.fail("a feature name")
            out = E.Nav(out, texts[index], (index, table))
            index += 1
        self.pos = index
        return out

    def _quantifier(self, index: int) -> E.Expr:
        texts = self.texts
        if texts[index + 1] != "(":
            self.replay(index + 1, "(")
        self.deeper(index + 1)
        if texts[index + 2][:1] not in _IDENT_START or texts[index + 3] != "in":
            self.replay(index + 2, "a variable name", "in")
        self.pos = index + 4
        domain = self.expression()
        self.eat("|")
        body = self.expression()
        self.eat(")")
        self.depth -= 1
        node = E.Forall if texts[index] == "forall" else E.Exists
        return node(texts[index + 2], domain, body, (index, self.table))

    def _call(self, index: int) -> E.Expr:
        fn = self.texts[index]
        self.pos = index + 1
        self.deeper(self.eat("("))
        if fn == "hasStereotype":
            element = self.expression()
            self.eat(",")
            name_index = self.pos
            name = self.string("a stereotype name string")
            args: tuple[E.Expr, ...] = (element, E.Literal(name, (name_index, self.table)))
        elif fn == "exactlyOne":
            found = [self.expression()]
            while self.take(","):
                found.append(self.expression())
            args = tuple(found)
        else:
            args = (self.expression(),)
        self.eat(")")
        self.depth -= 1
        return E.Call(fn, args, (index, self.table))

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
    caller that parses many texts, like a command of the command line,
    pauses it once around all of its work."""

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


def _names(p: _Parser, index: int, separator: str, what: str) -> int:
    """Where names joined by ``separator`` from the token at ``index`` end,
    the index after the last name: a comma-separated name list, a dashed
    transform id or a dotted option key."""

    texts = p.texts
    while texts[index][:1] in _IDENT_START and texts[index + 1] == separator:
        index += 2
    if texts[index][:1] not in _IDENT_START:
        p.replay(index, what)
    return index + 1


def _parse_operation(p: _Parser, index: int) -> Operation:
    texts = p.texts
    if texts[index + 1][:1] not in _IDENT_START or texts[index + 2] != "(":
        p.replay(index + 1, "an operation name", "(")
    at = index + 3
    params: list[Param] = []
    if texts[at] != ")":
        while (texts[at][:1] in _IDENT_START and texts[at + 1] == ":"
               and texts[at + 2][:1] in _IDENT_START):
            params.append(Param(texts[at], texts[at + 2]))
            at += 3
            if texts[at] != ",":
                break
            at += 1
        else:
            p.replay(at, "a parameter name", ":", "a type name")
        if texts[at] != ")":
            p.replay(at, ")")
    p.pos = at + 1
    pre = post = None
    if p.take("pre"):
        p.eat(":")
        pre = p.expression()
    if p.take("post"):
        p.eat(":")
        post = p.expression()
    return Operation(texts[index + 1], tuple(params), pre, post, None, AUTHORED,
                     (index, p.table))


def _parse_class(p: _Parser, start: int) -> ClassDef:
    texts, table = p.texts, p.table
    if texts[start + 1][:1] not in _IDENT_START:
        p.replay(start + 1, "a class name")
    index = start + 2
    superclasses = ()
    if texts[index] == "specializes":
        end = _names(p, index + 1, ",", "a class name")
        superclasses, index = tuple(texts[index + 1:end:2]), end
    stereotypes = NO_STEREOTYPES
    if texts[index] == "<<":
        end = _names(p, index + 1, ",", "a stereotype name")
        stereotypes, index = frozenset(texts[index + 1:end:2]), end + 1
        if texts[end] != ">>":
            p.replay(end, ">>")
    if texts[index] != "{":
        p.replay(index, "{")
    p.pos = index + 1
    attributes: list[Attribute] = []
    operations: list[Operation] = []
    invariants: list[Invariant] = []
    while True:
        index = p.pos
        word = texts[index]
        if word == "attribute":
            if not (texts[index + 1][:1] in _IDENT_START and texts[index + 2] == ":"
                    and texts[index + 3][:1] in _IDENT_START):
                p.replay(index + 1, "an attribute name", ":", "a type name")
            attributes.append(Attribute(texts[index + 1], texts[index + 3], AUTHORED,
                                        (index, table)))
            p.pos = index + 4
        elif word == "operation":
            operations.append(_parse_operation(p, index))
        elif word == "invariant":
            p.pos = index + 1
            invariants.append(Invariant(p.expression(), AUTHORED))
        elif word == "}":
            p.pos = index + 1
            return ClassDef(texts[start + 1], superclasses, stereotypes, (), tuple(attributes),
                            tuple(operations), tuple(invariants), (start, table))
        else:
            raise p.fail("'attribute', 'operation', 'invariant' or '}'")


def _parse_chart(p: _Parser, start: int) -> Statechart:
    texts, table = p.texts, p.table
    if not (texts[start + 1][:1] in _IDENT_START and texts[start + 2] == "for"
            and texts[start + 3][:1] in _IDENT_START and texts[start + 4] == "{"):
        p.replay(start + 1, "a statechart name", "for", "a class name", "{")
    p.pos = start + 5
    states: list[State] = []
    transitions: list[Transition] = []
    while True:
        index = p.pos
        word = texts[index]
        if word == "state" or word == "initial":
            at = index + (word == "initial")  # the ``state`` token
            if texts[at] != "state" or texts[at + 1][:1] not in _IDENT_START:
                p.replay(at, "state", "a state name")
            states.append(State(texts[at + 1], word == "initial", (at, table)))
            p.pos = at + 2
        elif word == "transition":
            if not (texts[index + 1][:1] in _IDENT_START and texts[index + 2] == "->"
                    and texts[index + 3][:1] in _IDENT_START and texts[index + 4] == "on"
                    and texts[index + 5][:1] in _IDENT_START):
                p.replay(index + 1, "a state name", "->", "a state name", "on",
                         "an event name")
            p.pos = index + 6
            guard = None
            if p.take("["):
                guard = p.expression()
                p.eat("]")
            transitions.append(Transition(texts[index + 1], texts[index + 3], texts[index + 5],
                                          guard, (index, table)))
        elif word == "}":
            p.pos = index + 1
            return Statechart(texts[start + 1], texts[start + 3], tuple(states),
                              tuple(transitions), (start, table))
        else:
            raise p.fail("'state', 'initial', 'transition' or '}'")


@collector_paused()
def parse_model(source: str, file: str = "<model>") -> Model:
    """Parse one model file.  Name resolution is not attempted here; a
    structurally broken model parses fine and fails ``builtin_check``."""

    p = _Parser(source, file)
    loc = (p.eat("model"), p.table)
    name = p.ident("a model name")
    classes: list[ClassDef] = []
    charts: list[Statechart] = []
    texts = p.texts
    while True:
        index = p.pos
        word = texts[index]
        if word == "class":
            classes.append(_parse_class(p, index))
        elif word == "statechart":
            charts.append(_parse_chart(p, index))
        elif not word:
            return Model(name, tuple(classes), tuple(charts), loc=loc)
        else:
            raise p.fail("'class', 'statechart' or end of input")


# ---------------------------------------------------------------------------
# Package parsing
# ---------------------------------------------------------------------------

# Each definition line is read by index from its keyword's, ``index``, and
# leaves ``p.pos`` after its last token.


def _parse_const(p: _Parser, index: int) -> Definition:
    texts = p.texts
    if texts[index + 1][:1] not in _IDENT_START or texts[index + 2] != "=":
        p.replay(index + 1, "a constant name", "=")
    p.pos = index + 3
    return ConstDef(texts[index + 1], p.literal(), (index, p.table))


def _parse_option(p: _Parser, index: int) -> Definition:
    texts = p.texts
    end = _names(p, index + 1, ".", "an option key")
    if texts[end] != "=" or texts[end + 1][:1] not in _IDENT_START:
        p.replay(end, "=", "an option value")
    p.pos = end + 2
    return OptionDef("".join(texts[index + 1:end]), texts[end + 1],
                     (index, p.table))


def _parse_stereotype(p: _Parser, index: int) -> Definition:
    texts = p.texts
    if (texts[index + 1][:1] not in _IDENT_START or texts[index + 2] != "on"
            or texts[index + 3] not in METACLASSES):
        p.replay(index + 1, "a stereotype name", "on", "a metaclass name")
    end = index + 4
    if texts[end] == "requires":
        end = _names(p, index + 5, ",", "a tag name")
    p.pos = end
    # Without ``requires`` the slice of tag names is empty.
    return StereotypeDef(texts[index + 1], texts[index + 3], tuple(texts[index + 5:end:2]),
                         (index, p.table))


def _parse_tagdef(p: _Parser, index: int) -> Definition:
    texts = p.texts
    if (texts[index + 1][:1] not in _IDENT_START or texts[index + 2] != ":"
            or texts[index + 3] not in ("string", "int", "bool")):
        p.replay(index + 1, "a tag name", ":", "'string', 'int' or 'bool'")
        raise ParseError(
            f"'{texts[index + 3]}' is not a tag type (expected string, int or bool)",
            p.loc(index + 3))
    p.pos = index + 4
    return TagDef(texts[index + 1], texts[index + 3], (index, p.table))


def _parse_constraint(p: _Parser, index: int) -> Definition:
    texts = p.texts
    if (texts[index + 1][:1] not in _IDENT_START or texts[index + 2] != "on"
            or texts[index + 3] not in METACLASSES):
        p.replay(index + 1, "a constraint name", "on", "a metaclass name")
    at = index + 4
    severity = "error"
    if texts[at] == "severity":
        severity = texts[at + 1]
        if severity != "error" and severity != "warning":
            p.replay(at + 1, "'error' or 'warning'")
            raise ParseError(
                f"'{severity}' is not a severity (expected error or warning)",
                p.loc(at + 1))
        at += 2
    if texts[at] != ":":
        p.replay(at, ":")
    p.pos = at + 1
    return ConstraintDef(texts[index + 1], texts[index + 3], severity, p.expression(),
                         (index, p.table))


#: The predicate of every ``rule … when all``.
_MATCH_ALL = Predicate("all")


def _parse_rule(p: _Parser, index: int) -> Definition:
    texts = p.texts
    if texts[index + 1][:1] not in _IDENT_START or texts[index + 2] != "when":
        p.replay(index + 1, "a property key", "when")
    at = index + 3
    word = texts[at]
    if word == "all":
        predicate = _MATCH_ALL
        at += 1
    elif word == "stereotype" or word == "metaclass":
        if (texts[at + 1] != "("
                or (texts[at + 2] not in METACLASSES if word == "metaclass"
                    else texts[at + 2][:1] not in _IDENT_START)
                or texts[at + 3] != ")"):
            p.replay(at + 1, "(", f"a {word} name", ")")
        predicate = Predicate(word, texts[at + 2])
        at += 4
    else:
        p.pos = at
        raise p.fail("'all', 'stereotype(...)' or 'metaclass(...)'")
    if texts[at] != "=" or texts[at + 1][:1] not in _IDENT_START:
        p.replay(at, "=", "a value")
    p.pos = at + 2
    return PredicatedRuleDef(texts[index + 1], predicate, texts[at + 1],
                             (index, p.table))


def _parse_transform(p: _Parser, index: int) -> Definition:
    texts = p.texts
    end = _names(p, index + 1, "-", "a transform id")
    if texts[end] != "on" and texts[end] != "off":
        p.pos = end
        raise p.fail("'on' or 'off'")
    p.pos = end + 1
    return TransformSelection("".join(texts[index + 1:end]), texts[end] == "on",
                              (index, p.table))


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
    loc = (p.eat("package"), p.table)
    pkg_id = p.string("a quoted package id")
    p.eat("{")
    imports: list[str] = []
    while p.take("import"):
        imports.append(p.string("a quoted package id"))
    definitions: list[Definition] = []
    texts = p.texts
    while True:
        index = p.pos
        word = texts[index]
        parse = _DEFINITIONS.get(word)
        if parse is not None:
            definitions.append(parse(p, index))
        elif word == "}":
            break
        elif word == "import":
            raise ImportAfterDefinitionError(
                "imports must precede all definitions", p.loc(index))
        else:
            raise p.fail("a definition or '}'")
    p.pos = index + 1
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
    loc = (0, _token_table(file, source))
    return Package(pkg_id[1:-1], tuple(imports), loc=loc)


# ---------------------------------------------------------------------------
# Expression printing
# ---------------------------------------------------------------------------

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
    return predicate.kind if predicate.name is None else f"{predicate.kind}({predicate.name})"


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
        if definition.severity != "error" and definition.severity != "warning":
            raise ValueError(f"constraint '{definition.name}': '{definition.severity}' is "
                             "not a severity (expected error or warning)")
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
