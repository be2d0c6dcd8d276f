"""Text formats: parsing and printing of models, packages and reports.

Two line-oriented surface syntaxes share one expression sub-grammar:

* model files declare classes (attributes, operations with optional
  pre/postconditions, invariants) and statecharts (states, transitions);
* package files declare imports followed by definitions (constants,
  options, stereotypes, tag types, constraints, predicated rules and
  transform switches).

Comments run from ``//`` to end of line in both.  Each declaration is
one row of one table, ``_grammar()``: its line as it prints, a format string
whose literal text holds the fixed words and whose ``{field}`` slots say
how each field reads and prints.  Parsers read the token texts of one scan
and fail with a located ``ParseError``; they never guess.  A row's reader
checks its fixed tokens by index off the token list, builds its record
positionally and moves past the line.  A token out of place replays the
row's steps with the checked primitives (``ident``, ``eat``, a slot's own
``replay``) from the start of that part of the line, which raise the same
``ParseError`` at the same token; there is no second way through the
grammar.  A row's printer writes its line and refuses, with a
``ValueError`` naming the record and the field, a value the row would not
read back.  A model file and a package file each have one reader and one
printer, compiled from the code their rows give, with every row under the
file's own read or printed inline, the first time such a file is read or
printed; the import compiles none.
Expressions are parsed by precedence climbing (see ``_Parser.expression``).

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

import _string
import gc
import re
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import cache, partial
from itertools import accumulate, count
from typing import Iterator, Sequence

from . import expr as E
from .diagnostics import SourceLocation
from .model import (
    METACLASSES,
    NO_STEREOTYPES,
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Origin,
    Param,
    State,
    Statechart,
    Transition,
    is_identifier,
)
from .preface import (
    CATALOGUE_DEFAULT,
    Chain,
    ConstDef,
    ConstraintDef,
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
from .record import _FIELDS


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

    def replay(self, index: int, *steps) -> None:
        """Raise what the primitives raise on a line read straight off the
        token list: from the token at ``index``, read each step with
        ``ident`` if it describes a name (it has a blank), with ``eat`` if it
        is a word, and else with its own ``replay`` (allowed words, a
        metaclass name among them)."""

        self.pos = index
        for step in steps:
            if step.__class__ is not str:
                step.replay(self)
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


# ---------------------------------------------------------------------------
# The collector and expressions
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
# The grammar: one row per declaration
# ---------------------------------------------------------------------------


def _either(words) -> str:
    """``a, b or c``."""

    *most, last = words
    return f"{', '.join(most)} or {last}" if most else last


def _tokens(text: str) -> list[str]:
    return [token for token in _TOKEN.findall(text) if token]


def _refuse() -> str:
    """What a compiled printer calls when a slot's check fails;
    ``_Row.text`` then finds the slot and says why."""

    raise ValueError


class _Refused(ValueError):
    """A slot's refusal, named by its record and field."""


class _Slot:
    """How one slot of a row reads and prints.

    A slot one token wide (``width``) gives the code of its ``check`` and
    its ``value`` off a token ``t``, and the ``step`` that replays it; any
    other appends the code that reads it (``reading``) to a reader's.
    ``text`` prints a value, or raises ``ValueError`` for one the slot
    would not read back; ``show`` and ``ok`` are the code a printer inlines
    for the two, given the code of a value ``v`` (no ``ok``: ``show``
    refuses by itself).  ``g`` names a global of that code, and ``fresh``
    a new local."""

    width, shown = 0, None

    def show(self, v: str, g, fresh) -> str:
        return f"{g(self.text)}({v})"

    def ok(self, v: str, g) -> str | None:
        return None

    def refuse(self, value) -> ValueError:
        return ValueError(f"{value!r} is not {self.what}")


class _Name(_Slot):
    """An identifier, described as "a … name" (or key, id, value)."""

    width = 1

    def __init__(self, what: str):
        self.what = self.step = what

    def check(self, t: str, g) -> str:
        return f"{t}[:1] in {g(_IDENT_START)}"

    def value(self, t: str, g) -> str:
        return t

    def show(self, v: str, g, fresh) -> str:
        return v

    def ok(self, v: str, g) -> str:
        # ``isidentifier`` takes non-ASCII letters: ``_printed`` checks ``isascii``
        return f"{v}.isidentifier()"

    def text(self, value) -> str:
        if isinstance(value, str) and is_identifier(value):
            return value
        raise self.refuse(value)


class _Words(_Slot):
    """Allowed words, each standing for a value.  With a ``noun``, another
    name is refused as not being one ("'x' is not a tag type (expected
    …)"); without, any other token is one more ``expected``."""

    width = 1

    def __init__(self, noun: str | None, *words: str, values: Sequence = (),
                 expected: str = "", listed: str = ""):
        self.noun, self.step = noun, self
        self.choices = dict(zip(words, values or words))  # word -> value
        self.words = {value: word for word, value in self.choices.items()}
        self.expected = expected or _either([f"'{word}'" for word in words])
        self.what = (f"a {noun} (expected {listed or _either(words)})" if noun
                     else _either(map(repr, self.words)))

    def check(self, t: str, g) -> str:
        return f"{t} in {g(self.choices)}"

    def value(self, t: str, g) -> str:
        return f"{g(self.choices)}[{t}]"

    def show(self, v: str, g, fresh) -> str:
        return f"{g(self.words)}[{v}]"

    def ok(self, v: str, g) -> str:
        return f"{v} in {g(self.words)}"

    def replay(self, p: _Parser) -> None:
        index = p.pos
        if self.noun is None:
            if p.texts[index] not in self.choices:
                raise p.fail(self.expected)
            p.pos = index + 1
        elif p.ident(self.expected) not in self.choices:
            raise ParseError(f"'{p.texts[index]}' is not {self.what}", p.loc(index))

    def text(self, value) -> str:
        if value in self.words:
            return self.words[value]
        raise self.refuse(value)


class _Primitive(_Slot):
    """What a parser primitive reads: an expression, a literal or a quoted
    package id."""

    def __init__(self, what: str, primitive, text):
        self.what, self.primitive, self.text = what, primitive, text

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, end = fresh("v"), fresh("b")
        out += [f"{pad}p.pos = {start}", f"{pad}{value} = {g(self.primitive)}(p)",
                f"{pad}{end} = p.pos"]
        return value, end


class _Names(_Slot):
    """Names joined by a separator as it prints: a list, or one dotted or
    dashed name kept joined (``into`` is ``str``); or, for a record class
    ``item``, the records of its row, none when ``until`` is next."""

    row = property(lambda self: _grammar().get(self.item))  # the row of a record ``item``

    def __init__(self, item, separator: str, into: type = tuple, until: str | None = None):
        self.item, self.separator, self.into, self.until = item, separator, into, until
        self.token = separator.strip()
        if isinstance(item, str):
            self.what = f"one or more {item.split(' ', 1)[1]}s joined by '{self.token}'"

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, j, token = fresh("v"), fresh("j"), g(self.token)
        out.append(f"{pad}{j} = {start}")
        if self.row is None:
            out += [f"{pad}while t[{j}][:1] in {g(_IDENT_START)} and t[{j} + 1] == {token}:",
                    f"{pad}    {j} += 2",
                    f"{pad}if t[{j}][:1] not in {g(_IDENT_START)}: p.replay({j}, {g(self.item)})",
                    f"{pad}{value} = " + (f"{g(''.join)}(t[{start}:{j} + 1])" if self.into is str
                                          else f"{g(self.into)}(t[{start}:{j} + 1:2])")]
            return value, f"{j} + 1"
        out += [f"{pad}{value} = []", f"{pad}if t[{j}] != {g(self.until)}:",
                f"{pad}    while True:"]
        got, stop = self.row.reading(out, pad + "        ", j, g, fresh)
        out += [f"{pad}        {value}.append({got})", f"{pad}        {j} = {stop}",
                f"{pad}        if t[{j}] != {token}:", f"{pad}            break",
                f"{pad}        {j} += 1"]
        return f"{g(tuple)}({value})", j

    def show(self, v: str, g, fresh) -> str:
        if self.row is None:
            return v if self.into is str else f"{g(self.separator.join)}(" + (
                f"{g(sorted)}({v}))" if self.into is frozenset else f"{v})")
        x = fresh("r")
        return (f"{g(self.separator.join)}([{_line(self.row.pieces, x, None, g, fresh, True)} "
                f"for {x} in {v}])")

    def ok(self, v: str, g) -> str | None:
        names = f"{v}.split({g(self.token)})" if self.into is str else v
        return None if self.row else f"{v} and all(map({g(str.isidentifier)}, {names}))"

    def text(self, value) -> str:
        if self.row is not None:
            return self.separator.join([self.row.text(record) for record in value])
        names = () if not isinstance(value, self.into) else (
            value.split(self.token) if self.into is str
            else sorted(value) if self.into is frozenset else value)
        if not names or not all(isinstance(name, str) and is_identifier(name) for name in names):
            raise self.refuse(value)
        return self.separator.join(names)


class _Opt(_Slot):
    """A clause led by its word: ``text`` with the value of ``slot`` in its
    ``{}``, or, without a slot, a flag that is true when present.  Absent,
    it reads as ``default``; it prints unless its value is false and the
    default.  ``shown`` names the field the printer reads when it is not
    the one the parser fills."""

    def __init__(self, text: str, slot: _Slot | None = None, default=None,
                 shown: str | None = None):
        self.row = _Row(None, text, *[slot] * (slot is not None))
        self.default, self.shown, self.word = default, shown, self.row.items[0]

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, end = fresh("v"), fresh("b")
        out.append(f"{pad}if t[{start}] == {g(self.word)}:")
        got, stop = self.row.reading(out, pad + "    ", start, g, fresh, dispatched=True)
        out += [f"{pad}    {value}, {end} = {got}, {stop}", f"{pad}else:",
                f"{pad}    {value}, {end} = {g(self.default)}, {start}"]
        return value, end

    def show(self, v: str, g, fresh) -> str:
        x = fresh("x")  # the value, read once
        return (f"({_line(self.row.pieces, x, None, g, fresh, True)} "
                f"if ({x} := {v}) or {x} != {g(self.default)} else {g('')})")

    def text(self, value) -> str:
        return "" if not value and value == self.default else self.row.text(value)


class _Choice(_Slot):
    """One of several rows of one record class, told by its first word;
    ``what`` refuses any other.  The printer takes the row whose
    constants the record has."""

    def __init__(self, what: str, *rows: _Row):
        self.what, self.rows = what, {row.keyword: row for row in rows}

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, end = fresh("v"), fresh("b")
        for k, row in enumerate(self.rows.values()):
            out.append(f"{pad}{'el' * bool(k)}if t[{start}] == {g(row.keyword)}:")
            got, stop = row.reading(out, pad + "    ", start, g, fresh, dispatched=True)
            out.append(f"{pad}    {value}, {end} = {got}, {stop}")
        out += [f"{pad}else:", f"{pad}    {g(self.fail)}(p, {start})"]
        return value, end

    def fail(self, p: _Parser, index: int) -> None:
        p.pos = index
        raise p.fail(self.what)

    def text(self, value) -> str:
        for row in self.rows.values():
            if all(getattr(value, name, None) == constant
                   for name, constant in row.constants.items()):
                return row.text(value)
        raise self.refuse(value)


class _Note(_Slot):
    """The comment after an induced element, from the origin of the field's
    value, or of what ``origin_of`` gives for the record; the parser skips
    it as it skips any comment."""

    note = " // induced by "

    def __init__(self, origin_of=None):
        self.origin_of = origin_of

    def show(self, v: str, g, fresh) -> str:
        origin, x = f"{g(self.origin_of)}({v})" if self.origin_of else v, fresh("x")
        return (f"({g(self.note)} + {x}.rule_id if ({x} := {origin}).kind == {g('induced')} "
                f"else {g('')})")

    def text(self, value) -> str:
        origin = self.origin_of(value) if self.origin_of else value
        return self.note + origin.rule_id if origin.kind == "induced" else ""


class _Block(_Slot):
    """Member lines, each read and printed by the row of its record class,
    into the field given with that class.  With a ``message``, the block
    ends at the word its row has next (the end of input if none) and
    refuses any other word with it, or a word of an earlier block of its
    row with ``ImportAfterDefinitionError``."""

    def __init__(self, message: str | None, **fields):
        self.message = message
        self.fields = {name: kinds if isinstance(kinds, tuple) else (kinds,)
                       for name, kinds in fields.items()}
        self.earlier: dict[str, str] = {}  # a word of an earlier block -> its fields

    def words(self) -> list[str]:
        """The words its member lines start with."""

        return [word for kinds in self.fields.values() for cls in kinds
                for word in _grammar()[cls].first_words()]

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after):
        """Its members' lists, and the index after them."""

        found, j = [fresh("v") for _ in self.fields], fresh("j")
        out += [f"{pad}{', '.join(found)} = {', '.join(['[]'] * len(found))}",
                f"{pad}{j} = {start}", f"{pad}while True:", f"{pad}    w = t[{j}]"]
        branch = "if"
        for k, kinds in enumerate(self.fields.values()):
            for row in map(_grammar().__getitem__, kinds):
                out.append(f"{pad}    {branch} " + " or ".join(
                    f"w == {g(word)}" for word in row.first_words()) + ":")
                got, stop = row.reading(out, pad + "        ", j, g, fresh, dispatched=True)
                out += [f"{pad}        {found[k]}.append({got})", f"{pad}        {j} = {stop}"]
                branch = "elif"
        if self.message is None:
            out += [f"{pad}    else:", f"{pad}        break"]
        else:
            out += [f"{pad}    elif w == {g(after if isinstance(after, str) else '')}:",
                    f"{pad}        break", f"{pad}    else:",
                    f"{pad}        {g(self.fail)}(p, {j})"]
        return found, j

    def fail(self, p: _Parser, index: int) -> None:
        p.pos, word = index, p.texts[index]
        if word in self.earlier:
            raise ImportAfterDefinitionError(
                f"{self.earlier[word]} must precede all {', '.join(self.fields)}", p.loc(index))
        raise p.fail(self.message)

    def text(self, record) -> str:
        """Check every member; the lines are the compiled printer's."""

        for name, kinds in self.fields.items():
            for member in getattr(record, name):
                if type(member) not in kinds:
                    raise ValueError(f"{member!r} is not one of the {name}")
                _grammar()[type(member)].text(member)
        return ""


def _global(env: dict, value) -> str:
    """The name of a new global of ``env`` holding ``value``."""

    name = f"G{len(env)}"
    env[name] = value
    return name


def _line(pieces: list, r: str, indent: str | None, g, fresh, joined: bool = False) -> str:
    """The code of one line, or of a clause (no ``indent``), of the record
    ``r``: an f-string, or a sum of strings when ``joined`` (to sit in an
    f-string's braces, which take no quote); the code refuses a value its
    slots' cheap checks fail."""

    parts, checks = [], []
    for piece in [indent] * bool(indent) + pieces:
        if isinstance(piece, str):
            parts.append(g(piece) if joined else piece.replace("\\", "\\\\").replace(
                "'", "\\'").replace("{", "{{").replace("}", "}}"))
            continue
        name, kind = piece
        value = f"{r}.{kind.shown or name}" if name else r
        ok = kind.ok(value, g)
        checks += [ok] if ok else []
        shown = kind.show(value, g, fresh)
        parts.append(shown if joined else f"{{{shown}}}")
    made = "(" + " + ".join(parts) + ")" if joined else "f'" + "".join(parts) + "'"
    return f"({made} if {' and '.join(checks)} else {g(_refuse)}())" if checks else made


class _Row:
    """One declaration: the record class it reads and prints (``None`` for
    a clause, ``str`` for a line that holds one string), and its line as it
    prints.  The line is a format string whose literal text holds the
    fixed words and whose ``{field}`` slots each name a record field; a
    ``{}`` takes the next unnamed slot, which reads and prints the whole
    record, or the value of a clause.  Fields the line does not hold take
    the given constants, or their defaults.

    ``reading`` and ``printing`` give the code of the row's reader and
    printer, with the rows its slots hold inline; ``_made`` compiles the
    row of a model or a package into ``read(p, index)``, the record at
    ``index`` and the index after it, and ``show(record, out)``."""

    def __init__(self, cls, text: str, *unnamed: _Slot, **slots):
        self.cls, given, self.pieces = cls, iter(unnamed), []
        for literal, field, _, _ in _string.formatter_parser(text):
            if literal:
                self.pieces.append(literal)
            if field is not None:
                slot = slots.pop(field) if field else next(given)
                self.pieces.append((field, _Name(slot) if isinstance(slot, str) else slot))
        self.constants = slots  # values of fields the line does not hold
        self.slots = dict(piece for piece in self.pieces if isinstance(piece, tuple))
        # literal text as its tokens, and the slots a parser reads
        self.items = [item for piece in self.pieces for item in (
            _tokens(piece) if isinstance(piece, str)
            else [] if isinstance(piece[1], _Note) else [piece])]
        self.keyword = next((item for item in self.items if isinstance(item, str)), "")

    def first_words(self) -> list[str]:
        """The words a member line of this row starts with."""

        first = self.items[0]
        return [first] if isinstance(first, str) else [self.keyword, first[1].word]

    def reading(self, out: list[str], pad: str, base: str, g, fresh,
                dispatched: bool = False) -> tuple[str, str]:
        """Append to ``out`` the code, indented by ``pad``, that reads the
        row's line from the token at index ``base``, its first word
        ``dispatched`` (checked already); return the code of the value read
        and of the index after it.  ``fresh`` names a new local."""

        run: list = []  # the one-token items since the last slot: (index, check, step)
        values: dict[str, str] = {}  # field -> the code of its value
        blocks: list[_Block] = []
        base, _, offset = base.partition(" + ")  # an index is a local, maybe plus a number
        offset, loc = int(offset or 0), None

        def at() -> str:
            return f"{base} + {offset}" if offset else base

        def flush() -> None:
            checks = " and ".join(check for _, check, _ in run if check)
            if checks:
                steps = g(tuple(step for _, _, step in run))
                out.append(f"{pad}if not ({checks}): p.replay({run[0][0]}, *{steps})")
            run.clear()

        for n, item in enumerate(self.items):
            if isinstance(item, str):
                loc = loc or at()
                run.append((at(), None if n == 0 and dispatched
                            else f"t[{at()}] == {g(item)}", item))
                offset += 1
                continue
            field, kind = item
            if kind.width:
                run.append((at(), kind.check(f"t[{at()}]", g), kind.step))
                values[field] = kind.value(f"t[{at()}]", g)
                offset += 1
                continue
            flush()
            if isinstance(kind, _Block):
                kind.earlier = {word: ", ".join(block.fields)
                                for block in blocks for word in block.words()}
                blocks.append(kind)
            after = self.items[n + 1] if n + 1 < len(self.items) else ""
            value, base = kind.reading(out, pad, at(), g, fresh, after)
            base, _, offset = base.partition(" + ")
            offset = int(offset or 0)
            if isinstance(kind, _Block):
                values.update((name, f"{g(tuple)}({found})")
                              for name, found in zip(kind.fields, value))
            else:
                values[field] = value
        flush()
        if self.cls is None or self.cls is str:  # a clause's value, or a flag's
            return next(iter(values.values()), "True"), at()
        return g(self.cls) + "(" + ", ".join(
            values[f.name] if f.name in values
            else f"({loc}, p.table)" if f.name == "loc"
            else g(self.constants.get(f.name, f.default))
            for f in _FIELDS[self.cls] if f.init) + ")", at()

    def printing(self, out: list[str], pad: str, r: str, indent: str, g, fresh) -> None:
        """Append to ``out`` the code, indented by ``pad``, that appends to
        ``o`` the lines of the record ``r`` at ``indent``, with every row
        under this one printed inline."""

        line: list = []  # the pieces of this line
        for piece in self.pieces:
            if not (isinstance(piece, tuple) and isinstance(piece[1], _Block)):
                line.append(piece)
                continue
            if line:
                out.append(f"{pad}o.append({_line(line, r, indent, g, fresh)})")
                line = []
            for name, classes in piece[1].fields.items():
                x, rows = fresh("r"), [_grammar()[cls] for cls in classes]
                out.append(f"{pad}for {x} in {r}.{name}:")
                if len(rows) == 1:
                    rows[0].printing(out, pad + "    ", x, indent + "  ", g, fresh)
                    continue
                for k, row in enumerate(rows):
                    out.append(f"{pad}    {'el' * bool(k)}if {x}.__class__ is {g(row.cls)}:")
                    row.printing(out, pad + "        ", x, indent + "  ", g, fresh)
                out += [f"{pad}    else:", f"{pad}        {g(_refuse)}()"]
        if line:
            out.append(f"{pad}o.append({_line(line, r, indent, g, fresh)})")

    def text(self, record, start: int = 0) -> str:
        """The row's line for ``record``, unindented, from its ``start``-th
        piece (a block checks its members and prints nothing), or the
        ``ValueError`` of the first slot that refuses its value, naming the
        record and the field."""

        out = []
        for piece in self.pieces[start:]:
            if isinstance(piece, str):
                out.append(piece)
                continue
            field, slot = piece
            try:
                out.append(slot.text(getattr(record, slot.shown or field) if field else record))
            except _Refused:
                raise
            except ValueError as failure:
                if self.cls is None:
                    raise
                named = next((f" {getattr(record, name)!r}" for name, kind in self.slots.items()
                              if isinstance(kind, _Name)), "")
                raise _Refused(f"{self.keyword or self.cls.__name__}{named}: {failure} "
                               f"[{self.cls.__name__}.{field or 'value'}]") from None
        return "".join(out)


def _made(cls: type, part: str) -> _Row:
    """The row of a model or a package, with its reader (``part`` "read")
    or printer ("show") compiled the first time it is asked for: a command
    compiles only what it uses."""

    row = _grammar()[cls]
    if part not in vars(row):
        out: list[str] = []
        env: dict = {}
        numbers = count()
        g, fresh = partial(_global, env), lambda stem: f"{stem}{next(numbers)}"
        if part == "read":
            made, end = row.reading(out, "    ", "i", g, fresh)
            out = ["def read(p, i):", "    t = p.texts", *out, f"    return {made}, {end}"]
        else:
            row.printing(out, "    ", "r", "", g, fresh)
            out.insert(0, "def show(r, o):")
        exec("\n".join(out) + "\n", env)
        setattr(row, part, env.pop(part))
    return row


def _noted(op: Operation) -> Origin:
    """The origin an operation's line notes: its own if it was induced, else
    that of its induced precondition, if any."""

    return op.pre_induced[1] if op.origin.kind != "induced" and op.pre_induced else op.origin


def _quoted(value) -> str:
    if isinstance(value, str):
        return render_literal(value)
    raise ValueError(f"{value!r} is not a quoted package id")


_EXPR = _Primitive("an expression", _Parser.expression, format_expr)
_LITERAL = _Primitive("a literal (integer, string, true or false)", _Parser.literal,
                      render_literal)
_QUOTED = _Primitive("a quoted package id", partial(_Parser.string, what="a quoted package id"),
                     _quoted)
_METACLASS = _Words("metaclass", *sorted(METACLASSES), expected="a metaclass name",
                    listed="one of " + ", ".join(sorted(METACLASSES)))

@cache
def _grammar() -> dict[type, _Row]:
    """Every declaration of a model file and of a package file, by record
    class, in the order README's Grammar lists them; built on first use, so
    an import pays nothing for it."""

    return {row.cls: row for row in (
        _Row(Model, "model {name}{}",
             _Block("'class', 'statechart' or end of input",
                    classes=ClassDef, statecharts=Statechart),
             name="a model name"),
        _Row(ClassDef, "class {name}{superclasses}{stereotypes} {{{}}}",
             _Block("'attribute', 'operation', 'invariant' or '}'",
                    attributes=Attribute, operations=Operation, invariants=Invariant),
             name="a class name",
             superclasses=_Opt(" specializes {}", _Names("a class name", ", "), ()),
             stereotypes=_Opt(" <<{}>>", _Names("a stereotype name", ", ", frozenset),
                              NO_STEREOTYPES)),
        _Row(Attribute, "attribute {name} : {type_name}{origin}",
             name="an attribute name", type_name="a type name", origin=_Note()),
        _Row(Operation, "operation {name}({params}){pre_authored}{post_authored}{}", _Note(_noted),
             name="an operation name", params=_Names(Param, ", ", until=")"),
             pre_authored=_Opt(" pre: {}", _EXPR, shown="effective_pre"),
             post_authored=_Opt(" post: {}", _EXPR)),
        _Row(Param, "{name} : {type_name}", name="a parameter name", type_name="a type name"),
        _Row(Invariant, "invariant {expr}{origin}", expr=_EXPR, origin=_Note()),
        _Row(Statechart, "statechart {name} for {attached_to} {{{}}}",
             _Block("'state', 'initial', 'transition' or '}'",
                    states=State, transitions=Transition),
             name="a statechart name", attached_to="a class name"),
        _Row(State, "{initial}state {name}", initial=_Opt("initial ", default=False),
             name="a state name"),
        _Row(Transition, "transition {source} -> {target} on {event}{guard}",
             source="a state name", target="a state name", event="an event name",
             guard=_Opt(" [{}]", _EXPR)),
        _Row(Package, "package {id} {{{}{}}}",
             _Block(None, imports=str),
             _Block("a definition or '}'", definitions=(
                 ConstDef, OptionDef, StereotypeDef, TagDef, ConstraintDef, PredicatedRuleDef,
                 TransformSelection)),
             id=_QUOTED),
        _Row(str, "import {}", _QUOTED),
        _Row(ConstDef, "const {key} = {value}", key="a constant name", value=_LITERAL),
        _Row(OptionDef, "option {key} = {value}",
             key=_Names("an option key", ".", str), value="an option value"),
        _Row(StereotypeDef, "stereotype {name} on {base}{required_tags}",
             name="a stereotype name", base=_METACLASS,
             required_tags=_Opt(" requires {}", _Names("a tag name", ", "), ())),
        _Row(TagDef, "tagdef {name} : {value_type}",
             name="a tag name", value_type=_Words("tag type", "string", "int", "bool")),
        _Row(ConstraintDef, "constraint {name} on {scope}{severity} : {body}",
             name="a constraint name", scope=_METACLASS,
             severity=_Opt(" severity {}", _Words("severity", "error", "warning"), "error"),
             body=_EXPR),
        _Row(PredicatedRuleDef, "rule {property_key} when {predicate} = {value}",
             property_key="a property key", value="a value",
             predicate=_Choice("'all', 'stereotype(...)' or 'metaclass(...)'",
                               _Row(Predicate, "all", kind="all"),
                               _Row(Predicate, "stereotype({name})", kind="stereotype",
                                    name="a stereotype name"),
                               _Row(Predicate, "metaclass({name})", kind="metaclass",
                                    name=_METACLASS))),
        _Row(TransformSelection, "transform {transform_id} {enabled}",
             transform_id=_Names("a transform id", "-", str),
             enabled=_Words(None, "on", "off", values=(True, False))),
    )}


# ---------------------------------------------------------------------------
# Reading and printing models and packages
# ---------------------------------------------------------------------------


@collector_paused()
def parse_model(source: str, file: str = "<model>") -> Model:
    """Parse one model file.  Name resolution is not attempted here; a
    structurally broken model parses fine and fails ``builtin_check``."""

    return _made(Model, "read").read(_Parser(source, file), 0)[0]


@collector_paused()
def parse_package(source: str, file: str = "<package>") -> Package:
    """Parse one package file: quoted id, imports first, then definitions."""

    p = _Parser(source, file)
    package, p.pos = _made(Package, "read").read(p, 0)
    p.expect_eof()
    return package


def print_model(model: Model) -> str:
    """Canonical model text: declaration order, two-space indentation,
    induced elements annotated, one trailing newline."""

    return _printed(_made(Model, "show"), model)


def print_package(pkg: Package) -> str:
    return _printed(_made(Package, "show"), pkg)


def _printed(row: _Row, record) -> str:
    """The lines the row's compiled printer writes for ``record``.  Where it
    fails, or writes a character outside ASCII (which ``isidentifier`` lets
    into a name), ``text`` checks every slot and names the one that
    refuses."""

    out: list[str] = []
    try:
        row.show(record, out)
    except (AttributeError, KeyError, TypeError, ValueError):  # what a bad value raises
        row.text(record)
        raise
    text = "\n".join(out) + "\n"
    if not text.isascii():
        row.text(record)
    return text


# ---------------------------------------------------------------------------
# Report printing
# ---------------------------------------------------------------------------


def _scalar_value(definition: ConstDef | OptionDef) -> str:
    """The value as the definition's own line writes it: a constant's as a
    literal, an option's bare."""

    return _grammar()[type(definition)].slots["value"].text(definition.value)


def _entry(definition) -> str:
    """A scalar's, stereotype's or tag's report line: its definition's line
    without the keyword."""

    return "  " + _grammar()[type(definition)].text(definition, 1)


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
    predicate = _grammar()[PredicatedRuleDef].slots["predicate"]
    for kind, key in sorted(eff.chains):
        chain = eff.chains[kind, key]
        definition, prov = chain[-1]
        source = f"({prov.package_id})"
        if kind == "scalar":
            sections["options" if isinstance(definition, OptionDef) else "constants"].append(
                f"{_entry(definition)} {_chain_note(chain)}")
        elif kind == "rule":
            sections["rules"].append(f"  {key}")
            sections["rules"].extend(
                f"    when {predicate.text(d.predicate)} -> {d.value} ({p.package_id})"
                for d, p in reversed(chain))
        elif kind == "constraint":
            sections["constraints"].append(
                f"  {key} on {definition.scope} severity {definition.severity} {source}")
        elif kind == "transform":
            sections["transforms"].append(
                f"  {key} = {'on' if definition.enabled else 'off'} {source}")
        else:
            sections[kind + "s"].append(f"{_entry(definition)} {source}")

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
