"""Text formats: parsing and printing of models, packages and reports.

Two line-oriented surface syntaxes share one expression sub-grammar:

* model files declare classes (attributes, operations with optional
  pre/postconditions, invariants) and statecharts (states, transitions);
* package files declare imports followed by definitions (constants,
  options, stereotypes, tag types, constraints, predicated rules and
  transform switches).

Comments run from ``//`` to end of line in both.  ``parse_model`` and
``parse_package`` read the token texts of one scan by index, each line
told by its first word, with one check a token: at a token out of place
they raise the located ``ParseError`` the primitives (``ident``, ``eat``)
raise there; they never guess.  ``print_model`` and ``print_package``
refuse, with a ``ValueError`` naming the record and the field, a value
that would not read back.  ``_said`` gives a definition's text after its
word, for ``print_package``, reports and ``explain``.  Nothing is
generated or compiled at run time.
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
    Origin,
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

#: The built-in calls and the keywords of the expression grammar.
_CALLS, _KEYWORDS = E.CALLS, E.KEYWORDS

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
        self.pos = index + 1
        self.deeper(self.eat("("))
        var = self.ident("a variable name")
        self.eat("in")
        domain = self.expression()
        self.eat("|")
        body = self.expression()
        self.eat(")")
        self.depth -= 1
        node = E.Forall if self.texts[index] == "forall" else E.Exists
        return node(var, domain, body, (index, self.table))

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

def _names(values) -> bool:
    """Whether a line reads back every one of ``values`` as a name."""

    for value in values:
        if not (value.__class__ is str and value.isascii() and value.isidentifier()):
            return False
    return True


def _expr_name(name) -> str:
    """``name``, where an expression reads it back as a variable or a
    feature: a name that is no keyword."""

    if name.__class__ is str and name.isascii() and name.isidentifier() and name not in _KEYWORDS:
        return name
    raise ValueError(f"{name!r} is not a variable or feature name")


def format_expr(e: E.Expr) -> str:
    """Canonical text of an expression, with the fewest parentheses that
    keep reparsing structure-faithful; ``ValueError`` for a tree no text
    reads back as: a variable, feature or quantifier variable that is no
    ASCII identifier or is a keyword, a call outside ``E.CALLS``, or a
    value that is no node.

    One pass over an explicit stack, so a tree of any depth prints without
    recursion; the pieces of text go into one list, joined once.
    """

    if e.__class__ is E.VarRef:
        return _expr_name(e.name)
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
            parts.append(_expr_name(node.name))
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
            stack += ("." + _expr_name(node.feature), (node.target, _POSTFIX))
        elif kind is E.Call:
            if node.fn not in _CALLS:
                raise ValueError(f"{node.fn!r} is not a call (expected {_either(_CALLS)})")
            parts.append(node.fn + "(")
            stack.append(")")
            for index in range(len(node.args) - 1, -1, -1):
                stack.append((node.args[index], _IMPLIES))
                if index:
                    stack.append(", ")
        elif kind is E.Forall or kind is E.Exists:
            keyword = "forall" if kind is E.Forall else "exists"
            parts.append(f"{keyword}({_expr_name(node.var)} in ")
            stack += (")", (node.body, _IMPLIES), " | ", (node.domain, _IMPLIES))
        else:
            raise ValueError(f"{node!r} is not an expression")
    return "".join(parts)


def _either(words) -> str:
    """``a, b or c``."""

    *most, last = words
    return f"{', '.join(most)} or {last}" if most else last


# ---------------------------------------------------------------------------
# Reading models and packages
# ---------------------------------------------------------------------------

#: What a metaclass, a tag type and a severity are, for the reader's and
#: the printer's refusals.
_A_METACLASS = f"a metaclass (expected one of {', '.join(sorted(METACLASSES))})"
_A_TAG_TYPE = "a tag type (expected string, int or bool)"
_A_SEVERITY = "a severity (expected error or warning)"
_A_PREDICATE = "'all', 'stereotype(...)' or 'metaclass(...)'"


def _expected(p: _Parser, index: int, what: str, noun: str | None = None) -> None:
    """Raise, at a token out of place, the ``ParseError`` of the primitives;
    or, with a ``noun`` (the words a slot allows), that a name there is not
    one."""

    text = p.texts[index]
    if noun and text[:1] in _IDENT_START:
        raise ParseError(f"'{text}' is not {noun}", p.loc(index))
    p.pos = index
    raise p.fail(what)


def _joined(p: _Parser, index: int, separator: str, what: str) -> int:
    """The index after one or more names joined by ``separator`` from the
    token at ``index``; ``what`` is one name."""

    t = p.texts
    while t[index][:1] in _IDENT_START and t[index + 1] == separator:
        index += 2
    if t[index][:1] not in _IDENT_START:
        _expected(p, index, what)
    return index + 1


@collector_paused()
def parse_model(source: str, file: str = "<model>") -> Model:
    """Parse one model file.  Name resolution is not attempted here; a
    structurally broken model parses fine and fails ``builtin_check``."""

    p = _Parser(source, file)
    t, table = p.texts, p.table
    if t[0] != "model":
        _expected(p, 0, "'model'")
    if t[1][:1] not in _IDENT_START:
        _expected(p, 1, "a model name")
    classes, charts = [], []
    i = 2
    while True:
        word = t[i]
        if word == "class":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a class name")
            j, superclasses, stereotypes = i + 2, (), NO_STEREOTYPES
            if t[j] == "specializes":
                end = _joined(p, j + 1, ",", "a class name")
                superclasses, j = tuple(t[j + 1:end:2]), end
            if t[j] == "<<":
                end = _joined(p, j + 1, ",", "a stereotype name")
                if t[end] != ">>":
                    _expected(p, end, "'>>'")
                stereotypes, j = frozenset(t[j + 1:end:2]), end + 1
            if t[j] != "{":
                _expected(p, j, "'{'")
            attributes, operations, invariants = [], [], []
            j += 1
            while True:
                word = t[j]
                if word == "attribute":
                    if t[j + 1][:1] not in _IDENT_START:
                        _expected(p, j + 1, "an attribute name")
                    if t[j + 2] != ":":
                        _expected(p, j + 2, "':'")
                    if t[j + 3][:1] not in _IDENT_START:
                        _expected(p, j + 3, "a type name")
                    attributes.append(Attribute(t[j + 1], t[j + 3], AUTHORED, (j, table)))
                    j += 4
                elif word == "operation":
                    if t[j + 1][:1] not in _IDENT_START:
                        _expected(p, j + 1, "an operation name")
                    if t[j + 2] != "(":
                        _expected(p, j + 2, "'('")
                    k, params = j + 3, []
                    if t[k] != ")":
                        while True:
                            if t[k][:1] not in _IDENT_START:
                                _expected(p, k, "a parameter name")
                            if t[k + 1] != ":":
                                _expected(p, k + 1, "':'")
                            if t[k + 2][:1] not in _IDENT_START:
                                _expected(p, k + 2, "a type name")
                            params.append(Param(t[k], t[k + 2]))
                            k += 3
                            if t[k] != ",":
                                break
                            k += 1
                    if t[k] != ")":
                        _expected(p, k, "')'")
                    p.pos, pre, post = k + 1, None, None
                    if t[k + 1] == "pre":
                        if t[k + 2] != ":":
                            _expected(p, k + 2, "':'")
                        p.pos = k + 3
                        pre = p.expression()
                    if t[p.pos] == "post":
                        if t[p.pos + 1] != ":":
                            _expected(p, p.pos + 1, "':'")
                        p.pos += 2
                        post = p.expression()
                    operations.append(Operation(t[j + 1], tuple(params), pre, post, None,
                                                AUTHORED, (j, table)))
                    j = p.pos
                elif word == "invariant":
                    p.pos = j + 1
                    invariants.append(Invariant(p.expression(), AUTHORED))
                    j = p.pos
                elif word == "}":
                    break
                else:
                    _expected(p, j, "'attribute', 'operation', 'invariant' or '}'")
            classes.append(ClassDef(t[i + 1], superclasses, stereotypes, (), tuple(attributes),
                                    tuple(operations), tuple(invariants), (i, table)))
            i = j + 1
        elif word == "statechart":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a statechart name")
            if t[i + 2] != "for":
                _expected(p, i + 2, "'for'")
            if t[i + 3][:1] not in _IDENT_START:
                _expected(p, i + 3, "a class name")
            if t[i + 4] != "{":
                _expected(p, i + 4, "'{'")
            states, transitions = [], []
            j = i + 5
            while True:
                word = t[j]
                if word == "state" or word == "initial":
                    initial = word == "initial"
                    j += initial  # to the ``state`` token, the state's location
                    if t[j] != "state":
                        _expected(p, j, "'state'")
                    if t[j + 1][:1] not in _IDENT_START:
                        _expected(p, j + 1, "a state name")
                    states.append(State(t[j + 1], initial, (j, table)))
                    j += 2
                elif word == "transition":
                    if t[j + 1][:1] not in _IDENT_START:
                        _expected(p, j + 1, "a state name")
                    if t[j + 2] != "->":
                        _expected(p, j + 2, "'->'")
                    if t[j + 3][:1] not in _IDENT_START:
                        _expected(p, j + 3, "a state name")
                    if t[j + 4] != "on":
                        _expected(p, j + 4, "'on'")
                    if t[j + 5][:1] not in _IDENT_START:
                        _expected(p, j + 5, "an event name")
                    guard, end = None, j + 6
                    if t[end] == "[":
                        p.pos = end + 1
                        guard = p.expression()
                        end = p.pos
                        if t[end] != "]":
                            _expected(p, end, "']'")
                        end += 1
                    transitions.append(Transition(t[j + 1], t[j + 3], t[j + 5], guard, (j, table)))
                    j = end
                elif word == "}":
                    break
                else:
                    _expected(p, j, "'state', 'initial', 'transition' or '}'")
            charts.append(Statechart(t[i + 1], t[i + 3], tuple(states), tuple(transitions),
                                     (i, table)))
            i = j + 1
        elif word == "":
            return Model(t[1], tuple(classes), tuple(charts), (0, table))
        else:
            _expected(p, i, "'class', 'statechart' or end of input")


@collector_paused()
def parse_package(source: str, file: str = "<package>") -> Package:
    """Parse one package file: quoted id, imports first, then definitions."""

    p = _Parser(source, file)
    t, table = p.texts, p.table
    if t[0] != "package":
        _expected(p, 0, "'package'")
    p.pos = 1
    pkg_id = p.string("a quoted package id")
    if t[2] != "{":
        _expected(p, 2, "'{'")
    imports, definitions = [], []
    i = 3
    while t[i] == "import":
        p.pos = i + 1
        imports.append(p.string("a quoted package id"))
        i += 2
    while True:
        word = t[i]
        if word == "const":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a constant name")
            if t[i + 2] != "=":
                _expected(p, i + 2, "'='")
            p.pos = i + 3
            definitions.append(ConstDef(t[i + 1], p.literal(), (i, table)))
            i = p.pos
        elif word == "option":
            end = _joined(p, i + 1, ".", "an option key")
            if t[end] != "=":
                _expected(p, end, "'='")
            if t[end + 1][:1] not in _IDENT_START:
                _expected(p, end + 1, "an option value")
            definitions.append(OptionDef("".join(t[i + 1:end]), t[end + 1], (i, table)))
            i = end + 2
        elif word == "stereotype":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a stereotype name")
            if t[i + 2] != "on":
                _expected(p, i + 2, "'on'")
            if t[i + 3] not in METACLASSES:
                _expected(p, i + 3, "a metaclass name", _A_METACLASS)
            end = i + 4
            if t[end] == "requires":
                end = _joined(p, i + 5, ",", "a tag name")
            # without ``requires`` the slice of tag names is empty
            definitions.append(StereotypeDef(t[i + 1], t[i + 3], tuple(t[i + 5:end:2]),
                                             (i, table)))
            i = end
        elif word == "tagdef":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a tag name")
            if t[i + 2] != ":":
                _expected(p, i + 2, "':'")
            if t[i + 3] not in ("string", "int", "bool"):
                _expected(p, i + 3, "'string', 'int' or 'bool'", _A_TAG_TYPE)
            definitions.append(TagDef(t[i + 1], t[i + 3], (i, table)))
            i += 4
        elif word == "constraint":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a constraint name")
            if t[i + 2] != "on":
                _expected(p, i + 2, "'on'")
            if t[i + 3] not in METACLASSES:
                _expected(p, i + 3, "a metaclass name", _A_METACLASS)
            severity, end = "error", i + 4
            if t[end] == "severity":
                severity = t[end + 1]
                if severity != "error" and severity != "warning":
                    _expected(p, end + 1, "'error' or 'warning'", _A_SEVERITY)
                end += 2
            if t[end] != ":":
                _expected(p, end, "':'")
            p.pos = end + 1
            definitions.append(ConstraintDef(t[i + 1], t[i + 3], severity, p.expression(),
                                             (i, table)))
            i = p.pos
        elif word == "rule":
            if t[i + 1][:1] not in _IDENT_START:
                _expected(p, i + 1, "a property key")
            if t[i + 2] != "when":
                _expected(p, i + 2, "'when'")
            kind, end = t[i + 3], i + 4
            if kind == "all":
                predicate = Predicate("all")
            elif kind == "stereotype" or kind == "metaclass":
                if t[end] != "(":
                    _expected(p, end, "'('")
                if kind == "stereotype" and t[end + 1][:1] not in _IDENT_START:
                    _expected(p, end + 1, "a stereotype name")
                if kind == "metaclass" and t[end + 1] not in METACLASSES:
                    _expected(p, end + 1, "a metaclass name", _A_METACLASS)
                if t[end + 2] != ")":
                    _expected(p, end + 2, "')'")
                predicate = Predicate(kind, t[end + 1])
                end += 3
            else:
                _expected(p, i + 3, _A_PREDICATE)
            if t[end] != "=":
                _expected(p, end, "'='")
            if t[end + 1][:1] not in _IDENT_START:
                _expected(p, end + 1, "a value")
            definitions.append(PredicatedRuleDef(t[i + 1], predicate, t[end + 1], (i, table)))
            i = end + 2
        elif word == "transform":
            end = _joined(p, i + 1, "-", "a transform id")
            if t[end] != "on" and t[end] != "off":
                _expected(p, end, "'on' or 'off'")
            definitions.append(TransformSelection("".join(t[i + 1:end]), t[end] == "on",
                                                  (i, table)))
            i = end + 1
        elif word == "}":
            break
        elif word == "import":
            raise ImportAfterDefinitionError(
                "imports must precede all definitions", p.loc(i))
        else:
            _expected(p, i, "a definition or '}'")
    p.pos = i + 1
    p.expect_eof()
    return Package(pkg_id, tuple(imports), tuple(definitions), (0, table))


# ---------------------------------------------------------------------------
# Printing models and packages
# ---------------------------------------------------------------------------


def _refused(record, where: str, field: str, value, what: str | None = None) -> None:
    """Raise a printer's ``ValueError``: ``value``, in ``record``'s
    ``field``, is not ``what`` (with none, ``value`` is the refusal of the
    printer of a literal, an expression or a package id).  ``where`` names
    the record, formatted with it."""

    failure = value if what is None else f"{value!r} is not {what}"
    raise ValueError(
        f"{where.format(record)}: {failure} [{record.__class__.__name__}.{field}]") from None


def _printed(show, value, record, where: str, field: str) -> str:
    """``show(value)``, or its ``ValueError`` as the refusal of ``record``'s ``field``."""

    try:
        return show(value)
    except ValueError as failure:
        _refused(record, where, field, failure)


def _note(origin: Origin) -> str:
    """The comment after an induced element's line; the parser skips it."""

    return " // induced by " + origin.rule_id if origin.kind == "induced" else ""


def _quoted(value) -> str:
    if isinstance(value, str):
        return render_literal(value)
    raise ValueError(f"{value!r} is not a quoted package id")


def print_model(model: Model) -> str:
    """Canonical model text: declaration order, two-space indentation,
    induced elements annotated, one trailing newline.  Each name is checked
    where it is printed."""

    name = model.name
    if not (name.__class__ is str and name.isascii() and name.isidentifier()):
        _refused(model, "model {.name!r}", "name", name, "a model name")
    out = [f"model {name}"]
    classes = model.classes
    if classes.__class__ is not tuple:
        _refused(model, "model {.name!r}", "classes", classes, "a tuple of classes")
    for c in classes:
        if c.__class__ is not ClassDef:
            _refused(model, "model {.name!r}", "classes", c, "one of the classes")
        name = c.name
        if not (name.__class__ is str and name.isascii() and name.isidentifier()):
            _refused(c, "class {.name!r}", "name", name, "a class name")
        line = f"  class {name}"
        names = c.superclasses
        if names != ():
            if not (names.__class__ is tuple and names and _names(names)):
                _refused(c, "class {.name!r}", "superclasses", names,
                         "one or more class names joined by ','")
            line += " specializes " + ", ".join(names)
        names = c.stereotypes
        if names != NO_STEREOTYPES:
            if not (names.__class__ is frozenset and names and _names(names)):
                _refused(c, "class {.name!r}", "stereotypes", names,
                         "one or more stereotype names joined by ','")
            line += " <<" + ", ".join(sorted(names)) + ">>"
        out.append(line + " {")
        members = c.attributes
        if members.__class__ is not tuple:
            _refused(c, "class {.name!r}", "attributes", members, "a tuple of attributes")
        for a in members:
            if a.__class__ is not Attribute:
                _refused(c, "class {.name!r}", "attributes", a, "one of the attributes")
            name, type_name = a.name, a.type_name
            if not (name.__class__ is str and name.isascii() and name.isidentifier()):
                _refused(a, "attribute {.name!r}", "name", name, "an attribute name")
            if not (type_name.__class__ is str and type_name.isascii()
                    and type_name.isidentifier()):
                _refused(a, "attribute {.name!r}", "type_name", type_name, "a type name")
            out.append(f"    attribute {name} : {type_name}{_note(a.origin)}")
        members = c.operations
        if members.__class__ is not tuple:
            _refused(c, "class {.name!r}", "operations", members, "a tuple of operations")
        for op in members:
            if op.__class__ is not Operation:
                _refused(c, "class {.name!r}", "operations", op, "one of the operations")
            name, params = op.name, op.params
            if not (name.__class__ is str and name.isascii() and name.isidentifier()):
                _refused(op, "operation {.name!r}", "name", name, "an operation name")
            line = f"    operation {name}("
            if params.__class__ is not tuple:
                _refused(op, "operation {.name!r}", "params", params, "a tuple of Param records")
            shown = []
            for param in params:
                if param.__class__ is not Param:
                    _refused(op, "operation {.name!r}", "params", param, "one of the Param records")
                name, type_name = param.name, param.type_name
                if not (name.__class__ is str and name.isascii() and name.isidentifier()):
                    _refused(param, "parameter {.name!r}", "name", name, "a parameter name")
                if not (type_name.__class__ is str and type_name.isascii()
                        and type_name.isidentifier()):
                    _refused(param, "parameter {.name!r}", "type_name", type_name, "a type name")
                shown.append(f"{name} : {type_name}")
            line += ", ".join(shown) + ")"
            pre, post = op.effective_pre, op.post_authored
            if pre is not None:
                line += " pre: " + _printed(format_expr, pre, op, "operation {.name!r}",
                                            "pre_authored")
            if post is not None:
                line += " post: " + _printed(format_expr, post, op, "operation {.name!r}",
                                             "post_authored")
            # an authored operation notes the origin of its induced precondition
            origin = op.origin
            if origin.kind != "induced" and op.pre_induced:
                origin = op.pre_induced[1]
            out.append(line + _note(origin))
        members = c.invariants
        if members.__class__ is not tuple:
            _refused(c, "class {.name!r}", "invariants", members, "a tuple of invariants")
        for inv in members:
            if inv.__class__ is not Invariant:
                _refused(c, "class {.name!r}", "invariants", inv, "one of the invariants")
            expr = _printed(format_expr, inv.expr, inv, "invariant", "expr")
            out.append(f"    invariant {expr}{_note(inv.origin)}")
        out.append("  }")
    charts = model.statecharts
    if charts.__class__ is not tuple:
        _refused(model, "model {.name!r}", "statecharts", charts, "a tuple of statecharts")
    for chart in charts:
        if chart.__class__ is not Statechart:
            _refused(model, "model {.name!r}", "statecharts", chart, "one of the statecharts")
        name, attached_to = chart.name, chart.attached_to
        if not (name.__class__ is str and name.isascii() and name.isidentifier()):
            _refused(chart, "statechart {.name!r}", "name", name, "a statechart name")
        if not (attached_to.__class__ is str and attached_to.isascii()
                and attached_to.isidentifier()):
            _refused(chart, "statechart {.name!r}", "attached_to", attached_to, "a class name")
        out.append(f"  statechart {name} for {attached_to} {{")
        members = chart.states
        if members.__class__ is not tuple:
            _refused(chart, "statechart {.name!r}", "states", members, "a tuple of states")
        for state in members:
            if state.__class__ is not State:
                _refused(chart, "statechart {.name!r}", "states", state, "one of the states")
            initial, name = state.initial, state.name
            if initial.__class__ is not bool:
                _refused(state, "state {.name!r}", "initial", initial, "True or False")
            if not (name.__class__ is str and name.isascii() and name.isidentifier()):
                _refused(state, "state {.name!r}", "name", name, "a state name")
            out.append(f"    initial state {name}" if initial else f"    state {name}")
        members = chart.transitions
        if members.__class__ is not tuple:
            _refused(chart, "statechart {.name!r}", "transitions", members,
                     "a tuple of transitions")
        for tr in members:
            if tr.__class__ is not Transition:
                _refused(chart, "statechart {.name!r}", "transitions", tr,
                         "one of the transitions")
            source, target, event = tr.source, tr.target, tr.event
            if not (source.__class__ is str and source.isascii() and source.isidentifier()):
                _refused(tr, "transition {.source!r}", "source", source, "a state name")
            if not (target.__class__ is str and target.isascii() and target.isidentifier()):
                _refused(tr, "transition {.source!r}", "target", target, "a state name")
            if not (event.__class__ is str and event.isascii() and event.isidentifier()):
                _refused(tr, "transition {.source!r}", "event", event, "an event name")
            guard = tr.guard
            if guard is None:
                out.append(f"    transition {source} -> {target} on {event}")
            else:
                guard = _printed(format_expr, guard, tr, "transition {.source!r}", "guard")
                out.append(f"    transition {source} -> {target} on {event} [{guard}]")
        out.append("  }")
    out.append("")
    return "\n".join(out)


#: The word that starts each definition's line.
_DEFINITION_WORDS = {ConstDef: "const", OptionDef: "option", StereotypeDef: "stereotype",
                     TagDef: "tagdef", ConstraintDef: "constraint", PredicatedRuleDef: "rule",
                     TransformSelection: "transform"}


def print_package(pkg: Package) -> str:
    """Canonical package text: imports, then definitions, one a line."""

    out = [f"package {_printed(_quoted, pkg.id, pkg, 'package', 'id')} {{"]
    imports = pkg.imports
    if imports.__class__ is not tuple:
        _refused(pkg, "package", "imports", imports, "a tuple of imports")
    for imported in imports:
        if imported.__class__ is not str:
            _refused(pkg, "package", "imports", imported, "one of the imports")
        out.append(f"  import {_printed(render_literal, imported, pkg, 'import', 'imports')}")
    definitions = pkg.definitions
    if definitions.__class__ is not tuple:
        _refused(pkg, "package", "definitions", definitions, "a tuple of definitions")
    for definition in definitions:
        word = _DEFINITION_WORDS.get(definition.__class__)
        if word is None:
            _refused(pkg, "package", "definitions", definition, "one of the definitions")
        out.append(f"  {word} {_said(definition)}")
    out.append("}\n")
    return "\n".join(out)


def _name(record, where: str, field: str, what: str) -> str:
    """``record``'s ``field``, a name a line reads back, or the printer's refusal."""

    value = getattr(record, field)
    if value.__class__ is str and value.isascii() and value.isidentifier():
        return value
    _refused(record, where, field, value, what)


def _said(d) -> str:
    """A definition's line after its word: what ``print_package`` writes
    after the word, and what reports and ``explain`` show."""

    cls = d.__class__
    if cls is ConstDef:
        key = _name(d, "const {.key!r}", "key", "a constant name")
        return f"{key} = {_printed(render_literal, d.value, d, 'const {.key!r}', 'value')}"
    if cls is OptionDef:
        key = d.key
        if not (key.__class__ is str and key and _names(key.split("."))):
            _refused(d, "option {.key!r}", "key", key, "one or more option keys joined by '.'")
        return f"{key} = {_name(d, 'option {.key!r}', 'value', 'an option value')}"
    if cls is StereotypeDef:
        name, base = _name(d, "stereotype {.name!r}", "name", "a stereotype name"), d.base
        if not (base.__class__ is str and base in METACLASSES):
            _refused(d, "stereotype {.name!r}", "base", base, _A_METACLASS)
        tags = d.required_tags
        if tags == ():
            return f"{name} on {base}"
        if not (tags.__class__ is tuple and tags and _names(tags)):
            _refused(d, "stereotype {.name!r}", "required_tags", tags,
                     "one or more tag names joined by ','")
        return f"{name} on {base} requires {', '.join(tags)}"
    if cls is TagDef:
        name, value_type = _name(d, "tagdef {.name!r}", "name", "a tag name"), d.value_type
        if not (value_type.__class__ is str and value_type in ("string", "int", "bool")):
            _refused(d, "tagdef {.name!r}", "value_type", value_type, _A_TAG_TYPE)
        return f"{name} : {value_type}"
    if cls is ConstraintDef:
        name = _name(d, "constraint {.name!r}", "name", "a constraint name")
        scope, severity = d.scope, d.severity
        if not (scope.__class__ is str and scope in METACLASSES):
            _refused(d, "constraint {.name!r}", "scope", scope, _A_METACLASS)
        if not (severity.__class__ is str and severity in ("error", "warning")):
            _refused(d, "constraint {.name!r}", "severity", severity, _A_SEVERITY)
        body = _printed(format_expr, d.body, d, "constraint {.name!r}", "body")
        return f"{name} on {scope} severity {severity} : {body}"
    if cls is PredicatedRuleDef:
        key = _name(d, "rule {.property_key!r}", "property_key", "a property key")
        predicate = _predicate(d)
        return f"{key} when {predicate} = {_name(d, 'rule {.property_key!r}', 'value', 'a value')}"
    # a transform switch
    transform_id, enabled = d.transform_id, d.enabled
    if not (transform_id.__class__ is str and transform_id and _names(transform_id.split("-"))):
        _refused(d, "transform", "transform_id", transform_id,
                 "one or more transform ids joined by '-'")
    if enabled.__class__ is not bool:
        _refused(d, "transform", "enabled", enabled, "True or False")
    return f"{transform_id} {'on' if enabled else 'off'}"


def _predicate(rule: PredicatedRuleDef) -> str:
    """The text of a rule's predicate, as its line and a report write it."""

    predicate = rule.predicate
    if predicate.__class__ is Predicate:
        kind, name = predicate.kind, predicate.name
        if kind == "all":
            if name is not None:
                _refused(predicate, "all", "name", name, "None")
            return "all"
        if kind == "stereotype":
            name = _name(predicate, "stereotype {.name!r}", "name", "a stereotype name")
            return f"stereotype({name})"
        if kind == "metaclass":
            if not (name.__class__ is str and name in METACLASSES):
                _refused(predicate, "metaclass", "name", name, _A_METACLASS)
            return f"metaclass({name})"
    _refused(rule, "rule {.property_key!r}", "predicate", predicate, _A_PREDICATE)


# ---------------------------------------------------------------------------
# Report printing
# ---------------------------------------------------------------------------


def _scalar_value(definition: ConstDef | OptionDef) -> str:
    """The value as the definition's own line writes it, after ``<key> = ``:
    a constant's as a literal, an option's bare."""

    return _said(definition)[len(definition.key) + 3:]


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
                f"  {_said(definition)} {_chain_note(chain)}")
        elif kind == "rule":
            sections["rules"].append(f"  {key}")
            sections["rules"].extend(
                f"    when {_predicate(d)} -> {d.value} ({p.package_id})"
                for d, p in reversed(chain))
        elif kind == "constraint":
            sections["constraints"].append(
                f"  {key} on {definition.scope} severity {definition.severity} {source}")
        elif kind == "transform":
            sections["transforms"].append(
                f"  {key} = {'on' if definition.enabled else 'off'} {source}")
        else:
            sections[kind + "s"].append(f"  {_said(definition)} {source}")

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
