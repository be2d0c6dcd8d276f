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
and fail with a located ``ParseError``; they never guess.  Each kind of
slot gives two pieces of code: the lines that read it off the token list,
one check a token, raising at a token out of place the ``ParseError`` the
primitives (``ident``, ``eat``) raise there; and the expression that
prints it, refusing, with a ``ValueError`` naming the record and the field,
a value the row would not read back.  A model file and a package file each
have one reader and one printer, compiled from that code with every row
under the file's own inline, the first time such a file is read or
printed; the first report compiles the one function that writes its
definitions' text.  The import compiles none.
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
from itertools import accumulate, count, groupby
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


# ---------------------------------------------------------------------------
# The grammar: one row per declaration
# ---------------------------------------------------------------------------


def _either(words) -> str:
    """``a, b or c``."""

    *most, last = words
    return f"{', '.join(most)} or {last}" if most else last


def _plus(index: str, k: int) -> str:
    """The code of the index ``k`` tokens past ``index``: a local plus a number."""

    base, _, offset = index.partition(" + ")
    offset = int(offset or 0) + k
    return f"{base} + {offset}" if offset else base


def _expected(p: _Parser, index: int, what: str) -> None:
    """Raise, at a token out of place, the ``ParseError`` of the primitives."""

    p.pos = index
    raise p.fail(what)


def _refused(record, place: tuple, value, what: str | None = None) -> None:
    """Raise a printer's ``ValueError`` for a slot's ``value``, which is not
    ``what`` (or, with none, is the slot's own printer's refusal), naming
    the record and the slot as ``place`` says: row keyword, name field and
    ``[Record.field]``."""

    keyword, name, field = place
    named = f" {getattr(record, name)!r}" if name else ""
    failure = value if what is None else f"{value!r} is not {what}"
    raise ValueError(f"{keyword}{named}: {failure} {field}") from None


class _Slot:
    """How one slot of a row reads and prints, as code; ``what`` says what
    its value is.  ``reading`` appends to ``out``, indented by ``pad``, the
    lines that read the slot from the token at index ``start``, raising at
    a token out of place the ``ParseError`` the primitives raise there, and
    returns the code of the value and of the index after it.  ``show`` is
    the code of an expression that prints the value ``v``, or passes ``at``
    (the code of the record and of ``_refused``'s ``place``) to ``_refused``
    for a value the slot would not read back.  ``g`` names a global of the
    code, and ``fresh`` a new local."""

    shown = None  # the field a printer reads, where it is not the slot's own


class _Name(_Slot):
    """An identifier, described as "a … name" (or key, id, value)."""

    def __init__(self, what: str):
        self.what = what

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        out.append(f"{pad}if t[{start}][:1] not in {g(_IDENT_START)}: "
                   f"{g(_expected)}(p, {start}, {g(self.what)})")
        return f"t[{start}]", _plus(start, 1)

    def show(self, v: str, g, fresh, at: str) -> str:
        x = fresh("x")  # ``_names``, inline
        return (f"({x} if ({x} := {v}).__class__ is str and {x}.isascii() and {x}.isidentifier() "
                f"else {g(_refused)}({at}, {x}, {g(self.what)}))")


class _Words(_Slot):
    """Allowed words, each standing for a value.  With a ``noun``, another
    name is refused as not being one ("'x' is not a tag type (expected
    …)"); without, any other token is one more ``expected``."""

    def __init__(self, noun: str | None, *words: str, values: Sequence = (),
                 expected: str = "", listed: str = ""):
        self.noun = noun
        self.choices = dict(zip(words, values or words))  # word -> value
        self.words = {value: word for word, value in self.choices.items()}
        # the types of the values: a value of another, a list say, is refused unhashed
        self.types = frozenset(map(type, self.words))
        self.expected = expected or _either([f"'{word}'" for word in words])
        self.what = (f"a {noun} (expected {listed or _either(words)})" if noun
                     else _either(map(repr, self.words)))

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        out.append(f"{pad}if t[{start}] not in {g(self.choices)}: {g(self.fail)}(p, {start})")
        return f"{g(self.choices)}[t[{start}]]", _plus(start, 1)

    def fail(self, p: _Parser, index: int) -> None:
        text = p.texts[index]
        if self.noun and text[:1] in _IDENT_START:
            raise ParseError(f"'{text}' is not {self.what}", p.loc(index))
        _expected(p, index, self.expected)

    def show(self, v: str, g, fresh, at: str) -> str:
        x, words = fresh("x"), g(self.words)
        return (f"({words}[{x}] if ({x} := {v}).__class__ in {g(self.types)} and {x} in {words} "
                f"else {g(_refused)}({at}, {x}, {g(self.what)}))")


class _Primitive(_Slot):
    """What a parser primitive reads (an expression, a literal or a quoted
    package id), and the function that prints it or raises ``ValueError``."""

    def __init__(self, what: str, primitive, printer):
        self.what, self.primitive, self.printer = what, primitive, printer

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, end = fresh("v"), fresh("b")
        out += [f"{pad}p.pos = {start}", f"{pad}{value} = {g(self.primitive)}(p)",
                f"{pad}{end} = p.pos"]
        return value, end

    def show(self, v: str, g, fresh, at: str) -> str:
        return f"{g(self.printed)}({v}, {at})"

    def printed(self, value, record, place: tuple) -> str:
        try:
            return self.printer(value)
        except ValueError as failure:
            _refused(record, place, failure)


class _Names(_Slot):
    """Names joined by a separator as it prints: a list, or one dotted or
    dashed name kept joined (``into`` is ``str``); or, for a record class
    ``item``, the records of its row, none when ``until`` is next."""

    row = property(lambda self: _grammar().get(self.item))  # the row of a record ``item``

    def __init__(self, item, separator: str, into: type = tuple, until: str | None = None):
        self.item, self.separator, self.into, self.until = item, separator, into, until
        self.token = separator.strip()
        self.what = (f"one or more {item.split(' ', 1)[1]}s joined by '{self.token}'"
                     if isinstance(item, str) else f"{item.__name__} records")

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, j, token = fresh("v"), fresh("j"), g(self.token)
        out.append(f"{pad}{j} = {start}")
        if self.row is None:
            out += [f"{pad}while t[{j}][:1] in {g(_IDENT_START)} and t[{j} + 1] == {token}:",
                    f"{pad}    {j} += 2",
                    f"{pad}if t[{j}][:1] not in {g(_IDENT_START)}: "
                    f"{g(_expected)}(p, {j}, {g(self.item)})",
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

    def show(self, v: str, g, fresh, at: str) -> str:
        x = fresh("x")
        if self.row is not None:
            y = fresh("r")
            return (f"({g('')} if ({x} := {v}) == () else {g(self.separator.join)}([("
                    f"{self.row.line(y, None, g, fresh)} if {y}.__class__ is {g(self.item)} else "
                    f"{g(_refused)}({at}, {y}, {g('one of the ' + self.what)})) for {y} in {x}]) "
                    f"if {x}.__class__ is tuple else {g(_refused)}({at}, {x}, "
                    f"{g('a tuple of ' + self.what)}))")
        names = f"{x}.split({g(self.token)})" if self.into is str else x
        made = x if self.into is str else f"{g(self.separator.join)}(" + (
            f"{g(sorted)}({x}))" if self.into is frozenset else f"{x})")
        return (f"({made} if ({x} := {v}).__class__ is {g(self.into)} and {x} and "
                f"{g(_names)}({names}) else {g(_refused)}({at}, {x}, {g(self.what)}))")


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

    def show(self, v: str, g, fresh, at: str) -> str:
        x = fresh("x")  # the value, read once
        return (f"({self.row.line(x, None, g, fresh, at)} "
                f"if ({x} := {v}) or {x} != {g(self.default)} else {g('')})")


class _Choice(_Slot):
    """One of several rows of one record class, told by its first word;
    ``what`` refuses any other.  The printer takes the row whose
    constants the record has, and refuses a record whose other fields
    outside that row's line are not their defaults."""

    def __init__(self, what: str, *rows: _Row):
        self.what, self.rows = what, {row.keyword: row for row in rows}

    def reading(self, out: list[str], pad: str, start: str, g, fresh, after) -> tuple[str, str]:
        value, end = fresh("v"), fresh("b")
        for k, row in enumerate(self.rows.values()):
            out.append(f"{pad}{'el' * bool(k)}if t[{start}] == {g(row.keyword)}:")
            got, stop = row.reading(out, pad + "    ", start, g, fresh, dispatched=True)
            out.append(f"{pad}    {value}, {end} = {got}, {stop}")
        out += [f"{pad}else:", f"{pad}    {g(_expected)}(p, {start}, {g(self.what)})"]
        return value, end

    def show(self, v: str, g, fresh, at: str) -> str:
        x = fresh("x")
        made = refused = f"{g(_refused)}({at}, {x}, {g(self.what)})"
        for row in reversed(self.rows.values()):
            line = row.line(x, None, g, fresh)
            for f in _FIELDS[row.cls]:
                if f.init and f.compare and f.name not in row.slots and f.name not in row.constants:
                    line = (f"({line} if {x}.{f.name} == {g(f.default)} else {g(_refused)}("
                            f"{x}, {g(row.place(f.name))}, {x}.{f.name}, {g(repr(f.default))}))")
            made = f"({line} if " + " and ".join(
                f"{x}.{name} == {g(value)}" for name, value in row.constants.items()) + f" else {made})"
        cls = next(iter(self.rows.values())).cls
        return f"({made} if ({x} := {v}).__class__ is {g(cls)} else {refused})"


class _Note(_Slot):
    """The comment after an induced element, from the origin of the field's
    value, or of what ``origin_of`` gives for the record; the parser skips
    it as it skips any comment."""

    note = " // induced by "

    def __init__(self, origin_of=None):
        self.origin_of = origin_of

    def show(self, v: str, g, fresh, at: str) -> str:
        origin, x = f"{g(self.origin_of)}({v})" if self.origin_of else v, fresh("x")
        return (f"({g(self.note)} + {x}.rule_id if ({x} := {origin}).kind == {g('induced')} "
                f"else {g('')})")


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
        word = p.texts[index]
        if word in self.earlier:
            raise ImportAfterDefinitionError(
                f"{self.earlier[word]} must precede all {', '.join(self.fields)}", p.loc(index))
        _expected(p, index, self.message)

    def show(self, out: list[str], pad: str, r: str, indent: str, g, fresh, at: str) -> None:
        """Append to ``out``, indented by ``pad``, the code that appends to
        ``o`` the member lines of the record ``r`` at ``indent``: a block's
        members are lines of their own."""

        for name, kinds in self.fields.items():
            x, y = fresh("x"), fresh("r")
            out += [f"{pad}if ({x} := {r}.{name}).__class__ is not tuple: "
                    f"{g(_refused)}({at}, {x}, {g('a tuple of ' + name)})", f"{pad}for {y} in {x}:"]
            for k, cls in enumerate(kinds):
                out.append(f"{pad}    {'el' * bool(k)}if {y}.__class__ is {g(cls)}:")
                _grammar()[cls].printing(out, pad + "        ", y, indent, g, fresh)
            out += [f"{pad}    else:", f"{pad}        {g(_refused)}({at}, {y}, {g('one of the ' + name)})"]


class _Row:
    """One declaration: the record class it reads and prints (``None`` for
    a clause, ``str`` for a line that holds one string), and its line as it
    prints.  The line is a format string whose literal text holds the
    fixed words and whose ``{field}`` slots each name a record field; a
    ``{}`` takes the next unnamed slot, which reads and prints the whole
    record, or the value of a clause.  Fields the line does not hold take
    the given constants, or their defaults.

    ``reading`` and ``line`` (``printing``, with blocks) give the code of
    its reader and its printer from its slots' code, rows they hold inline."""

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
            [token for token in _TOKEN.findall(piece) if token] if isinstance(piece, str)
            else [] if isinstance(piece[1], _Note) else [piece])]
        self.keyword = next((item for item in self.items if isinstance(item, str)), "")

    def first_words(self) -> list[str]:
        """The words a member line of this row starts with."""

        first = self.items[0]
        return [first] if isinstance(first, str) else [self.keyword, first[1].word]

    def place(self, field: str) -> tuple:
        """How ``_refused`` names a record of this row and its ``field``."""

        name = next((name for name, kind in self.slots.items() if isinstance(kind, _Name)), None)
        return self.keyword or self.cls.__name__, name, f"[{self.cls.__name__}.{field or 'value'}]"

    def reading(self, out: list[str], pad: str, start: str, g, fresh,
                dispatched: bool = False) -> tuple[str, str]:
        """Append to ``out`` the code, indented by ``pad``, that reads the
        row's line from the token at index ``start``, its first word
        ``dispatched`` (checked already), one token at a time; return the
        code of the value read and of the index after it."""

        values: dict[str, str] = {}  # field -> the code of its value
        blocks: list[_Block] = []
        loc = None
        for n, item in enumerate(self.items):
            if isinstance(item, str):
                loc = loc or start
                if n or not dispatched:
                    out.append(f"{pad}if t[{start}] != {g(item)}: "
                               f"{g(_expected)}(p, {start}, {g(repr(item))})")  # as ``eat``
                start = _plus(start, 1)
                continue
            field, kind = item
            if isinstance(kind, _Block):
                kind.earlier = {word: ", ".join(block.fields)
                                for block in blocks for word in block.words()}
                blocks.append(kind)
            after = self.items[n + 1] if n + 1 < len(self.items) else ""
            value, start = kind.reading(out, pad, start, g, fresh, after)
            if isinstance(kind, _Block):
                values.update((name, f"{g(tuple)}({found})")
                              for name, found in zip(kind.fields, value))
            else:
                values[field] = value
        if self.cls is None or self.cls is str:  # a clause's value, or a flag's
            return next(iter(values.values()), "True"), start
        return g(self.cls) + "(" + ", ".join(
            values[f.name] if f.name in values
            else f"({loc}, p.table)" if f.name == "loc"
            else g(self.constants.get(f.name, f.default))
            for f in _FIELDS[self.cls] if f.init) + ")", start

    def line(self, r: str, indent: str | None, g, fresh, at: str = "", pieces=None) -> str:
        """The code of the text of the record ``r``, of the row's
        ``pieces`` (all, unless given; no block): a line at ``indent``, as
        an f-string, or, with no indent, a clause or an item inline, as a
        sum that can sit in an f-string's braces.  A clause's slots refuse
        through ``at``, the place of its own."""

        parts = []
        for piece in self.pieces if pieces is None else pieces:
            if isinstance(piece, str):
                parts.append(g(piece) if indent is None else _literal(piece))
                continue
            field, kind = piece
            where = at if self.cls is None else f"{r}, {g(self.place(field))}"
            shown = kind.show(f"{r}.{kind.shown or field}" if field else r, g, fresh, where)
            parts.append(shown if indent is None else f"{{{shown}}}")
        if indent is None:
            return "(" + " + ".join(parts) + ")" if parts else g("")
        return f"f'{_literal(indent)}{''.join(parts)}'"

    def printing(self, out: list[str], pad: str, r: str, indent: str, g, fresh) -> None:
        """Append to ``out`` the code, indented by ``pad``, that appends to
        ``o`` the lines of the record ``r`` at ``indent``, with every row
        under this one printed inline."""

        # a piece is literal text or a (field, slot) pair: its last item tells a block
        for blocks, pieces in groupby(self.pieces, lambda piece: isinstance(piece[-1], _Block)):
            if not blocks:
                out.append(f"{pad}o.append({self.line(r, indent, g, fresh, pieces=list(pieces))})")
            for _, block in pieces if blocks else ():
                block.show(out, pad, r, indent + "  ", g, fresh, f"{r}, {g(self.place(''))}")


def _literal(text: str) -> str:
    """``text`` as the literal text of an f-string in single quotes."""

    return text.replace("\\", "\\\\").replace("'", "\\'").replace("{", "{{").replace("}", "}}")


def _compiled(name: str, write):
    """The function ``name`` compiled from the lines of code ``write(g,
    fresh)`` gives: ``g`` names a global of the code, ``fresh`` a new local."""

    env: dict = {}
    numbers = count()

    def g(value) -> str:
        env[f"G{len(env)}"] = value
        return f"G{len(env) - 1}"

    exec("\n".join(write(g, lambda stem: f"{stem}{next(numbers)}")) + "\n", env)
    return env[name]


def _made(cls: type, part: str) -> _Row:
    """The row of a model or a package, with its reader (``part`` "read")
    or printer ("show") compiled the first time it is asked for: a command
    compiles only what it uses."""

    row = _grammar()[cls]
    if part not in vars(row):
        def write(g, fresh) -> list[str]:
            if part == "show":
                out = ["def show(r):", "    o = []"]
                row.printing(out, "    ", "r", "", g, fresh)
                return [*out, "    o.append('')", f"    return {g(chr(10).join)}(o)"]
            out: list[str] = []
            made, end = row.reading(out, "    ", "i", g, fresh)
            return ["def read(p, i):", "    t = p.texts", *out, f"    return {made}, {end}"]

        setattr(row, part, _compiled(part, write))
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

    return _made(Model, "show").show(model)


def print_package(pkg: Package) -> str:
    return _made(Package, "show").show(pkg)


# ---------------------------------------------------------------------------
# Report printing
# ---------------------------------------------------------------------------


@cache
def _said():
    """The text a report or ``explain`` shows for a definition, its line
    after its keyword, or for a predicate, its text: one function, compiled
    from the rows' printing code the first time a report or ``explain``
    needs it."""

    def write(g, fresh) -> list[str]:
        rows, rule = _grammar(), _grammar()[PredicatedRuleDef]
        at = f"r, {g((rule.keyword, None, '[PredicatedRuleDef.predicate]'))}"
        return ["def said(r):", *[f"    if r.__class__ is {g(cls)}: return "
                                  + rows[cls].line("r", None, g, fresh, pieces=rows[cls].pieces[1:])
                                  for cls in rows[Package].slots[""].fields["definitions"]],
                f"    return {rule.slots['predicate'].show('r', g, fresh, at)}"]

    return _compiled("said", write)


def _scalar_value(definition: ConstDef | OptionDef) -> str:
    """The value as the definition's own line writes it, after ``<key> = ``:
    a constant's as a literal, an option's bare."""

    return _said()(definition)[len(definition.key) + 3:]


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
    said = _said()
    for kind, key in sorted(eff.chains):
        chain = eff.chains[kind, key]
        definition, prov = chain[-1]
        source = f"({prov.package_id})"
        if kind == "scalar":
            sections["options" if isinstance(definition, OptionDef) else "constants"].append(
                f"  {said(definition)} {_chain_note(chain)}")
        elif kind == "rule":
            sections["rules"].append(f"  {key}")
            sections["rules"].extend(
                f"    when {said(d.predicate)} -> {d.value} ({p.package_id})"
                for d, p in reversed(chain))
        elif kind == "constraint":
            sections["constraints"].append(
                f"  {key} on {definition.scope} severity {definition.severity} {source}")
        elif kind == "transform":
            sections["transforms"].append(
                f"  {key} = {'on' if definition.enabled else 'off'} {source}")
        else:
            sections[kind + "s"].append(f"  {said(definition)} {source}")

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
