"""Expression trees for constraints, preconditions, invariants and guards.

The language is a small navigational predicate calculus: boolean
connectives, integer arithmetic (+ / -), six comparison operators,
bounded quantifiers over sequences, feature navigation via ``.``, and
four built-in calls (``size``, ``isEmpty``, ``hasStereotype`` and the
n-ary ``exactlyOne``).

Nodes are immutable records (``record.record``).  Source locations are
carried for diagnostics but never participate in structural equality, so a
reparsed expression compares equal to the tree it was printed from.
Equality and hashing walk an explicit stack, so trees of any depth compare.
"""

from __future__ import annotations

from dataclasses import field

from .diagnostics import SourceLocation
from .record import record

#: Values a literal node may hold.  ``bool`` must be tested before ``int``
#: everywhere, since Python bools are ints.
LiteralValue = bool | int | str

COMPARE_OPS = ("=", "<>", "<", "<=", ">", ">=")


@record
class Literal:
    """A Boolean, integer or string constant."""

    value: LiteralValue
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class VarRef:
    """A name: ``self``, a quantifier's variable or an attribute of the class."""

    name: str
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Nav:
    """Feature navigation, ``target.feature``."""

    target: Expr
    feature: str
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Call:
    """Built-in call: ``size``, ``isEmpty``, ``hasStereotype`` or
    ``exactlyOne``, which takes one or more Boolean arguments."""

    fn: str
    args: tuple[Expr, ...]
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@record
class Forall:
    """``forall(var in domain | body)``: the body holds for every member."""

    var: str
    domain: Expr
    body: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Exists:
    """``exists(var in domain | body)``: the body holds for some member."""

    var: str
    domain: Expr
    body: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class And:
    """Conjunction, ``lhs and rhs``."""

    lhs: Expr
    rhs: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Or:
    """Disjunction, ``lhs or rhs``."""

    lhs: Expr
    rhs: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Not:
    """Negation, ``not operand``."""

    operand: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Implies:
    """Implication, ``lhs implies rhs``."""

    lhs: Expr
    rhs: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Compare:
    """Comparison ``lhs op rhs``, ``op`` one of ``COMPARE_OPS``."""

    op: str
    lhs: Expr
    rhs: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Add:
    """Integer sum, ``lhs + rhs``."""

    lhs: Expr
    rhs: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


@record
class Sub:
    """Integer difference, ``lhs - rhs``."""

    lhs: Expr
    rhs: Expr
    loc: SourceLocation | None = field(default=None, compare=False, repr=False)


Expr = (
    Literal
    | VarRef
    | Nav
    | Call
    | Forall
    | Exists
    | And
    | Or
    | Not
    | Implies
    | Compare
    | Add
    | Sub
)


def free_vars(e: Expr) -> frozenset[str]:
    """Names of unbound variable references, ``self`` included.

    One pass over an explicit stack of (node, names bound around it), so
    a tree of any depth or chain length is walked without recursion."""

    out: set[str] = set()
    stack: list[tuple[Expr, frozenset[str]]] = [(e, frozenset())]
    while stack:
        e, bound = stack.pop()
        if isinstance(e, VarRef):
            if e.name not in bound:
                out.add(e.name)
        elif isinstance(e, Nav):
            stack.append((e.target, bound))
        elif isinstance(e, Call):
            stack.extend((a, bound) for a in reversed(e.args))
        elif isinstance(e, (Forall, Exists)):
            stack.append((e.body, bound | {e.var}))
            stack.append((e.domain, bound))
        elif isinstance(e, Not):
            stack.append((e.operand, bound))
        elif isinstance(e, (And, Or, Implies, Compare, Add, Sub)):
            stack.append((e.rhs, bound))
            stack.append((e.lhs, bound))
        elif not isinstance(e, Literal):
            raise TypeError(f"not an expression node: {e!r}")
    return frozenset(out)


def conjoin(parts: list[Expr]) -> Expr:
    """Left-associated conjunction of one or more expressions."""

    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(parts: list[Expr]) -> Expr:
    """Left-associated disjunction of one or more expressions."""

    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out
