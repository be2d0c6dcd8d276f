"""Checks of the program's outputs, computed apart from the program.

Nothing here calls the code under test.  Model text is read by a parser
of this file's own, into ``prefacer.expr`` nodes (plain data) so that
induced expressions can be evaluated by ``tests/oracles.brute_eval``, the
suite's independent evaluator.  Expected diagnostics and sequences come
from the generator's description of each project.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from prefacer import expr as E

# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

_LOCATION = re.compile(r"^\S+:\d+:\d+ ")
_CONSTRAINT = re.compile(r"constraint '([^']+)'")
_PROVENANCE = re.compile(r" \[([^\]]+)\]$")


def read_diagnostics(text: str) -> set[tuple[str, str, str, str]]:
    """(code, path, constraint, provenance) of each rendered diagnostic
    line: ``severity code [file:line:col] path: message [provenance]``."""

    found = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split(" ", 2)
        if len(parts) < 3:
            found.add((line, "", "", ""))
            continue
        rest = _LOCATION.sub("", parts[2], count=1)
        path, _, message = rest.partition(": ")
        constraint = _CONSTRAINT.search(message)
        provenance = _PROVENANCE.search(message)
        found.add((parts[1], path, constraint.group(1) if constraint else "",
                   provenance.group(1) if provenance else ""))
    return found


def check_validate(exit_code, stderr: str, expected: set) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit {exit_code}, expected 0")
    got = read_diagnostics(stderr)
    for missing in sorted(expected - got):
        problems.append(f"missing diagnostic {missing}")
    for extra in sorted(got - expected):
        problems.append(f"unexpected diagnostic {extra}")
    return problems


# ---------------------------------------------------------------------------
# Model text
# ---------------------------------------------------------------------------

_TOKEN_TEXT = (r'(\d+)|([A-Za-z_][A-Za-z0-9_]*)|"([^"\n]*)"|'
               r"(->|<<|>>|<>|<=|>=|[{}()\[\]:,=.<>+\-|])")
_TOKEN = re.compile(r"\s*(?:" + _TOKEN_TEXT + ")")
_TOKENS_ONLY = re.compile(r"(?:\s*(?:" + _TOKEN_TEXT + r"))*\s*")
_EOF = ("eof", "")


class TextError(ValueError):
    pass


def _tokens(code: str) -> list[tuple[str, str]]:
    if _TOKENS_ONLY.fullmatch(code) is None:
        raise TextError(f"cannot read {code[:60]!r}")
    out = []
    for number, word, string, sym in _TOKEN.findall(code):
        if number:
            out.append(("int", number))
        elif word:
            out.append(("ident", word))
        elif sym:
            out.append(("sym", sym))
        else:
            out.append(("string", string))
    out.append(_EOF)
    return out


class _Expr:
    """Precedence climbing: implies < or < and < not < comparison < + - <
    postfix.  Binary chains are loops, so long conjunctions cost no stack.
    The token list ends with an end marker."""

    def __init__(self, toks: list[tuple[str, str]]):
        self.toks, self.pos = toks, 0

    def peek(self, offset: int = 0) -> tuple[str, str]:
        return self.toks[min(self.pos + offset, len(self.toks) - 1)]

    def take(self, text: str) -> bool:
        kind, got = self.toks[self.pos]
        if got == text and kind != "string":
            self.pos += 1
            return True
        return False

    def need(self, text: str) -> None:
        if not self.take(text):
            raise TextError(f"expected {text!r}, found {self.peek()[1]!r}")

    def done(self) -> bool:
        return self.toks[self.pos] is _EOF

    def expression(self) -> E.Expr:
        lhs = self.disjunction()
        if self.take("implies"):
            return E.Implies(lhs, self.expression())
        return lhs

    def disjunction(self) -> E.Expr:
        out = self.conjunction()
        while self.take("or"):
            out = E.Or(out, self.conjunction())
        return out

    def conjunction(self) -> E.Expr:
        out = self.negation()
        while self.take("and"):
            out = E.And(out, self.negation())
        return out

    def negation(self) -> E.Expr:
        if self.take("not"):
            return E.Not(self.negation())
        lhs = self.additive()
        kind, text = self.peek()
        if kind == "sym" and text in ("=", "<>", "<", "<=", ">", ">="):
            self.pos += 1
            return E.Compare(text, lhs, self.additive())
        return lhs

    def additive(self) -> E.Expr:
        out = self.postfix()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            op = self.peek()[1]
            self.pos += 1
            out = (E.Add if op == "+" else E.Sub)(out, self.postfix())
        return out

    def postfix(self) -> E.Expr:
        out = self.primary()
        while self.take("."):
            out = E.Nav(out, self.word())
        return out

    def word(self) -> str:
        kind, text = self.peek()
        if kind != "ident":
            raise TextError(f"expected a name, found {text!r}")
        self.pos += 1
        return text

    def primary(self) -> E.Expr:
        kind, text = self.peek()
        if kind == "int":
            self.pos += 1
            return E.Literal(int(text))
        if kind == "string":
            self.pos += 1
            return E.Literal(text)
        if self.take("("):
            inner = self.expression()
            self.need(")")
            return inner
        name = self.word()
        if name in ("true", "false"):
            return E.Literal(name == "true")
        if name in ("forall", "exists") and self.take("("):
            var = self.word()
            self.need("in")
            domain = self.expression()
            self.need("|")
            body = self.expression()
            self.need(")")
            return (E.Forall if name == "forall" else E.Exists)(var, domain, body)
        if self.take("("):
            args = []
            if not self.take(")"):
                args.append(self.expression())
                while self.take(","):
                    args.append(self.expression())
                self.need(")")
            return E.Call(name, tuple(args))
        return E.VarRef(name)


def parse_expression(text: str) -> E.Expr:
    parser = _Expr(_tokens(text))
    out = parser.expression()
    if not parser.done():
        raise TextError(f"trailing text after expression: {text[:40]!r}")
    return out


@dataclass
class ReadOp:
    name: str
    params: list[tuple[str, str]]
    pre: E.Expr | None
    post: E.Expr | None
    induced: bool


@dataclass
class ReadClass:
    name: str
    supers: list[str]
    stereotypes: set[str]
    attrs: list[tuple[str, str, bool]] = field(default_factory=list)
    ops: list[ReadOp] = field(default_factory=list)
    invariants: list[tuple[E.Expr, bool]] = field(default_factory=list)


@dataclass
class ReadChart:
    name: str
    cls: str
    states: list[str] = field(default_factory=list)
    initial: list[str] = field(default_factory=list)
    transitions: list[tuple[str, str, str, E.Expr | None]] = field(default_factory=list)


def _split_comment(line: str) -> tuple[str, str]:
    if '"' not in line:
        code, _, comment = line.partition("//")
        return code, comment
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif not quoted and line.startswith("//", i):
            return line[:i], line[i + 2:]
    return line, ""


def read_model(text: str) -> tuple[list[ReadClass], list[ReadChart]]:
    """Classes and charts of printed model text.  An element counts as
    induced when its line carries a comment that says so."""

    classes: list[ReadClass] = []
    charts: list[ReadChart] = []
    inside = None
    for line in text.splitlines():
        code, comment = _split_comment(line)
        induced = "induced" in comment
        toks = _tokens(code)
        if toks[0] is _EOF:
            continue
        p = _Expr(toks)
        head = p.word() if toks[0][0] == "ident" else ""
        if head == "model":
            continue
        if head == "class":
            cls = ReadClass(p.word(), [], set())
            if p.take("specializes"):
                cls.supers.append(p.word())
                while p.take(","):
                    cls.supers.append(p.word())
            if p.take("<<"):
                cls.stereotypes.add(p.word())
                while p.take(","):
                    cls.stereotypes.add(p.word())
                p.need(">>")
            p.need("{")
            classes.append(cls)
            inside = cls
        elif head == "statechart":
            chart = ReadChart(p.word(), "")
            p.need("for")
            chart.cls = p.word()
            p.need("{")
            charts.append(chart)
            inside = chart
        elif head == "attribute" and isinstance(inside, ReadClass):
            name = p.word()
            p.need(":")
            inside.attrs.append((name, p.word(), induced))
        elif head == "operation" and isinstance(inside, ReadClass):
            name = p.word()
            p.need("(")
            params = []
            if not p.take(")"):
                while True:
                    pname = p.word()
                    p.need(":")
                    params.append((pname, p.word()))
                    if not p.take(","):
                        break
                p.need(")")
            pre = post = None
            if p.peek() == ("ident", "pre") and p.peek(1) == ("sym", ":"):
                p.pos += 2
                pre = p.expression()
            if p.peek() == ("ident", "post") and p.peek(1) == ("sym", ":"):
                p.pos += 2
                post = p.expression()
            inside.ops.append(ReadOp(name, params, pre, post, induced))
        elif head == "invariant" and isinstance(inside, ReadClass):
            inside.invariants.append((p.expression(), induced))
        elif head in ("initial", "state") and isinstance(inside, ReadChart):
            if head == "initial":
                p.need("state")
            name = p.word()
            inside.states.append(name)
            if head == "initial":
                inside.initial.append(name)
        elif head == "transition" and isinstance(inside, ReadChart):
            source = p.word()
            p.need("->")
            target = p.word()
            p.need("on")
            event = p.word()
            guard = None
            if p.take("["):
                guard = p.expression()
                p.need("]")
            inside.transitions.append((source, target, event, guard))
        elif toks == [("sym", "}"), _EOF]:
            inside = None
            continue
        else:
            raise TextError(f"unrecognised line {line[:60]!r}")
        if not p.done():
            raise TextError(f"trailing text on line {line[:60]!r}")
    return classes, charts


_CHILDREN: dict[type, tuple[str, ...]] = {}


def variables(e: E.Expr) -> set[str]:
    names, stack = set(), [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is E.VarRef:
            names.add(node.name)
        elif kind is tuple:
            stack.extend(node)
        elif hasattr(node, "__dataclass_fields__"):
            fields = _CHILDREN.get(kind)
            if fields is None:
                fields = _CHILDREN[kind] = tuple(
                    f for f in node.__dataclass_fields__ if f != "loc")
            stack.extend(getattr(node, f) for f in fields)
    return names


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

#: Charts up to this many states have the invariant evaluated under every
#: one-hot assignment.  Above it, under the initial state, the last state
#: and four evenly spaced ones: brute-force evaluation of the current
#: quadratic encoding costs about 5 s of oracle time per 150-state chart
#: for all 150 assignments.
FULL_ONE_HOT = 16
SAMPLED_ONE_HOT = 6


def one_hot_positions(n: int) -> list[int]:
    if n <= FULL_ONE_HOT:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLED_ONE_HOT - 1))
                   for i in range(SAMPLED_ONE_HOT)})


def _parse(text: str | None) -> E.Expr | None:
    return None if text is None else parse_expression(text)


def check_transform(path: str, spec, brute_eval) -> list[str]:
    """The transformed model keeps every authored element and adds, per
    chart, exactly the induced flags, operations, preconditions and the
    exactly-one invariant."""

    try:
        with open(path, encoding="utf-8") as handle:
            classes, charts = read_model(handle.read())
    except (OSError, TextError) as failure:
        return [f"transformed model unreadable: {failure}"]
    problems: list[str] = []
    by_name = {cls.name: cls for cls in classes}
    if [c.name for c in classes] != [c.name for c in spec.classes]:
        problems.append("class list changed")
        return problems
    for want, got in zip(spec.charts, charts):
        if (got.name, got.cls, got.states, got.initial) != (
                want.name, want.cls, want.states, [want.initial]):
            problems.append(f"{want.name}: chart header or states changed")
        wanted_transitions = [(s, t, e, _parse(g)) for s, t, e, g in want.transitions]
        if got.transitions != wanted_transitions:
            problems.append(f"{want.name}: transitions changed")
    if len(charts) != len(spec.charts):
        problems.append("statechart list changed")

    for cls in spec.classes:
        got = by_name[cls.name]
        chart = spec.chart_of(cls.name)
        problems += _check_class(cls, got, chart, brute_eval)
    return problems


def _check_class(cls, got: ReadClass, chart, brute_eval) -> list[str]:
    where = cls.name
    problems = []
    if got.supers != cls.supers or got.stereotypes != set(cls.stereotypes):
        problems.append(f"{where}: header changed")
    if [(n, t) for n, t, induced in got.attrs if not induced] != cls.attrs:
        problems.append(f"{where}: authored attributes changed")
    authored_invariants = [e for e, induced in got.invariants if not induced]
    if authored_invariants != [parse_expression(i) for i in cls.invariants]:
        problems.append(f"{where}: authored invariants changed")

    states = chart.states if chart is not None else []
    events = chart.events() if chart is not None else []
    induced_flags = [(n, t) for n, t, induced in got.attrs if induced]
    if sorted(induced_flags) != sorted((s, "Boolean") for s in states):
        problems.append(f"{where}: induced flags {len(induced_flags)} for {len(states)} states")

    authored_ops = {op.name: op for op in cls.ops}
    got_ops = got.ops
    names = [op.name for op in got_ops]
    if len(set(names)) != len(names):
        problems.append(f"{where}: an operation appears twice")
    expected_names = [op.name for op in cls.ops] + [e for e in events if e not in authored_ops]
    if sorted(names) != sorted(expected_names):
        problems.append(f"{where}: operations {sorted(set(names) ^ set(expected_names))} differ")
        return problems
    for op in got_ops:
        want = authored_ops.get(op.name)
        is_event = op.name in events
        if want is None and not op.induced:
            problems.append(f"{where}.{op.name}: induced operation not marked induced")
        if want is not None and (op.params != want.params or op.post != _parse(want.post)):
            problems.append(f"{where}.{op.name}: authored operation changed")
        authored_pre = _parse(want.pre) if want is not None else None
        if not is_event:
            if op.pre != authored_pre:
                problems.append(f"{where}.{op.name}: precondition changed")
            continue
        induced_pre = op.pre
        if authored_pre is not None:
            if not (isinstance(op.pre, E.And) and op.pre.lhs == authored_pre):
                problems.append(f"{where}.{op.name}: authored precondition lost")
                continue
            induced_pre = op.pre.rhs
        sources = {s for s, _, e, _ in chart.transitions if e == op.name}
        if induced_pre is None or variables(induced_pre) != sources:
            problems.append(f"{where}.{op.name}: precondition does not name its sources")

    induced_invariants = [e for e, induced in got.invariants if induced]
    if chart is None:
        if induced_invariants or induced_flags:
            problems.append(f"{where}: induced elements on a class without chart")
        return problems
    if len(induced_invariants) != 1:
        problems.append(f"{where}: {len(induced_invariants)} induced invariants")
        return problems
    invariant = induced_invariants[0]
    if variables(invariant) != set(states):
        problems.append(f"{where}: invariant does not range over the states")
        return problems
    off = dict.fromkeys(states, False)
    try:
        for k in one_hot_positions(len(states)):
            if brute_eval(invariant, {**off, states[k]: True}) is not True:
                problems.append(f"{where}: invariant false with only {states[k]}")
        if brute_eval(invariant, off) is not False:
            problems.append(f"{where}: invariant true with no state")
        if len(states) > 1 and brute_eval(
                invariant, {**off, states[0]: True, states[-1]: True}) is not False:
            problems.append(f"{where}: invariant true with two states")
    except Exception as failure:  # the oracle's own failure type
        problems.append(f"{where}: invariant not evaluable: {failure}")
    return problems


# ---------------------------------------------------------------------------
# skeleton
# ---------------------------------------------------------------------------


def call_sequences(chart, max_len: int = 3) -> set[tuple[str, ...]]:
    """Event sequences along every path from the initial state of one to
    ``max_len`` transitions that uses no transition twice."""

    out: set[tuple[str, ...]] = set()
    stack = [(chart.initial, (), ())]
    while stack:
        state, used, events = stack.pop()
        for index, (source, target, event, _) in enumerate(chart.transitions):
            if source != state or index in used:
                continue
            seq = events + (event,)
            out.add(seq)
            if len(seq) < max_len:
                stack.append((target, used + (index,), seq))
    return out


def check_skeleton(out_dir: str, spec) -> list[str]:
    problems = []
    try:
        files = set(os.listdir(out_dir))
    except OSError as failure:
        return [f"no output directory: {failure}"]
    wanted = {f"{cls.name}.skel" for cls in spec.classes}
    wanted |= {f"{chart.cls}.monitor" for chart in spec.charts}
    if files != wanted:
        problems.append(f"files differ: {len(files ^ wanted)} names")
        return problems
    for chart in spec.charts:
        with open(os.path.join(out_dir, f"{chart.cls}.monitor"), encoding="utf-8") as handle:
            got = {tuple(line.strip()[len("SEQUENCE "):].split(", "))
                   for line in handle if line.strip().startswith("SEQUENCE ")}
        want = call_sequences(chart)
        if got != want:
            problems.append(f"{chart.cls}.monitor: {len(want - got)} sequences missing, "
                            f"{len(got - want)} unexpected")
    return problems
