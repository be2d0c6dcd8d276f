"""Coded findings shared by every checking phase.

A ``Diagnostic`` never aborts anything: checkers collect them and the caller
decides what an error-severity finding means (the command line turns them
into exit codes).  Codes are stable so scripts can match on them:

=========  ====================================================
``E0xx``   structural model checks
``E1xx``   preface composition and package hygiene
``E2xx``   constraint evaluation
``E3xx``   transformation and generation
=========  ====================================================

A code's first letter is its severity, and the record reads its severity
from it: ``E`` is an error, ``W`` a warning and ``I`` an informational
note, with the same hundreds digit as the phase that produced them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Literal

from .record import _reduce, record

Severity = Literal["error", "warning", "info"]
SEVERITIES: dict[str, Severity] = {"E": "error", "W": "warning", "I": "info"}  # by code letter


@record
class SourceLocation:
    """1-based position of a construct in an input file; see ``LazyLocation``."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class LazyLocation:
    """A ``SourceLocation`` worked out when read, from a token's index and
    its parse's token table.  Its ``__class__`` is the record's, so the
    record's ``==``, ``hash``, ``repr`` and pickling take both.  A parsed
    record keeps only the pair ``(index, table)``; ``location_slot`` builds
    the ``LazyLocation`` when its ``loc`` is read."""

    __slots__ = ("index", "table")

    def __init__(self, index: int, table: Callable[[int], tuple[str, int, int]]):
        self.index, self.table = index, table

    __class__ = property(lambda self: SourceLocation)
    file, line, column = (property(lambda s, i=i: s.table(s.index)[i]) for i in range(3))
    __str__, __repr__ = SourceLocation.__str__, SourceLocation.__repr__
    __eq__, __hash__, __reduce__ = SourceLocation.__eq__, SourceLocation.__hash__, _reduce


def location_slot(slot) -> property:
    """A record's ``loc``, which ``@record`` installs over ``slot``, the
    slot's member descriptor, whose setter constructors keep.  A stored
    ``(index, table)`` pair reads as the ``LazyLocation`` built on its
    first read, which then takes its place; anything else reads as stored."""

    def read(record):
        value = slot.__get__(record)
        if value.__class__ is tuple:
            value = LazyLocation(*value)
            slot.__set__(record, value)  # so that each read gives this one
        return value
    return property(read)


@record
class Diagnostic:
    """One finding about a model, a preface, or a transformation.

    ``path`` names the offending element ("C", "C.m1", "SC/2", a package id);
    ``provenance`` names the package whose definition triggered the finding,
    when there is one.  ``severity`` is the word the code's letter names.
    """

    code: str
    path: str
    message: str
    location: SourceLocation | None = None
    provenance: str | None = None

    severity = property(lambda self: SEVERITIES[self.code[0]])


def error_count(diags: Iterable[Diagnostic]) -> int:
    return sum(1 for d in diags if d.severity == "error")


def warning_count(diags: Iterable[Diagnostic]) -> int:
    return sum(1 for d in diags if d.severity == "warning")


def has_errors(diags: Iterable[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)
