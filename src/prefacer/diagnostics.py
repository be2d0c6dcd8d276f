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

from typing import Iterable, Literal

from .record import record

Severity = Literal["error", "warning", "info"]
SEVERITIES: dict[str, Severity] = {"E": "error", "W": "warning", "I": "info"}  # by code letter


@record
class SourceLocation:
    """1-based position of a construct in an input file.  A parsed record
    holds its token's index and its parse's ``textio._token_table`` in its
    ``loc`` slot until ``location_slot`` makes this record of them."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


def location_slot(slot) -> property:
    """A record's ``loc``, which ``@record`` installs over ``slot``, the
    slot's member descriptor, whose setter constructors keep.  A stored
    ``(index, table)`` pair reads as the ``SourceLocation`` that
    ``table(index)`` makes on the first read, which then takes its place in
    the slot, so that each later read gives that one; anything else reads
    as stored."""

    def read(record):
        value = slot.__get__(record)
        if value.__class__ is tuple:
            value = value[1](value[0])
            slot.__set__(record, value)
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
