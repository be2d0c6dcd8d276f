"""Command-line front end.

Five commands share one pipeline: load the preface directory, compose it,
read the model when the command takes one, then act.  ``compose`` prints
the effective-definitions report, ``validate`` checks a model,
``transform`` applies statechart induction and prints the transformed
model, ``explain`` shows a key's override chain, ``skeleton`` writes
skeleton and monitor files.  ``_COMMANDS`` describes each command once
(its function, help, operand, ``-o`` option and how much of the preface
directory it reads), and the argument parser, the check of a
``RunConfig`` and the dispatch all read it.

A command writes its payload to standard output as it runs and returns
what standard error shows; ``_run`` renders that once, after the payload.
Under ``--format text`` it is the diagnostics, one line each, then the
command's text: the transform report, or the ``error:`` line of a key
``explain`` does not know.  Under ``--format json`` it is one object whose
first key, ``diagnostics``, holds a list of objects (``severity``,
``code``, ``file``, ``line``, ``col``, ``path``, ``message``,
``provenance``); ``transform`` adds its four report sections and
``explain`` an ``error`` that is ``null`` or the message.

A preface directory is a library: it may hold many prefaces, and a
preface is a root package together with everything it imports.  The
command decides how much of the directory is read.  ``compose``, the
preface author's command, parses every ``.preface`` file and checks every
package.  The model commands (``validate``, ``transform``, ``explain`` and
``skeleton``) read each file only up to its imports, walk the imports from
the root and parse in full only the packages it reaches.  So the preface
checks (E101–E106, E109, E110, W101) judge the root's own preface, and a
package the root does not reach stops the run only when its id or
imports do not read.  Both loads report a package id that two files
define (E108).

Exit codes: 0 success (warnings allowed), 1 error diagnostics or a key
``explain`` does not know, 2 parse or usage failure, 3 composition
failure.  ``_run`` turns each failure into one plain-text line on
standard error, under either format: ``parse error:`` or ``error:`` (an
input file that cannot be read or is not UTF-8, a preface directory that
is missing or holds no package, an output path that cannot be written, a
``RunConfig`` without a field its command needs) with exit code 2,
``composition error:`` (import cycle, unknown import or root) with 3.
Identical inputs produce identical output bytes.  No run ends in a
traceback: any other exception (an evaluation too deep for the
interpreter, say) is one ``internal error: <type>: <message>`` line, with
exit code 2.  ``run`` pauses the cyclic garbage collector for the whole
command, restoring the caller's setting on every exit (see ``textio``).
``main`` builds its argument parser on its first call and keeps it, so a
process that runs many commands builds it once and no command leaves a
reference cycle behind.

All file I/O goes through ``_read_text`` and ``_write_text``: whole files
of UTF-8 bytes, decoded and encoded in one call, with no text layer per
file.  Inputs read CR LF and a lone CR as line ends, as universal
newlines do; outputs are written with LF only.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from typing import IO

from .constraints import check_constraints
from .diagnostics import Diagnostic, error_count, has_errors, warning_count
from .model import Model, builtin_check
from .preface import (
    CompositionError,
    EffectiveDefinitions,
    NotDefinedError,
    PackageRepository,
    _walk_imports,
    compose,
    explain,
    validate_preface,
)
from .record import record
from .skeletongen import UntransformedInputError, generate_monitor, generate_skeleton
from .textio import (
    ParseError,
    _scalar_value,
    collector_paused,
    parse_model,
    parse_package,
    print_model,
    print_report,
    print_transform_report,
    read_package_header,
    transform_report_sections,
)
from .transformer import TransformReport, apply_transforms

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_COMPOSITION = 3


@record
class RunConfig:
    """One resolved invocation; ``run`` is pure apart from file IO."""

    command: str  # compose | validate | transform | explain | skeleton
    preface_dir: str
    root_package: str
    model_path: str | None = None
    key: str | None = None
    output: str | None = None
    format: str = "text"  # text | json


# ---------------------------------------------------------------------------
# Diagnostic rendering
# ---------------------------------------------------------------------------


def render_diagnostics(diags: list[Diagnostic]) -> str:
    """One stable line per diagnostic; empty string for an empty list."""

    lines = []
    for d in diags:
        parts = [d.severity, d.code]
        if d.location is not None:
            parts.append(str(d.location))
        parts.append(f"{d.path}: {d.message}")
        line = " ".join(parts)
        if d.provenance is not None:
            line += f" [{d.provenance}]"
        lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


def _render(diags: list[Diagnostic], format: str, text: str, fields: dict) -> str:
    """A command's standard error: the diagnostics, then ``text``; under
    ``json`` one object holding the diagnostics, then ``fields``."""

    if format == "json":
        return _json({"diagnostics": [
            {
                "severity": d.severity,
                "code": d.code,
                "file": d.location.file if d.location else None,
                "line": d.location.line if d.location else None,
                "col": d.location.column if d.location else None,
                "path": d.path,
                "message": d.message,
                "provenance": d.provenance,
            }
            for d in diags
        ], **fields}) + "\n"
    return render_diagnostics(diags) + text


def _json(value, margin: str = "") -> str:
    """``json.dumps(value, indent=2)``, without the reference cycle that its
    encoder of indented text leaves behind on every call."""

    from json import dumps  # only here: start-up does without it
    if value.__class__ not in (dict, list) or not value:
        return dumps(value)
    inner = margin + "  "
    items = ([f"{dumps(key)}: {_json(item, inner)}" for key, item in value.items()]
             if value.__class__ is dict else [_json(item, inner) for item in value])
    start, end = "{}" if value.__class__ is dict else "[]"
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}{end}"


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


class UnreadableInputError(Exception):
    """An input that cannot be read as text: a file whose bytes are not
    UTF-8, or a preface directory that is missing or holds no packages."""


def _read_text(path: str) -> str:
    """The file's text: UTF-8, with CR LF and a lone CR read as LF, as
    ``Path.read_text`` reads it."""

    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as failure:
        raise UnreadableInputError(f"{path}: {failure}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# ``open(path, "wb")``'s flags and mode, without its file objects; binary
# where the platform has a text mode, so that LF stays LF.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends as they are."""

    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        data = memoryview(text.encode("utf-8"))
        while data:  # a write may take less than it is given
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _child(directory: str, name: str) -> str:
    """``str(Path(directory) / name)`` for a ``directory`` spelled as
    ``str(Path(...))`` spells it."""

    return name if directory == "." else os.path.join(directory, name)


def _load_repository(preface_dir: str, diags: list[Diagnostic],
                     root_id: str | None = None) -> PackageRepository:
    """The packages of ``preface_dir``: every one, or with ``root_id`` the
    ones that root reaches, each from the last file (in sorted order) that
    defines its id.

    Every file is read, in full or up to its imports, so a second file
    defining an id is E108 in both loads.  The closure is walked over
    those headers and only the files it reaches are parsed in full, in
    sorted order; the repository keeps the order in which the files first
    defined each id."""

    directory = Path(preface_dir)
    if not directory.is_dir():
        raise UnreadableInputError(f"'{preface_dir}' is not a directory")
    base = str(directory)
    try:
        names = os.listdir(base)
    except PermissionError:  # as Path.glob: a directory it may not list holds none
        names = []
    files = [_child(base, name) for name in sorted(names) if name.endswith(".preface")]
    if not files:
        raise UnreadableInputError(f"no .preface files in '{preface_dir}'")
    read = parse_package if root_id is None else read_package_header
    repo: PackageRepository = {}
    sources: dict[str, tuple[str, str]] = {}  # id -> its file's path and text
    for path in files:
        text = _read_text(path)
        pkg = read(text, path)
        if pkg.id in repo:
            diags.append(Diagnostic(
                "error", "E108", pkg.id,
                f"package '{pkg.id}' is defined by more than one file", pkg.loc))
        repo[pkg.id] = pkg
        sources[pkg.id] = path, text
    if root_id is None:
        return repo
    walk = _walk_imports(repo, (root_id,)) if root_id in repo else ()
    reached = sorted(sources[pkg_id] for event, pkg_id, _ in walk if event == "done")
    parsed = {pkg.id: pkg for pkg in (parse_package(text, path) for path, text in reached)}
    return {pkg_id: parsed[pkg_id] for pkg_id in repo if pkg_id in parsed}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_compose(config: RunConfig, model: Model | None, eff: EffectiveDefinitions,
                 diags: list[Diagnostic], stdout: IO[str]) -> tuple[list[Diagnostic], str, dict]:
    stdout.write(print_report(eff))
    return diags, "", {}


def _cmd_validate(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                  diags: list[Diagnostic], stdout: IO[str]) -> tuple[list[Diagnostic], str, dict]:
    structural = builtin_check(model)
    diags = structural + diags
    if not has_errors(structural):
        diags = diags + check_constraints(model, eff)
    stdout.write(f"{error_count(diags)} errors, {warning_count(diags)} warnings\n")
    return diags, "", {}


def _transform_prelude(model: Model, eff: EffectiveDefinitions, diags: list[Diagnostic],
                       ) -> tuple[Model | None, TransformReport | None, list[Diagnostic]]:
    """Structural check, then statechart induction unless anything so far
    is an error; the model and the report are ``None`` when it stops."""

    diags = builtin_check(model) + diags
    if has_errors(diags):
        return None, None, diags
    transformed, report = apply_transforms(model, eff)
    return transformed, report, [*diags, *report.diagnostics]


def _cmd_transform(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                   diags: list[Diagnostic], stdout: IO[str]) -> tuple[list[Diagnostic], str, dict]:
    transformed, report, diags = _transform_prelude(model, eff, diags)
    # The model goes out before the report, so an output path that cannot
    # be written leaves the one error line alone on stderr.
    if transformed is not None:
        text = print_model(transformed)
        if config.output:
            _write_text(str(Path(config.output)), text)
        else:
            stdout.write(text)
    if config.format != "json":
        return diags, print_transform_report(report) if report is not None else "", {}
    return diags, "", {title.replace(" ", "_"): [
        {"path": path, "description": description} for path, description in entries]
        for title, entries in transform_report_sections(report or TransformReport())}


def _cmd_explain(config: RunConfig, model: Model | None, eff: EffectiveDefinitions,
                 diags: list[Diagnostic], stdout: IO[str]) -> tuple[list[Diagnostic], str, dict]:
    try:
        chain = explain(eff, config.key)
    except NotDefinedError as failure:
        return diags, f"error: {failure}\n", {"error": str(failure)}
    stdout.write(f"{config.key}\n")
    for index, (definition, provenance) in enumerate(chain, 1):
        mark = " (winner)" if index == len(chain) else ""
        stdout.write(f"  {provenance.package_id}: {_scalar_value(definition)}{mark}\n")
    return diags, "", {"error": None}


def _cmd_skeleton(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                  diags: list[Diagnostic], stdout: IO[str]) -> tuple[list[Diagnostic], str, dict]:
    transformed, _, diags = _transform_prelude(model, eff, diags)
    if transformed is not None and not has_errors(diags):
        try:
            files = ([(f"{unit.class_name}.skel", unit.text)
                      for unit in generate_skeleton(transformed, eff)]
                     + [(f"{unit.class_name}.monitor", unit.monitor_text)
                        for unit in generate_monitor(transformed, eff)])
        except UntransformedInputError as failure:
            diags = diags + [Diagnostic("error", "E303", failure.class_name, str(failure),
                                        failure.loc)]
        else:
            out_dir = Path(config.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            base = str(out_dir)
            wrote = []
            try:
                for name, text in files:
                    path = _child(base, name)
                    _write_text(path, text)
                    wrote.append(f"wrote {path}\n")
            finally:  # a failed write still reports the files before it
                stdout.write("".join(wrote))
    return diags, "", {}


# An operand or an ``-o`` option: its metavar, its help, the RunConfig
# field it fills, and, when the command cannot run without it, how the
# error line for a RunConfig without that field names it.
_MODEL = ("model", "model file", "model_path", "a model path")
_KEY = ("key", "constant or option key", "key", "a key")

#: Each command: its function, its help, its operand, its ``-o`` option,
#: and whether it reads the whole preface directory.
_COMMANDS: dict[str, tuple] = {
    "compose": (_cmd_compose, "print the effective definitions", None, None, True),
    "validate": (_cmd_validate, "check a model", _MODEL, None, False),
    "transform": (_cmd_transform, "apply statechart induction", _MODEL,
                  ("FILE", "write the transformed model here instead of stdout", "output", None),
                  False),
    "explain": (_cmd_explain, "show a key's override chain", _KEY, None, False),
    "skeleton": (_cmd_skeleton, "write skeletons and monitors", _MODEL,
                 ("DIR", "directory for the generated files", "output", "an output directory"),
                 False),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(config: RunConfig, stdout: IO[str] | None = None,
        stderr: IO[str] | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with collector_paused():
            return _run(config, stdout, stderr)
    except Exception as failure:  # the last resort: one line, not a traceback
        stderr.write(f"internal error: {type(failure).__name__}: {failure}\n")
        return EXIT_USAGE


def _run(config: RunConfig, stdout: IO[str], stderr: IO[str]) -> int:
    if config.command not in _COMMANDS:
        stderr.write(f"error: unknown command '{config.command}'\n")
        return EXIT_USAGE
    command, _, operand, output, whole = _COMMANDS[config.command]
    for _, _, field, what in filter(None, (operand, output)):
        if what and getattr(config, field) is None:
            stderr.write(f"error: '{config.command}' needs {what}\n")
            return EXIT_USAGE
    diags: list[Diagnostic] = []
    try:
        repo = _load_repository(config.preface_dir, diags,
                                None if whole else config.root_package)
        diags.extend(validate_preface(repo, config.root_package))
        eff = compose(repo, config.root_package)
        model = (parse_model(_read_text(str(Path(config.model_path))), config.model_path)
                 if operand is _MODEL else None)
        diags, text, fields = command(config, model, eff, diags, stdout)
    except ParseError as failure:
        stderr.write(f"parse error: {failure}\n")
        return EXIT_USAGE
    except (OSError, UnreadableInputError) as failure:
        stderr.write(f"error: {failure}\n")
        return EXIT_USAGE
    except CompositionError as failure:
        stderr.write(f"composition error: {failure}\n")
        return EXIT_COMPOSITION
    stderr.write(_render(diags, config.format, text, fields))
    failed = has_errors(diags) or fields.get("error") is not None
    return EXIT_DIAGNOSTICS if failed else EXIT_OK


@cache
def _arg_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on the first call: a
    parser is a web of reference cycles, which only a collection frees."""

    parser = argparse.ArgumentParser(
        prog="prefacer",
        description="Compose definition packages, validate models against the "
                    "result, and generate skeleton and monitor code.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each destination is the RunConfig field the argument fills.
    for name, (_, summary, operand, output, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if operand:
            p.add_argument(operand[2], metavar=operand[0], help=operand[1])
        p.add_argument("--preface", required=True, metavar="DIR", dest="preface_dir",
                       help="directory of .preface package files")
        p.add_argument("--root", required=True, metavar="ID", dest="root_package",
                       help="id of the root package")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="diagnostic rendering (default: text)")
        if output:
            p.add_argument("-o", "--output", required=output[3] is not None,
                           metavar=output[0], help=output[1])
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**vars(_arg_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
