"""Command-line front end.

Five commands share one pipeline: load the preface directory, compose it,
read the model when the command takes one, then act.  ``compose`` prints
the effective-definitions report, ``validate`` checks a model,
``transform`` applies statechart induction and prints the transformed
model, ``explain`` shows a key's override chain, ``skeleton`` writes
skeleton and monitor files.  ``_COMMANDS`` maps each name to its
function; every one takes the same arguments and returns the exit code.

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

Exit codes: 0 success (warnings allowed), 1 error diagnostics, 2 parse or
usage failure, 3 composition failure.  ``_run`` turns each failure into one
plain-text line on standard error, under either format: ``parse error:``
or ``error:`` (an input file that cannot be read or is not UTF-8, a
preface directory that is missing or holds no package, an output path
that cannot be written) with exit code 2, ``composition error:`` (import
cycle, unknown import or root) with 3.  Diagnostics go to standard error,
payload and summaries to standard output, and identical inputs produce
identical output bytes.  No run ends in a traceback: any other exception
(an evaluation too deep for the interpreter, say) is one ``internal error:
<type>: <message>`` line, with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, Callable

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
    render_literal,
    validate_preface,
)
from .record import record
from .skeletongen import UntransformedInputError, generate_monitor, generate_skeleton
from .textio import (
    ParseError,
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


@record(mutable=True)
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


def _diagnostics_payload(diags: list[Diagnostic]) -> list[dict]:
    return [
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
    ]


def render_diagnostics(diags: list[Diagnostic], format: str = "text") -> str:
    """Stable text or JSON rendering; empty string for an empty list."""

    if format == "json":
        return json.dumps(_diagnostics_payload(diags), indent=2) + "\n"

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


def _render(diags: list[Diagnostic], format: str, text: str = "", **fields) -> str:
    """The diagnostics, then ``text``; under ``json`` one object holding
    the diagnostics and ``fields`` instead."""

    if format == "json":
        return json.dumps({"diagnostics": _diagnostics_payload(diags), **fields}, indent=2) + "\n"
    return render_diagnostics(diags) + text


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


class UnreadableInputError(Exception):
    """An input that cannot be read as text: a file whose bytes are not
    UTF-8, or a preface directory that is missing or holds no packages."""


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as failure:
        raise UnreadableInputError(f"{path}: {failure}") from None


@collector_paused()  # once for the whole directory, not once per file
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
    files = sorted(directory.glob("*.preface"))
    if not files:
        raise UnreadableInputError(f"no .preface files in '{preface_dir}'")
    read = parse_package if root_id is None else read_package_header
    repo: PackageRepository = {}
    sources: dict[str, tuple[str, str]] = {}  # id -> its file's path and text
    for path in files:
        text = _read_text(path)
        pkg = read(text, str(path))
        if pkg.id in repo:
            diags.append(Diagnostic(
                "error", "E108", pkg.id,
                f"package '{pkg.id}' is defined by more than one file", pkg.loc))
        repo[pkg.id] = pkg
        sources[pkg.id] = str(path), text
    if root_id is None:
        return repo
    walk = _walk_imports(repo, (root_id,)) if root_id in repo else ()
    reached = sorted(sources[pkg_id] for event, pkg_id, _ in walk if event == "done")
    parsed = {pkg.id: pkg for pkg in (parse_package(text, path) for path, text in reached)}
    return {pkg_id: parsed[pkg_id] for pkg_id in repo if pkg_id in parsed}


def _read_model(config: RunConfig) -> Model:
    assert config.model_path is not None
    return parse_model(_read_text(Path(config.model_path)), config.model_path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_compose(config: RunConfig, model: Model | None, eff: EffectiveDefinitions,
                 diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    stderr.write(render_diagnostics(diags, config.format))
    stdout.write(print_report(eff))
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def _cmd_validate(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                  diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    structural = builtin_check(model)
    diags = structural + diags
    if not has_errors(structural):
        diags = diags + check_constraints(model, eff)
    stderr.write(render_diagnostics(diags, config.format))
    stdout.write(f"{error_count(diags)} errors, {warning_count(diags)} warnings\n")
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def _transform_prelude(model: Model, eff: EffectiveDefinitions, diags: list[Diagnostic],
                       ) -> tuple[Model | None, TransformReport | None, list[Diagnostic]]:
    """Structural check, then statechart induction unless anything so far
    is an error; the model and the report are ``None`` when it stops."""

    diags = builtin_check(model) + diags
    if has_errors(diags):
        return None, None, diags
    transformed, report = apply_transforms(model, eff)
    return transformed, report, diags + report.diagnostics


def _cmd_transform(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                   diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    transformed, report, diags = _transform_prelude(model, eff, diags)
    # The model goes out before the report, so an output path that cannot
    # be written leaves the one error line alone on stderr.
    if transformed is not None:
        text = print_model(transformed)
        if config.output:
            Path(config.output).write_text(text, encoding="utf-8", newline="\n")
        else:
            stdout.write(text)
    induced = print_transform_report(report) if report is not None else ""
    # text ignores the sections, so only json formats them a second time
    sections = (transform_report_sections(report or TransformReport())
                if config.format == "json" else [])
    stderr.write(_render(diags, config.format, induced, **{
        title.replace(" ", "_"): [{"path": path, "description": description}
                                  for path, description in entries]
        for title, entries in sections}))
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def _cmd_explain(config: RunConfig, model: Model | None, eff: EffectiveDefinitions,
                 diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    assert config.key is not None
    try:
        chain = explain(eff, config.key)
    except NotDefinedError as failure:
        stderr.write(_render(diags, config.format, f"error: {failure}\n", error=str(failure)))
        return EXIT_DIAGNOSTICS
    stderr.write(_render(diags, config.format, error=None))
    stdout.write(f"{config.key}\n")
    for index, (definition, provenance) in enumerate(chain, 1):
        mark = " (winner)" if index == len(chain) else ""
        stdout.write(f"  {provenance.package_id}: {render_literal(definition.value)}{mark}\n")
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def _cmd_skeleton(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                  diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    transformed, _, diags = _transform_prelude(model, eff, diags)
    if transformed is not None and not has_errors(diags):
        try:
            files = ([(f"{unit.class_name}.skel", unit.text)
                      for unit in generate_skeleton(transformed, eff)]
                     + [(f"{unit.class_name}.monitor", unit.monitor_text)
                        for unit in generate_monitor(transformed, eff)])
        except UntransformedInputError as failure:
            diags = diags + [Diagnostic("error", "E303", "", str(failure))]
        else:
            assert config.output is not None
            out_dir = Path(config.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in files:
                path = out_dir / name
                path.write_text(text, encoding="utf-8", newline="\n")
                stdout.write(f"wrote {path}\n")
    stderr.write(render_diagnostics(diags, config.format))
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


_COMMANDS: dict[str, Callable[..., int]] = {
    "compose": _cmd_compose,
    "validate": _cmd_validate,
    "transform": _cmd_transform,
    "explain": _cmd_explain,
    "skeleton": _cmd_skeleton,
}

_MODEL_COMMANDS = ("validate", "transform", "skeleton")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(config: RunConfig, stdout: IO[str] | None = None,
        stderr: IO[str] | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        return _run(config, stdout, stderr)
    except Exception as failure:  # the last resort: one line, not a traceback
        stderr.write(f"internal error: {type(failure).__name__}: {failure}\n")
        return EXIT_USAGE


def _run(config: RunConfig, stdout: IO[str], stderr: IO[str]) -> int:
    diags: list[Diagnostic] = []
    try:
        # compose, the preface author's command, reads the whole directory
        root = None if config.command == "compose" else config.root_package
        repo = _load_repository(config.preface_dir, diags, root)
        diags.extend(validate_preface(repo, config.root_package))
        eff = compose(repo, config.root_package)
        model = _read_model(config) if config.command in _MODEL_COMMANDS else None
        command = _COMMANDS.get(config.command)
        if command is None:
            stderr.write(f"error: unknown command '{config.command}'\n")
            return EXIT_USAGE
        return command(config, model, eff, diags, stdout, stderr)
    except ParseError as failure:
        stderr.write(f"parse error: {failure}\n")
        return EXIT_USAGE
    except (OSError, UnreadableInputError) as failure:
        stderr.write(f"error: {failure}\n")
        return EXIT_USAGE
    except CompositionError as failure:
        stderr.write(f"composition error: {failure}\n")
        return EXIT_COMPOSITION


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefacer",
        description="Compose definition packages, validate models against the "
                    "result, and generate skeleton and monitor code.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preface", required=True, metavar="DIR",
                       help="directory of .preface package files")
        p.add_argument("--root", required=True, metavar="ID",
                       help="id of the root package")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="diagnostic rendering (default: text)")

    p_compose = sub.add_parser("compose", help="print the effective definitions")
    common(p_compose)

    p_validate = sub.add_parser("validate", help="check a model")
    p_validate.add_argument("model", help="model file")
    common(p_validate)

    p_transform = sub.add_parser("transform", help="apply statechart induction")
    p_transform.add_argument("model", help="model file")
    common(p_transform)
    p_transform.add_argument("-o", "--output", metavar="FILE",
                             help="write the transformed model here instead of stdout")

    p_explain = sub.add_parser("explain", help="show a key's override chain")
    p_explain.add_argument("key", help="constant or option key")
    common(p_explain)

    p_skeleton = sub.add_parser("skeleton", help="write skeletons and monitors")
    p_skeleton.add_argument("model", help="model file")
    common(p_skeleton)
    p_skeleton.add_argument("-o", "--output", required=True, metavar="DIR",
                            help="directory for the generated files")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        preface_dir=args.preface,
        root_package=args.root,
        model_path=getattr(args, "model", None),
        key=getattr(args, "key", None),
        output=getattr(args, "output", None),
        format=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
