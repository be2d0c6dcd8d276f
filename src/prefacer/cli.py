"""Command-line front end.

Five commands share one pipeline (load preface directory, compose, then
act): ``compose`` prints the effective-definitions report, ``validate``
checks a model, ``transform`` applies statechart induction and prints the
transformed model, ``explain`` shows a key's override chain, ``skeleton``
writes skeleton and monitor files.

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
usage failure (an input file that cannot be read or is not UTF-8 is one
``error: <path>: ...`` line), 3 composition failure (import cycle, unknown
import or root).  Diagnostics go to standard error, payload and summaries
to standard output, and identical inputs produce identical output bytes.
No run ends in a traceback: any other exception (an evaluation too deep
for the interpreter, say) is reported as one ``internal error: <type>:
<message>`` line on standard error, with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
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


@dataclass
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


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


class UnreadableInputError(Exception):
    """An input file whose bytes are not UTF-8 text."""


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as failure:
        raise UnreadableInputError(f"{path}: {failure}") from None


@collector_paused()  # once for the whole directory, not once per file
def _load_repository(preface_dir: str, stderr: IO[str], diags: list[Diagnostic],
                     root_id: str | None = None) -> PackageRepository | None:
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
        stderr.write(f"error: '{preface_dir}' is not a directory\n")
        return None
    files = sorted(directory.glob("*.preface"))
    if not files:
        stderr.write(f"error: no .preface files in '{preface_dir}'\n")
        return None
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


def _summary(diags: list[Diagnostic]) -> str:
    return f"{error_count(diags)} errors, {warning_count(diags)} warnings\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_compose(config: RunConfig, eff: EffectiveDefinitions,
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
    stdout.write(_summary(diags))
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


def _render_transform(diags: list[Diagnostic], report: TransformReport | None,
                      format: str) -> str:
    """The diagnostics, then the report of what was induced (``None`` when
    nothing was transformed); under ``json`` one object holding both."""

    if format == "json":
        payload: dict[str, list] = {"diagnostics": _diagnostics_payload(diags)}
        for title, entries in transform_report_sections(report or TransformReport()):
            payload[title.replace(" ", "_")] = [
                {"path": path, "description": description} for path, description in entries]
        return json.dumps(payload, indent=2) + "\n"
    text = render_diagnostics(diags)
    return text + print_transform_report(report) if report is not None else text


def _cmd_transform(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                   diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    transformed, report, diags = _transform_prelude(model, eff, diags)
    stderr.write(_render_transform(diags, report, config.format))
    if transformed is None:
        return EXIT_DIAGNOSTICS
    text = print_model(transformed)
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8", newline="\n")
    else:
        stdout.write(text)
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def _render_explain(diags: list[Diagnostic], error: str | None, format: str) -> str:
    """The diagnostics, then the error when the key is not defined (``None``
    when it is); under ``json`` one object holding both."""

    if format == "json":
        payload = {"diagnostics": _diagnostics_payload(diags), "error": error}
        return json.dumps(payload, indent=2) + "\n"
    text = render_diagnostics(diags)
    return text + f"error: {error}\n" if error is not None else text


def _cmd_explain(config: RunConfig, eff: EffectiveDefinitions,
                 diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    assert config.key is not None
    try:
        chain = explain(eff, config.key)
    except NotDefinedError as failure:
        stderr.write(_render_explain(diags, str(failure), config.format))
        return EXIT_DIAGNOSTICS
    stderr.write(_render_explain(diags, None, config.format))
    stdout.write(f"{config.key}\n")
    for index, entry in enumerate(chain.entries):
        mark = " (winner)" if index == len(chain.entries) - 1 else ""
        stdout.write(f"  {entry.package_id}: {entry.render()}{mark}\n")
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def _cmd_skeleton(config: RunConfig, model: Model, eff: EffectiveDefinitions,
                  diags: list[Diagnostic], stdout: IO[str], stderr: IO[str]) -> int:
    transformed, _, diags = _transform_prelude(model, eff, diags)
    if transformed is None or has_errors(diags):
        stderr.write(render_diagnostics(diags, config.format))
        return EXIT_DIAGNOSTICS
    try:
        skeletons = generate_skeleton(transformed, eff)
        monitors = generate_monitor(transformed, eff)
    except UntransformedInputError as failure:
        diags = diags + [Diagnostic("error", "E303", "", str(failure))]
        stderr.write(render_diagnostics(diags, config.format))
        return EXIT_DIAGNOSTICS
    assert config.output is not None
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for unit in skeletons:
        path = out_dir / f"{unit.class_name}.skel"
        path.write_text(unit.text, encoding="utf-8", newline="\n")
        stdout.write(f"wrote {path}\n")
    for unit in monitors:
        path = out_dir / f"{unit.class_name}.monitor"
        path.write_text(unit.monitor_text, encoding="utf-8", newline="\n")
        stdout.write(f"wrote {path}\n")
    stderr.write(render_diagnostics(diags, config.format))
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


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
        repo = _load_repository(config.preface_dir, stderr, diags, root)
    except ParseError as failure:
        stderr.write(f"parse error: {failure}\n")
        return EXIT_USAGE
    except (OSError, UnreadableInputError) as failure:
        stderr.write(f"error: {failure}\n")
        return EXIT_USAGE
    if repo is None:
        return EXIT_USAGE

    diags.extend(validate_preface(repo, config.root_package))
    try:
        eff = compose(repo, config.root_package)
    except CompositionError as failure:
        stderr.write(f"composition error: {failure}\n")
        return EXIT_COMPOSITION

    model: Model | None = None
    if config.command in ("validate", "transform", "skeleton"):
        try:
            model = _read_model(config)
        except ParseError as failure:
            stderr.write(f"parse error: {failure}\n")
            return EXIT_USAGE
        except (OSError, UnreadableInputError) as failure:
            stderr.write(f"error: {failure}\n")
            return EXIT_USAGE

    if config.command == "compose":
        return _cmd_compose(config, eff, diags, stdout, stderr)
    if config.command == "validate":
        assert model is not None
        return _cmd_validate(config, model, eff, diags, stdout, stderr)
    if config.command == "transform":
        assert model is not None
        return _cmd_transform(config, model, eff, diags, stdout, stderr)
    if config.command == "explain":
        return _cmd_explain(config, eff, diags, stdout, stderr)
    if config.command == "skeleton":
        assert model is not None
        return _cmd_skeleton(config, model, eff, diags, stdout, stderr)
    stderr.write(f"error: unknown command '{config.command}'\n")
    return EXIT_USAGE


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
