"""Driving the command-line front end through its in-process entry point."""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import re
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_model
from oracles import replay_view, snapshot_view
from prefacer import cli as cli_module
from prefacer.cli import (
    EXIT_COMPOSITION,
    EXIT_DIAGNOSTICS,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UnreadableInputError,
    main,
    run,
)
from prefacer.preface import resolve
from prefacer.textio import parse_package, print_model
from test_locations import _edited
from test_textio import LEX_PIECES, REPLACEMENTS, _token_edits

BAD_MODEL = "model m\n  class X specializes Ghost { }\n"
SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def cli(config: RunConfig) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(config, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def config_for(sample_dir, command: str, **overrides) -> RunConfig:
    preface_dir, root, model_path = sample_dir
    settings = dict(command=command, preface_dir=str(preface_dir),
                    root_package=root, model_path=str(model_path))
    settings.update(overrides)
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_compose_prints_the_report(sample_dir):
    code, out, err = cli(config_for(sample_dir, "compose"))
    assert code == EXIT_OK
    assert err == ""
    assert "  max = 8 (project-p, overrides uml-core: 10)" in out
    assert "packages\n  uml-core\n  client-c\n  project-p\n" in out


def test_compose_output_is_deterministic(sample_dir):
    first = cli(config_for(sample_dir, "compose"))
    second = cli(config_for(sample_dir, "compose"))
    assert first == second


def test_validate_clean_model(sample_dir):
    code, out, err = cli(config_for(sample_dir, "validate"))
    assert code == EXIT_OK
    assert out == "0 errors, 0 warnings\n"
    assert err == ""


def test_explain_marks_the_winner(sample_dir):
    code, out, err = cli(config_for(sample_dir, "explain", key="max"))
    assert code == EXIT_OK
    assert out == "max\n  uml-core: 10\n  project-p: 8 (winner)\n"


def test_explain_catalogue_default(sample_dir):
    code, out, _ = cli(config_for(sample_dir, "explain", key="framing.default"))
    assert code == EXIT_OK
    assert out == 'framing.default\n  catalogue-default: unconstrained (winner)\n'


def test_explain_unknown_key(sample_dir):
    code, out, err = cli(config_for(sample_dir, "explain", key="ghost"))
    assert code == EXIT_DIAGNOSTICS
    assert out == ""
    assert err.startswith("error:")
    assert "ghost" in err


def test_transform_prints_model_and_report(sample_dir):
    code, out, err = cli(config_for(sample_dir, "transform"))
    assert code == EXIT_OK
    assert "// induced by statechart-to-class" in out
    assert "induced attributes" in err
    assert "induced invariants" in err


def test_transform_output_flag_writes_a_file(sample_dir, tmp_path):
    target = tmp_path / "out.model"
    code, out, _ = cli(config_for(sample_dir, "transform", output=str(target)))
    assert code == EXIT_OK
    assert out == ""
    assert "// induced by statechart-to-class" in target.read_text()


def test_skeleton_writes_files(sample_dir, tmp_path):
    out_dir = tmp_path / "gen"
    code, out, err = cli(config_for(sample_dir, "skeleton", output=str(out_dir)))
    assert code == EXIT_OK
    assert err == ""
    assert sorted(p.name for p in out_dir.iterdir()) == ["C.monitor", "C.skel"]
    assert out.splitlines() == [
        f"wrote {out_dir / 'C.skel'}",
        f"wrote {out_dir / 'C.monitor'}",
    ]
    skel = (out_dir / "C.skel").read_text()
    assert skel.startswith("// framing.default = unconstrained\n")
    assert "CLASS C" in skel
    assert "ASSERT" in (out_dir / "C.monitor").read_text()


def test_warnings_do_not_fail_the_run(sample_dir, tmp_path):
    preface_dir, _, model_path = sample_dir
    (preface_dir / "warn-root.preface").write_text(
        'package "warn-root" {\n'
        '  import "project-p"\n'
        '  constraint few on Class severity warning : size(self.operations) <= 2\n'
        '}\n')
    code, out, err = cli(RunConfig(
        "validate", str(preface_dir), "warn-root", model_path=str(model_path)))
    assert code == EXIT_OK
    assert out == "0 errors, 1 warnings\n"
    assert err.startswith("warning W201 ")
    assert " C: " in err


def test_the_method_attachment_option_is_an_unknown_key(sample_dir):
    """No option attaches a chart to a method: a package that sets
    ``statechart.attach_to`` gets E103 at the option's line, and
    ``explain`` knows no such key."""

    preface_dir, _, model_path = sample_dir
    path = preface_dir / "method-root.preface"
    path.write_text('package "method-root" {\n  import "project-p"\n'
                    '  option statechart.attach_to = method\n}\n')
    e103 = f"error E103 {path}:3:3 method-root: unknown option key 'statechart.attach_to'\n"
    for command in ("compose", "validate"):
        code, _, err = cli(RunConfig(command, str(preface_dir), "method-root", str(model_path)))
        assert (code, err) == (EXIT_DIAGNOSTICS, e103), command
    code, out, _ = cli(config_for(sample_dir, "explain", key="statechart.attach_to"))
    assert (code, out) == (EXIT_DIAGNOSTICS, "")


SAMPLE_COMPOSE = """\
packages
  uml-core
  client-c
  project-p

constants
  max = 8 (project-p, overrides uml-core: 10)

options
  aggregation.semantics = weak (default)
  communication.paradigm = procedure_call (default)
  framing.default = unconstrained (default)
  inheritance.multiple = allowed (default)
  statechart.unexpected_event = error (uml-core)

rules
  persistence
    when stereotype(event) -> transient (client-c)
    when all -> persistent (uml-core)

constraints
  (none)

stereotypes
  event on Class (uml-core)

tags
  (none)

transforms
  statechart-to-class = on (uml-core)
"""

SAMPLE_TRANSFORMED = """\
model example
  class C {
    attribute s1 : Boolean // induced by statechart-to-class
    attribute s2 : Boolean // induced by statechart-to-class
    attribute s3 : Boolean // induced by statechart-to-class
    operation m1() pre: s1 // induced by statechart-to-class
    operation m2() pre: s2 // induced by statechart-to-class
    operation m3() pre: s1 or s2 // induced by statechart-to-class
    invariant exactlyOne(s1, s2, s3) // induced by statechart-to-class
  }
  statechart SC for C {
    initial state s1
    state s2
    state s3
    transition s1 -> s2 on m1
    transition s2 -> s1 on m2
    transition s1 -> s3 on m3
    transition s2 -> s3 on m3
  }
"""

SAMPLE_TRANSFORM_REPORT = """\
induced attributes
  C.s1: s1 : Boolean
  C.s2: s2 : Boolean
  C.s3: s3 : Boolean
induced invariants
  C: exactlyOne(s1, s2, s3)
induced preconditions
  C.m1: s1
  C.m2: s2
  C.m3: s1 or s2
"""

#: Text-mode runs on ``sample/``: the command, RunConfig fields besides
#: the sample's, and the exit code, stdout and stderr, where ``{out}`` is
#: the output path and ``{bad}`` a model with an unknown superclass.  A
#: clean ``validate`` and ``skeleton`` are pinned whole above.
SAMPLE_RUNS = {
    "compose": ("compose", {}, (EXIT_OK, SAMPLE_COMPOSE, "")),
    "validate-broken": ("validate", {"model_path": "{bad}"}, (
        EXIT_DIAGNOSTICS, "1 errors, 0 warnings\n",
        "error E007 {bad}:2:3 X: unknown superclass 'Ghost' of 'X'\n")),
    "transform": ("transform", {}, (EXIT_OK, SAMPLE_TRANSFORMED, SAMPLE_TRANSFORM_REPORT)),
    "transform-o": ("transform", {"output": "{out}"}, (EXIT_OK, "", SAMPLE_TRANSFORM_REPORT)),
    "explain": ("explain", {"key": "max"}, (
        EXIT_OK, "max\n  uml-core: 10\n  project-p: 8 (winner)\n", "")),
    "explain-ghost": ("explain", {"key": "ghost"}, (
        EXIT_DIAGNOSTICS, "", "error: 'ghost' is not defined by the preface\n")),
}


@pytest.mark.parametrize("case", list(SAMPLE_RUNS))
def test_every_command_on_the_sample_prints_these_bytes(tmp_path, case):
    command, overrides, expected = SAMPLE_RUNS[case]
    bad, out = tmp_path / "bad.model", tmp_path / "out"
    bad.write_text(BAD_MODEL)
    fill = lambda text: text.replace("{bad}", str(bad)).replace("{out}", str(out))
    settings = {"model_path": str(SAMPLE / "example.model"),
                **{field: fill(value) for field, value in overrides.items()}}
    config = RunConfig(command, str(SAMPLE / "defs"), "project-p", **settings)
    assert cli(config) == (expected[0], fill(expected[1]), fill(expected[2]))
    if case == "transform-o":
        assert out.read_text() == SAMPLE_TRANSFORMED


# ---------------------------------------------------------------------------
# Diagnostics and exit codes
# ---------------------------------------------------------------------------


def test_model_errors_exit_one(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text(BAD_MODEL)
    code, out, err = cli(config_for(sample_dir, "validate", model_path=str(bad)))
    assert code == EXIT_DIAGNOSTICS
    assert out == "1 errors, 0 warnings\n"
    assert err.startswith("error E007 ")
    assert "Ghost" in err


def test_transform_refuses_a_broken_model(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text(BAD_MODEL)
    code, out, err = cli(config_for(sample_dir, "transform", model_path=str(bad)))
    assert code == EXIT_DIAGNOSTICS
    assert out == ""
    assert "E007" in err


#: A model of each shape ``builtin_check`` refuses that a later layer once
#: tolerated, by the one error that refuses it.
REFUSED_SHAPES = {
    "E003": "model m\nclass C {\n}\nstatechart SC for Ghost {\n  initial state a\n}\n",
    "E011": "model m\nclass C {\n}\nstatechart SC for C {\n}\n",
    "E012": ("model m\nclass C {\n  operation go()\n}\nstatechart SC for C {\n"
             "  initial state a\n  transition b -> a on go\n}\n"),
}


@pytest.mark.parametrize("format", ["text", "json"])
@pytest.mark.parametrize("command", ["validate", "transform", "skeleton"])
@pytest.mark.parametrize("code", sorted(REFUSED_SHAPES))
def test_no_layer_after_the_structural_check_reads_a_model_it_refuses(
        sample_dir, tmp_path, code, command, format):
    bad = tmp_path / "bad.model"
    bad.write_text(REFUSED_SHAPES[code])
    out_dir = tmp_path / "out"
    overrides = {"output": str(out_dir)} if command == "skeleton" else {}
    status, out, err = cli(config_for(sample_dir, command, model_path=str(bad),
                                      format=format, **overrides))
    assert status == EXIT_DIAGNOSTICS and "internal error:" not in err
    assert out == ("1 errors, 0 warnings\n" if command == "validate" else "")
    assert not out_dir.exists()
    if format == "text":
        assert len(err.splitlines()) == 1 and err.startswith(f"error {code} {bad}:")
    else:
        assert [d["code"] for d in json.loads(err)["diagnostics"]] == [code]


@pytest.mark.parametrize("format", ["text", "json"])
def test_skeleton_of_an_untransformed_chart_names_its_class(sample_dir, tmp_path, format):
    preface_dir, _, model_path = sample_dir
    core = preface_dir / "uml-core.preface"
    core.write_text(core.read_text().replace("statechart-to-class on", "statechart-to-class off"))
    code, out, err = cli(config_for(sample_dir, "skeleton", output=str(tmp_path / "out"),
                                    format=format))
    assert code == EXIT_DIAGNOSTICS and out == "" and not (tmp_path / "out").exists()
    message = ("class 'C' has no state flags for statechart 'SC'; "
               "run the statechart-to-class transform first")
    if format == "text":  # the chart's location, then the class
        assert err == f"error E303 {model_path}:7:3 C: {message}\n"
    else:
        assert json.loads(err) == {"diagnostics": [{
            "severity": "error", "code": "E303", "file": str(model_path), "line": 7,
            "col": 3, "path": "C", "message": message, "provenance": None}]}


def test_the_readme_diagnostics_table_lists_exactly_the_codes_emitted():
    readme = (SAMPLE.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for codes in re.findall(r"^\| ([^|]*) \|", table, re.M):
        for first, last in re.findall(r"([EWI]\d{3})(?:–[EWI](\d{3}))?", codes):
            listed.update(f"{first[0]}{n:03}" for n in range(int(first[1:]),
                                                              int(last or first[1:]) + 1))
    source = "".join(path.read_text(encoding="utf-8")
                     for path in Path(cli_module.__file__).parent.glob("*.py"))
    assert listed == set(re.findall(r'"([EWI]\d{3})"', source))


def test_the_declared_console_script_is_main():
    # an install writes a ``prefacer`` script that loads this entry point
    declared = (SAMPLE.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = declared.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    [(name, target)] = re.findall(r'^(\S+) = "(.*)"$', scripts, re.M)
    assert name == "prefacer"
    assert EntryPoint(name, target, "console_scripts").load() is main


def test_duplicate_package_id_is_reported(sample_dir):
    preface_dir, _, _ = sample_dir
    original = (preface_dir / "uml-core.preface").read_text()
    (preface_dir / "zzz-copy.preface").write_text(original)
    code, _, err = cli(config_for(sample_dir, "compose"))
    assert code == EXIT_DIAGNOSTICS
    assert "E108" in err
    assert "uml-core" in err


def test_missing_preface_directory_exits_two(tmp_path):
    code, out, err = cli(RunConfig("compose", str(tmp_path / "void"), "x"))
    assert code == EXIT_USAGE
    assert "is not a directory" in err


def test_empty_preface_directory_exits_two(tmp_path):
    code, _, err = cli(RunConfig("compose", str(tmp_path), "x"))
    assert code == EXIT_USAGE
    assert "no .preface files" in err


def test_unparsable_package_exits_two(tmp_path):
    (tmp_path / "broken.preface").write_text('package "p" { const = }\n')
    code, _, err = cli(RunConfig("compose", str(tmp_path), "p"))
    assert code == EXIT_USAGE
    assert err.startswith("parse error:")


def test_missing_model_exits_two(sample_dir, tmp_path):
    code, _, err = cli(config_for(
        sample_dir, "validate", model_path=str(tmp_path / "void.model")))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_unparsable_model_exits_two(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("model\n")
    code, _, err = cli(config_for(sample_dir, "validate", model_path=str(bad)))
    assert code == EXIT_USAGE
    assert err.startswith("parse error:")


def test_non_ascii_digit_in_a_model_is_a_parse_error(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("model m\n  class C {\n    attribute n : Integer\n"
                   "    invariant n < \u00b2\n  }\n", encoding="utf-8")
    code, out, err = cli(config_for(sample_dir, "validate", model_path=str(bad)))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: {bad}:4:19: unexpected character '\u00b2'\n"


def test_non_ascii_digit_in_a_package_is_a_parse_error(tmp_path):
    package = tmp_path / "p.preface"
    package.write_text('package "p" { const max = \u0661 }\n', encoding="utf-8")
    code, out, err = cli(RunConfig("compose", str(tmp_path), "p"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: {package}:1:27: unexpected character '\u0661'\n"


def test_non_ascii_identifier_in_a_model_is_a_parse_error(sample_dir, tmp_path):
    # before identifiers were ASCII-only this model parsed and validated
    bad = tmp_path / "bad.model"
    bad.write_text("model m\n  class C {\n    operation caf\u00e9()\n  }\n"
                   "  statechart SC for C {\n    initial state s1\n    state s2\n"
                   "    transition s1 -> s2 on caf\u00e9\n  }\n", encoding="utf-8")
    code, out, err = cli(config_for(sample_dir, "validate", model_path=str(bad)))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: {bad}:3:18: unexpected character '\u00e9'\n"


def test_non_ascii_identifier_in_a_package_is_a_parse_error(tmp_path):
    package = tmp_path / "p.preface"
    package.write_text('package "p" { const x\u00b2 = 1 }\n', encoding="utf-8")
    code, out, err = cli(RunConfig("compose", str(tmp_path), "p"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: {package}:1:22: unexpected character '\u00b2'\n"


def test_a_model_that_is_not_utf8_is_one_error_line(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"model m\n  class C\xff { }\n")
    code, out, err = cli(config_for(sample_dir, "validate", model_path=str(bad)))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: {bad}: 'utf-8' codec can't decode byte 0xff in "
                   "position 17: invalid start byte\n")


def test_a_package_that_is_not_utf8_is_one_error_line(tmp_path):
    package = tmp_path / "p.preface"
    package.write_bytes(b'package "p" { const title = "caf\xe9" }\n')
    code, out, err = cli(RunConfig("compose", str(tmp_path), "p"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: {package}: 'utf-8' codec can't decode byte 0xe9 in "
                   "position 32: invalid continuation byte\n")


def test_three_hundred_parentheses_are_one_parse_error(sample_dir, tmp_path):
    bad = tmp_path / "deep.model"
    bad.write_text("model m\n  class C {\n    operation go() pre: "
                   + "(" * 300 + "true" + ")" * 300 + "\n  }\n")
    code, out, err = cli(config_for(sample_dir, "validate", model_path=str(bad)))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: {bad}:3:125: expression nested deeper than 100 levels\n"


def test_an_unexpected_exception_is_one_line(sample_dir, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "compose", broken)
    code, out, err = cli(config_for(sample_dir, "compose"))
    assert (code, out, err) == (EXIT_USAGE, "", "internal error: RuntimeError: boom\n")


def test_a_twelve_hundred_term_constraint_validates(sample_dir, capsys):
    preface_dir, root, model_path = sample_dir
    chain = " and ".join(["true"] * 1200)
    (preface_dir / "deep.preface").write_text(
        f'package "deep" {{ constraint deep on Class : {chain} }}\n')
    project = preface_dir / "project-p.preface"
    project.write_text(project.read_text().replace("{", '{\n  import "deep"', 1))
    code = main(["validate", str(model_path), "--preface", str(preface_dir),
                 "--root", root])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_OK, "0 errors, 0 warnings\n", "")


def test_comparing_operations_with_twelve_hundred_term_preconditions_validates(tmp_path, capsys):
    (tmp_path / "p.preface").write_text(
        'package "p" {\n  constraint same on Class : '
        'forall(c in self.superclasses | c.operations <> self.operations)\n}\n')
    chain = " and ".join(["true"] * 1200)
    path = tmp_path / "m.model"
    path.write_text(f"model m\n  class B {{\n    operation go() pre: {chain}\n  }}\n"
                    f"  class C specializes B {{\n    operation go() pre: {chain}\n  }}\n")
    code = main(["validate", str(path), "--preface", str(tmp_path), "--root", "p"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        EXIT_DIAGNOSTICS, "1 errors, 0 warnings\n", "error E201 C: constraint 'same' violated [p]\n")


GUARDED_MODEL = """model g
  class C {
    attribute busy : Boolean
    operation m1()
  }
  statechart SC for C {
    initial state s1
    state s2
    transition s1 -> s2 on m1 [GUARD]
  }
"""


@pytest.mark.parametrize("terms", [2, 1200])
def test_a_long_guard_warns_like_a_short_one(sample_dir, tmp_path, terms):
    guard = " and ".join(["busy"] * (terms - 1) + ["ghost"])
    path = tmp_path / "guarded.model"
    path.write_text(GUARDED_MODEL.replace("GUARD", guard))
    code, out, err = cli(config_for(sample_dir, "validate", model_path=str(path)))
    assert (code, out) == (EXIT_OK, "0 errors, 1 warnings\n")
    assert err == (f"warning W204 {path}:9:5 SC/0: guard references 'ghost', "
                   "not Boolean attributes of 'C'\n")


# ---------------------------------------------------------------------------
# Every failure class, byte for byte: each is one plain-text line on stderr,
# nothing on stdout, the same bytes under either format and for every
# command that reaches it.  An unknown command is refused before anything
# is read, as ``main`` refuses it, so it wins over every other failure.
# ---------------------------------------------------------------------------

ALL_COMMANDS = ("compose", "validate", "transform", "explain", "skeleton")
MODEL_COMMANDS = ("validate", "transform", "skeleton")


def _not_a_directory(tmp_path):
    void = tmp_path / "void"
    return {"preface_dir": str(void)}, EXIT_USAGE, f"error: '{void}' is not a directory\n"


def _no_preface_files(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    return {"preface_dir": str(empty)}, EXIT_USAGE, f"error: no .preface files in '{empty}'\n"


def _model_not_utf8(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"model m\n  class C\xff { }\n")
    return {"model_path": str(bad)}, EXIT_USAGE, (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 17: "
        "invalid start byte\n")


def _model_missing(tmp_path):
    void = tmp_path / "void.model"
    return {"model_path": str(void)}, EXIT_USAGE, (
        f"error: [Errno 2] No such file or directory: '{void}'\n")


def _model_unparsable(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("model\n")
    return {"model_path": str(bad)}, EXIT_USAGE, (
        f"parse error: {bad}:2:1: expected a model name, found end of input\n")


def _unknown_root(tmp_path):
    return {"root_package": "ghost"}, EXIT_COMPOSITION, (
        "composition error: root package 'ghost' is not in the repository\n")


def _unknown_command(tmp_path):
    return {}, EXIT_USAGE, "error: unknown command 'frobnicate'\n"


def _unknown_command_and_nothing_to_read(tmp_path):
    # each of these alone is a failure of its own above
    return ({"preface_dir": str(tmp_path / "void"), "root_package": "ghost",
             "model_path": str(tmp_path / "void.model")},
            EXIT_USAGE, "error: unknown command 'frobnicate'\n")


FAILURES = {
    "not-a-directory": (_not_a_directory, ALL_COMMANDS),
    "no-preface-files": (_no_preface_files, ALL_COMMANDS),
    "model-not-utf8": (_model_not_utf8, MODEL_COMMANDS),
    "model-missing": (_model_missing, MODEL_COMMANDS),
    "model-unparsable": (_model_unparsable, MODEL_COMMANDS),
    "unknown-root": (_unknown_root, ALL_COMMANDS),
    "unknown-command": (_unknown_command, ("frobnicate",)),
    "unknown-command-first": (_unknown_command_and_nothing_to_read, ("frobnicate",)),
}


@pytest.mark.parametrize("format", ["text", "json"])
@pytest.mark.parametrize("case", list(FAILURES))
def test_a_failure_is_one_exact_line(sample_dir, tmp_path, case, format):
    make, commands = FAILURES[case]
    overrides, code, err = make(tmp_path)
    out_dir = tmp_path / "out"
    for command in commands:
        config = config_for(sample_dir, command, key="max", output=str(out_dir),
                            format=format, **overrides)
        assert cli(config) == (code, "", err), command
    assert not out_dir.exists()


@pytest.mark.parametrize("format", ["text", "json"])
def test_an_output_file_in_a_missing_directory_is_one_error_line(sample_dir, tmp_path, format):
    target = tmp_path / "missing" / "x.model"
    result = cli(config_for(sample_dir, "transform", output=str(target), format=format))
    assert result == (EXIT_USAGE, "", f"error: [Errno 2] No such file or directory: '{target}'\n")


@pytest.mark.parametrize("format", ["text", "json"])
def test_an_output_directory_that_is_a_file_is_one_error_line(sample_dir, tmp_path, format):
    target = tmp_path / "existing"
    target.write_text("x")
    result = cli(config_for(sample_dir, "skeleton", output=str(target), format=format))
    assert result == (EXIT_USAGE, "", f"error: [Errno 17] File exists: '{target}'\n")
    assert target.read_text() == "x"


@pytest.mark.parametrize("format", ["text", "json"])
@pytest.mark.parametrize("command, missing, message", [
    ("validate", "model_path", "error: 'validate' needs a model path\n"),
    ("transform", "model_path", "error: 'transform' needs a model path\n"),
    ("skeleton", "model_path", "error: 'skeleton' needs a model path\n"),
    ("skeleton", "output", "error: 'skeleton' needs an output directory\n"),
    ("explain", "key", "error: 'explain' needs a key\n"),
])
def test_a_config_without_a_field_its_command_needs_is_one_error_line(
        tmp_path, command, missing, message, format):
    # a missing preface directory: the field is checked before anything is read
    settings = dict(model_path=str(tmp_path / "m.model"), key="max",
                    output=str(tmp_path / "out"), format=format)
    settings[missing] = None
    config = RunConfig(command, str(tmp_path / "void"), "project-p", **settings)
    assert cli(config) == (EXIT_USAGE, "", message)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Reading and writing files: the bytes Path.read_text, Path.glob and
# Path.write_text would give, through plain binary files
# ---------------------------------------------------------------------------

#: Pieces of raw input: ASCII, every line end, multibyte UTF-8, a BOM, a
#: byte UTF-8 never uses and the first bytes of a multibyte sequence.
_NON_ASCII = st.characters(min_codepoint=0x80, exclude_categories=("Cs",))
_RAW_PIECES = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6).map(str.encode),
    st.sampled_from([b"\r\n", b"\r", b"\n", b"\xef\xbb\xbf", b"\xff"]),
    _NON_ASCII.map(str.encode),
    _NON_ASCII.map(str.encode).flatmap(
        lambda code: st.integers(1, len(code) - 1).map(lambda n: code[:n])),
)


@given(st.lists(_RAW_PIECES, max_size=12).map(b"".join))
@settings(max_examples=300, deadline=None)
def test_reading_a_file_gives_what_path_read_text_gives(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "raw.txt")
    with open(path, "wb") as file:
        file.write(data)
    try:
        expected = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        with pytest.raises(UnreadableInputError) as failure:
            cli_module._read_text(path)
        assert str(failure.value) == f"{path}: {error}"
    else:
        assert cli_module._read_text(path) == expected


#: The sample model and the model texts of ``tests/parse_outcomes.json``.
MODEL_TEXTS = [(SAMPLE / "example.model").read_text(encoding="utf-8")] + [
    entry["text"] for entry in json.loads(
        (Path(__file__).parent / "parse_outcomes.json").read_text(encoding="utf-8"))
    if entry["parser"] == "model"]
#: The lexer's pieces, and the words of the model grammar.
MODEL_EDIT = st.tuples(
    st.sampled_from(("insert", "delete", "replace")), st.integers(0, 10**6),
    st.sampled_from(LEX_PIECES + (
        "state ", "initial ", "transition ", " -> ", " on ", "class ", "attribute ",
        "operation ", " pre: ", "invariant ", " specializes ", "C", "SC", "s1", "m1", "true")))


# half the draws edit the sample model itself
@given(st.one_of(st.just(MODEL_TEXTS[0]), st.sampled_from(MODEL_TEXTS)),
       st.lists(MODEL_EDIT, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_an_edited_model_ends_every_command_with_an_exit_code(tmp_path_factory, text, edits):
    """``validate``, ``transform`` and ``skeleton`` on an edited model exit
    with 0 to 3 and never write an ``internal error:`` line."""

    base = tmp_path_factory.getbasetemp()
    model = base / "edited.model"
    model.write_text(_edited(text, edits), encoding="utf-8")
    for command in ("validate", "transform", "skeleton"):
        code, _, err = cli(RunConfig(
            command=command, preface_dir=str(SAMPLE / "defs"), root_package="project-p",
            model_path=str(model), output=str(base / "edited-out") if command == "skeleton" else None))
        assert 0 <= code <= 3 and "internal error:" not in err, (command, code, err)


#: Every text made by one token edit of a ``sample/defs`` package (deleted,
#: duplicated, the end of input, or replaced with one of these), with the
#: package's file name: 12 edits of each token.
PACKAGE_EDITS = [(path.name, edited) for path in sorted((SAMPLE / "defs").glob("*.preface"))
                 for edited in _token_edits(path.read_text(encoding="utf-8"), (
                     *REPLACEMENTS, "-", "=", "}", "import", "const"))]


def test_an_edited_package_ends_compose_and_validate_with_an_exit_code(tmp_path):
    """``compose`` and ``validate``, in both formats, on a seeded sample of
    200 of the 672 ``PACKAGE_EDITS`` exit with 0 to 3 and never write an
    ``internal error:`` line."""

    preface_dir = tmp_path / "defs"
    preface_dir.mkdir()
    runs = []
    for name, edited in random.Random(32).sample(PACKAGE_EDITS, 200):
        for path in (SAMPLE / "defs").glob("*.preface"):
            text = edited if path.name == name else path.read_text(encoding="utf-8")
            (preface_dir / path.name).write_text(text, encoding="utf-8")
        for command in ("compose", "validate"):
            for format in ("text", "json"):
                code, _, err = cli(RunConfig(command, str(preface_dir), "project-p",
                                             str(SAMPLE / "example.model"), format=format))
                assert 0 <= code <= 3 and "internal error:" not in err, (name, edited, err)
                runs.append(code)
    assert set(runs) == {EXIT_OK, EXIT_DIAGNOSTICS, EXIT_USAGE, EXIT_COMPOSITION}


def test_a_write_the_system_takes_in_part_is_carried_on(tmp_path, monkeypatch):
    write = cli_module.os.write
    monkeypatch.setattr(cli_module.os, "write", lambda fd, data: write(fd, data[:7]))
    path = tmp_path / "out.txt"
    path.write_bytes(b"longer than what replaces it" * 20)
    text = "line \u00e9\u4e2d\U0001f600\n" * 20
    cli_module._write_text(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")


def _spell(tmp_path, monkeypatch, spelling: str) -> str:
    """``spelling`` of a directory, run from an empty working directory
    under ``tmp_path``; ``abs`` is an absolute path."""

    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    return str(tmp_path / "abs") if spelling == "abs" else spelling


SPELLINGS = ["out", "out/", "./out", "./o2/", "out//deep", "abs", "."]


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_a_preface_directory_lists_what_path_glob_lists(tmp_path, monkeypatch, spelling):
    directory = _spell(tmp_path, monkeypatch, spelling)
    Path(directory).mkdir(parents=True, exist_ok=True)
    for name in ("b.preface", "a.preface", ".hidden.preface", ".preface", "B.preface",
                 "c.PREFACE", "d.preface.bak", "preface", "e.pre\nface.preface"):
        (Path(directory) / name).write_text("")
    (Path(directory) / "dir.preface").mkdir()
    read = []

    def record_read(path):
        read.append(path)
        return f'package "p{len(read)}" {{ }}\n'

    monkeypatch.setattr(cli_module, "_read_text", record_read)
    cli_module._load_repository(directory, [])
    assert read == [str(path) for path in sorted(Path(directory).glob("*.preface"))]


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_skeleton_names_each_file_as_path_joins_it(sample_dir, tmp_path, monkeypatch,
                                                  spelling):
    reference = tmp_path / "reference"
    code, _, _ = cli(config_for(sample_dir, "skeleton", output=str(reference)))
    assert code == EXIT_OK
    output = _spell(tmp_path, monkeypatch, spelling)
    code, out, err = cli(config_for(sample_dir, "skeleton", output=output))
    assert (code, err) == (EXIT_OK, "")
    names = ["C.skel", "C.monitor"]
    assert out == "".join(f"wrote {Path(output) / name}\n" for name in names)
    for name in names:
        written = (Path(output) / name).read_bytes()
        assert written == (reference / name).read_bytes()
        assert b"\r" not in written


@pytest.mark.parametrize("format", ["text", "json"])
def test_a_write_that_fails_partway_keeps_the_lines_before_it(sample_dir, tmp_path, format):
    out_dir = tmp_path / "out"
    (out_dir / "C.monitor").mkdir(parents=True)
    result = cli(config_for(sample_dir, "skeleton", output=str(out_dir), format=format))
    assert result == (
        EXIT_USAGE, f"wrote {out_dir / 'C.skel'}\n",
        f"error: [Errno 21] Is a directory: '{out_dir / 'C.monitor'}'\n")
    assert (out_dir / "C.skel").read_bytes()


def test_unknown_root_exits_three(sample_dir):
    code, _, err = cli(config_for(sample_dir, "compose", root_package="ghost"))
    assert code == EXIT_COMPOSITION
    assert err.startswith("composition error:")


def test_import_cycle_exits_three(tmp_path):
    (tmp_path / "a.preface").write_text('package "a" { import "b" }\n')
    (tmp_path / "b.preface").write_text('package "b" { import "a" }\n')
    code, _, err = cli(RunConfig("compose", str(tmp_path), "a"))
    assert code == EXIT_COMPOSITION
    assert err.startswith("composition error:")
    assert "cycle" in err


def test_unknown_import_exits_three(tmp_path):
    (tmp_path / "a.preface").write_text('package "a" { import "ghost" }\n')
    code, _, err = cli(RunConfig("compose", str(tmp_path), "a"))
    assert code == EXIT_COMPOSITION
    assert "ghost" in err


# ---------------------------------------------------------------------------
# The collector: one pause per command, and nothing left for it to find
# ---------------------------------------------------------------------------


def test_a_command_over_a_hundred_packages_runs_at_most_one_collection(tmp_path):
    preface_dir, model_path = _closure_dir(tmp_path, {})
    imports = "\n".join(f'  import "p{i}"' for i in range(100))
    (preface_dir / "root.preface").write_text(f'package "root" {{\n{imports}\n}}\n')
    for i in range(100):
        consts = "\n".join(f"  const c{j} = {j}" for j in range(40))
        (preface_dir / f"p{i:03}.preface").write_text(f'package "p{i}" {{\n{consts}\n}}\n')
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = cli(RunConfig("validate", str(preface_dir), "root", str(model_path)))
    finally:
        gc.callbacks.remove(count)
    # At most the one collection deferred to the moment the collector
    # resumes; pausing per parse lets several run inside the command.
    assert (result, len(started) <= 1, gc.isenabled()) == (
        (EXIT_OK, "0 errors, 0 warnings\n", ""), True, True)


def _exits(sample_dir, tmp_path, monkeypatch):
    """Runs ending in each exit code, and in an internal error: the exit
    code, how standard error starts, and the run."""

    broken = tmp_path / "broken.model"
    broken.write_text("model m\n  class {\n")
    bad = tmp_path / "bad.model"
    bad.write_text(BAD_MODEL)
    yield EXIT_OK, "", config_for(sample_dir, "validate")
    yield EXIT_DIAGNOSTICS, "error E007", config_for(sample_dir, "validate", model_path=str(bad))
    yield EXIT_USAGE, "parse error:", config_for(sample_dir, "validate", model_path=str(broken))
    yield EXIT_COMPOSITION, "composition error:", config_for(sample_dir, "validate",
                                                             root_package="ghost")

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "check_constraints", boom)
    yield EXIT_USAGE, "internal error:", config_for(sample_dir, "validate")


@pytest.mark.parametrize("enabled", [True, False])
def test_every_exit_leaves_the_collector_as_the_caller_set_it(
        sample_dir, tmp_path, monkeypatch, enabled):
    seen, expected = [], []
    try:
        for code, stderr, config in _exits(sample_dir, tmp_path, monkeypatch):
            (gc.enable if enabled else gc.disable)()
            got, _, err = cli(config)
            seen.append((got, err.startswith(stderr), gc.isenabled()))
            expected.append((code, True, enabled))
    finally:
        gc.enable()
    assert seen == expected


def _no_cycle_projects(tmp_path):
    """``sample/``, and three seeded models read against ``sample/defs``."""

    yield str(SAMPLE / "defs"), str(SAMPLE / "example.model")
    for seed in (2, 5, 7):  # each with a chart that skeleton walks
        path = tmp_path / f"random-{seed}.model"
        path.write_text(print_model(random_model(random.Random(seed))))
        yield str(SAMPLE / "defs"), str(path)


def test_no_command_leaves_a_reference_cycle(tmp_path):
    # Then reference counting alone frees all that a command made.
    runs = [RunConfig(command, preface_dir, "project-p", model_path, "max",
                      str(tmp_path / f"{command}-{index}-{format}"), format)
            for index, (preface_dir, model_path) in enumerate(_no_cycle_projects(tmp_path))
            for command in cli_module._COMMANDS for format in ("text", "json")]
    for config in runs[:2 * len(cli_module._COMMANDS)]:  # warm up: first-use imports
        cli(config)
    gc.collect()
    found = []
    gc.disable()
    try:
        for config in runs:
            code = cli(config)[0]
            found.append((config.command, config.model_path, config.format, code,
                          gc.collect()))
    finally:
        gc.enable()
    assert [run for run in found if run[4]] == []
    assert {code for *_, code, _ in found} <= {EXIT_OK, EXIT_DIAGNOSTICS}
    assert all(code == EXIT_OK for command, *_, code, _ in found if command == "skeleton")


# ---------------------------------------------------------------------------
# Which packages a command reads: the model commands the root's closure,
# compose the whole directory
# ---------------------------------------------------------------------------

ONE_CLASS_MODEL = "model m\n  class C { }\n"


def _closure_dir(tmp_path, packages: dict[str, str]):
    """``name.preface`` files from ``packages``, and a one-class model."""

    preface_dir = tmp_path / "defs"
    preface_dir.mkdir()
    for name, text in packages.items():
        (preface_dir / f"{name}.preface").write_text(text)
    model_path = tmp_path / "m.model"
    model_path.write_text(ONE_CLASS_MODEL)
    return preface_dir, model_path


def _broken_unreached(tmp_path):
    preface_dir, model_path = _closure_dir(tmp_path, {
        "a-broken": 'package "broken" {\n  const = 1\n}\n',
        "r": 'package "r" {\n  const max = 3\n}\n'})
    broken = preface_dir / "a-broken.preface"
    parse_failure = f"parse error: {broken}:2:9: expected a constant name, found '='\n"
    return preface_dir, model_path, parse_failure


def test_an_unreached_package_that_fails_to_parse_is_not_read(tmp_path):
    preface_dir, model_path, parse_failure = _broken_unreached(tmp_path)
    code, out, err = cli(RunConfig("validate", str(preface_dir), "r", str(model_path)))
    assert (code, out, err) == (EXIT_OK, "0 errors, 0 warnings\n", "")
    code, out, err = cli(RunConfig("explain", str(preface_dir), "r", key="max"))
    assert (code, out, err) == (EXIT_OK, "max\n  r: 3 (winner)\n", "")
    # Reached, the same package stops the model commands too.
    code, out, err = cli(RunConfig("validate", str(preface_dir), "broken", str(model_path)))
    assert (code, out, err) == (EXIT_USAGE, "", parse_failure)


def test_compose_still_reads_an_unreached_package_that_fails_to_parse(tmp_path):
    preface_dir, _, parse_failure = _broken_unreached(tmp_path)
    code, out, err = cli(RunConfig("compose", str(preface_dir), "r"))
    assert (code, out, err) == (EXIT_USAGE, "", parse_failure)


def _stereotype_unreached(tmp_path):
    return _closure_dir(tmp_path, {
        "r": 'package "r" {\n  rule persistence when stereotype(ghost) = transient\n}\n',
        "u": 'package "u" {\n  stereotype ghost on Class\n}\n'})


def test_a_stereotype_only_an_unreached_package_declares_does_not_silence_w101(tmp_path):
    preface_dir, model_path = _stereotype_unreached(tmp_path)
    w101 = (f"warning W101 {preface_dir / 'r.preface'}:2:3 r: rule for 'persistence' "
            "tests stereotype 'ghost', which no package declares\n")
    code, out, err = cli(RunConfig("validate", str(preface_dir), "r", str(model_path)))
    assert (code, out, err) == (EXIT_OK, "0 errors, 1 warnings\n", w101)


def test_compose_counts_a_stereotype_an_unreached_package_declares(tmp_path):
    preface_dir, _ = _stereotype_unreached(tmp_path)
    code, _, err = cli(RunConfig("compose", str(preface_dir), "r"))
    assert (code, err) == (EXIT_OK, "")


def test_a_duplicate_package_file_is_reported_by_validate(tmp_path):
    preface_dir, model_path = _closure_dir(tmp_path, {
        "r": 'package "r" { }\n',
        "u1": 'package "u" {\n  const max = 1\n}\n',
        "u2": '// the same id again\npackage "u" {\n  const max = 2\n}\n'})
    e108 = (f"error E108 {preface_dir / 'u2.preface'}:2:1 u: package 'u' is defined "
            "by more than one file\n")

    for command in ("validate", "compose"):
        code, _, err = cli(RunConfig(command, str(preface_dir), "r", str(model_path)))
        assert (code, err) == (EXIT_DIAGNOSTICS, e108), command


def test_the_catalogue_default_id_is_reserved(tmp_path):
    preface_dir, model_path = _closure_dir(tmp_path, {
        "c": 'package "catalogue-default" {\n  option framing.default = unconstrained\n}\n',
        "r": 'package "r" {\n  import "catalogue-default"\n}\n'})
    e110 = (f"error E110 {preface_dir / 'c.preface'}:1:1 catalogue-default: "
            "package id 'catalogue-default' is reserved\n")

    code, _, err = cli(RunConfig("compose", str(preface_dir), "r"))
    assert (code, err) == (EXIT_DIAGNOSTICS, e110)
    code, out, err = cli(RunConfig("validate", str(preface_dir), "r", str(model_path)))
    assert (code, out, err) == (EXIT_DIAGNOSTICS, "1 errors, 0 warnings\n", e110)


def test_the_compose_report_writes_each_value_as_its_definition_does(tmp_path):
    (tmp_path / "c.preface").write_text(
        'package "base" {\n  const label = "x"\n  option inheritance.multiple = forbidden\n}\n')
    (tmp_path / "r.preface").write_text(
        'package "r" {\n  import "base"\n  const label = "y"\n  option foo = bar\n'
        '  option inheritance.multiple = allowed\n}\n')
    code, out, err = cli(RunConfig("compose", str(tmp_path), "r"))
    assert (code, err) == (
        EXIT_DIAGNOSTICS, f"error E103 {tmp_path / 'r.preface'}:4:3 r: unknown option key 'foo'\n")
    assert out.split("\n\nrules\n")[0] == (
        "packages\n  base\n  r\n\n"
        'constants\n  label = "y" (r, overrides base: "x")\n\n'
        "options\n"
        "  aggregation.semantics = weak (default)\n"
        "  communication.paradigm = procedure_call (default)\n"
        "  foo = bar (r)\n"
        "  framing.default = unconstrained (default)\n"
        "  inheritance.multiple = allowed (r, overrides base: forbidden)\n"
        "  statechart.unexpected_event = error (default)")


def test_a_thousand_package_chain_composes(tmp_path):
    # "p0000" imports "p0001" ... imports "p0999"; the root file sorts first.
    for i in range(1000):
        body = f' import "p{i + 1:04d}" ' if i < 999 else " "
        (tmp_path / f"p{i:04d}.preface").write_text(f'package "p{i:04d}" {{{body}}}\n')
    code, out, err = cli(RunConfig("compose", str(tmp_path), "p0000"))
    assert (code, err) == (EXIT_OK, "")
    assert out.index("  p0999\n") < out.index("  p0000\n")


#: The keys after ``diagnostics`` in each command's JSON stderr.
JSON_FIELDS = {
    "compose": [], "validate": [], "skeleton": [], "explain": ["error"],
    "transform": ["induced_attributes", "induced_invariants", "induced_operations",
                  "induced_preconditions"],
}


@pytest.mark.parametrize("outcome", ["clean", "diagnostic"])
@pytest.mark.parametrize("command", list(JSON_FIELDS))
def test_json_stderr_is_one_object_led_by_its_diagnostics(sample_dir, tmp_path, command,
                                                          outcome):
    preface_dir, _, model_path = sample_dir
    if outcome == "diagnostic":  # E007 in the model, or E108 in the preface
        model_path = tmp_path / "bad.model"
        model_path.write_text(BAD_MODEL)
        (preface_dir / "zzz-copy.preface").write_text(
            (preface_dir / "uml-core.preface").read_text())
    settings = dict(model_path=str(model_path), key="max", output=str(tmp_path / "out"))
    code, out, err = cli(config_for(sample_dir, command, format="json", **settings))
    assert (code, out) == cli(config_for(sample_dir, command, **settings))[:2]
    payload = json.loads(err)
    assert list(payload) == ["diagnostics", *JSON_FIELDS[command]]
    diagnostics = payload["diagnostics"]
    if outcome == "clean":
        assert (code, diagnostics) == (EXIT_OK, [])
        return
    assert code == EXIT_DIAGNOSTICS
    expected = {"severity": "error", "code": "E108", "path": "uml-core", "line": 1,
                "col": 1, "file": str(preface_dir / "zzz-copy.preface"),
                "message": "package 'uml-core' is defined by more than one file",
                "provenance": None}
    if command in MODEL_COMMANDS:
        assert diagnostics[0] == {
            "severity": "error", "code": "E007", "file": str(model_path), "line": 2,
            "col": 3, "path": "X", "message": "unknown superclass 'Ghost' of 'X'",
            "provenance": None}
        diagnostics = diagnostics[1:]
    assert diagnostics == [expected]


def test_transform_json_is_one_document(sample_dir):
    code, out, err = cli(config_for(sample_dir, "transform", format="json"))
    assert code == EXIT_OK
    assert "// induced by statechart-to-class" in out
    payload = json.loads(err)
    assert list(payload) == ["diagnostics", "induced_attributes", "induced_invariants",
                             "induced_operations", "induced_preconditions"]
    assert payload["diagnostics"] == []
    assert payload["induced_attributes"] == [
        {"path": f"C.s{i}", "description": f"s{i} : Boolean"} for i in (1, 2, 3)]
    assert all(set(entry) == {"path", "description"}
               for section in list(payload)[1:] for entry in payload[section])


def test_transform_json_of_a_broken_model_is_one_document(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text(BAD_MODEL)
    code, out, err = cli(config_for(
        sample_dir, "transform", model_path=str(bad), format="json"))
    assert (code, out) == (EXIT_DIAGNOSTICS, "")
    payload = json.loads(err)
    assert [entry["code"] for entry in payload["diagnostics"]] == ["E007"]
    assert payload["induced_attributes"] == payload["induced_preconditions"] == []


def test_explain_json_is_one_document(sample_dir):
    code, out, err = cli(config_for(sample_dir, "explain", key="max", format="json"))
    assert code == EXIT_OK
    assert out == "max\n  uml-core: 10\n  project-p: 8 (winner)\n"
    assert json.loads(err) == {"diagnostics": [], "error": None}


def test_explain_json_of_an_unknown_key_is_one_document(sample_dir):
    code, out, err = cli(config_for(sample_dir, "explain", key="ghost", format="json"))
    assert (code, out) == (EXIT_DIAGNOSTICS, "")
    assert json.loads(err) == {
        "diagnostics": [], "error": "'ghost' is not defined by the preface"}
    # text mode keeps its one plain line
    assert cli(config_for(sample_dir, "explain", key="ghost"))[2] == (
        "error: 'ghost' is not defined by the preface\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_json_stderr_is_written_as_an_indented_dump(value):
    assert cli_module._json(value) == json.dumps(value, indent=2)


#: One name in all seven definition kinds.  Constants and options share one
#: namespace, so the option overrides the constant; every other kind keeps
#: its own.
ONE_NAME_EVERY_KIND = """\
package "r" {
  const foo = 1
  option foo = bar
  stereotype foo on Class
  tagdef foo : int
  constraint foo on Class : true
  rule foo when all = x
  transform foo on
}
"""


def test_one_name_in_every_definition_kind(tmp_path):
    path = tmp_path / "r.preface"
    path.write_text(ONE_NAME_EVERY_KIND)
    unknown_option = f"error E103 {path}:3:3 r: unknown option key 'foo'\n"

    code, out, err = cli(RunConfig("compose", str(tmp_path), "r"))
    assert (code, err) == (EXIT_DIAGNOSTICS, unknown_option)
    assert out == (
        "packages\n  r\n\n"
        "constants\n  (none)\n\n"
        "options\n"
        "  aggregation.semantics = weak (default)\n"
        "  communication.paradigm = procedure_call (default)\n"
        "  foo = bar (r, overrides r: 1)\n"
        "  framing.default = unconstrained (default)\n"
        "  inheritance.multiple = allowed (default)\n"
        "  statechart.unexpected_event = error (default)\n\n"
        "rules\n  foo\n    when all -> x (r)\n\n"
        "constraints\n  foo on Class severity error (r)\n\n"
        "stereotypes\n  foo on Class (r)\n\n"
        "tags\n  foo : int (r)\n\n"
        "transforms\n  foo = on (r)\n")

    code, out, err = cli(RunConfig("explain", str(tmp_path), "r", key="foo"))
    assert (code, err) == (EXIT_DIAGNOSTICS, unknown_option)
    assert out == 'foo\n  r: 1\n  r: bar (winner)\n'

    flattened = [parse_package(ONE_NAME_EVERY_KIND)]
    assert snapshot_view(resolve(flattened)) == replay_view(flattened)


def test_a_six_hundred_state_chart_goes_through_every_command(sample_dir, tmp_path, capsys):
    preface_dir, root, _ = sample_dir
    names = [f"s{i}" for i in range(600)]
    lines = ["model big", "  class C { }", "  statechart SC for C {",
             "    initial state s0", *(f"    state {n}" for n in names[1:]),
             "    transition s0 -> s1 on go",
             *(f"    transition {n} -> s0 on reset" for n in names), "  }"]
    model = tmp_path / "big.model"
    model.write_text("\n".join(lines) + "\n")
    transformed = tmp_path / "transformed.model"
    common = ["--preface", str(preface_dir), "--root", root]

    assert main(["transform", str(model), "-o", str(transformed), *common]) == EXIT_OK
    assert main(["skeleton", str(model), "-o", str(tmp_path / "out"), *common]) == EXIT_OK
    assert main(["validate", str(transformed), *common]) == EXIT_OK
    capsys.readouterr()
    invariant = "exactlyOne(" + ", ".join(names) + ")"
    assert f"    invariant {invariant} // induced by" in transformed.read_text()
    assert f"  ASSERT {invariant}\n" in (tmp_path / "out" / "C.monitor").read_text()


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def test_main_runs_compose(sample_dir, capsys):
    preface_dir, root, _ = sample_dir
    code = main(["compose", "--preface", str(preface_dir), "--root", root])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "max = 8" in captured.out


def test_main_requires_a_command(capsys):
    with pytest.raises(SystemExit) as failure:
        main([])
    assert failure.value.code == 2


def test_main_rejects_unknown_format(sample_dir, capsys):
    preface_dir, root, _ = sample_dir
    with pytest.raises(SystemExit) as failure:
        main(["compose", "--preface", str(preface_dir), "--root", root,
              "--format", "xml"])
    assert failure.value.code == 2


def test_main_skeleton_requires_output(sample_dir, capsys):
    preface_dir, root, model_path = sample_dir
    with pytest.raises(SystemExit):
        main(["skeleton", str(model_path),
              "--preface", str(preface_dir), "--root", root])


def test_main_builds_one_parser_and_leaves_no_cycle(tmp_path, capsys):
    common = ["--preface", str(SAMPLE / "defs"), "--root", "project-p"]
    model = str(SAMPLE / "example.model")
    argvs = [[command, *operand, *common, *output, "--format", format]
             for format in ("text", "json")
             for command, operand, output in (
                 ("compose", [], []), ("validate", [model], []), ("explain", ["max"], []),
                 ("transform", [model], ["-o", str(tmp_path / f"t-{format}.model")]),
                 ("skeleton", [model], ["-o", str(tmp_path / f"out-{format}")]))]
    for argv in argvs:  # warm up: the parser and first-use imports
        main(argv)
    gc.collect()
    found = []
    gc.disable()
    try:
        for argv in argvs:
            found.append((argv[0], argv[-1], main(argv), gc.collect()))
    finally:
        gc.enable()
    capsys.readouterr()
    assert [run for run in found if run[2:] != (EXIT_OK, 0)] == []
    assert cli_module._arg_parser() is cli_module._arg_parser()


def _hand_written_parser() -> argparse.ArgumentParser:
    """The parser as it was written before the command table built it:
    the reference for every ``--help`` byte."""

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

    common(sub.add_parser("compose", help="print the effective definitions"))
    for name, help in [("validate", "check a model"),
                       ("transform", "apply statechart induction"),
                       ("explain", "show a key's override chain"),
                       ("skeleton", "write skeletons and monitors")]:
        p = sub.add_parser(name, help=help)
        if name == "explain":
            p.add_argument("key", help="constant or option key")
        else:
            p.add_argument("model", help="model file")
        common(p)
        if name == "transform":
            p.add_argument("-o", "--output", metavar="FILE",
                           help="write the transformed model here instead of stdout")
        if name == "skeleton":
            p.add_argument("-o", "--output", required=True, metavar="DIR",
                           help="directory for the generated files")
    return parser


@pytest.mark.parametrize("argv", [[], *([name] for name in cli_module._COMMANDS)],
                         ids=lambda argv: argv[0] if argv else "prefacer")
def test_help_is_the_hand_written_parsers(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for parse in (main, _hand_written_parser().parse_args):
        with pytest.raises(SystemExit) as leave:
            parse([*argv, "--help"])
        assert leave.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    assert helps[0].out.startswith(f"usage: prefacer {' '.join(argv)}".rstrip())
