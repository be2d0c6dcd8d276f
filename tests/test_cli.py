"""Driving the command-line front end through its in-process entry point."""

from __future__ import annotations

import gc
import io
import json
from pathlib import Path

import pytest

from oracles import replay_view, snapshot_view
from prefacer import cli as cli_module
from prefacer.cli import (
    EXIT_COMPOSITION,
    EXIT_DIAGNOSTICS,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    run,
)
from prefacer.preface import resolve
from prefacer.textio import parse_package

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
    code, out, _ = cli(config_for(sample_dir, "explain", key="statechart.attach_to"))
    assert code == EXIT_OK
    assert out == 'statechart.attach_to\n  catalogue-default: "class" (winner)\n'


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
    (preface_dir / "method-root.preface").write_text(
        'package "method-root" {\n'
        '  import "project-p"\n'
        '  option statechart.attach_to = method\n'
        '}\n')
    code, out, err = cli(RunConfig(
        "validate", str(preface_dir), "method-root", model_path=str(model_path)))
    assert code == EXIT_OK
    assert out == "0 errors, 1 warnings\n"
    assert err.startswith("warning W205 ")
    assert " SC: " in err


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
# command that reaches it.  An unknown command is only found after the
# load and the composition, so those failures win over it.
# ---------------------------------------------------------------------------

ALL_COMMANDS = ("compose", "validate", "transform", "explain", "skeleton", "frobnicate")
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


FAILURES = {
    "not-a-directory": (_not_a_directory, ALL_COMMANDS),
    "no-preface-files": (_no_preface_files, ALL_COMMANDS),
    "model-not-utf8": (_model_not_utf8, MODEL_COMMANDS),
    "model-missing": (_model_missing, MODEL_COMMANDS),
    "model-unparsable": (_model_unparsable, MODEL_COMMANDS),
    "unknown-root": (_unknown_root, ALL_COMMANDS),
    "unknown-command": (_unknown_command, ("frobnicate",)),
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


def test_reading_a_preface_directory_pauses_the_collector_once(tmp_path):
    for i in range(100):
        consts = "\n".join(f"  const c{j} = {j}" for j in range(40))
        (tmp_path / f"p{i:03}.preface").write_text(f'package "p{i}" {{\n{consts}\n}}\n')
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        repo = cli_module._load_repository(str(tmp_path), [])
    finally:
        gc.callbacks.remove(count)
    # At most the one collection deferred to the moment the collector
    # resumes; pausing per file lets about ten run between the files.
    assert (len(repo), len(started) <= 1, gc.isenabled()) == (100, True, True)


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
        "  statechart.attach_to = class (default)\n"
        "  statechart.unexpected_event = error (default)")


def test_a_thousand_package_chain_composes(tmp_path):
    # "p0000" imports "p0001" ... imports "p0999"; the root file sorts first.
    for i in range(1000):
        body = f' import "p{i + 1:04d}" ' if i < 999 else " "
        (tmp_path / f"p{i:04d}.preface").write_text(f'package "p{i:04d}" {{{body}}}\n')
    code, out, err = cli(RunConfig("compose", str(tmp_path), "p0000"))
    assert (code, err) == (EXIT_OK, "")
    assert out.index("  p0999\n") < out.index("  p0000\n")


def test_json_diagnostics_are_valid_json(sample_dir, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text(BAD_MODEL)
    code, _, err = cli(config_for(
        sample_dir, "validate", model_path=str(bad), format="json"))
    assert code == EXIT_DIAGNOSTICS
    payload = json.loads(err)
    (entry,) = payload
    assert entry["severity"] == "error"
    assert entry["code"] == "E007"
    assert entry["path"] == "X"
    assert entry["file"] == str(bad)
    assert isinstance(entry["line"], int)
    assert entry["provenance"] is None


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


@pytest.mark.parametrize("command", ["compose", "skeleton"])
def test_json_stderr_of_compose_and_skeleton_is_one_document(command, tmp_path):
    config = RunConfig(command, str(SAMPLE / "defs"), "project-p",
                       model_path=str(SAMPLE / "example.model"),
                       output=str(tmp_path / "out"), format="json")
    code, out, err = cli(config)
    assert code == EXIT_OK
    assert out
    assert json.loads(err) == []


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
        "  statechart.attach_to = class (default)\n"
        "  statechart.unexpected_event = error (default)\n\n"
        "rules\n  foo\n    when all -> x (r)\n\n"
        "constraints\n  foo on Class severity error (r)\n\n"
        "stereotypes\n  foo on Class (r)\n\n"
        "tags\n  foo : int (r)\n\n"
        "transforms\n  foo = on (r)\n")

    code, out, err = cli(RunConfig("explain", str(tmp_path), "r", key="foo"))
    assert (code, err) == (EXIT_DIAGNOSTICS, unknown_option)
    assert out == 'foo\n  r: 1\n  r: "bar" (winner)\n'

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
