"""The golden corpus: what every command prints and writes on fixed inputs.

``tests/golden/<project>.<format>.txt`` holds, for one input project and
one ``--format``, each run's command line, exit code, standard output,
standard error and the files it wrote, in run order.  The projects are:

* ``sample``: ``sample/defs`` with ``sample/example.model``;
* four small models read against ``sample/defs``, each showing something
  the preface does not check yet: a chart whose guards the skeleton
  ignores (``guards``), an undeclared stereotype (``ghost``), a
  postcondition that names nothing (``post``) and a precondition, an
  invariant and a guard that no check types (``unchecked``);
* two more read against ``sample/defs``, which reach diagnostic codes: every
  structural code that text can reach (``structure``), and the induction
  codes E302, W301 and I301 (``induction``);
* ``hygiene``: a preface of its own whose ``compose`` reaches the package
  codes and whose ``validate`` reaches the constraint codes;
* ``generated-<seed>``: a package repository and a model that
  ``tests/generators`` draws from the seed.

Every project runs ``validate``, ``transform`` to standard output and with
``-o``, ``validate`` and ``transform`` of the file ``-o`` wrote (the round
trip), and ``skeleton -o``; a project with a preface of its own also runs
``compose`` and ``explain`` of four keys.  The runs go through
``prefacer.cli.run`` in a scratch directory with relative paths, so the
corpus is the same on every machine.

``python3 scripts/golden.py --write`` regenerates the files;
``tests/test_golden.py`` compares them with a fresh run.
"""

from __future__ import annotations

import io
import os
import random
from pathlib import Path

from generators import random_model, random_repo
from prefacer.cli import RunConfig, run
from prefacer.textio import print_model, print_package

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json")
SEEDS = (3, 11)

MODEL, DEFS = "model.model", "defs"
TRANSFORMED, SKELETONS = "transformed.model", "skeleton"
EXPLAINED = ("max", "inheritance.multiple", "framing.default", "ghost")

#: Models read against ``sample/defs``.
REPRODUCTIONS = {
    "guards": """\
model guards
  class C {
    attribute busy : Boolean
    operation go()
  }
  statechart SC for C {
    initial state a
    state b
    state c
    transition a -> b on go [busy]
    transition a -> c on go [not busy]
    transition b -> c on go
  }
""",
    "ghost": """\
model ghost
  class C <<ghost>> {
    attribute n : Integer
  }
""",
    "post": """\
model post
  class D {
    attribute open : Boolean
    operation close() pre: open post: not open and ghost
  }
  statechart Door for D {
    initial state shut
    state ajar
    transition shut -> ajar on close
  }
""",
    "unchecked": """\
model unchecked
  class E {
    attribute n : Integer
    operation go() pre: ghost and n
    invariant n + "x"
  }
  statechart Run for E {
    initial state idle
    state busy
    transition idle -> busy on go [n]
  }
""",
    # E001-E013, E016 and E017, each at least once
    "structure": """\
model structure
  class A specializes Z { attribute a : Integer attribute a : Real attribute self : Boolean }
  class A specializes A { operation f(p : Integer, p : Real) operation f() attribute g : Integer operation g() }
  statechart S for A { state s state s transition s -> t on f }
  statechart S for Q { initial state x initial state y }
""",
    # E302 for go, I301 for tick, W301 for stop
    "induction": """\
model induction
  class C {
    attribute go : Integer
    operation stop()
  }
  statechart A for C {
    initial state a1
    state a2
    transition a1 -> a2 on go
    transition a2 -> a1 on stop
    transition a1 -> a1 on tick
  }
  statechart B for C {
    initial state b1
    state b2
    transition b1 -> b2 on stop
  }
""",
}

#: A preface of its own, with its root and model.  The root reaches
#: ``base`` only: the other packages' errors show under ``compose`` alone,
#: except E108, which every command reads.
HYGIENE = ({
    "project-q.preface": """\
package "project-q" {
  import "base"
  option inheritance.multiple = forbidden
  stereotype event on Operation
  rule persistence when stereotype(ghost) = transient
  constraint named on Class severity error : self.name <> "Bad"
  constraint small on Class severity warning : size(self.attributes) < 2
  constraint typed on Class severity error : self.name <> "A" or self.name < 3
}
""",
    "base.preface": """\
package "base" {
  stereotype event on Class
  rule persistence when all = persistent
  transform statechart-to-class off
}
""",
    "loose.preface": """\
package "loose" {
  import "missing"
  import "loop"
  option no.such = x
  option inheritance.multiple = sometimes
  stereotype s on Class
  stereotype s on Class
  tagdef t : string
  tagdef t : int
}
""",
    "loop.preface": 'package "loop" {\n  import "loose"\n}\n',
    "reserved.preface": 'package "catalogue-default" {\n}\n',
    "twice-1.preface": 'package "twice" {\n}\n',
    "twice-2.preface": 'package "twice" {\n}\n',
}, "project-q", """\
model hygiene
  class A {
    attribute x : Integer
    attribute y : Integer
  }
  class B {
    operation go()
  }
  class Bad specializes A, B { }
  statechart S for B {
    initial state s
    state t
    transition s -> t on go [x]
    transition t -> s on halt
  }
""")


def projects() -> dict[str, tuple[dict[str, str], str, str, bool]]:
    """Each project: its package files (name to text), its root package,
    its model text, and whether its preface is its own."""

    defs = {path.name: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "sample" / "defs").glob("*.preface"))}
    sample = (ROOT / "sample" / "example.model").read_text(encoding="utf-8")
    found = {"sample": (defs, "project-p", sample, True)}
    found.update((name, (defs, "project-p", text, False))
                 for name, text in REPRODUCTIONS.items())
    found["hygiene"] = (*HYGIENE, True)
    for seed in SEEDS:
        rng = random.Random(seed)
        repo, root = random_repo(rng, max_packages=3, max_defs=6)
        model = random_model(rng, max_classes=3, max_states=4)
        files = {f"{pkg_id}.preface": print_package(pkg) for pkg_id, pkg in repo.items()}
        found[f"generated-{seed}"] = files, root, print_model(model), True
    return found


def _runs(root: str, whole: bool, format: str) -> list[RunConfig]:
    def config(command: str, **fields) -> RunConfig:
        return RunConfig(command, DEFS, root, format=format, **fields)

    runs = [config("compose")] if whole else []
    runs += [config("validate", model_path=MODEL),
             config("transform", model_path=MODEL),
             config("transform", model_path=MODEL, output=TRANSFORMED),
             config("validate", model_path=TRANSFORMED),
             config("transform", model_path=TRANSFORMED),
             config("skeleton", model_path=MODEL, output=SKELETONS)]
    if whole:
        runs += [config("explain", key=key) for key in EXPLAINED]
    return runs


def _command_line(config: RunConfig) -> str:
    words = [config.command, config.model_path or config.key or ""]
    if config.output:
        words += ["-o", config.output]
    words += ["--preface", config.preface_dir, "--root", config.root_package,
              "--format", config.format]
    return "prefacer " + " ".join(word for word in words if word)


def _block(title: str, text: str) -> list[str]:
    """A titled section; each line of ``text`` indented by two spaces (an
    empty one left empty), and a last line without its line end marked as
    ``diff`` marks it."""

    lines = [title]
    lines += [f"  {line}" if line else "" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append("\\ no newline at end")
    return lines


def _written(output: str | None) -> list[tuple[str, str]]:
    """The files at ``output``: the file itself, or a directory's files."""

    if output is None or not os.path.exists(output):
        return []
    if os.path.isfile(output):
        paths = [output]
    else:
        paths = [os.path.join(output, name) for name in sorted(os.listdir(output))]
    return [(path, Path(path).read_text(encoding="utf-8")) for path in paths]


def render(project: str, format: str, scratch: Path) -> str:
    """The corpus file of ``project`` under ``format``, from runs made in
    a fresh directory under ``scratch``."""

    files, root, model, whole = projects()[project]
    where = scratch / f"{project}.{format}"
    (where / DEFS).mkdir(parents=True)
    for name, text in files.items():
        (where / DEFS / name).write_text(text, encoding="utf-8")
    (where / MODEL).write_text(model, encoding="utf-8")
    lines: list[str] = []
    before = os.getcwd()
    os.chdir(where)
    try:
        for config in _runs(root, whole, format):
            out, err = io.StringIO(), io.StringIO()
            code = run(config, stdout=out, stderr=err)
            lines += [f"$ {_command_line(config)}", f"exit {code}"]
            lines += _block("stdout", out.getvalue()) + _block("stderr", err.getvalue())
            for path, text in _written(config.output):
                lines += _block(f"file {path}", text)
            lines.append("")
    finally:
        os.chdir(before)
    return "\n".join(lines)


def render_all(scratch: Path) -> dict[str, str]:
    """Every corpus file's name and text, from fresh runs under ``scratch``."""

    return {f"{project}.{format}.txt": render(project, format, scratch)
            for project in projects() for format in FORMATS}
