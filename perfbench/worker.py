"""Runs one benchmark run's operations in a fresh interpreter.

Usage: python3 -I worker.py SRC_DIR MANIFEST RESULTS

The manifest lists projects; each gets four operations in order:
``validate``, ``transform -o``, ``validate`` of the transformed file
(``revalidate``) and ``skeleton -o``.  Every operation is one
``prefacer.cli.main(argv)`` call, timed on the process's user CPU time,
with the speed probe run after each project.  Traced, the library functions
``prefacer.cli`` calls are first wrapped, in its namespace, in spans; the
spans are kept in memory and written with the results.

This process imports nothing but ``prefacer`` and the standard library,
starts no thread and no process, and writes only where the manifest says.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

#: The four operations of a project, in order; the same as ``gen.OPERATIONS``.
OPERATIONS = ("validate", "transform", "revalidate", "skeleton")


def clock() -> float:
    """User CPU time of this process, in seconds (microsecond resolution).

    Kernel time is left out: creating the same few hundred small files
    costs anywhere from 0.18 to 0.35 s of system time on the virtual disk
    the benchmark was tuned on, which would drown the program's own work.
    """

    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


@dataclasses.dataclass(frozen=True)
class _Node:
    left: object
    right: object
    text: str


def probe() -> float:
    """User CPU time of a fixed piece of work, about 80 ms, shaped like
    the program's own: allocate 30,000 frozen-dataclass nodes, half of
    them linked to random earlier ones, index them in a dict and join
    their texts.  The allocations drive the cyclic collector, and the
    random links and the dict reach across a few megabytes of heap.

    The host this benchmark was tuned on runs the same work up to twice as
    fast for seconds to minutes at a time.  The probe, run between
    projects, measures that speed, so that operation times can be scaled
    to a reference speed (see README.md).  In the fastest spells it speeds
    up somewhat more than the program does.  It shares no code with the
    program, so a change to the program cannot move it.
    """

    start = clock()
    rng = random.Random(1)
    nodes = [_Node(None, None, f"n{i}") for i in range(15000)]
    for _ in range(15000):
        nodes.append(_Node(nodes[rng.randrange(len(nodes))],
                           nodes[rng.randrange(len(nodes))], "x"))
    texts = {id(node): node.text for node in reversed(nodes)}
    "".join(texts.values())
    return clock() - start


def argv_of(kind: str, project: dict) -> list[str]:
    preface, model = project["inputs"][kind]
    common = ["--preface", preface, "--root", project["root"]]
    if kind == "validate":
        return ["validate", model, *common]
    if kind == "transform":
        return ["transform", model, *common, "-o", project["out_model"]]
    if kind == "revalidate":
        return ["validate", project["out_model"], *common]
    return ["skeleton", model, *common, "-o", project["out_dir"]]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


#: The span around the counting the tracer does itself.  It is no layer:
#: the per-layer metrics skip it, and its time is taken off the operation
#: and off the self time of the span it sits in.
COUNTING = "trace.counting"


class Tracer:
    """Spans in memory: [name, start, end, parent index, operation index].

    ``counts`` holds the current operation's per-layer counts and sizes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_kb(self, name: str, text: str) -> None:
        self.add(name, len(text.encode("utf-8")) / 1024)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.open[-1] if tracer.open else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, clock(), 0.0, parent, tracer.op])
        tracer.open.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = clock()
        self.tracer.open.pop()
        return False


def _spanned(tracer: Tracer, name: str, function, note):
    """``function`` inside a span; then ``note(args, result)`` counts what
    the layer read and produced, inside a ``COUNTING`` span."""

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        with tracer.span(COUNTING):
            note(args, result)
        return result

    return wrapper


def _cli_layers(tracer: Tracer) -> dict:
    """The library functions ``prefacer.cli`` calls, by the name it binds
    them to, with the span's layer and what to count of each call."""

    def nothing(args, result):
        pass

    def package_text(args, result):
        tracer.add_kb("textio.parse_package_kb", args[0])

    def model_text(args, result):
        tracer.add_kb("textio.parse_model_kb", args[0])
        tracer.add("model.classes", len(result.classes))

    def printed_text(args, result):
        tracer.add_kb("textio.print_model_kb", result)

    def transformed(args, result):
        elements, nodes = _induced(result[0])
        tracer.add("transformer.induced_elements", elements)
        tracer.add("transformer.induced_expr_nodes", nodes)

    def skeletons(args, result):
        for unit in result:
            tracer.add_kb("skeletongen.generated_kb", unit.text)

    def monitors(args, result):
        for unit in result:
            tracer.add_kb("skeletongen.generated_kb", unit.monitor_text)

    return {
        "parse_package": ("textio.parse_package", package_text),
        "parse_model": ("textio.parse_model", model_text),
        "print_model": ("textio.print_model", printed_text),
        "validate_preface": ("preface.validate_preface", nothing),
        "compose": ("preface.compose", nothing),
        "builtin_check": ("model.builtin_check", nothing),
        "check_constraints": ("constraints.check_constraints", nothing),
        "apply_transforms": ("transformer.apply_transforms", transformed),
        "generate_skeleton": ("skeletongen.generate_skeleton", skeletons),
        "generate_monitor": ("skeletongen.generate_monitor", monitors),
    }


def install_tracing(tracer: Tracer) -> None:
    """Wrap the library functions ``prefacer.cli`` calls in spans, in its
    own namespace, so that ``prefacer.cli.main`` runs unchanged but traced.
    Two more wrappers count work without a span: the packages and
    definitions ``compose`` hands to ``resolve``, and the constraint x
    element pairs ``check_constraints`` draws from ``iter_scope``."""

    import prefacer.cli
    import prefacer.constraints
    import prefacer.preface

    for attr, (name, note) in _cli_layers(tracer).items():
        setattr(prefacer.cli, attr, _spanned(tracer, name, getattr(prefacer.cli, attr), note))

    resolve = prefacer.preface.resolve

    def counted_resolve(flattened):
        tracer.add("preface.packages_flattened", len(flattened))
        tracer.add("preface.definitions_replayed",
                   sum(len(pkg.definitions) for pkg in flattened))
        return resolve(flattened)

    iter_scope = prefacer.constraints.iter_scope

    def counted_iter_scope(model, metaclass):
        for pair in iter_scope(model, metaclass):
            tracer.add("constraints.evaluations", 1)
            yield pair

    prefacer.preface.resolve = counted_resolve
    prefacer.constraints.iter_scope = counted_iter_scope


def _count_nodes(expr) -> int:
    """Nodes of an expression tree, walked through dataclass fields."""

    count, stack = 0, [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node)
                         if f.name != "loc")
    return count


def _induced(model) -> tuple[int, int]:
    """(induced elements, nodes of induced expressions) of a model."""

    elements = nodes = 0
    for cls in model.classes:
        for attr in cls.attributes:
            elements += attr.origin.kind == "induced"
        for op in cls.operations:
            elements += op.origin.kind == "induced"
            if op.pre_induced is not None:
                elements += 1
                nodes += _count_nodes(op.pre_induced[0])
        for inv in cls.invariants:
            if inv.origin.kind == "induced":
                elements += 1
                nodes += _count_nodes(inv.expr)
    return elements, nodes


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def main(src_dir: str, manifest_path: str, results_path: str) -> None:
    started = time.monotonic()
    sys.path.insert(0, src_dir)
    import prefacer
    import prefacer.cli

    if not Path(prefacer.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise SystemExit(f"prefacer imported from {prefacer.__file__}, not {src_dir}")

    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    tracer = Tracer() if manifest["trace"] else None
    if tracer is not None:
        install_tracing(tracer)
    ops = []
    gc.collect()
    speed_before = probe()
    for project in manifest["projects"]:
        # A run whose operations outlast the budget stops between projects;
        # the parent counts the operations it never ran as failed.
        if time.monotonic() - started > manifest["budget_s"]:
            break
        done = []
        for kind in OPERATIONS:
            stdout, stderr = io.StringIO(), io.StringIO()
            first = 0
            if tracer is not None:
                tracer.op, first = len(ops) + len(done), len(tracer.spans)
            # Every operation starts from the same collector state, so the
            # full collections it triggers depend on its own work only.
            gc.collect()
            start = clock()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    if tracer is None:
                        code = prefacer.cli.main(argv_of(kind, project))
                    else:
                        with tracer.span("cli.operation"):
                            code = prefacer.cli.main(argv_of(kind, project))
            except SystemExit as leave:
                code = leave.code if isinstance(leave.code, int) else 2
            except Exception:  # a crash is a failed operation, not a failed run
                code = "crash"
                stderr.write(traceback.format_exc())
            elapsed = clock() - start
            counts = {}
            if tracer is not None:
                elapsed -= sum(end - begin for name, begin, end, _, _ in tracer.spans[first:]
                               if name == COUNTING)
                counts, tracer.counts = tracer.counts, {}
            keep = kind in ("validate", "revalidate") or code != 0
            done.append({
                "project": project["index"],
                "kind": kind,
                "exit": code,
                "seconds": elapsed,
                "stderr": stderr.getvalue() if keep else "",
                "counts": counts,
            })
        gc.collect()
        speed_after = probe()
        for op in done:
            op["probe_s"] = (speed_before + speed_after) / 2
        ops += done
        speed_before = speed_after
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"ops": ops, "peak_rss_mb": peak_kb / 1024,
                   "spans": tracer.spans if tracer is not None else []}, handle)


if __name__ == "__main__":
    main(*sys.argv[1:4])
