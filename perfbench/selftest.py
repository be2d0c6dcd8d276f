"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs every workload, untraced and traced, on a few tiny projects and
requires every operation to pass its checks, no two operations to read
the same input path or text, and the traced counts to agree with the
generator's own.  Then corrupts outputs one
way at a time and requires the matching check to fail:

* a diagnostic dropped from ``validate``'s output,
* a wrong state flag in an induced precondition,
* a state flag no longer marked induced,
* an exactly-one invariant weakened to "at least one",
* a ``SEQUENCE`` line dropped from a monitor.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import sys

import run

gen = run.gen

TINY = {
    "HIERARCHY_CLASSES": 24,
    "STATECHART_SIZES": (30, 12, 5, 3),
    "PREFACE_PROFILES": 6,
    "PREFACE_DEFINITIONS": 16,
    "PREFACE_MODEL_CLASSES": 12,
    "PREFACE_ROOTS": 3,
}


def _edit(path: str, change) -> None:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    changed = change(text)
    if changed == text:
        raise AssertionError(f"corruption left {path} unchanged")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(changed)


def _drop_diagnostic(results: dict, projects) -> bool:
    for op in results["ops"]:
        if op["kind"] == "validate" and projects[op["project"]].expected_validate:
            lines = op["stderr"].splitlines(keepends=True)
            op["stderr"] = "".join(lines[1:])
            return True
    return False


def _wrong_precondition(paths: list[dict], projects) -> bool:
    for project, path in zip(projects, paths):
        for chart in project.spec.charts:
            if len(chart.states) < 3:
                continue
            event = chart.transitions[0][2]
            sources = {s for s, _, e, _ in chart.transitions if e == event}
            stranger = next(s for s in chart.states if s not in sources)
            pattern = re.compile(rf"(operation {event}\(\) pre: [^/]*?)\b{chart.transitions[0][0]}\b")
            _edit(path["out_model"], lambda t: pattern.sub(rf"\g<1>{stranger}", t, count=1))
            return True
    return False


def _flag_not_induced(paths: list[dict], projects) -> bool:
    for project, path in zip(projects, paths):
        for chart in project.spec.charts:
            state = chart.states[-1]
            _edit(path["out_model"], lambda t: re.sub(
                rf"(attribute {state} : Boolean) //[^\n]*", r"\g<1>", t, count=1))
            return True
    return False


def _weak_invariant(paths: list[dict], projects) -> bool:
    for project, path in zip(projects, paths):
        for chart in project.spec.charts:
            if len(chart.states) < 2:
                continue

            def weaken(text: str) -> str:
                lines = text.splitlines(keepends=True)
                for i, line in enumerate(lines):
                    if line.lstrip().startswith("invariant") and "induced" in line \
                            and re.search(rf"\b{chart.states[0]}\b", line):
                        lines[i] = (line[:len(line) - len(line.lstrip())] + "invariant "
                                    + " or ".join(chart.states) + " // induced\n")
                        break
                return "".join(lines)

            _edit(path["out_model"], weaken)
            return True
    return False


def _drop_sequence(paths: list[dict], projects) -> bool:
    for project, path in zip(projects, paths):
        for chart in project.spec.charts:
            monitor = os.path.join(path["out_dir"], f"{chart.cls}.monitor")
            _edit(monitor, lambda t: re.sub(r"  SEQUENCE [^\n]*\n", "", t, count=1))
            return True
    return False


def _repeated_inputs(projects) -> list[str]:
    """Input files, or file texts, that more than one operation reads."""

    seen: dict[str, str] = {}
    repeats = []
    for project in projects:
        for kind, (preface_dir, model_path) in project.inputs.items():
            files = [os.path.join(preface_dir, name) for name in os.listdir(preface_dir)]
            for path in files + ([model_path] if model_path else []):
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                for key in (path, text):
                    if key in seen:
                        repeats.append(path)
                    seen[key] = path
    return repeats


def _count_mismatches(results: dict, projects) -> list[str]:
    """Traced counts that differ from the generator's own figures.

    The counts come from the program's calls; at the commit that defined
    the benchmark the program does exactly the work the generator works
    out, so the two agree.  A later program that does less (a ``compose``
    that replays fewer definitions, a ``check_constraints`` that skips
    pairs) shows here, and this comparison documents the change.
    """

    problems = []
    for op in results["ops"]:
        project, counts = projects[op["project"]], op["counts"]
        want = {"model.classes": len(project.spec.classes),
                "preface.packages_flattened": project.packages_flattened,
                "preface.definitions_replayed": project.definitions_replayed}
        if op["kind"] == "validate":
            want["constraints.evaluations"] = project.evaluations
        elif op["kind"] == "revalidate":
            want["constraints.evaluations"] = project.revalidate_evaluations
        for name, value in want.items():
            if counts.get(name) != value:
                problems.append(f"{op['project']} {op['kind']} {name}: "
                                f"{counts.get(name)} != {value}")
    return problems


CORRUPTIONS = (
    ("validate", "dropped diagnostic", _drop_diagnostic),
    ("transform", "wrong precondition flag", _wrong_precondition),
    ("transform", "flag not marked induced", _flag_not_induced),
    ("transform", "invariant weakened to at least one", _weak_invariant),
    ("skeleton", "dropped monitor sequence", _drop_sequence),
)


def main() -> int:
    brute_eval = run.load_oracle()
    for name, value in TINY.items():
        setattr(gen, name, value)
    work_root = run.HERE / "_work" / f"selftest-{os.getpid()}"
    ok = True
    applied_labels: set[str] = set()
    try:
        for workload in gen.WORKLOADS:
            for trace in (0, 1):
                work = work_root / f"{workload}-{trace}"
                work.mkdir(parents=True)
                projects, paths, results = run.execute(workload, 7, 2, trace, work)
                failures = run.failures_of(results, projects, paths, brute_eval)
                repeats = _repeated_inputs(projects)
                passed = not failures and not repeats and len(results["ops"]) == 8
                ok &= passed
                print(f"{'ok  ' if passed else 'FAIL'} {workload} trace={trace}: "
                      f"{len(results['ops'])} operations, {len(failures)} failed")
                for failure in failures:
                    print(f"     {failure}")
                for repeat in repeats[:3]:
                    print(f"     input read by more than one operation: {repeat}")
                if trace:
                    mismatches = _count_mismatches(results, projects)
                    ok &= not mismatches
                    print(f"{'ok  ' if not mismatches else 'FAIL'} {workload}: traced counts "
                          + ("agree with the generator's" if not mismatches
                             else f"differ: {mismatches[:3]}"))
                    continue
                for kind, label, corrupt in CORRUPTIONS:
                    if kind == "validate":
                        applied = corrupt(results, projects)
                    else:
                        applied = corrupt(paths, projects)
                    if not applied:
                        continue
                    applied_labels.add(label)
                    caught = [f for f in run.failures_of(results, projects, paths, brute_eval)
                              if f["kind"] == kind]
                    detected = bool(caught)
                    ok &= detected
                    print(f"{'ok  ' if detected else 'FAIL'} {workload}: {label} "
                          + (f"detected: {caught[0]['problems'][0]}" if detected
                             else "NOT detected"))
                    projects, paths, results = run.execute(workload, 7, 2, 0, work)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for _, label, _ in CORRUPTIONS:
        if label not in applied_labels:
            ok = False
            print(f"FAIL {label}: no output to corrupt")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
