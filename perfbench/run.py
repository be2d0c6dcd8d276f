"""prefacer benchmark: three CLI workloads and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hierarchy|statecharts|prefaces
        [--seed N] [--seconds S] [--trace 0|1]

One run generates a fixed number of seeded projects (sized so that the
operations take about ``--seconds`` at the commit that defined the
benchmark), measures the set-up time of fresh interpreters, runs four
CLI operations per project in one fresh worker interpreter, checks every
output against computations made apart from the program, and prints one
JSON object as its last line of standard output.  Times are user CPU
seconds scaled by a speed probe run next to them (``worker.probe``).
``--trace 1`` runs the same operations with a span around every library
call ``prefacer.cli`` makes and reports per-layer metrics instead of
end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import worker  # noqa: E402

#: Projects per second of ``--seconds``: each run processes
#: ``round(seconds * rate)`` projects, four operations each.
PROJECTS_PER_SECOND = {"hierarchy": 0.45, "statecharts": 0.3, "prefaces": 0.9}

#: Fresh interpreters whose import time gives ``setup_s``, after one more
#: that compiles the byte code.
SETUP_SAMPLES = 15

#: Wall time, from the start of the run, after which the worker starts no
#: further project.  Set-up, checks and clean-up after it must fit in the
#: 180 s a run may take; the operations it never ran count as failed.
WORK_DEADLINE_S = 135

#: Grace after the deadline for the project under way; a worker still
#: running then is stopped and the run fails.
WORKER_GRACE_S = 30

#: Time of ``worker.probe`` at the reference speed: every time the
#: benchmark reports is scaled by this over the probe time measured next
#: to it, so that it reads as seconds at that speed.
REFERENCE_PROBE_S = 0.08

#: Import time of the package on the worker's clock, then the speed probe.
_IMPORT_PROBE = (
    "import resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = resource.getrusage(resource.RUSAGE_SELF).ru_utime\n"
    "import prefacer, prefacer.cli\n"
    "took = resource.getrusage(resource.RUSAGE_SELF).ru_utime - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from worker import probe\n"
    "print(took, probe())\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_seconds() -> float:
    samples = []
    for attempt in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if done.returncode != 0:
            fail(f"importing prefacer failed:\n{done.stderr}")
        took, probe_s = map(float, done.stdout.split())
        if attempt:
            samples.append(took * REFERENCE_PROBE_S / probe_s)
    return statistics.median(samples)


def run_worker(manifest: dict, work: Path) -> dict:
    manifest_path, results_path = work / "manifest.json", work / "results.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    timeout = max(0.0, manifest["budget_s"]) + WORKER_GRACE_S
    try:
        done = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), str(SRC),
             str(manifest_path), str(results_path)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        fail(f"worker failed:\n{done.stderr[-4000:]}")
    return json.loads(results_path.read_text(encoding="utf-8"))


def check_op(op: dict, project: gen.Project, paths: dict, brute_eval) -> list[str]:
    import check

    kind = op["kind"]
    if kind == "validate":
        return check.check_validate(op["exit"], op["stderr"], project.expected_validate)
    if kind == "revalidate":
        return check.check_validate(op["exit"], op["stderr"], project.expected_revalidate)
    problems = [] if op["exit"] == 0 else [f"exit {op['exit']}: {op['stderr'][-500:]}"]
    if kind == "transform":
        return problems + check.check_transform(paths["out_model"], project.spec, brute_eval)
    return problems + check.check_skeleton(paths["out_dir"], project.spec)


def written_bytes(paths: dict) -> int:
    total = 0
    if os.path.exists(paths["out_model"]):
        total += os.path.getsize(paths["out_model"])
    if os.path.isdir(paths["out_dir"]):
        total += sum(entry.stat().st_size for entry in os.scandir(paths["out_dir"]))
    return total


def per_layer(results: dict) -> dict:
    """Median per operation of each layer's self time and counts, over the
    operations that reach the layer."""

    scale = [REFERENCE_PROBE_S / op["probe_s"] for op in results["ops"]]
    spans = results["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, dict[int, float]] = {}
    for index, (name, start, end, _, op) in enumerate(spans):
        if name == worker.COUNTING:
            continue
        layer = "cli.glue_s" if name == "cli.operation" else f"{name}_s"
        per_op = busy.setdefault(layer, {})
        per_op[op] = per_op.get(op, 0.0) + (end - start - child_time[index]) * scale[op]
    values: dict[str, list[float]] = {k: list(v.values()) for k, v in busy.items()}
    for op in results["ops"]:
        for name, value in op["counts"].items():
            values.setdefault(name, []).append(value)
    units = {name: ("s" if name.endswith("_s") else "KB" if name.endswith("_kb")
                    else "count") for name in values}
    return {name: {"value": statistics.median(vals), "unit": units[name]}
            for name, vals in sorted(values.items())}


def load_oracle():
    """Put the sources and the suite's oracles on the path; return
    ``brute_eval``.  Exits with 2 when the checkout lacks either."""

    if not (SRC / "prefacer" / "cli.py").is_file():
        fail(f"no prefacer sources under {SRC}")
    oracles = ROOT / "tests" / "oracles.py"
    if not oracles.is_file():
        fail(f"no {oracles}")
    sys.path[:0] = [str(SRC), str(oracles.parent)]
    sys.setrecursionlimit(20000)
    from oracles import brute_eval

    return brute_eval


def execute(workload: str, seed: int, count: int, trace: int, work: Path,
            started: float | None = None):
    """Generate ``count`` projects under ``work`` and run their operations
    in a worker that starts no project after ``WORK_DEADLINE_S`` from
    ``started`` (a ``time.monotonic()``, by default now); returns
    (projects, input and output paths, worker results)."""

    started = time.monotonic() if started is None else started
    projects = gen.generate(workload, seed, count, str(work))
    budget_s = WORK_DEADLINE_S - (time.monotonic() - started)
    paths = [{"index": p.index, "root": p.root, "inputs": p.inputs,
              "out_model": os.path.join(work, f"p{p.index}", "transformed.model"),
              "out_dir": os.path.join(work, f"p{p.index}", "gen")}
             for p in projects]
    manifest = {"trace": trace, "budget_s": budget_s, "projects": paths}
    return projects, paths, {**run_worker(manifest, work), "budget_s": budget_s}


def failures_of(results: dict, projects: list[gen.Project], paths: list[dict],
                brute_eval) -> list[dict]:
    failures = []
    for op in results["ops"]:
        problems = check_op(op, projects[op["project"]], paths[op["project"]], brute_eval)
        if problems:
            failures.append({"project": op["project"], "kind": op["kind"],
                             "problems": problems[:10]})
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run_started = time.monotonic()
    brute_eval = load_oracle()
    setup_s = setup_seconds() if not args.trace else None

    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    results_dir = HERE / "_results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    count = max(1, round(args.seconds * PROJECTS_PER_SECOND[args.workload]))
    try:
        started = time.perf_counter()
        projects, paths, results = execute(args.workload, args.seed, count, args.trace,
                                           work, run_started)
        run_s = time.perf_counter() - started
        failures = failures_of(results, projects, paths, brute_eval)
        generated = sum(written_bytes(p) for p in paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(results)
        (results_dir / f"trace-{tag}.json").write_text(json.dumps(
            {"spans_fields": ["name", "start", "end", "parent", "operation"],
             "spans": results["spans"],
             "operations": [[op["project"], op["kind"]] for op in results["ops"]]}),
            encoding="utf-8")
    else:
        def median_of(kind: str) -> float:
            # No operation of the kind finished within the deadline: the
            # whole budget is a lower bound on its time.
            return statistics.median([op["seconds"] * REFERENCE_PROBE_S / op["probe_s"]
                                      for op in results["ops"] if op["kind"] == kind]
                                     or [results["budget_s"]])

        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            **{f"{kind}_s": {"value": median_of(kind), "unit": "s"}
               for kind in ("validate", "transform", "revalidate", "skeleton")},
            "generated_kb": {"value": generated / 1024, "unit": "KB"},
            "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
        }
    for failure in failures:
        print(f"FAILED project {failure['project']} {failure['kind']}: "
              + "; ".join(failure["problems"]), file=sys.stderr)
    attempted = count * len(gen.OPERATIONS)
    unrun = attempted - len(results["ops"])
    if unrun:
        print(f"FAILED {unrun} operations not run: the worker reached its deadline",
              file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures) + unrun, "metrics": metrics}
    (results_dir / f"result-{tag}.json").write_text(json.dumps(
        {**result, "projects": count, "generate_and_work_s": run_s,
         "operations_s_scaled": sum(op["seconds"] * REFERENCE_PROBE_S / op["probe_s"]
                                    for op in results["ops"]),
         "probe_s_median": statistics.median(op["probe_s"] for op in results["ops"])
         if results["ops"] else None},
        indent=1),
        encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
