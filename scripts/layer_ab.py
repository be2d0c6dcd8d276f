#!/usr/bin/env python3
"""Time one layer of prefacer in two source trees, alternately.

Run from the repository root:

    python3 scripts/layer_ab.py PARENT_SRC CHANGE_SRC --layer LAYER --workload W \\
        [--seed N] [--projects N] [--pairs N] [--passes N]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold a ``prefacer``
package, such as the ``src/`` of two checkouts.  The script generates the
projects of one benchmark workload with ``perfbench/gen.py`` (imported, not
copied), then runs ``--pairs`` pairs of fresh interpreters, one per tree,
alternating which tree runs first, all with one hash seed.  Each
interpreter prepares the layer's inputs from every project with its own
tree's functions, calls the layer on all of them once, and hashes the
``repr`` of every output (with one hash seed, a set prints in one order);
then it times ``--passes`` passes over the same inputs on its user CPU
time and runs the benchmark's speed probe (``perfbench/worker.py``)
before and after.  A
side's time is its median pass divided by its mean probe, so a host that
speeds up or slows down between processes moves both alike.

The script stops with exit 1 if the two trees' outputs differ.  Otherwise
it prints each side's median time in probe units, and the ratio
change / parent of every pair: its median, its quartiles and the pairs the
change won (ratio below 1).

The inputs of each layer, per project (the files of ``validate``'s copy):
``parse_package`` reads every package file of the preface directory,
``parse_model`` the model file; the other layers take the parsed model,
and ``compose`` the repository of every package with the project's root.
``check_constraints`` and ``apply_transforms`` take the model and the
composed preface, ``generate_skeleton`` and ``generate_monitor`` the
transformed model.  The script uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

LAYERS = ("parse_package", "parse_model", "print_model", "builtin_check", "compose",
          "check_constraints", "apply_transforms", "generate_skeleton", "generate_monitor")


def _calls(layer: str, project: dict) -> list[tuple]:
    """(function, arguments) of every call of ``layer`` on one project,
    with ``prefacer`` imported from the tree on ``sys.path``."""

    from prefacer import constraints, model, preface, skeletongen, textio, transformer

    packages = [(path.read_text(encoding="utf-8"), str(path))
                for path in sorted(Path(project["preface_dir"]).glob("*.preface"))]
    if layer == "parse_package":
        return [(textio.parse_package, source) for source in packages]
    source = (Path(project["model"]).read_text(encoding="utf-8"), project["model"])
    if layer == "parse_model":
        return [(textio.parse_model, source)]
    parsed = textio.parse_model(*source)
    if layer == "print_model":
        return [(textio.print_model, (parsed,))]
    if layer == "builtin_check":
        return [(model.builtin_check, (parsed,))]
    repo = {pkg.id: pkg for pkg in (textio.parse_package(*args) for args in packages)}
    if layer == "compose":
        return [(preface.compose, (repo, project["root"]))]
    eff = preface.compose(repo, project["root"])
    if layer == "check_constraints":
        return [(constraints.check_constraints, (parsed, eff))]
    if layer == "apply_transforms":
        return [(transformer.apply_transforms, (parsed, eff))]
    transformed = transformer.apply_transforms(parsed, eff)[0]
    return [(getattr(skeletongen, layer), (transformed, eff))]


def child(src: str, layer: str, manifest: str, passes: int) -> None:
    """One side of a pair: print its outputs' digest, median pass and probe."""

    sys.path[:0] = [src, str(PERFBENCH)]
    import gc

    from worker import clock, probe

    calls = [call for project in json.loads(Path(manifest).read_text(encoding="utf-8"))
             for call in _calls(layer, project)]
    digest = hashlib.sha256()
    for function, args in calls:
        digest.update(repr(function(*args)).encode("utf-8"))
    probes = [probe()]
    times = []
    for _ in range(passes):
        gc.collect()
        start = clock()
        for function, args in calls:
            function(*args)
        times.append(clock() - start)
    probes.append(probe())
    print(json.dumps({"digest": digest.hexdigest(), "seconds": statistics.median(times),
                      "probe": statistics.fmean(probes)}))


def _side(src: Path, layer: str, manifest: Path, passes: int) -> dict:
    # One hash seed for every process, so that a set prints in one order.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-s", __file__, "--child", str(src), layer, str(manifest), str(passes)],
        capture_output=True, text=True, env=env)
    if done.returncode:
        sys.exit(f"{src}: the layer run failed\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent tree's source directory")
    parser.add_argument("change", type=Path, help="the changed tree's source directory")
    parser.add_argument("--layer", choices=LAYERS, required=True)
    parser.add_argument("--workload", required=True,
                        choices=("hierarchy", "statecharts", "prefaces"))
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--projects", type=int, default=3, help="projects (default 3)")
    parser.add_argument("--pairs", type=int, default=10, help="process pairs (default 10)")
    parser.add_argument("--passes", type=int, default=5,
                        help="timed passes per process (default 5)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import gen

    with tempfile.TemporaryDirectory() as work:
        projects = gen.generate(args.workload, args.seed, args.projects, work)
        manifest = Path(work) / "manifest.json"
        manifest.write_text(json.dumps([
            {"root": project.root, "preface_dir": project.inputs["validate"][0],
             "model": project.inputs["validate"][1]} for project in projects]))
        times: dict[str, list[float]] = {"parent": [], "change": []}
        ratios = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            runs = {side: _side(getattr(args, side), args.layer, manifest, args.passes)
                    for side in order}
            if runs["parent"]["digest"] != runs["change"]["digest"]:
                print(f"pair {pair + 1}: the two trees' outputs differ", file=sys.stderr)
                return 1
            for side, run in runs.items():
                times[side].append(run["seconds"] / run["probe"])
            ratios.append(times["change"][-1] / times["parent"][-1])
    print(f"{args.layer} on {args.workload} (seed {args.seed}, {args.projects} projects, "
          f"{args.pairs} pairs of {args.passes} passes), time in probe units:")
    for side, values in times.items():
        low, high = _quartiles(values)
        print(f"  {side}: median {statistics.median(values):.4f} "
              f"(quartiles {low:.4f}-{high:.4f})")
    low, high = _quartiles(ratios)
    print(f"  change / parent: median {statistics.median(ratios):.3f} "
          f"(quartiles {low:.3f}-{high:.3f}), change won {sum(r < 1 for r in ratios)}"
          f"/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5]))
    else:
        sys.exit(main())
