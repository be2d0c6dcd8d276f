#!/usr/bin/env python3
"""Time the first calls of textio's readers and printers in fresh processes.

Run from the repository root:

    python3 scripts/first_calls.py [--runs N] [--src DIR]

Each of ``--runs`` fresh interpreters imports ``prefacer`` from ``--src``
(default ``src``), then times on the sample inputs under ``sample/`` the
first ``parse_model``, the first three ``parse_package`` calls together,
the first ``print_model`` and the first ``print_report``, in that order,
each once on the wall clock.  The script prints the median of each over
the runs, in milliseconds.  A command run from the command line pays
whatever these calls build on first use, every time; the benchmark's
worker runs all of its operations in one process, so none of its metrics
shows that cost.  The script uses the standard library only.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One run: the four first calls' times in seconds, on one line.
_RUN = """\
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from prefacer import preface, textio
sample = Path(sys.argv[2])
model_text = (sample / "example.model").read_text(encoding="utf-8")
package_texts = [path.read_text(encoding="utf-8")
                 for path in sorted((sample / "defs").glob("*.preface"))]
clock, times = time.perf_counter, []
start = clock()
model = textio.parse_model(model_text)
times.append(clock() - start)
start = clock()
packages = [textio.parse_package(text) for text in package_texts]
times.append(clock() - start)
start = clock()
textio.print_model(model)
times.append(clock() - start)
composed = preface.compose({package.id: package for package in packages}, "project-p")
start = clock()
textio.print_report(composed)
times.append(clock() - start)
print(*times)
"""

CALLS = ("parse_model", "parse_package (3 files)", "print_model", "print_report")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh processes (default 9)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory holding the prefacer package (default src)")
    args = parser.parse_args()
    runs = []
    for _ in range(args.runs):
        done = subprocess.run([sys.executable, "-I", "-c", _RUN, str(args.src.resolve()),
                               str(ROOT / "sample")],
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append([float(value) for value in done.stdout.split()])
    print(f"First calls in a fresh process, median of {args.runs} runs, in ms:")
    for call, times in zip(CALLS, zip(*runs)):
        print(f"  {call:<24} {statistics.median(times) * 1000:7.3f}")


if __name__ == "__main__":
    main()
