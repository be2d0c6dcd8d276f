"""``scripts/layer_ab.py`` end to end, on a tiny input."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_timed_against_itself_gives_one_ratio():
    done = subprocess.run(
        [sys.executable, "scripts/layer_ab.py", "src", "src", "--layer", "parse_package",
         "--workload", "statecharts", "--projects", "1", "--pairs", "1", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    title, parent, change, ratio = done.stdout.splitlines()
    assert title == ("parse_package on statecharts (seed 1, 1 projects, 1 pairs of 1 passes), "
                     "time in probe units:")
    assert re.fullmatch(r"  parent: median \d+\.\d{4} \(quartiles \d+\.\d{4}-\d+\.\d{4}\)", parent)
    assert re.fullmatch(r"  change: median \d+\.\d{4} \(quartiles \d+\.\d{4}-\d+\.\d{4}\)", change)
    assert re.fullmatch(r"  change / parent: median \d+\.\d{3} "
                        r"\(quartiles \d+\.\d{3}-\d+\.\d{3}\), change won [01]/1 pairs", ratio)
