#!/usr/bin/env python3
"""Check or regenerate the golden corpus, ``tests/golden/``.

Run from the repository root:

    python3 scripts/golden.py           # list the corpus files that differ; exit 1 if any
    python3 scripts/golden.py --write   # regenerate the corpus

``--write`` refuses to run while ``src/`` has uncommitted changes, so the
corpus always comes from a committed program; a declared output change
is then a reviewable diff of ``tests/golden/``.  What the corpus holds is
described in ``tests/golden_corpus.py``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden_corpus  # noqa: E402  (needs the paths above)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the corpus")
    args = parser.parse_args(argv)
    if args.write:
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout
        if dirty:
            print(f"refusing to write: src/ has uncommitted changes\n{dirty}", end="",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        corpus = golden_corpus.render_all(Path(scratch))
    golden = golden_corpus.GOLDEN
    if args.write:
        golden.mkdir(exist_ok=True)
        for stale in set(path.name for path in golden.glob("*.txt")) - set(corpus):
            (golden / stale).unlink()
        for name, text in corpus.items():
            (golden / name).write_text(text, encoding="utf-8")
        print(f"wrote {len(corpus)} files to {golden.relative_to(ROOT)}")
        return 0
    differ = [name for name, text in corpus.items()
              if not (golden / name).is_file()
              or (golden / name).read_text(encoding="utf-8") != text]
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
