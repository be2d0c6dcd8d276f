#!/usr/bin/env python3
"""Check or regenerate every pinned output snapshot.

Run from the repository root:

    python3 scripts/golden.py           # list the pinned files that differ; exit 1 if any
    python3 scripts/golden.py --write   # regenerate them

The pinned files are the golden corpus, ``tests/golden/`` (what it holds
is described in ``tests/golden_corpus.py``), the parse and evaluation
outcome snapshots, ``tests/parse_outcomes.json`` and
``tests/eval_outcomes.json``, and the worked tour's output,
``tests/demo_output.txt``.  ``tests/locations.json`` is a frozen
reference and is never regenerated.

``--write`` refuses to run while ``src/`` has uncommitted changes, so the
pins always come from a committed program; a declared output change is
then a reviewable diff of the files above.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

# These need the paths above.
import demo  # noqa: E402
import golden_corpus  # noqa: E402
import test_demo  # noqa: E402
import test_eval_outcomes  # noqa: E402
import test_parse_outcomes  # noqa: E402


def pinned_texts(scratch: Path) -> dict[Path, str]:
    """Each pinned file and the text a fresh run gives it."""

    golden = golden_corpus.GOLDEN
    texts = {golden / name: text for name, text in golden_corpus.render_all(scratch).items()}
    for snapshot in (test_parse_outcomes, test_eval_outcomes):
        lines = ",\n".join(json.dumps(entry, ensure_ascii=False)
                           for entry in snapshot.snapshot_entries())
        texts[snapshot.SNAPSHOT] = f"[\n{lines}\n]\n"
    with contextlib.redirect_stdout(io.StringIO()) as tour:
        demo.main()
    texts[test_demo.GOLDEN] = tour.getvalue()
    return texts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the pinned files")
    args = parser.parse_args(argv)
    if args.write:
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout
        if dirty:
            print(f"refusing to write: src/ has uncommitted changes\n{dirty}", end="",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        texts = pinned_texts(Path(scratch))
    golden = golden_corpus.GOLDEN
    stale = sorted(set(golden.glob("*.txt")) - set(texts))  # no run makes them
    if args.write:
        golden.mkdir(exist_ok=True)
        for path in stale:
            path.unlink()
        for path, text in texts.items():
            path.write_text(text, encoding="utf-8")
        print(f"wrote {len(texts)} files")
        return 0
    differ = stale + [path for path, text in texts.items()
                      if not path.is_file() or path.read_text(encoding="utf-8") != text]
    for path in differ:
        print(f"differs: {path.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
