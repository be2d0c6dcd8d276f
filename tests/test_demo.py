"""The worked tour, ``scripts/demo.py``, pinned byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_output.txt"


def test_the_demo_prints_the_pinned_tour(capsys):
    spec = importlib.util.spec_from_file_location("demo", ROOT / "scripts" / "demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main() == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
