#!/usr/bin/env python3
"""End-to-end tour over the sample inputs, using the library directly.

Composes the three sample packages, explains one override, validates the
sample model, applies statechart induction, and prints the generated
skeleton and monitor for the attached class.  Run from the repository
root:

    python3 scripts/demo.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from prefacer.constraints import check_constraints
from prefacer.model import builtin_check
from prefacer.preface import compose, explain, lookup_scalar, render_literal
from prefacer.skeletongen import generate_monitor, generate_skeleton
from prefacer.textio import (
    parse_model,
    parse_package,
    print_report,
    print_transform_report,
)
from prefacer.transformer import apply_transforms

SAMPLE = Path(__file__).resolve().parent.parent / "sample"
ROOT_PACKAGE = "project-p"


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> int:
    repo = {}
    for path in sorted((SAMPLE / "defs").glob("*.preface")):
        pkg = parse_package(path.read_text(encoding="utf-8"), str(path))
        repo[pkg.id] = pkg

    banner("compose")
    eff = compose(repo, ROOT_PACKAGE)
    print(print_report(eff), end="")

    banner("explain max")
    for definition, prov in explain(eff, "max"):
        print(f"  {prov.package_id}: {render_literal(definition.value)}")
    value, provenance = lookup_scalar(eff, "max")
    print(f"  -> {value} wins, defined by {provenance.package_id}")

    banner("validate")
    model = parse_model((SAMPLE / "example.model").read_text(encoding="utf-8"))
    diagnostics = builtin_check(model) + check_constraints(model, eff)
    if diagnostics:
        for d in diagnostics:
            print(f"  {d.severity} {d.code} {d.path}: {d.message}")
    else:
        print("  model is well-formed under this preface")

    banner("transform")
    transformed, result = apply_transforms(model, eff)
    print(print_transform_report(result), end="")

    banner("skeleton and monitor")
    for unit in generate_skeleton(transformed, eff):
        print(unit.text, end="")
    print()
    for unit in generate_monitor(transformed, eff):
        print(unit.monitor_text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
