"""The model commands read only the packages the root reaches.

``validate``, ``transform`` and ``explain`` read every file of a preface
directory only up to its imports, and parse in full only the packages the
root reaches.  So the files the root does not reach must not matter: on
seeded directories, each command gives the same exit code, standard output
and standard error, byte for byte, before and after those files are
deleted.  What the root reaches is worked out here with a plain breadth-first
search over the generated packages, not with the program's import walk.
"""

from __future__ import annotations

import io
import random
from collections import Counter

from generators import inject_cycle, random_model, random_repo
from prefacer.cli import RunConfig, run
from prefacer.preface import OPTION_CATALOGUE, Package
from prefacer.textio import print_model, print_package

#: A package no generated package imports, whose body does not parse.
BROKEN = 'package "broken" {\n  const = 1\n}\n'

KEYS = ("max", "depth", "label", "flag", *OPTION_CATALOGUE)


def _reached(repo: dict[str, Package], root: str) -> set[str]:
    seen, frontier = {root}, [root]
    while frontier:
        frontier = [i for pkg_id in frontier for i in repo[pkg_id].imports
                    if i in repo and i not in seen]
        seen.update(frontier)
    return seen


def _outcomes(preface_dir, root: str, model_path, key: str) -> list[tuple[int, str, str]]:
    outcomes = []
    for command in ("validate", "transform", "explain"):
        out, err = io.StringIO(), io.StringIO()
        code = run(RunConfig(command, str(preface_dir), root, str(model_path), key=key),
                   stdout=out, stderr=err)
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


def test_files_the_root_does_not_reach_do_not_matter(tmp_path):
    seen: Counter = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        repo, _ = random_repo(rng)
        if seed % 3 == 0:
            repo = inject_cycle(repo, rng)
        work = tmp_path / str(seed)
        preface_dir = work / "defs"
        preface_dir.mkdir(parents=True)
        texts = {preface_dir / f"{pkg_id}.preface": print_package(pkg)
                 for pkg_id, pkg in repo.items()}
        if seed % 4 == 1:
            texts[preface_dir / "broken.preface"] = BROKEN
        for path, text in texts.items():
            path.write_text(text)
        model_path = work / "m.model"
        model_path.write_text(print_model(random_model(rng, max_classes=3)))

        for root in repo:
            key = rng.choice(KEYS)
            before = _outcomes(preface_dir, root, model_path, key)
            reached = _reached(repo, root)
            unreached = {path: text for path, text in texts.items()
                         if path.stem not in reached}
            for path in unreached:
                path.unlink()
            after = _outcomes(preface_dir, root, model_path, key)
            assert after == before, (seed, root)
            for path, text in unreached.items():
                path.write_text(text)
            seen["roots"] += 1
            seen["unreached files"] += len(unreached)
            seen.update(f"exit {code}" for code, _, _ in before)
    # Most roots leave files unread, and every outcome occurs.
    assert seen["unreached files"] > seen["roots"] > 600, seen
    assert min(seen[f"exit {code}"] for code in (0, 1, 3)) > 50, seen
