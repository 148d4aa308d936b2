"""Tests of the seeded input generator.

    python3 -m pytest certbench/test_inputs.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402


def _generate(tmp_path, seed, name):
    outdir = tmp_path / name
    plan = inputs.generate(run.Library(), seed, str(outdir))
    files = {p: (outdir / p).read_bytes() for p in sorted(os.listdir(outdir))}
    return plan, files


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, path + (i,))
    else:
        yield path, doc


def test_same_seed_gives_identical_inputs(tmp_path):
    plan_a, files_a = _generate(tmp_path, 7, "a")
    plan_b, files_b = _generate(tmp_path, 7, "b")
    assert files_a == files_b
    strip = lambda plan: json.dumps(plan, sort_keys=True).replace(str(tmp_path / "b"), str(tmp_path / "a"))
    assert strip(plan_a) == strip(plan_b)


def test_different_seeds_give_different_relabelings(tmp_path):
    plans = [_generate(tmp_path, seed, "s%d" % seed) for seed in (1, 2, 3)]
    for name in ("kg-s3", "group-algebra-s3", "constant-cz2-s3"):
        texts = {files["%s-relabeled.json" % name] for _, files in plans}
        assert len(texts) == 3, name
    tables = {json.dumps(plan["cyclic"]) for plan, _ in plans}
    assert len(tables) == 3


def test_each_mutant_differs_in_exactly_one_coefficient(tmp_path):
    for seed in range(5):
        plan, files = _generate(tmp_path, seed, "m%d" % seed)
        assert len(plan["mutants"]) == 2 * len(inputs.MUTANT_SOURCES)
        for m in plan["mutants"]:
            source = json.loads(files["%s-relabeled.json" % m["source"]])
            mutant = json.loads(files[os.path.basename(m["path"])])
            src, mut = dict(_leaves(source)), dict(_leaves(mutant))
            assert src.keys() == mut.keys()
            changed = [path for path in src if src[path] != mut[path]]
            assert len(changed) == 1, changed
            assert changed[0][0] == m["section"]


def test_windows_have_fixed_sizes_and_contain_zero(tmp_path):
    for seed in range(5):
        plan, _ = _generate(tmp_path, seed, "w%d" % seed)
        for spec, size in zip(plan["windows"], inputs.WINDOW_SIZES):
            lo, hi = (int(x) for x in spec.split(".."))
            assert hi - lo + 1 == size and lo <= 0 <= hi
