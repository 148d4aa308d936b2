"""Seeded inputs for the certificate benchmark.

The seed chooses only what leaves the cost of a job unchanged:

* element relabelings of finite groups: the elements are renamed and
  reordered, and the group is rebuilt from the permuted table;
* which single coefficient a counit or antipode mutant perturbs;
* where an integer window of a fixed size sits around zero.

The same seed gives byte-identical inputs.  The program under test only
ever receives what is generated here: spec files and group tables.
"""

from __future__ import annotations

import json
import os
import random

# finite built-ins that are relabeled and exported as spec files
FINITE_BUILTINS = ("kg-s3", "kg-z2", "kg-z3", "group-algebra-s3", "constant-cz2-s3")
# relabeled sources of the counit and antipode mutants
MUTANT_SOURCES = ("kg-s3", "constant-cz2-s3")
# integer windows: fixed sizes, from that of -5..5 to that of -12..12
WINDOW_SIZES = (11, 25)
# cyclic groups whose double the double-cyclic workload builds
CYCLIC_ORDERS = (4, 6, 8)


def relabeled_table(g, rng, prefix):
    """(labels, table, name) of ``g`` with its elements renamed and reordered."""
    order = list(g.elements)
    rng.shuffle(order)
    index = {p: k for k, p in enumerate(order)}
    table = [[index[g.multiply(p, q)] for q in order] for p in order]
    labels = ["%s%d" % (prefix, k) for k in range(len(order))]
    return labels, table, g.name


def window_spec(size, rng):
    """An integer window of ``size`` elements that contains zero."""
    lo = -rng.randrange(size)
    return "%d..%d" % (lo, lo + size - 1)


def builtin_on(lib, name, group_of=lambda g: g):
    """The built-in ``name``, constructed over the groups ``group_of`` returns."""
    hopf, groups = lib.hopf, lib.groups
    if name.startswith("kg-"):
        base = {"kg-s3": groups.s3_group, "kg-z2": lambda: groups.cyclic_group(2),
                "kg-z3": lambda: groups.cyclic_group(3)}[name]
        return hopf.make_kg(group_of(base()))
    if name == "group-algebra-s3":
        return hopf.make_group_algebra(group_of(groups.s3_group()))
    if name == "constant-cz2-s3":
        inner = hopf.make_ungraded_group_algebra(group_of(groups.cyclic_group(2)))
        return hopf.make_constant_family(inner, group_of(groups.s3_group()))
    raise KeyError(name)


def spec_text(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def mutate(lib, doc, section, rng):
    """A copy of ``doc`` with one coefficient of ``section`` increased by one.

    Returns (mutant, description of the perturbed coefficient).
    """
    mutant = json.loads(json.dumps(doc))
    key = rng.choice(sorted(mutant[section]))
    block = mutant[section][key]
    if section == "counit":
        row, col = None, rng.randrange(len(block))
        target = block
    else:
        row = rng.randrange(len(block))
        col = rng.randrange(len(block[row]))
        target = block[row]
    target[col] = str(lib.exact.GR.parse(target[col]) + 1)
    where = "%s[%s]%s[%d]" % (section, key, "" if row is None else "[%d]" % row, col)
    return mutant, where


def generate(lib, seed, outdir):
    """Write the seeded spec files into ``outdir``; returns the input plan.

    The plan is plain data: paths, window strings and group tables.
    """
    rng = random.Random(seed)
    os.makedirs(outdir, exist_ok=True)
    plan = {"seed": seed, "relabeled": {}, "mutants": [], "windows": [], "cyclic": {}}

    def relabeled_group(g):
        labels, table, name = relabeled_table(g, rng, "x")
        return lib.groups.finite_group_from_table(labels, table, name=name)

    docs = {}
    for name in FINITE_BUILTINS:
        h = builtin_on(lib, name, relabeled_group)
        docs[name] = lib.specfile.structure_to_doc(h, label="%s-relabeled" % name)
        path = os.path.join(outdir, "%s-relabeled.json" % name)
        with open(path, "w") as fh:
            fh.write(spec_text(docs[name]))
        plan["relabeled"][name] = path

    for name in MUTANT_SOURCES:
        for section in ("counit", "antipode"):
            mutant, where = mutate(lib, docs[name], section, rng)
            path = os.path.join(outdir, "%s-%s-mutant.json" % (name, section))
            with open(path, "w") as fh:
                fh.write(spec_text(mutant))
            plan["mutants"].append({"source": name, "section": section,
                                    "where": where, "path": path})

    for size in WINDOW_SIZES:
        plan["windows"].append(window_spec(size, rng))

    for n in CYCLIC_ORDERS:
        plan["cyclic"][n] = relabeled_table(lib.groups.cyclic_group(n), rng, "z")
    return plan
