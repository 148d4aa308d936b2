"""The three workloads: fixed job lists of certificates with known answers.

A job is a list of steps run in order on a fresh state dict.  A step that
produces a certificate returns a :class:`Cert`; the job passes when every
certificate's exit status equals the one the known answers give its kind.  ``build``
functions construct the groups, pairings and structures of library-level
jobs; they run once per pass, outside the job timings, so that lazily built
components are paid inside the checks every pass, as a user pays them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from inputs import builtin_on

# the view window of the dual double: the identity and one transposition
DUAL_DOUBLE_WINDOW = ("(12)",)


@dataclass(frozen=True)
class Cert:
    name: str
    status: int  # 0 when every check passed, 1 otherwise, as the CLI exits
    digest: str


@dataclass
class Job:
    name: str
    steps: list  # fn(state) -> Cert, or None for a step that makes no certificate
    pinned: bool = True  # unseeded: its digests are pinned in the known answers
    kind: str = "valid"  # selects the expected exit status in the known answers


def _report_cert(name, report):
    return Cert(name, 0 if report.passed else 1, report.digest())


def cli_job(lib, name, argv, pinned=True, kind="valid"):
    def run(state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = lib.cli.main(list(argv))
        digest = ""
        for line in reversed(out.getvalue().splitlines()):
            if line.startswith("report digest: "):
                digest = line.split(": ", 1)[1]
                break
        return Cert(name, status, digest)

    return Job(name, [run], pinned=pinned, kind=kind)


def lib_job(name, steps, pinned=True):
    """A library-level job; steps are (certificate name or None, fn(state))."""

    def certify(cert_name, fn):
        def step(state):
            report = fn(state)
            return None if cert_name is None else _report_cert(cert_name, report)
        return step

    return Job(name, [certify(c, fn) for c, fn in steps], pinned=pinned)


# ---------------------------------------------------------------------------
# verify-mix: many small certificates through the CLI
# ---------------------------------------------------------------------------

VERIFY_BUILTINS = ("kg-s3", "kg-z2", "kg-z3", "kg-integers", "group-algebra-s3",
                   "constant-cz2-s3")
DUAL_BUILTINS = ("kg-s3", "kg-z2", "kg-z3", "group-algebra-s3", "constant-cz2-s3")
CROSSING_EXAMPLES = ("kg-s3", "constant-cz2-s3")


def build_verify_mix(lib, plan, workdir):
    jobs = [cli_job(lib, "verify builtin:%s" % b, ["verify", "builtin:" + b])
            for b in VERIFY_BUILTINS]
    for spec in plan["windows"]:
        jobs.append(cli_job(lib, "verify builtin:kg-integers --window=%s" % spec,
                            ["verify", "builtin:kg-integers", "--window=" + spec],
                            pinned=False, kind="window"))
    for name, path in plan["relabeled"].items():
        jobs.append(cli_job(lib, "verify relabeled %s" % name, ["verify", path],
                            pinned=False, kind="relabeled"))
    double_path = os.path.join(workdir, "double-s3-adjoint.json")
    jobs.append(cli_job(lib, "double builtin:pairing-gacs3 adjoint",
                        ["double", "--pair", "builtin:pairing-gacs3", "--action", "adjoint",
                         "--out", double_path]))
    jobs.append(cli_job(lib, "verify exported double-s3-adjoint", ["verify", double_path]))
    for m in plan["mutants"]:
        jobs.append(cli_job(lib, "verify %s mutant of %s" % (m["section"], m["source"]),
                            ["verify", m["path"]], pinned=False,
                            kind="mutant-" + m["section"]))
    for b in DUAL_BUILTINS:
        jobs.append(cli_job(lib, "dual builtin:%s" % b, ["dual", "builtin:" + b]))

    cograded, groups, hopf = lib.cograded, lib.groups, lib.hopf
    for name in CROSSING_EXAMPLES:
        h = builtin_on(lib, name)
        act = cograded.adjoint_shuffle_action(h)
        w = groups.Window.full(h.group)

        def deformed(state, h=h, act=act, w=w):
            state["deformed"] = cograded.deform(h, act, w)

        jobs.append(lib_job("deform+mirror %s" % name, [
            ("crossing", lambda state, act=act, w=w: cograded.check_crossing(act, w)),
            (None, deformed),
            ("deformed-suite", lambda state, w=w: hopf.full_suite(state["deformed"], w)),
            ("mirror", lambda state, h=h, act=act, w=w: cograded.mirror_check(h, act, w)),
        ]))
    return jobs


# ---------------------------------------------------------------------------
# double-cyclic: D(Z_n) for growing n, plus the S3 adjoint double
# ---------------------------------------------------------------------------

def _double_job(lib, name, pairing, act, pinned):
    double, groups, hopf, cograded = lib.double, lib.groups, lib.hopf, lib.cograded
    w = groups.Window.full(pairing.group)

    def build(state):
        state["d"] = double.build_double(pairing, act)

    def crossing(state):
        d = state["d"]
        return cograded.check_crossing(double.double_crossing(d), groups.Window.full(d.mha.group))

    def integral(state):
        phi_a = hopf.solve_left_integral(pairing.a_side, w).functional
        psi_b = hopf.solve_right_integral(pairing.b_side, w).functional
        return double.double_right_integral(state["d"], phi_a, psi_b).report

    return lib_job(name, [
        ("pairing", lambda state: double.check_pairing(pairing, w)),
        ("induced-grading", lambda state: double.induced_grading_check(pairing, w)),
        (None, build),
        ("double-axioms", lambda state: double.check_double_axioms(state["d"])),
        ("double-crossing", crossing),
        ("double-integral", integral),
    ], pinned=pinned)


def _action(lib, name, b_side):
    if name == "trivial":
        return lib.cograded.trivial_action(b_side)
    return lib.cograded.adjoint_shuffle_action(b_side)


# On an abelian group the adjoint action moves nothing, so its double does the
# same work as the trivial one; each order is built once, the actions
# alternating, and the S3 double carries the nontrivial crossing.
DOUBLE_CYCLIC_JOBS = ((4, "trivial"), (6, "adjoint"), (8, "trivial"))


def build_double_cyclic(lib, plan, workdir):
    groups, double = lib.groups, lib.double
    cyclic = {n: groups.finite_group_from_table(*plan["cyclic"][n]) for n in plan["cyclic"]}
    jobs = []
    for n, action in DOUBLE_CYCLIC_JOBS:
        pairing = double.make_group_function_pairing(cyclic[n])
        jobs.append(_double_job(lib, "D(Z%d) %s" % (n, action), pairing,
                                _action(lib, action, pairing.b_side), pinned=False))
    pairing = double.make_group_function_pairing(groups.s3_group())
    jobs.append(_double_job(lib, "D(S3) adjoint", pairing,
                            _action(lib, "adjoint", pairing.b_side), pinned=True))
    return jobs


# ---------------------------------------------------------------------------
# dual-double: the 24-dimensional finite-type dual double
# ---------------------------------------------------------------------------

def build_dual_double(lib, plan, workdir):
    algebras, double, groups, hopf, cograded, specfile = (
        lib.algebras, lib.double, lib.groups, lib.hopf, lib.cograded, lib.specfile)
    b = builtin_on(lib, "constant-cz2-s3")
    act = cograded.adjoint_shuffle_action(b)
    full = groups.Window.full(b.group)
    path = os.path.join(workdir, "dual-double.json")

    def view_window(g):
        return groups.Window.of(g, [g.decode(s) for s in DUAL_DOUBLE_WINDOW])

    def dual(state):
        state["rd"] = double.reduced_dual(b, action=act)

    def build(state):
        state["d"] = double.build_double(state["rd"].pairing, act)

    def export(state):
        doc = specfile.structure_to_doc(state["d"].mha, label="dual-double")
        specfile.spec_digest(doc)  # the double pipeline digests its export too
        specfile.save_spec(path, doc)

    def on_view(check):
        def run(state):
            h = state["d"].mha
            return check(h, view_window(h.group))
        return run

    def crossing(state):
        d = state["d"]
        return cograded.check_crossing(double.double_crossing(d), view_window(d.mha.group))

    def reload(state):
        loaded = specfile.load_structure(path)
        state["h"] = loaded.structure
        state["w"] = view_window(loaded.structure.group)
        state["phi"] = hopf.solve_left_integral(state["h"], state["w"]).functional

    def modular(state):
        h, w, phi = state["h"], state["w"], state["phi"]
        hopf.modular_element(h, phi, w)
        return hopf.modular_automorphism(h, phi, w)[1]

    return [lib_job("dual double", [
        (None, dual),
        ("pairing", lambda state: double.check_pairing(state["rd"].pairing, full)),
        ("induced-grading", lambda state: double.induced_grading_check(state["rd"].pairing, full)),
        (None, build),
        ("view-algebra", on_view(lambda h, w: algebras.check_graded_algebra(h.algebra, w))),
        ("view-t1-t2", on_view(hopf.check_t1_t2)),
        ("view-coassociativity", on_view(hopf.check_coassociativity)),
        ("view-counit", on_view(hopf.check_counit)),
        ("view-antipode", on_view(hopf.check_antipode)),
        ("view-star", on_view(hopf.check_star)),
        ("view-cograded", on_view(cograded.check_cograded)),
        ("view-crossing", crossing),
        (None, export),
        (None, reload),
        ("modular-automorphism", modular),
        ("positive-integral",
         lambda state: hopf.check_positive_integral(state["h"], state["phi"], state["w"])),
    ])]


# workload name -> the function that builds its job list for one pass
WORKLOADS = {
    "verify-mix": build_verify_mix,
    "double-cyclic": build_double_cyclic,
    "dual-double": build_dual_double,
}
