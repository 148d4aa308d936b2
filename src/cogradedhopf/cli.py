"""Command-line frontend: verify spec files, build doubles, emit duals.

Exit status is zero exactly when every check in the emitted certificate
passes. Reports print as deterministic text by default; ``--format
structured`` emits the machine-readable JSON rendering with the same
content and digest.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .cograded import adjoint_shuffle_action, check_admissible, check_cograded, check_crossing, trivial_action
from .double import (
    DoubleLawError,
    build_double,
    check_double_axioms,
    check_pairing,
    double_crossing,
    induced_grading_check,
    reduced_dual,
)
from .hopf import full_suite, solve_left_integral, solve_right_integral
from .report import CertificateReport
from .specfile import (
    LoadedSpec,
    SpecFormatError,
    builtin_pairing,
    load_structure,
    pairing_to_section,
    save_spec,
    spec_digest,
    structure_from_doc,
    structure_to_doc,
)


def _emit(report: CertificateReport, args) -> int:
    text = report.to_json() if args.format == "structured" else report.text()
    print(text)
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text)
            fh.write("\n")
    return 0 if report.passed else 1


def verify_structure(loaded: LoadedSpec) -> CertificateReport:
    """The verification pipeline behind the verify command."""
    h = loaded.structure
    w = loaded.window
    rep = CertificateReport(
        title="verification (%s)" % loaded.label,
        window=w.label,
        subject_digest=loaded.digest,
    )
    rep.extend(full_suite(h, w))
    if h.algebra.mode == "cograded":
        rep.extend(check_cograded(h, w))
    left = solve_left_integral(h, w)
    right = solve_right_integral(h, w)
    advisory = not h.group.is_finite
    rep.add(
        "left-integral-dimension",
        "the invariant functional space is one-dimensional",
        left.dimension == 1 or advisory,
        None if left.dimension == 1 else "dimension %d on this window" % left.dimension,
    )
    rep.add(
        "right-integral-dimension",
        "the invariant functional space is one-dimensional",
        right.dimension == 1 or advisory,
        None if right.dimension == 1 else "dimension %d on this window" % right.dimension,
    )
    if loaded.action is not None:
        cert = check_admissible(loaded.action, w)
        rep.extend(cert.report)
    return rep


def cmd_verify(args) -> int:
    loaded = load_structure(args.spec, args.window)
    rep = verify_structure(loaded)
    return _emit(rep, args)


def _resolve_pairing(args):
    if args.pair.startswith("builtin:"):
        pairing, label = builtin_pairing(args.pair.split(":", 1)[1])
        return pairing, label
    paths = args.pair.split(",")
    if len(paths) != 2:
        raise SpecFormatError("--pair needs builtin:<name> or two paths")
    from .double import Pairing
    from .specfile import _matrix, _object, _section_lookup

    a_loaded = load_structure(paths[0])
    b_loaded = load_structure(paths[1])
    section = b_loaded.pairing_section
    if section is None:
        raise SpecFormatError("second spec carries no pairing section")
    forms = _object(_object(section, "pairing section").get("forms", {}), "pairing.forms")
    g = b_loaded.structure.group

    def form(p):
        raw = _section_lookup(forms, g.encode(p), "pairing form")
        return _matrix(raw, "pairing.forms")

    label = "%s|%s" % (a_loaded.label, b_loaded.label)
    return (
        Pairing(a_loaded.structure, b_loaded.structure, form, label=label),
        label,
    )


def _resolve_action(args, b_side):
    name = args.action
    if name == "trivial":
        return trivial_action(b_side)
    if name == "adjoint":
        return adjoint_shuffle_action(b_side)
    # an action section in a spec file, rebased onto the side being doubled
    from .specfile import _action_from_doc, load_spec_file

    doc = load_spec_file(name)
    if "action" not in doc:
        raise SpecFormatError("spec %s carries no action section" % name)
    return _action_from_doc(b_side, doc["action"])


def cmd_double(args) -> int:
    pairing, pair_label = _resolve_pairing(args)
    action = _resolve_action(args, pairing.b_side)
    from .groups import Window

    w = Window.full(pairing.group)
    cert = check_admissible(action, w)
    if not cert.passed:
        print(cert.report.text())
        return 1
    rep = CertificateReport(
        title="double pipeline (%s; %s)" % (pair_label, action.label),
        window=w.label,
    )
    rep.extend(check_pairing(pairing, w))
    rep.extend(induced_grading_check(pairing, w))
    try:
        d = build_double(pairing, action)
    except DoubleLawError as exc:
        return _emit(CertificateReport(rep.title, w.label, entries=[exc.entry]), args)
    doc = structure_to_doc(d.mha, label="double-%s-%s" % (pair_label, action.label))
    rep.subject_digest = save_spec(args.out, doc) if args.out else spec_digest(doc)
    rep.extend(check_double_axioms(d))
    if d.crossing:
        rep.extend(check_crossing(double_crossing(d), Window.full(d.mha.group)),
                   prefix="double-")
    return _emit(rep, args)


def cmd_dual(args) -> int:
    loaded = load_structure(args.spec, args.window)
    rd = reduced_dual(loaded.structure, loaded.window, loaded.action)
    rep = CertificateReport(
        title="reduced dual (%s)" % loaded.label,
        window=loaded.window.label,
        subject_digest=loaded.digest,
    )
    rep.extend(check_pairing(rd.pairing, loaded.window))
    rep.extend(induced_grading_check(rd.pairing, loaded.window))
    if args.out:
        if not rd.structure.group.is_finite:
            raise SpecFormatError("cannot export the dual of an infinite structure")
        doc = structure_to_doc(
            rd.structure,
            label="dual-%s" % loaded.label,
            pairing_section=pairing_to_section(rd.pairing, loaded.label),
        )
        save_spec(args.out, doc)
    return _emit(rep, args)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cogradedhopf",
        description="exact verification of group-graded Hopf structures and their doubles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full axiom suite on a spec")
    p_verify.add_argument("spec", help="path to a spec file or builtin:<name>")
    p_verify.add_argument("--window", help="window for infinite groups, e.g. -5..5")
    p_verify.add_argument("--report", help="also write the report to this path")
    p_verify.add_argument("--format", choices=["text", "structured"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_double = sub.add_parser("double", help="build and verify a double")
    p_double.add_argument("--pair", required=True,
                          help="builtin:<name> or <specA>,<specB>")
    p_double.add_argument("--action", required=True,
                          help="trivial, adjoint, or a spec path with an action section")
    p_double.add_argument("--out", help="write the double's spec here")
    p_double.add_argument("--report", help="also write the report to this path")
    p_double.add_argument("--format", choices=["text", "structured"], default="text")
    p_double.set_defaults(func=cmd_double)

    p_dual = sub.add_parser("dual", help="build the reduced dual and its pairing")
    p_dual.add_argument("spec", help="path to a spec file or builtin:<name>")
    p_dual.add_argument("--window", help="window for infinite groups")
    p_dual.add_argument("--out", help="write the dual's spec here")
    p_dual.add_argument("--report", help="also write the report to this path")
    p_dual.add_argument("--format", choices=["text", "structured"], default="text")
    p_dual.set_defaults(func=cmd_dual)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print("spec error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be written
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
