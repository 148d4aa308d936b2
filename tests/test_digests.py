"""Pinned report digests of the built-in CLI pipelines.

A digest covers every entry's name, law, verdict and witness, so a change
that renames, reorders or rewords an entry, or flips a verdict, fails here.
"""

import pytest

from cogradedhopf.cli import main
from cogradedhopf.specfile import load_spec_file, spec_digest

VERIFY = {
    "kg-s3": "51ccd01fc47b871c350d5c95be6f7e1f9e872733e874db9525351bf4c3478fe3",
    "kg-z2": "c65b571cdad4c0ea3fdb9fcfbdc5150186bc000c8a8eadbf5b3cf2dfa03ee75e",
    "kg-z3": "08f0edf2f18ab7d04dcd1d6b0e01b51b4851045dad81d5af1caaeb23ff3715a2",
    "kg-integers": "a9d357559f98f38f307cbca75262b15c64bbb4305c354c7f25284394ca525f10",
    "group-algebra-s3": "392c60d76556ba974e88692951fff69c3191addf0b8325631ea623f1d4704857",
    "constant-cz2-s3": "af0501781c6b172667b7b55b490716780ec53a556eba3993289af4dc73e35496",
}

DUAL = {
    "kg-s3": "1238faa32068e73bafd37aeccb3e65d61fc46ea2d383648807101ed887ed71a3",
    "kg-z2": "a04b53c5bd919ebff4083c9faa6708153e6cbfa8ae00ce5e1840681e9b2d6790",
    "kg-z3": "d1e4d8dc23f0cd8077f3290f29c8f7b551fb85a5b7d5f0ffd7569b678a392afa",
    "group-algebra-s3": "1f2ee9058be765a9d1061cd3e9bd1dc4eaf6a1c111ce3b934e4caeff4ca7afee",
    "constant-cz2-s3": "8f1762bd6aaff0f8577c49dfd15fb8075676a78363f1f04c490fc9e2b68d4739",
}

# spec digests of the graded-mode exports written by ``dual builtin:<name> --out``
DUAL_EXPORT = {
    "kg-s3": "5c14894724a0c78ac5409f788c04f05559fb55adb27dcdb29d19feff4e667480",
    "kg-z2": "7524ab75cda3fcffcc4547f8ed563b38310b7c5745d86312b9b3bf92a67eb803",
    "kg-z3": "eb7b8f5b180c8948be46762ac61bc2e191d8d378aa4b81e02a4d2ceab0562a67",
    "group-algebra-s3": "353ef60c20c367589b1adc19957da3ec243069e24775703d669b019c04108d90",
    "constant-cz2-s3": "b24009fc1f0a1529d59127ebab1ad02c55cceb1be67fe0b7a021fd7ffd7a37cc",
}

# ``dual builtin:kg-integers --window=-2..2``: the dual of an infinite structure
DUAL_INTEGERS = "c3f1d051b6fc1050c084d00013bc6add77253743349a265b515c3f6042a5400f"

DOUBLE_GACS3_ADJOINT = "1f65bbf9bf8cf8daf5f20039c82e4498667f232e52077194f0db41e219ab34df"
VERIFY_DOUBLE_EXPORT = "ad4a6a3ba17bc19e1cab06b1913375e21cb65d031b882bf79fcaa640492de6bc"


def run_digest(capsys, argv):
    """Run the CLI; returns (exit status, the report digest it printed)."""
    status = main(argv)
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("report digest: ")]
    assert len(lines) == 1, out
    return status, lines[0].split(": ", 1)[1]


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_builtin_digest(capsys, name):
    assert run_digest(capsys, ["verify", "builtin:" + name]) == (0, VERIFY[name])


@pytest.mark.parametrize("name", sorted(DUAL))
def test_dual_builtin_digest(capsys, name):
    assert run_digest(capsys, ["dual", "builtin:" + name]) == (0, DUAL[name])


def test_dual_infinite_builtin_digest(capsys):
    argv = ["dual", "builtin:kg-integers", "--window=-2..2"]
    assert run_digest(capsys, argv) == (0, DUAL_INTEGERS)


@pytest.mark.parametrize("name", sorted(DUAL_EXPORT))
def test_dual_export_digest(capsys, tmp_path, name):
    path = str(tmp_path / "dual.json")
    assert run_digest(capsys, ["dual", "builtin:" + name, "--out", path]) == (0, DUAL[name])
    assert spec_digest(load_spec_file(path)) == DUAL_EXPORT[name]


def test_double_and_export_digests(capsys, tmp_path):
    path = str(tmp_path / "double-s3-adjoint.json")
    argv = ["double", "--pair", "builtin:pairing-gacs3", "--action", "adjoint", "--out", path]
    assert run_digest(capsys, argv) == (0, DOUBLE_GACS3_ADJOINT)
    assert run_digest(capsys, ["verify", path]) == (0, VERIFY_DOUBLE_EXPORT)
