"""Spec file round-trips and the command-line pipelines."""

import json

import pytest

from cogradedhopf.cli import main, verify_structure
from cogradedhopf.cograded import adjoint_shuffle_action
from cogradedhopf.groups import s3_group, cyclic_group
from cogradedhopf.hopf import make_kg, make_group_algebra
from cogradedhopf.specfile import (
    SpecFormatError,
    builtin_structure,
    canonical_json,
    load_structure,
    spec_digest,
    structure_from_doc,
    structure_to_doc,
    save_spec,
    load_spec_file,
)


def test_structure_round_trip_kg_s3(tmp_path):
    h = make_kg(s3_group())
    doc = structure_to_doc(h)
    path = tmp_path / "kg-s3.json"
    save_spec(str(path), doc)
    loaded = structure_from_doc(load_spec_file(str(path)))
    again = structure_to_doc(loaded.structure, label=doc["label"])
    assert canonical_json(doc) == canonical_json(again)
    assert loaded.digest == spec_digest(doc)


def test_structure_round_trip_group_algebra(tmp_path):
    h = make_group_algebra(s3_group())
    doc = structure_to_doc(h)
    path = tmp_path / "ga-s3.json"
    save_spec(str(path), doc)
    loaded = structure_from_doc(load_spec_file(str(path)))
    assert loaded.structure.algebra.mode == "graded"
    again = structure_to_doc(loaded.structure, label=doc["label"])
    assert canonical_json(doc) == canonical_json(again)


def test_round_trip_preserves_report_digest(tmp_path):
    h = make_kg(cyclic_group(2))
    doc = structure_to_doc(h)
    path = tmp_path / "kg-z2.json"
    save_spec(str(path), doc)
    first = verify_structure(load_structure(str(path)))
    second = verify_structure(load_structure(str(path)))
    assert first.digest() == second.digest()


def test_builtin_names():
    for name in ("kg-s3", "kg-z2", "kg-integers", "group-algebra-s3", "constant-cz2-s3"):
        loaded = builtin_structure(name)
        assert loaded.structure is not None
    with pytest.raises(SpecFormatError):
        builtin_structure("kg-unknown")


def test_verify_builtin_cli(capsys):
    code = main(["verify", "builtin:kg-z2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


def test_verify_infinite_builtin_with_window(capsys):
    code = main(["verify", "builtin:kg-integers", "--window=-3..3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "window: -3..3" in out


def test_verify_structured_format(capsys):
    code = main(["verify", "builtin:kg-z2", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["title"].startswith("verification")
    assert all(isinstance(c["passed"], bool) for c in doc["checks"])


def test_verify_broken_coassociativity_fails(tmp_path, capsys):
    h = make_kg(cyclic_group(2))
    doc = structure_to_doc(h)
    doc["delta"]["e|e"] = [["2"]]  # breaks coassociativity against the other blocks
    path = tmp_path / "broken.json"
    save_spec(str(path), doc)
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_parse_error_reports_section(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "cogradedhopf-1", "label": "x"}))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "group" in err


def test_double_pipeline_cli(tmp_path, capsys):
    out_path = tmp_path / "double-z2.json"
    code = main([
        "double", "--pair", "builtin:pairing-gacz2-missing", "--action", "trivial",
        "--out", str(out_path),
    ])
    assert code == 2  # unknown builtin pairing is a spec error


def test_dual_pipeline_cli(tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    code = main(["dual", "builtin:kg-z2", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = load_spec_file(str(out_path))
    assert doc["mode"] == "graded"
    assert "pairing" in doc
    # reload; the dual of the function algebra is group-algebra shaped
    loaded = structure_from_doc(doc)
    assert loaded.structure.algebra.dim("e") == 1
    assert loaded.pairing_section["partner"] == "kg-z2"


def test_double_export_reload_verify(tmp_path, capsys):
    out_path = tmp_path / "double-z2.json"
    code = main([
        "double", "--pair", "builtin:pairing-gacs3", "--action", "adjoint",
        "--out", str(out_path), "--report", str(tmp_path / "report.txt"),
    ])
    capsys.readouterr()
    assert code == 0
    first = verify_structure(load_structure(str(out_path)))
    assert first.passed, first.text()
    second = verify_structure(load_structure(str(out_path)))
    assert first.digest() == second.digest()


def test_action_section_round_trip(tmp_path):
    h = make_kg(s3_group())
    act = adjoint_shuffle_action(h)
    doc = structure_to_doc(h, action=act)
    path = tmp_path / "kg-s3-action.json"
    save_spec(str(path), doc)
    loaded = structure_from_doc(load_spec_file(str(path)))
    assert loaded.action is not None
    from cogradedhopf.cograded import check_crossing
    from cogradedhopf.groups import Window

    assert check_crossing(loaded.action, Window.full(loaded.structure.group)).passed


def test_double_aborts_on_inadmissible_action(tmp_path, capsys):
    # pi_p = 2*id is not multiplicative, so admissibility fails and the
    # pipeline aborts with the certificate before building anything
    from cogradedhopf.hopf import make_kg
    from cogradedhopf.specfile import structure_to_doc, save_spec

    ga = structure_to_doc(make_group_algebra(s3_group()))
    kg = structure_to_doc(make_kg(s3_group()))
    kg["pairing"] = {"partner": "group-algebra-S3", "forms": {"default": [["1"]]}}
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_spec(str(path_a), ga)
    save_spec(str(path_b), kg)
    bad = dict(kg)
    bad["action"] = {"rho": "trivial", "default_block": [["2"]], "label": "doubling"}
    path_act = tmp_path / "act.json"
    save_spec(str(path_act), bad)
    code = main([
        "double", "--pair", "%s,%s" % (path_a, path_b),
        "--action", str(path_act), "--out", str(tmp_path / "d.json"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "action-algebra-morphism" in out
    assert not (tmp_path / "d.json").exists()


def test_double_from_spec_files_matches_builtin(tmp_path, capsys):
    from cogradedhopf.hopf import make_kg
    from cogradedhopf.specfile import structure_to_doc, save_spec

    ga = structure_to_doc(make_group_algebra(s3_group()))
    kg = structure_to_doc(make_kg(s3_group()))
    kg["pairing"] = {"partner": "group-algebra-S3", "forms": {"default": [["1"]]}}
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_spec(str(path_a), ga)
    save_spec(str(path_b), kg)
    out_a = tmp_path / "double-files.json"
    code = main([
        "double", "--pair", "%s,%s" % (path_a, path_b),
        "--action", "trivial", "--out", str(out_a),
    ])
    capsys.readouterr()
    assert code == 0
    doc = load_spec_file(str(out_a))
    assert doc["mode"] == "cograded"
    assert doc["group"]["elements"] == ["e"]  # trivial action: ungraded double


# The function algebra on a two-element group, as in the README.
KG_Z2_SPEC = {
    "format": "cogradedhopf-1",
    "label": "kg-Z2",
    "mode": "cograded",
    "group": {"kind": "table", "elements": ["e", "g1"], "table": [[0, 1], [1, 0]]},
    "components": {"default": {"dim": 1, "structure": [[["1"]]], "unit": ["1"], "star": [["1"]]}},
    "delta": {"default": [["1"]]},
    "counit": {"e": ["1"], "g1": ["0"]},
    "antipode": {"default": [["1"]]},
    "star": {"default": [["1"]]},
}


def verify_spec(tmp_path, capsys, edit):
    """Verify a copy of the README spec changed by ``edit``; returns (status, stderr)."""
    doc = json.loads(json.dumps(KG_Z2_SPEC))
    edit(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    return code, capsys.readouterr().err


def test_readme_spec_verifies(tmp_path, capsys):
    assert verify_spec(tmp_path, capsys, lambda doc: None) == (0, "")


def test_division_by_zero_scalar_is_a_spec_error(tmp_path, capsys):
    code, err = verify_spec(tmp_path, capsys, lambda doc: doc["counit"].update(e=["1/0"]))
    assert code == 2
    assert "bad scalar '1/0'" in err


def test_string_in_group_table_is_a_spec_error(tmp_path, capsys):
    code, err = verify_spec(
        tmp_path, capsys, lambda doc: doc["group"].update(table=[[0, "1"], [1, 0]]))
    assert code == 2
    assert "group table" in err


def test_ragged_group_table_is_a_spec_error(tmp_path, capsys):
    code, err = verify_spec(
        tmp_path, capsys, lambda doc: doc["group"].update(table=[[0, 1], [1]]))
    assert code == 2
    assert "group table" in err


def test_delta_block_shape_is_checked(tmp_path, capsys):
    code, err = verify_spec(
        tmp_path, capsys, lambda doc: doc["delta"].update(default=[["1", "0"]]))
    assert code == 2
    assert "delta block e|e has shape 1x2, expected 1x1" in err


def test_antipode_block_shape_is_checked(tmp_path, capsys):
    code, err = verify_spec(
        tmp_path, capsys, lambda doc: doc["antipode"].update(default=[["1"], ["0"]]))
    assert code == 2
    assert "antipode block e has shape 2x1, expected 1x1" in err


def test_declared_dim_must_match_structure_constants(tmp_path, capsys):
    code, err = verify_spec(
        tmp_path, capsys, lambda doc: doc["components"]["default"].update(dim=3))
    assert code == 2
    assert "declares dim 3" in err


def test_unknown_counit_key_is_a_spec_error(tmp_path, capsys):
    code, err = verify_spec(tmp_path, capsys, lambda doc: doc["counit"].update(g2=["0"]))
    assert code == 2
    assert "counit names unknown element 'g2'" in err


def test_graded_delta_block_shape_is_checked(tmp_path, capsys):
    doc = structure_to_doc(make_group_algebra(cyclic_group(2)))
    doc["delta"]["g1"] = [["1"], ["0"]]
    path = tmp_path / "graded.json"
    save_spec(str(path), doc)
    code = main(["verify", str(path)])
    assert code == 2
    assert "delta block g1 has shape 2x1, expected 1x1" in capsys.readouterr().err
