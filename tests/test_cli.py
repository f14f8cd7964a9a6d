"""Command line interface: subcommands, report shapes, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieobstruct
from lieobstruct import data_path
from lieobstruct.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code != 0
    return code, json.loads(err)["error"]


def test_hall_parity_slice(capsys):
    report = run_report(capsys, "hall", "--gens", "2", "--level", "2", "--deg", "12")
    slice2 = report["results"]["x2_slice"]
    assert [slice2[str(i)] for i in range(3, 13)] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert slice2["1"] == 0 and slice2["2"] == 0


def test_hall_x2_slice_formula_matches_enumeration(capsys):
    """The closed-form x2_slice equals a count of the enumerated words of
    multidegree (2, b), b <= 14, at levels 0 through 4."""
    from lieobstruct.freelie import hall_basis_derived, multidegree

    for level in range(5):
        counts = {b: 0 for b in range(1, 15)}
        for w in hall_basis_derived(2, level, 16):
            a, b = multidegree(w, 2)
            if a == 2 and b <= 14:
                counts[b] += 1
        report = run_report(capsys, "hall", "--gens", "2", "--level", str(level), "--deg", "14")
        assert report["results"]["x2_slice"] == {str(b): c for b, c in counts.items()}


def test_hall_witt_counts(capsys):
    report = run_report(capsys, "hall", "--gens", "2", "--deg", "5")
    assert report["results"]["degree_counts"] == {
        "1": 2, "2": 1, "3": 2, "4": 3, "5": 6,
    }
    assert report["command"] == "hall"


def test_hall_single_generator_derived_is_empty(capsys):
    report = run_report(capsys, "hall", "--gens", "1", "--level", "1", "--deg", "5")
    assert all(v == 0 for v in report["results"]["degree_counts"].values())


def test_hall_rejects_bad_caps(capsys):
    code, err = run_error(capsys, "hall", "--gens", "2", "--deg", "0")
    assert code == 2
    assert err["type"] == "usage"


def test_missing_required_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "hall", "--deg", "4")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_h2scan_free_metabelian(capsys):
    report = run_report(
        capsys, "h2scan", data_path("free_metabelian.json"), "--deg", "12"
    )
    res = report["results"]
    assert res["verdict"] == "growing"
    assert res["window_start"] == 9
    dims = {int(k): v for k, v in res["h2_dims"].items()}
    assert {k: v for k, v in dims.items() if v} == {5: 2, 7: 4, 9: 6, 11: 8}


def test_h2scan_free_metabelian_degree_40(capsys):
    """On two letters the Chen module is free of rank one on [x,y], and H2
    of the free metabelian algebra is k - 3 in odd degrees k >= 5, 0
    elsewhere; its ideal's x-degree-2 slice counts the level-2 words
    [[x,y^k],[x,y^l]], k < l, k + l = i."""
    report = run_report(
        capsys, "h2scan", data_path("free_metabelian.json"), "--deg", "40"
    )
    res = report["results"]
    assert res["verdict"] == "growing"
    assert res["h2_dims"] == {
        str(k): k - 3 if k % 2 and k >= 5 else 0 for k in range(1, 41)
    }
    assert res["ideal_x2_dims"] == {str(i): (i - 1) // 2 for i in range(3, 39)}


@pytest.mark.parametrize("level", [1, 2, 3, pytest.param(None, id="relators")])
def test_h2scan_derived_without_generators_is_domain_error(level, tmp_path, capsys):
    """No letters is a LieError for a derived ideal and, raised inside the
    relator ideal's closure, for an empty relator list too."""
    empty = tmp_path / "empty.json"
    scheme = {"scheme": {"derived": level}} if level else {"relators": []}
    empty.write_text(json.dumps({"generators": [], **scheme}))
    code, err = run_error(capsys, "h2scan", str(empty), "--deg", "5")
    assert code == 1
    assert err == {"type": "LieError", "message": "alphabet size must be >= 1, got 0"}


def test_h2scan_quadratic_relator_bounded(capsys):
    report = run_report(capsys, "h2scan", data_path("pres_torus.json"), "--deg", "6")
    assert report["results"]["verdict"] == "bounded-so-far"


def test_h2scan_malformed_relator(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": ["x", "y"], "relators": ["[x,"]}))
    code, err = run_error(capsys, "h2scan", str(bad), "--deg", "3")
    assert code == 1
    assert "message" in err


def test_h2scan_deeply_nested_relator_is_domain_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    relator = "[x," * 1200 + "y" + "]" * 1200
    deep.write_text(json.dumps({"generators": ["x", "y"], "relators": [relator]}))
    code, err = run_error(capsys, "h2scan", str(deep), "--deg", "3")
    assert code == 1
    assert err["type"] == "PresentationError"


@pytest.mark.parametrize(
    "relator, message",
    [("1/0*[x,y]", "zero denominator"), ("\u00b2*[x,y]", "expected a coefficient")],
    ids=["zero-denominator", "superscript-digit"],
)
def test_h2scan_bad_coefficient_is_domain_error(relator, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": ["x", "y"], "relators": [relator]}))
    code, err = run_error(capsys, "h2scan", str(bad), "--deg", "3")
    assert code == 1
    assert err["type"] == "PresentationError"
    assert message in err["message"]


def test_holonomy_zero_denominator_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degrees": {"1": ["a"], "2": ["b"]},
        "d": {},
        "mu": {"a*a": "1/0*b"},
    }))
    code, err = run_error(capsys, "holonomy", str(bad))
    assert code == 1
    assert err["type"] == "CdgaError"
    assert "zero denominator" in err["message"]


@pytest.mark.parametrize(
    "degrees",
    [
        {"01": ["a1", "a2"], "2": ["b"]},
        {"1": ["a1", "a2"], "01": ["c"], "2": ["b"]},
    ],
    ids=["only-padded", "padded-beside-plain"],
)
def test_holonomy_noncanonical_degree_key_is_domain_error(degrees, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degrees": degrees}))
    code, err = run_error(capsys, "holonomy", str(bad))
    assert code == 1
    assert err["type"] == "CdgaError"
    assert "'01'" in err["message"]


@pytest.mark.parametrize(
    "argv, bad, kind",
    [
        (["h2scan", "BAD", "--deg", "3"],
         {"generators": ["x", "y"], "relator": ["[x,y]"]}, "PresentationError"),
        (["holonomy", "BAD"], {"degrees": {"1": ["a"]}, "comment": "x"}, "CdgaError"),
        (["fixed", data_path("torus.json"), "BAD"],
         {"elements": ["e"], "table": {"e,e": "e"}, "maps": {}, "note": ""}, "CdgaError"),
    ],
    ids=["presentation", "cdga", "action"],
)
def test_unknown_top_level_key_is_domain_error(argv, bad, kind, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, err = run_error(capsys, *[str(path) if a == "BAD" else a for a in argv])
    assert code == 1
    assert err["type"] == kind
    assert "unknown key" in err["message"]


def test_holonomy_huge_degree_key_is_rejected_before_any_work(tmp_path, capsys):
    """A degree key far above 3 fails at once with the top-degree error; no
    per-degree row is built up to it first."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degrees": {"1": ["a"], "1000000000": []}}))
    code, err = run_error(capsys, "holonomy", str(bad))
    assert code == 1
    assert err["type"] == "CdgaError"
    assert "need <= 3" in err["message"]


SWAP = {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "e"}


@pytest.mark.parametrize(
    "argv, bad, message",
    [
        (["holonomy", "BAD"],
         {"degrees": {"1": ["a"], "2": ["b"]}, "mu": {"a*a": "b"}},
         "graded commutativity fails on 'a' * 'a'"),
        (["holonomy", "BAD"],
         {"degrees": {"1": ["a", "b", "c"], "2": ["p", "q"], "3": ["t"]},
          "mu": {"a*b": "p", "b*c": "q", "c*p": "t"}},
         "associativity fails on 'a', 'b', 'c'"),
        (["fixed", data_path("heis.json"), "BAD"],
         {"elements": ["e", "s"], "table": SWAP, "maps": {"s": {"a3": "-a3"}}},
         "morphism does not commute with d on 'a3'"),
    ],
    ids=["commutativity", "associativity", "action-d"],
)
def test_loader_axiom_error_is_one_json_line(argv, bad, message, tmp_path, capsys):
    """The loaders' axiom checks report the first failure as one JSON line."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, *[str(path) if a == "BAD" else a for a in argv])
    assert (code, out) == (1, "")
    expected = {"error": {"message": f"{path}: {message}", "type": "CdgaError"}}
    assert err == json.dumps(expected, sort_keys=True) + "\n"


def test_resonance_zero_denominator_point_is_domain_error(capsys):
    code, err = run_error(
        capsys, "resonance", data_path("wedge2.json"), "--point", "1/0*a1"
    )
    assert code == 1
    assert err["type"] == "CdgaError"
    assert "zero denominator" in err["message"]


def test_h2scan_boolean_derived_level_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": ["x", "y"], "scheme": {"derived": True}}))
    code, err = run_error(capsys, "h2scan", str(bad), "--deg", "3")
    assert code == 1
    assert err["type"] == "PresentationError"


@pytest.mark.parametrize(
    "action",
    [
        {"elements": ["e"], "table": [], "maps": {}},
        {"elements": ["e"], "table": {"e,e": "e"}, "maps": []},
        {"elements": ["e"], "table": {"e,e": "e"}, "maps": {"e": "x"}},
        {"elements": [["e"]], "table": {"e,e": "e"}, "maps": {}},
    ],
    ids=["table-list", "maps-list", "map-string", "element-list"],
)
def test_fixed_malformed_action_is_domain_error(action, tmp_path, capsys):
    bad = tmp_path / "action.json"
    bad.write_text(json.dumps(action))
    code, err = run_error(capsys, "fixed", data_path("torus.json"), str(bad))
    assert code == 1
    assert err["type"] == "CdgaError"


def test_holonomy_heis(capsys):
    report = run_report(
        capsys, "holonomy", data_path("heis.json"), "--lcs", "5"
    )
    res = report["results"]
    assert res["relators"] == ["x3 + [x1,x2]", "[x1,x3]", "[x2,x3]"]
    assert res["lcs_dims"] == [2, 1, 0, 0]
    assert "convention" in res


def test_holonomy_noncarnot_and_torus(capsys):
    report = run_report(capsys, "holonomy", data_path("noncarnot.json"))
    assert len(report["results"]["relators"]) == 10
    report = run_report(capsys, "holonomy", data_path("torus.json"))
    assert report["results"]["relators"] == ["[x1,x2]"]


def test_resonance_probe_torus(capsys):
    report = run_report(capsys, "resonance", data_path("torus.json"))
    assert report["results"]["probe"]["verdict"] == "no-witness-found"


def test_resonance_probe_wedge(capsys):
    report = run_report(capsys, "resonance", data_path("wedge2.json"))
    probe = report["results"]["probe"]
    assert probe["verdict"] == "nontrivial"
    assert probe["witness"] == {"a1": 1}


def test_resonance_point_dims(capsys):
    report = run_report(
        capsys, "resonance", data_path("wedge2.json"), "--point", "a1"
    )
    assert report["results"]["dims"] == {"0": 0, "1": 1}
    assert report["results"]["point"] == "a1"


def test_resonance_rejects_nonclosed_point(capsys):
    code, err = run_error(
        capsys, "resonance", data_path("heis.json"), "--point", "a3"
    )
    assert code == 1
    assert err["type"] == "CdgaError"


def test_classify_heis(capsys):
    report = run_report(
        capsys, "classify", data_path("heis.json"), "--stage", "4"
    )
    res = report["results"]
    assert {k: v["dim"] for k, v in res["stages"].items()} == {"2": 2, "3": 3, "4": 3}
    for row in res["one_equivalence"].values():
        assert row == {"h1_iso": True, "h2_kernel_inclusion": True}
    for block in res["stability"].values():
        for cell in block.values():
            assert cell == {"prop_i": True, "prop_ii": True}
    assert res["filtration"]["all_equal"] is True


CLASSIFY_STAGE5_SHA256 = {
    "heis": "4220c1c74587fd024bffb49f461eea63fdfa2dc7be97238bfdb76a45cf162277",
    "noncarnot": "612bce2de850d55e504b022bdb8e0a0b1cb34c1fad556a23964bf48ca91c00db",
    "torus": "cbcb915d441d93ee30795d82c5fb6155398a96aa2f83f2d39ab250cddfc1a9d0",
    "wedge2": "afb8eda2e7bdb166aafd5ea73ce5adb541d3a4a84979f69e7ed344d678fdbba7",
}


@pytest.mark.parametrize("model", sorted(CLASSIFY_STAGE5_SHA256))
def test_classify_stage5_report_is_pinned(model, tmp_path, capsys):
    """Pins the whole stage-5 report, d1 entries included."""
    out = tmp_path / "report.json"
    argv = ["classify", data_path(model + ".json"), "--stage", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLASSIFY_STAGE5_SHA256[model]


GOLDEN_REPORT_SHA256 = {
    ("hall", "--gens", "2", "--level", "2", "--deg", "14"):
        "75d0f36571436861c8abd1c7312612d9565f7d4a54f5a1e54189d38ab083727c",
    ("hall", "--gens", "3", "--deg", "9"):
        "3041414a7df0cb088cef68679b5b5c5f83f22426ed75f51f6f2d2f487dc02d34",
    ("hall", "--gens", "2", "--level", "2", "--deg", "18"):
        "785cb1e2fff914c5372e28385cf9763cdcbfa7128a424f7e71905b077265a49c",
    ("hall", "--gens", "3", "--deg", "11"):
        "da41307f8938af0cb558b84d5b74d2f501ca2b5d4e2d03974316a6ee668dbe96",
    ("hall", "--gens", "1", "--deg", "4"):
        "7aa6d4d5232a8d1688ddeb03255690feb93c5d36bfef2b0a0f189211ab9e6350",
    ("hall", "--gens", "2", "--level", "4", "--deg", "10"):
        "df1be73b2a0c29b90ba3f0b6613c35ef8f0159704ead05d95384710e5404efde",
    ("h2scan", "pres_cubic.json", "--deg", "10"):
        "ea72e638a88743dd1f0431b16288a83f0dcd21c9d19296b6b89bc19b3ee57a09",
    ("h2scan", "free_metabelian.json", "--deg", "12"):
        "9236e491e062b86ce160536860ea214aafcc22eeaa6e21d3e70a6ed58f6d650a",
    ("h2scan", "pres_torus.json", "--deg", "10"):
        "8c1e0d66eca03410493316a364b77ca722b3c909bd6efb2658cd6ec5d8b00db9",
    ("holonomy", "noncarnot.json", "--lcs", "7"):
        "2d5cbeed3d55633666a414eda8acd1454b1586f5cd3b33be1375ca76cb8b1d27",
    ("holonomy", "noncarnot.json", "--lcs", "9"):
        "a7da78c8361ebbe7e8bdd4befe5dddf0029e3083e9a41cceb0e21984c2bd95c1",
    ("holonomy", "noncarnot.json", "--lcs", "12"):
        "a6ba4f76672b3309886a8300e08e7b184997f01b472485767fd586a4d090769e",
    ("fixed", "torus.json", "swap_torus.json"):
        "a3e7d7dfcf8b9828cf62db8aa517a163c973e8fd27ebf6db48f19afd21bb9af6",
    ("resonance", "wedge2.json"):
        "8c6ffe849552dbd0faaef076f2ab29ad4b2e7e3e7a2498932f5ecf73929168d6",
    ("resonance", "heis.json", "--point", "a1"):
        "95500a48e791b76c7fcc334ef87e955b8e6002020ce1b3ee791c573af4469561",
    ("classify", "wedge2.json", "--stage", "7"):
        "62fe5fd25ce6b137439eed1283adafec43940100de4df565954b51b5c98d1aa4",
    ("classify", "wedge2.json", "--stage", "8"):
        "646967edf2e393a21a9fea768dddb17005988cb5bf3304309e5482b454ff949b",
    ("classify", "noncarnot.json", "--stage", "6"):
        "5ddb78a40386dc16960710b3833d1c92b228c22ed625926bacd5ebb2cc43de72",
    ("classify", "noncarnot.json", "--stage", "8"):
        "b30e222563071951871f90ce3e47158e5386f5c0c5f488775b67bc678426dab3",
    ("classify", "noncarnot.json", "--stage", "10"):
        "d0af21c6cd18e4d9f0fd3b9e9f2fd2d1e867ceb2f37bdcbcb75a4803d73650be",
    ("classify", "heis.json", "--stage", "7"):
        "789d133f2aaf0dbda85ca8f4814f3ef0db9c324f6ffa5155a5b4ef61ba1a7f91",
    ("linearize", "pres_cubic.json"):
        "064f6780ac974c9d7b4ee77db8e92dce93b2afe319de26bcf46f4e4106e95c15",
    ("linearize", "pres_noncarnot.json"):
        "d43188494eb5f8e8e0472ddf91adc4a98fec758d278632c299e211a179b01ef5",
    ("linearize", "pres_cubic.json", "--deg", "4", "--class", "4"):
        "2e0c0be5d87a183f871b2b41836d8b7b32228997251274418609ab625da6c01d",
}


def _case_id(case):
    return "-".join(a[:-5] if a.endswith(".json") else a for a in case if not a.startswith("--"))


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORT_SHA256), ids=_case_id)
def test_report_is_pinned(case, tmp_path, capsys):
    """Pins whole reports: h2scan (ideal_x2_dims included), holonomy
    (relators included; noncarnot also at classes 9 and 12, past the degree
    its relator ideal fills, where the quotient stays 5-dimensional), fixed,
    resonance probe and point dims, linearize (pres_cubic also at degree and
    class 4, where the rewritten presentation has 30 generators), and
    classify reports whose towers reach stage 8 of a free Lie algebra,
    stages 6, 8 and 10 of noncarnot and stage 7 of heis, each read
    against its quotient one class higher, a graded tower that is not
    free, and hall reports (the second derived
    level to degrees 14 and 18, three letters to degrees 9 and 11, one
    letter, and an empty level)."""
    out = tmp_path / "report.json"
    argv = [data_path(a) if a.endswith(".json") else a for a in case]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256[case]


RANDOM4_CDGA = {
    "d": {},
    "degrees": {"1": ["a1", "a2", "a3", "a4"], "2": ["b1", "b2", "b3", "b4"]},
    "mu": {"a1*a2": "-2*b1 + b2 + 2*b3 - 2*b4", "a1*a3": "-2*b1 + b3",
           "a1*a4": "-2*b2 - b3 + 2*b4", "a2*a3": "-2*b1 - 2*b2 + 2*b4",
           "a2*a4": "2*b1 - b2 - 2*b4", "a3*a4": "2*b1 + b2 - b3 + 2*b4"},
}


@pytest.mark.parametrize("model, stage, digest", [
    ("wedge2", 10, "3f9f67fa49cd1dbaacb90fbf5f44176e0d8e97dae765568a29dae69d479060f1"),
    ("random4", 6, "9b819146d352940d713cad9e9032ef425285253aede60cebc23b5c4f9f4097c3"),
])
def test_classify_on_weight_capped_stages_is_pinned(model, stage, digest, tmp_path, capsys):
    """Graded towers whose stages are built in weights <= n only: the d1
    rows are still reported by their index among all pairs of the stage.
    random4 is a seeded d = 0 cdga on four generators with four classes,
    whose quotient needs the representative scan modulo a large J."""
    src = tmp_path / "random4.json"
    src.write_text(json.dumps(RANDOM4_CDGA))
    path = data_path("wedge2.json") if model == "wedge2" else str(src)
    out = tmp_path / "report.json"
    assert main(["classify", path, "--stage", str(stage), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


FILTERED_CDGA = {
    "d": {"a3": "b1", "a4": "b2"},
    "degrees": {"1": ["a1", "a2", "a3", "a4"], "2": ["b1", "b2", "b3"]},
    "mu": {"a1*a2": "b1", "a1*a3": "b3", "a1*a4": "b2", "a2*a3": "b2", "a2*a4": "-2*b3"},
}


@pytest.mark.parametrize("argv, digest", [
    (["holonomy", "--lcs", "9"], "58bcdf5b1295a4869ddfde0b8c23bb2ea542512dc895bd52176f547c8cfa949f"),
    (["classify", "--stage", "6"], "1d0ff1f519e6c90c9f4b4d6703a2deec13db04e1fea86ac853cc0cda850f9694"),
], ids=["holonomy", "classify"])
def test_filtered_report_is_pinned(argv, digest, tmp_path, capsys):
    """A d != 0 cdga whose holonomy, once x3 and x4 are eliminated, keeps
    one relator on x1 and x2 with parts of degrees 3 to 8, and whose
    quotient does not close by class 8: its layers run 2, 1, 1, 1, 2, 2,
    4, 5."""
    src = tmp_path / "filtered.json"
    src.write_text(json.dumps(FILTERED_CDGA))
    out = tmp_path / "report.json"
    assert main([argv[0], str(src), *argv[1:], "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    if argv[0] == "holonomy":
        assert report["results"]["lcs_dims"] == [2, 1, 1, 1, 2, 2, 4, 5]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_h2scan_commutator_relator_degree_13_is_pinned(tmp_path, capsys):
    """[x,y] fills its ideal in degree 2, so the whole report through degree
    13 reads the closure of one relator and the Hall words above it."""
    src = tmp_path / "xy.json"
    src.write_text(json.dumps({"generators": ["x", "y"], "relators": ["[x,y]"]}))
    out = tmp_path / "report.json"
    assert main(["h2scan", str(src), "--deg", "13", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3ba2884ea037dfe1f419a784b55a125aebfcf7cdf3ce77f38b18a15434c1c105"
    )


def test_h2scan_relator_consequence_and_duplicate_are_pinned(tmp_path, capsys):
    """H2 counts a relator only when it raises the ideal past the generator
    brackets of its degree: [y,[x,[x,y]]] is such a bracket of [x,[x,y]],
    and 2*[x,[x,y]] a multiple of it, so each degree of 3 and 4 keeps one."""
    src = tmp_path / "xyz.json"
    src.write_text(json.dumps({"generators": ["x", "y", "z"], "relators": [
        "[x,[x,y]]", "[y,[x,[x,y]]]", "2*[x,[x,y]]", "[[x,z],[y,z]] + [z,[z,[x,y]]]"]}))
    out = tmp_path / "report.json"
    assert main(["h2scan", str(src), "--deg", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    dims = json.loads(out.read_text())["results"]["h2_dims"]
    assert dims == {str(k): int(k in (3, 4)) for k in range(1, 9)}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0fc7ac296c254c63d855f05ed8b2f9a8a81670b8f537a5bac29189972c0c81c9"
    )


def test_linearize_three_letters_degree_6_is_pinned(tmp_path, capsys):
    """A degree-6 relator on three letters, each repeated, beside a cubic
    one: the rewritten relators are solved over ad monomials with letters
    repeated, where the dependent monomials' coefficients are set to 0."""
    src = tmp_path / "xyz.json"
    src.write_text(json.dumps({"generators": ["x", "y", "z"], "relators": [
        "[x,[y,[z,[x,[y,z]]]]] - 2*[z,[z,[x,[y,[x,y]]]]] + [[x,y],[[x,z],[y,z]]]",
        "[x,[x,y]] + 3*[z,[y,z]]"]}))
    out = tmp_path / "report.json"
    assert main(["linearize", str(src), "--class", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8a3b7aa9ee57813df2c36d0fb579606a32f56292aef1b4a19024310fc514e1e7"
    )


def test_internal_error_is_reported_as_json(monkeypatch, capsys):
    """A failing runtime invariant exits 1 with a JSON error, not a traceback."""
    from lieobstruct import fplie

    monkeypatch.setattr(fplie.NilpotentLieAlgebra, "check_filtration", lambda self: False)
    code, err = run_error(capsys, "holonomy", data_path("heis.json"), "--lcs", "3")
    assert code == 1
    assert err["type"] == "InternalError"
    assert "filtration" in err["message"]


def test_classify_stage_one_is_usage_error(capsys):
    code, err = run_error(
        capsys, "classify", data_path("heis.json"), "--stage", "1"
    )
    assert code == 2
    assert err["type"] == "usage"


def test_linearize_cubic(capsys):
    report = run_report(capsys, "linearize", data_path("pres_cubic.json"))
    res = report["results"]
    assert res["relators_linear_quadratic"] is True
    assert res["dims_agree"] is True
    assert res["dims_input"] == res["dims_output"]


def test_linearize_rejects_derived_scheme(capsys):
    code, err = run_error(
        capsys, "linearize", data_path("free_metabelian.json")
    )
    assert code == 1
    assert err["type"] == "PresentationError"


def test_fixed_swap_on_torus(capsys):
    report = run_report(
        capsys, "fixed", data_path("torus.json"), data_path("swap_torus.json")
    )
    res = report["results"]
    assert res["dims"] == [1, 1, 0]
    assert res["betti"] == [1, 1, 0]


def test_missing_file_is_domain_error(capsys):
    code, err = run_error(capsys, "h2scan", "/nonexistent/p.json", "--deg", "3")
    assert code == 1
    assert err["type"] == "io"


def test_reports_deterministic(tmp_path, capsys):
    for argv in (
        ["hall", "--gens", "2", "--level", "1", "--deg", "8"],
        ["resonance", data_path("wedge2.json"), "--seed", "0"],
        ["classify", data_path("torus.json"), "--stage", "3"],
    ):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def test_timings_only_on_request(capsys):
    cases = [
        (["hall", "--gens", "2", "--deg", "4"], ["enumerate", "x2_slice"]),
        (["h2scan", "pres_torus.json", "--deg", "4"], ["load", "scan"]),
        (["classify", "heis.json", "--stage", "3"],
         ["import", "tower", "one_equivalence", "stability", "filtration"]),
    ]
    for argv, phases in cases:
        argv = [data_path(a) if a.endswith(".json") else a for a in argv]
        plain = run(capsys, *argv)[1]
        timed = json.loads(run(capsys, *argv, "--timings")[1])
        assert "timings" not in json.loads(plain)
        assert [name for name, _ in timed.pop("timings")] == phases
        # the report is otherwise the plain one, byte for byte
        assert json.dumps(timed, indent=2, sort_keys=True) + "\n" == plain


CLOSURE_PROBE = """
import json, os, sys
before = set(sys.modules)
import lieobstruct.cli
imported = sorted(set(sys.modules) - before)
code = lieobstruct.cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({"code": code, "imported": imported, "loaded": sorted(sys.modules)}))
"""


def _closure(argv):
    """The modules that importing the CLI loads, and every module loaded
    once main(argv) has returned, in a fresh interpreter."""
    src = str(Path(lieobstruct.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = [data_path(a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", CLOSURE_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    return set(out["imported"]), set(out["loaded"])


@pytest.mark.parametrize("argv, absent, present", [
    (["h2scan", "pres_torus.json", "--deg", "4"], {"cdga", "ce", "nilquot"}, set()),
    (["hall", "--gens", "2", "--deg", "6"], {"cdga", "ce", "nilquot"}, set()),
    (["holonomy", "heis.json", "--lcs", "3"], {"ce"}, {"cdga", "nilquot"}),
    (["classify", "heis.json", "--stage", "3"], set(), {"cdga", "ce", "nilquot"}),
    (["holonomy", "noncarnot.json", "--lcs", "6"], {"ce"}, {"cdga", "nilquot"}),
    (["linearize", "pres_noncarnot.json"], {"cdga", "ce", "nilquot"}, set()),
], ids=["h2scan", "hall", "holonomy", "classify", "holonomy-filtered", "linearize"])
def test_subcommands_import_only_what_they_run(argv, absent, present):
    imported, loaded = _closure(argv)
    assert not imported & {"dataclasses", "inspect"}
    assert not imported & {"lieobstruct.cdga", "lieobstruct.ce", "lieobstruct.nilquot"}
    assert not loaded & {f"lieobstruct.{m}" for m in absent}
    assert {f"lieobstruct.{m}" for m in present} <= loaded


def test_out_writes_file_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "hall", "--gens", "3", "--deg", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["results"]["degree_counts"] == {"1": 3, "2": 3, "3": 8, "4": 18}
