import json
import math
import os
import sys

import pytest
from tree_walk import walked_call, walked_jet_eval

from bour_edge import jets
from bour_edge.cli import main
from bour_edge.expr import SmoothFn


EDGE_K1 = {
    "U": "1 - s*cos(s) + sin(s)", "h": 0.2, "m": 1.0,
    "eps0": 1, "eps1": 1, "eps2": -1, "k": 1, "J": [-0.8, 0.8],
}


@pytest.fixture
def datum_file(tmp_path):
    path = tmp_path / "edge_k1.json"
    path.write_text(json.dumps(EDGE_K1))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_curve_72(capsys):
    code, out, _ = run_cli(capsys, "classify-curve", "--expr-x", "s^2", "--expr-y", "s^7")
    assert code == 0
    doc = json.loads(out)
    assert doc["tag"] == "7/2"
    assert doc["witnesses"]["c1"] == 0
    assert doc["witnesses"]["c2"] == 0


def test_invariants_values(capsys, datum_file):
    code, out, _ = run_cli(capsys, "invariants", "--datum", datum_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa_nu"]["closed"] == pytest.approx(0.9798, abs=1e-4)
    assert doc["kappa_t"]["closed"] == pytest.approx(0.2, abs=1e-12)
    assert abs(doc["kappa_nu"]["closed"] - doc["kappa_nu"]["oracle"]) < 1e-6
    assert doc["max_discrepancy"] < 1e-6


def test_validate_ok_and_failure(capsys, datum_file, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--datum", datum_file)
    assert code == 0
    assert json.loads(out)["star_ok"] is True

    out_dir = tmp_path / "bad"
    code, out, _ = run_cli(capsys, "validate", "--datum", datum_file, "--h", "1.5",
                           "--out", str(out_dir))
    assert code == 1
    doc = json.loads(out)
    assert doc["star_ok"] is False
    # the report is still written
    assert (out_dir / "validation.json").exists()


def test_build_writes_mesh(capsys, datum_file, tmp_path):
    out_dir = tmp_path / "mesh"
    code, out, _ = run_cli(capsys, "build", "--datum", datum_file, "--out", str(out_dir),
                           "--rows", "6", "--cols", "5")
    assert code == 0
    obj = (out_dir / "mesh.obj").read_text()
    assert obj.startswith("# bour-edge ")
    assert sum(1 for line in obj.splitlines() if line.startswith("v ")) == 30
    assert (out_dir / "forms.csv").read_text().startswith("s,t,E,F,G")


def test_flag_overrides_file(capsys, datum_file):
    # --h overrides the datum file's pitch
    code, out, _ = run_cli(capsys, "invariants", "--datum", datum_file, "--h", "0.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa_t"]["closed"] == 0


def test_classify_agreement(capsys, datum_file):
    code, out, _ = run_cli(capsys, "classify", "--datum", datum_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["tag"] == "3/2"
    assert doc["via_profile"]["tag"] == "3/2"
    assert doc["agree"] is True


def test_invert_roundtrip(capsys, datum_file):
    u0 = 1.0
    target_kn = math.sqrt(1.05**2 * u0**2 - 0.01) / (1.05**2 * u0**2)
    target_kt = 0.1 / (1.05**2 * u0**2)
    code, out, _ = run_cli(capsys, "invert", "--datum", datum_file,
                           "--target-kappa-nu", str(target_kn),
                           "--target-kappa-t", str(target_kt))
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == pytest.approx(0.1, abs=1e-8)
    assert doc["m"] == pytest.approx(1.05, abs=1e-8)


def test_deform_exports_family(capsys, datum_file, tmp_path):
    out_dir = tmp_path / "family"
    code, out, _ = run_cli(capsys, "deform", "--datum", datum_file, "--out", str(out_dir),
                           "--h-span", "0.05", "--m-span", "0.0", "--nh", "2", "--nm", "1",
                           "--rows", "4", "--cols", "4")
    assert code == 0
    assert (out_dir / "family.csv").exists()
    doc = json.loads(out)
    assert len(doc["members"]) == 2


def test_isomers_output(capsys, datum_file, tmp_path):
    out_dir = tmp_path / "iso"
    code, out, _ = run_cli(capsys, "isomers", "--datum", datum_file, "--out", str(out_dir),
                           "--rows", "3", "--cols", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["variants"]) == 4
    assert doc["metric_deviation"] < 1e-8
    objs = [n for n in os.listdir(out_dir) if n.endswith(".obj")]
    assert len(objs) == 4


def test_roundtrip_command(capsys, datum_file, tmp_path):
    out_dir = tmp_path / "rt"
    code, out, _ = run_cli(capsys, "roundtrip", "--datum", datum_file,
                           "--s-probe", "-0.5", "0.5", "21", "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["sup_error_U"] < 1e-6
    assert (out_dir / "chart.json").exists()


def test_usage_errors(capsys, datum_file):
    code, _, _ = run_cli(capsys, "invariants")  # no datum at all
    assert code == 2
    code, _, err = run_cli(capsys, "invariants", "--datum", "/nonexistent/x.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "invariants", "--datum", datum_file, "--U", "sin(")
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    # s-range outside the datum domain is a usage error
    code, _, _ = run_cli(capsys, "build", "--datum", datum_file, "--out", "/tmp/x",
                         "--s-range", "-5", "5")
    assert code == 2


def test_json_error_reporting(capsys, datum_file):
    code, _, err = run_cli(capsys, "invariants", "--datum", datum_file, "--h", "1.5", "--json")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "StarViolation"
    assert doc["exit_code"] == 1


def test_deterministic_output(capsys, datum_file, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        code, _, _ = run_cli(capsys, "build", "--datum", datum_file, "--out", str(out_dir),
                             "--rows", "5", "--cols", "5")
        assert code == 0
    assert (dir_a / "mesh.obj").read_bytes() == (dir_b / "mesh.obj").read_bytes()
    assert (dir_a / "forms.csv").read_bytes() == (dir_b / "forms.csv").read_bytes()

    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "invariants", "--datum", datum_file)
        outs.append(out)
    assert outs[0] == outs[1]


def test_validate_overflow_writes_error_document(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--U", "exp(2000*s^2)", "--h", "0", "--m", "1",
                           "--eps0", "1", "--eps1", "1", "--eps2", "1", "--k", "1",
                           "--J", "-0.8", "0.8", "--out", str(tmp_path))
    assert code == 1
    doc = json.loads(out)
    assert doc["star_ok"] is False
    assert doc["error"] == "DomainError"
    assert (tmp_path / "validation.json").exists()


def test_validate_non_finite_angle_writes_error_document(capsys):
    code, out, _ = run_cli(capsys, "validate", "--U", "1 + 0*sin(1e200*1e200)", "--h", "0",
                           "--m", "1", "--eps0", "1", "--eps1", "1", "--eps2", "1", "--k", "1",
                           "--J", "-0.8", "0.8")
    assert code == 1
    doc = json.loads(out)
    assert doc["star_ok"] is False
    assert doc["error"] == "DomainError"


def test_validate_non_finite_pitch_is_usage_error(capsys, datum_file):
    code, out, _ = run_cli(capsys, "validate", "--datum", datum_file, "--h", "nan")
    assert code == 2
    assert out == ""


_INLINE_SIGNS = ("--h", "0", "--m", "1", "--eps0", "1", "--eps1", "1", "--eps2", "1",
                 "--k", "1", "--J", "-0.8", "0.8")


@pytest.mark.parametrize("U", [
    "1" + "+0*s^2" * 999,  # a left-deep sum of 1000 terms
    "(" * 200 + "1 + s^2" + ")" * 200,
], ids=["sum_of_1000_terms", "200_parentheses"])
def test_validate_too_deep_expression_is_usage_error(capsys, U):
    code, out, err = run_cli(capsys, "validate", "--U", U, *_INLINE_SIGNS)
    assert code == 2
    assert out == ""
    assert err.startswith("bour-edge: error: bad expression for U: expression nested too deeply")


_BYTE_IDENTITY_DATA = {
    "readme": EDGE_K1,
    "edge_k2": {"U": "(-s^2+2)*cos(s) + 2*s*sin(s) - 1", "h": 0.1, "m": 1.0,
                "eps0": 1, "eps1": 1, "eps2": -1, "k": 2, "J": [-0.7, 0.7]},
    "six_powers": {"U": "1.2 + 0.2*(1 - cos(s)) + 0.1*s^2 - 0.05*s^3 + 0.02*s^4 + 0.1*s^5 - 0.03*s^6",
                   "h": 0.3, "m": 1.1, "eps0": 1, "eps1": 1, "eps2": -1, "k": 1,
                   "J": [-0.45, 0.45]},
}


def _cli_outputs(capsys, path):
    results = []
    for command in ("validate", "invariants", "classify", "roundtrip"):
        code, out, _ = run_cli(capsys, command, "--datum", path)
        results.append((command, code, out))
    return results


@pytest.mark.parametrize("name", sorted(_BYTE_IDENTITY_DATA))
def test_cli_output_does_not_depend_on_the_evaluator(capsys, monkeypatch, tmp_path, name):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(_BYTE_IDENTITY_DATA[name]))
    compiled = _cli_outputs(capsys, str(path))

    walks = []
    compiled_jet_eval = jets.jet_eval
    monkeypatch.setattr(SmoothFn, "__call__", lambda f, x: walks.append("float") or walked_call(f, x))
    for module in list(sys.modules.values()):
        if module.__name__.startswith("bour_edge") and getattr(module, "jet_eval", None) is compiled_jet_eval:
            monkeypatch.setattr(module, "jet_eval",
                                lambda f, base, order: walks.append("jet") or walked_jet_eval(f, base, order))
    walked = _cli_outputs(capsys, str(path))

    assert set(walks) == {"float", "jet"}
    assert [code for _, code, _ in compiled] == [0, 0, 0, 0]
    assert walked == compiled


def test_validate_scans_the_star_grid_once(capsys, monkeypatch, datum_file):
    from bour_edge.profile import check_star
    calls = []
    for module in list(sys.modules.values()):
        if module.__name__.startswith("bour_edge") and getattr(module, "check_star", None) is check_star:
            monkeypatch.setattr(module, "check_star",
                                lambda *a, **kw: calls.append(1) or check_star(*a, **kw))
    code, out, _ = run_cli(capsys, "validate", "--datum", datum_file)
    assert code == 0
    assert json.loads(out)["star_ok"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("U", [1, ["1"], None], ids=["int", "list", "null"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_non_string_U_in_a_datum_file_is_usage_error(capsys, tmp_path, U, as_json):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(dict(EDGE_K1, U=U, h="not a number")))
    code, out, err = run_cli(capsys, "validate", "--datum", str(path), *(["--json"] if as_json else []))
    assert code == 2
    assert out == ""
    message = f"bad expression for U: {U!r} is not a string"
    if as_json:
        assert json.loads(err) == {"error": "UsageError", "message": message, "exit_code": 2}
    else:
        assert err == f"bour-edge: error: {message}\n"


@pytest.mark.parametrize("command", ["validate", "invariants", "classify", "invert", "classify-curve"])
def test_quad_tol_is_refused_where_it_is_not_read(capsys, datum_file, command):
    args = {"invert": ["--datum", datum_file, "--target-kappa-nu", "0.95", "--target-kappa-t", "0.1"],
            "classify-curve": ["--expr-x", "s^2", "--expr-y", "s^7"]}.get(command, ["--datum", datum_file])
    assert run_cli(capsys, command, *args)[0] == 0
    code, out, err = run_cli(capsys, command, *args, "--quad-tol", "1e-10")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --quad-tol 1e-10" in err


def test_quad_tol_reaches_the_roundtrip(capsys, datum_file, monkeypatch):
    from bour_edge import natural
    seen = []
    roundtrip = natural.roundtrip
    monkeypatch.setattr(natural, "roundtrip", lambda *a, **kw: seen.append(kw["quad_tol"]) or roundtrip(*a, **kw))
    code, _, _ = run_cli(capsys, "roundtrip", "--datum", datum_file, "--quad-tol", "1e-10")
    assert code == 0
    assert seen == [1e-10]
