import json
import math
import os
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tree_walk import walked_call, walked_jet_eval

from bour_edge import deform, jets
from bour_edge.cli import main
from bour_edge.expr import SmoothFn
from bour_edge.profile import DATUM_FIELDS, datum_from_dict, sibling


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


def test_quad_tol_reaches_the_canonical_parameter(capsys, datum_file, monkeypatch):
    from bour_edge import natural
    seen = []
    canonical = natural.canonical_from_speed
    monkeypatch.setattr(natural, "canonical_from_speed",
                        lambda *a, **kw: seen.append(a[-1]) or canonical(*a, **kw))
    code, _, _ = run_cli(capsys, "roundtrip", "--datum", datum_file, "--quad-tol", "1e-10")
    assert code == 0
    assert seen == [1e-10]


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
@pytest.mark.parametrize("command, option", [
    (["build", "--out", "OUT"], "--quad-tol"), (["roundtrip"], "--quad-tol"),
    (["classify"], "--tol"), (["classify-curve", "--expr-x", "s^2", "--expr-y", "s^3"], "--tol"),
])
def test_a_tolerance_that_is_not_positive_and_finite_is_usage_error(capsys, datum_file, tmp_path,
                                                                    command, option, value):
    datum = [] if command[0] == "classify-curve" else ["--datum", datum_file]
    argv = [arg.replace("OUT", str(tmp_path / "out")) for arg in command]
    code, out, err = run_cli(capsys, *argv, *datum, option, value)
    assert code == 2
    assert out == ""
    assert err == f"bour-edge: error: {option} must be positive and finite, got {float(value)!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("as_json", [False, True])
def test_a_zero_tolerance_that_is_not_non_negative_and_finite_is_usage_error(capsys, datum_file,
                                                                             tmp_path, value, as_json):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "validate", "--datum", datum_file, "--zero-tol", value,
                             "--out", str(out_dir), *(["--json"] if as_json else []))
    message = f"--zero-tol must be non-negative and finite, got {float(value)!r}"
    assert code == 2
    assert out == ""
    if as_json:
        assert json.loads(err) == {"error": "UsageError", "message": message, "exit_code": 2}
    else:
        assert err == f"bour-edge: error: {message}\n"
    assert not out_dir.exists()


def test_a_zero_tolerance_of_zero_is_accepted(capsys, datum_file):
    code, out, _ = run_cli(capsys, "validate", "--datum", datum_file, "--zero-tol", "0")
    assert code == 0
    assert json.loads(out)["star_ok"] is True


@pytest.mark.parametrize("flags", [["--t-range", "0", "nan"], ["--s-range", "0.5", "-0.5"],
                                   ["--s-range", "nan", "0.5"], ["--t-range", "1", "1"]])
def test_build_refuses_non_finite_or_reversed_ranges(capsys, datum_file, tmp_path, flags):
    code, out, err = run_cli(capsys, "build", "--datum", datum_file, "--out", str(tmp_path / "out"), *flags)
    assert code == 2
    assert out == ""
    assert "must be finite with lo < hi" in err
    assert not (tmp_path / "out" / "mesh.obj").exists()


# -- datum files: every field is checked by make_edge_data ---------------------

_EVIDENCE = [("k", 1.7), ("eps0", 1.9), ("eps2", -1.5), ("k", True), ("m", True), ("k", "1"),
             ("J", [-0.8, 0.8, 5]), ("J", [-0.8]), ("h", None), ("k", None), ("eps1", None),
             ("J", None), ("J", 5), ("J", [None, 0.8]), ("m", 2.0**256)]


def _validate_file(capsys, tmp_path, payload, *flags):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    return run_cli(capsys, "validate", "--datum", str(path), *flags)


@pytest.mark.parametrize("field, value", _EVIDENCE, ids=[f"{f}={json.dumps(v)}" for f, v in _EVIDENCE])
def test_datum_file_field_of_the_wrong_type_is_usage_error(capsys, tmp_path, field, value):
    code, out, err = _validate_file(capsys, tmp_path, dict(EDGE_K1, **{field: value}))
    assert code == 2
    assert out == ""
    assert err.startswith(f"bour-edge: error: {field} must be ")


def test_integral_float_k_in_a_datum_file_is_accepted(capsys, tmp_path):
    expected = _validate_file(capsys, tmp_path, EDGE_K1)
    assert _validate_file(capsys, tmp_path, dict(EDGE_K1, k=1.0)) == expected
    assert expected[0] == 0


def test_datum_file_that_is_not_an_object_is_usage_error(capsys, tmp_path):
    code, out, err = _validate_file(capsys, tmp_path, [EDGE_K1])
    assert code == 2
    assert out == ""
    assert err.startswith("bour-edge: error: datum file is not a JSON object: ")


_ANY_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.none(), st.integers(), st.floats()), max_size=3),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(DATUM_FIELDS), value=_ANY_JSON_VALUE, as_json=st.booleans())
def test_any_value_in_any_datum_field_is_reported(capsys, tmp_path, field, value, as_json):
    code, out, err = _validate_file(capsys, tmp_path, dict(EDGE_K1, **{field: value}),
                                    *(["--json"] if as_json else []))
    assert code in (0, 1, 2)
    if code == 2:
        message = json.loads(err)["message"] if as_json else err
        assert re.search(rf"\b{field}\b", message), message


# -- k beyond the series a datum carries at 0 ----------------------------------

def _high_k_args(k):
    return ("--U", f"1 + {0.2 / (k + 1)!r}*s^{k + 1} + 0.01*s^{2 * k + 2}", "--h", "0.1",
            "--m", "1", "--eps0", "1", "--eps1", "1", "--eps2", "1", "--k", str(k),
            "--J", "-0.4", "0.4")


@pytest.mark.parametrize("command, k, message", [
    ("roundtrip", 8, "the natural chart at k = 8 needs the x and z series at s = 0 to order 25, "
                     "but they stop at order 24 (jets.MAX_ORDER = 32)"),
    ("invariants", 11, "the s-derivatives of Psi at k = 11 need the x, z and theta series at s = 0 "
                       "to order 22, but they stop at order 21 (jets.MAX_ORDER = 32)"),
    ("validate", 32, "V = U'/s^k at k = 32 needs U's series at s = 0 to order 33, "
                     "but they stop at order 32 (jets.MAX_ORDER = 32)"),
])
def test_k_beyond_the_series_names_the_orders(capsys, command, k, message):
    code, out, err = run_cli(capsys, command, *_high_k_args(k))
    assert code == 2
    assert out == ""
    assert err == f"bour-edge: error: {message}\n"


# -- roundtrip reports only comparisons it made ---------------------------------

@pytest.mark.parametrize("probe, message", [
    (("-0.5", "0.5", "0"), "--s-probe count must be a positive integer, got 0"),
    (("-0.5", "0.5", "2.7"), "--s-probe count must be a positive integer, got 2.7"),
    (("5", "6", "10"), "no s_probe point lies in the chart's s-range [-0.8000000000000002, 0.8000000000000002]"),
], ids=["zero", "fraction", "outside"])
def test_roundtrip_refuses_a_probe_it_cannot_compare(capsys, datum_file, probe, message):
    code, out, err = run_cli(capsys, "roundtrip", "--datum", datum_file, "--s-probe", *probe)
    assert code == 2
    assert out == ""
    assert err == f"bour-edge: error: {message}\n"


def test_zero_tol_family_and_inversion(capsys, tmp_path):
    # U'(0) = 1e-8 passes only under --zero-tol 1e-7; members must not re-check it
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"U": "1 + 1e-8*s + 6*s^2", "h": 0.01, "m": 0.05, "eps0": 1,
                                "eps1": 1, "eps2": 1, "k": 1, "J": [-0.3, 0.3]}))
    datum = ("--datum", str(path), "--zero-tol", "1e-7")
    code, out, _ = run_cli(capsys, "deform", *datum, "--h-span", "0.005", "--m-span", "0.01",
                           "--nh", "2", "--nm", "2")
    assert code == 0
    members = json.loads(out)["members"]
    assert [mem["valid"] for mem in members] == [True] * 4

    member = sibling(datum_from_dict(json.loads(path.read_text()), zero_tol=1e-7), 0.015, 0.06)
    kappa_nu, kappa_t = deform.invariant_map(member)
    code, out, err = run_cli(capsys, "invert", *datum, "--target-kappa-nu", repr(kappa_nu),
                             "--target-kappa-t", repr(kappa_t))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["h"] == pytest.approx(0.015, abs=1e-10)
    assert doc["m"] == pytest.approx(0.06, abs=1e-10)


@pytest.mark.parametrize("flag", ["--nh", "--nm"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_deform_refuses_a_grid_count_below_one(capsys, datum_file, flag, count):
    code, out, err = run_cli(capsys, "deform", "--datum", datum_file, flag, count)
    assert code == 2
    assert out == ""
    assert err == f"bour-edge: error: {flag[2:]} must be at least 1, got {count}\n"


@pytest.mark.parametrize("x, y, det_32", [("1e200*s^2", "1e200*s^3", math.inf),
                                           ("1e200*s^2", "s^3*(-1e200)", -math.inf),
                                           ("1e-200*s^2", "1e-200*s^3", 0.0)])
def test_classify_curve_json_parses_at_any_scale(capsys, x, y, det_32):
    # det_32 of the raw derivatives overflows (or underflows); the JSON spells
    # an infinity as json.loads reads it
    code, out, _ = run_cli(capsys, "classify-curve", "--expr-x", x, "--expr-y", y)
    assert code == 0
    assert json.loads(out) == {"tag": "3/2", "witnesses": {"det_32": det_32}}


def test_json_spells_infinities_as_json_loads_reads_them():
    from bour_edge._fmt import fmt17, to_json17
    doc = {"a": math.inf, "b": [-math.inf, 1.5], "c": math.nan}
    text = to_json17(doc)
    assert '"a": Infinity' in text and "[-Infinity, 1.5]" in text and '"c": NaN' in text
    back = json.loads(text)
    assert back["a"] == math.inf and back["b"] == [-math.inf, 1.5] and math.isnan(back["c"])
    assert (fmt17(math.inf), fmt17(-math.inf)) == ("inf", "-inf")  # OBJ and CSV text keep theirs
