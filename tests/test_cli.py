import json
import math
import os

import pytest

from bour_edge.cli import main


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
