"""The bytes of the mesh files: OBJ vertices and faces, and forms.csv."""

import hashlib
import io
import math

import numpy as np
import pytest

from bour_edge import bour, cli
from bour_edge._fmt import fmt17


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _mesh_files(data, **kw):
    """(mesh.obj, forms.csv) texts as ``build --out`` writes them, and the mesh."""
    mesh = bour.sample_mesh(data, **kw)
    obj, csv = io.StringIO(), io.StringIO()
    bour.write_obj(mesh, obj)
    bour.write_form_csv(data, mesh.s_values, mesh.t_values[:: max(1, mesh.cols // 8)], csv)
    return obj.getvalue(), csv.getvalue(), mesh


# SHA-256 of (mesh.obj, forms.csv), stored from the per-value writers (b07c87c).
_FILE_DIGESTS = {
    "readme_60x60": (
        "193a95b101623ef520497c020d9ec30b6d443453dc8a9659cc01d27dd08a1b3b",
        "b43ed5b01e9adb6cbad401bdf8f88b1d5b6336d2d8bb2140246e1e2b5eabc77c",
    ),
    "edge_k2_12x9": (
        "88edaef8ca748e83df69f8ba134ec8368b9b49989bc1e4c99ce11f6798f06ef1",
        "803c51897fe8770813d0ad9627f9b9a8ba0111b8527a9d092f5495f84bbb74a4",
    ),
    "readme_eps0_neg_7x5": (
        "b4cb7305e8b98c4fda413b3f1a47247e2835b37eab8bc02083face326faddd13",
        "6d614c818f72e575cdc8a9903b7789b480a4741bdb4380a58ae3d0cba5c85345",
    ),
}
_CSV_DIGEST = "79a9949ccf521ec468362d47c87c88c82419171c5104a0c5ae1a978db6051425"
_CSV_S = [-0.5, 0.0, 0.3, 0.75]
_CSV_T = [0.0, 1.0, 2.5]


def test_readme_mesh_files_keep_their_bytes(edge_k1):
    obj, csv, _ = _mesh_files(edge_k1)
    assert (_sha(obj), _sha(csv)) == _FILE_DIGESTS["readme_60x60"]


def test_edge_k2_mesh_files_keep_their_bytes(edge_k2):
    obj, csv, _ = _mesh_files(edge_k2, rows=12, cols=9)
    assert (_sha(obj), _sha(csv)) == _FILE_DIGESTS["edge_k2_12x9"]


def test_negative_zero_vertices_are_written_as_zero(edge_k1):
    obj, csv, mesh = _mesh_files(edge_k1.replace(eps0=-1), rows=7, cols=5)
    # x < 0 and sin(0) = 0 make y = -0.0 on the s = 0 row at t = 0
    y = float(mesh.positions[mesh.singular_row, 0, 1])
    assert y == 0.0 and math.copysign(1.0, y) == -1.0
    assert "-0 " not in obj and "-0\n" not in obj
    assert (_sha(obj), _sha(csv)) == _FILE_DIGESTS["readme_eps0_neg_7x5"]


@pytest.mark.parametrize("convert", [list, np.array], ids=["list", "numpy"])
def test_form_csv_keeps_its_bytes_for_list_and_numpy_input(edge_k1, convert):
    out = io.StringIO()
    bour.write_form_csv(edge_k1, convert(_CSV_S), convert(_CSV_T), out)
    assert _sha(out.getvalue()) == _CSV_DIGEST


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def test_obj_tokens_spell_special_values_as_fmt17(edge_k1):
    values = _SPECIAL + [-0.1, 1e16, -2.5e-300]
    positions = np.array(values).reshape(2, 2, 3)
    mesh = bour.Mesh(s_values=np.array([0.1, 0.2]), t_values=np.array([0.0, 1.0]),
                     positions=positions, singular_row=None, datum=edge_k1)
    out = io.StringIO()
    bour.write_obj(mesh, out)
    lines = out.getvalue().splitlines()
    vertices = [line.split()[1:] for line in lines if line.startswith("v ")]
    assert [token for vertex in vertices for token in vertex] == [fmt17(v) for v in values]
    assert [line for line in lines if line.startswith("f ")] == ["f 1 2 4 3"]


def test_fmt17_spellings():
    assert [fmt17(v) for v in _SPECIAL] == [
        "0", "0", "NaN", "inf", "-inf", "4.9406564584124654e-324",
        "1.7976931348623157e+308", "-1.7976931348623157e+308", "0.10000000000000001"]


def test_form_csv_evaluates_the_form_once_per_s(edge_k1, monkeypatch):
    calls = []
    original = bour.first_fundamental_form

    def counted(data, s, t):
        calls.append(s)
        return original(data, s, t)

    monkeypatch.setattr(bour, "first_fundamental_form", counted)
    out = io.StringIO()
    bour.write_form_csv(edge_k1, np.linspace(-0.5, 0.5, 7), np.linspace(0.0, 6.0, 8), out)
    assert len(out.getvalue().splitlines()) == 1 + 7 * 8
    assert len(calls) == 7


def test_form_csv_with_no_t_values_writes_the_header_only(edge_k1):
    out = io.StringIO()
    bour.write_form_csv(edge_k1, [0.0, 0.3], [], out)
    assert out.getvalue() == "s,t,E,F,G\n"


@pytest.mark.parametrize("s_range, expected", [((-0.5, 0.5), [-0.5, 0.5]),
                                               ((-0.5, 0.001), [-0.5, 0.001])])
def test_mesh_keeps_requested_endpoints(edge_k1, s_range, expected):
    mesh = bour.sample_mesh(edge_k1, s_range, (0.0, 1.0), rows=2, cols=2)
    assert mesh.s_values.tolist() == expected
    assert mesh.singular_row is None


def test_mesh_keeps_requested_endpoints_with_an_interior_row(edge_k1):
    mesh = bour.sample_mesh(edge_k1, (-0.5, 0.001), (0.0, 1.0), rows=3, cols=2)
    assert mesh.s_values[[0, -1]].tolist() == [-0.5, 0.001]
    assert mesh.s_values[1] != 0.0
    assert mesh.singular_row is None


@pytest.mark.parametrize("s_range, rows, row", [((0.0, 0.5), 4, 0), ((-0.5, 0.0), 4, 3),
                                                ((-0.5, 0.6), 6, 2)])
def test_mesh_snaps_zero_at_an_endpoint_or_inside(edge_k1, s_range, rows, row):
    mesh = bour.sample_mesh(edge_k1, s_range, (0.0, 1.0), rows=rows, cols=2)
    assert mesh.singular_row == row
    assert mesh.s_values[row] == 0.0
    assert mesh.s_values[[0, -1]].tolist() == list(s_range)


def test_build_keeps_the_requested_s_range(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["build", "--U", "1 - s*cos(s) + sin(s)", "--h", "0.2", "--m", "1",
                     "--eps0", "1", "--eps1", "1", "--eps2", "-1", "--k", "1", "--J", "-0.8", "0.8",
                     "--out", str(out), "--rows", "2", "--cols", "2", "--s-range", "-0.5", "0.5"])
    assert code == 0
    assert '"singular_row": null' in capsys.readouterr().out
    rows = (out / "forms.csv").read_text().splitlines()[1:]
    assert sorted({row.split(",")[0] for row in rows}) == ["-0.5", "0.5"]


@pytest.mark.parametrize("name", ["write_obj", "write_form_csv"])
def test_a_path_target_enters_the_public_writer_once(edge_k1, tmp_path, monkeypatch, name):
    # A wrapper on the public name (as a per-layer tracer installs) sees one call
    # per file, and the bytes are those written to a stream.
    calls = []
    original = getattr(bour, name)

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(bour, name, counted)
    mesh = bour.sample_mesh(edge_k1, rows=4, cols=3)
    args = (mesh,) if name == "write_obj" else (edge_k1, mesh.s_values, mesh.t_values)
    path, stream = tmp_path / "out", io.StringIO()
    getattr(bour, name)(*args, path)
    assert calls == [path]
    original(*args, stream)
    assert path.read_text() == stream.getvalue()
