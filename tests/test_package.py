import importlib
import json
import os
import subprocess
import sys

import pytest

import bour_edge
from bour_edge import deform
from bour_edge.profile import sibling

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bour_edge.__file__)))

README = {"U": "1 - s*cos(s) + sin(s)", "h": 0.2, "m": 1.0,
          "eps0": 1, "eps1": 1, "eps2": -1, "k": 1, "J": [-0.8, 0.8]}
EDGE_K2 = {"U": "(-s^2+2)*cos(s) + 2*s*sin(s) - 1", "h": 0.1, "m": 1.0,
           "eps0": 1, "eps1": 1, "eps2": -1, "k": 2, "J": [-0.7, 0.7]}

# Runs the CLI on its arguments, then writes the numpy modules it loaded to stderr.
CLI_THEN_NUMPY_MODULES = (
    "import sys\n"
    "from bour_edge.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(repr(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')))\n"
    "sys.exit(code)\n"
)


def _fresh(code, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)


def test_every_public_name_resolves_to_its_submodule_attribute():
    for name in bour_edge.__all__:
        value = getattr(bour_edge, name)
        if name == "__version__":
            assert value == importlib.import_module("bour_edge._version").__version__
            continue
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bour_edge import *", namespace)
    assert set(bour_edge.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(bour_edge.__all__) <= set(dir(bour_edge))


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'bour_edge' has no attribute 'no_such_name'$"):
        bour_edge.no_such_name  # noqa: B018


def test_importing_the_package_does_not_import_numpy():
    out = _fresh("import bour_edge, sys; "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_a_submodule_is_an_attribute_of_the_bare_package():
    out = _fresh("import bour_edge; print(bour_edge.profile.__name__, bour_edge.natural.__name__)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["bour_edge.profile", "bour_edge.natural"]


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    paths = {}
    for name, payload in (("readme", README), ("edge_k2", EDGE_K2)):
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(payload, fh)
    return paths


def _invert_args(edge_k1, edge_k2, name):
    base = {"readme": edge_k1, "edge_k2": edge_k2}[name]
    kappa_nu, kappa_t = deform.invariant_map(sibling(base, base.h * 1.2, base.m * 1.05))
    return ["--target-kappa-nu", repr(kappa_nu), "--target-kappa-t", repr(kappa_t)]


@pytest.mark.parametrize("name", ["readme", "edge_k2"])
@pytest.mark.parametrize("command", ["validate", "classify", "invariants", "invert"])
def test_scalar_commands_do_not_import_numpy(data_files, edge_k1, edge_k2, command, name):
    extra = _invert_args(edge_k1, edge_k2, name) if command == "invert" else []
    out = _fresh(CLI_THEN_NUMPY_MODULES, command, "--datum", data_files[name], *extra)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "[]"


def test_classify_curve_does_not_import_numpy():
    out = _fresh(CLI_THEN_NUMPY_MODULES, "classify-curve", "--expr-x", "s^2", "--expr-y", "s^3")
    assert out.returncode == 0, out.stderr
    assert out.stderr == "[]"


@pytest.mark.parametrize("command", ["build", "isomers", "deform"])
def test_file_writing_commands_do_not_import_numpy(data_files, tmp_path, command):
    out = _fresh(CLI_THEN_NUMPY_MODULES, command, "--datum", data_files["readme"],
                 "--out", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert out.stderr == "[]"


# The control: the natural chart's tables are arrays.
@pytest.mark.parametrize("command", ["roundtrip"])
def test_array_commands_load_numpy_and_succeed(data_files, tmp_path, command):
    out = _fresh(CLI_THEN_NUMPY_MODULES, command, "--datum", data_files["readme"],
                 "--out", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert "'numpy'" in out.stderr
