"""The four benchmark workloads, each with its per-item correctness gate.

A workload hands out items (``next_item``, untimed), runs one item
(``work``, timed), and checks its outputs (``check``, untimed, returning a
list of failure messages). ``library_work`` is the in-process part that the
traced run measures; it is ``work`` except for ``cli_cold``, whose timed item
is a subprocess.

Why these four: each optimisation in view does most of its work on one of
them and almost none on another.

* ``cli_cold``: interpreter start plus ``import bour_edge`` is most of a
  short command, and only this workload pays it per item. Cold start and
  lazy imports show here and nowhere else.
* ``forward``: distinct data, sharing no work. Scalar ``expr`` evaluation,
  quadrature per mesh row, ``bour`` meshing and file writing. A cache that
  only pays on repeated inputs shows no gain here.
* ``sweep``: every member of an (h, m) family shares U and the star grid, so
  re-validation dominates and there is almost no quadrature. Reuse and
  broadcast validity checks show here.
* ``inverse``: the quadrature-node path of the natural-coordinate roundtrip
  (an order-1 jet per node, the canonical parameter, Pchip tables), with no
  validation in the timed part.

Tolerances are those of the acceptance tests or tighter.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from bour_edge import bour, cli, cusps, deform, invariants, natural, profile
from bour_edge.errors import BourEdgeError

import corpus

METRIC_IDENTITY_TOL = 1e-8
ORACLE_TOL = 1e-6
ROUNDTRIP_TOL = 1e-6
FAMILY_METRIC_TOL = 3e-8
INVERSION_TOL = 1e-8
ISOMER_TOL = 1e-8
HELIX_TOL = 1e-14
REFERENCE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
MESH_TOL = 1e-9

FORWARD_ROWS = FORWARD_COLS = 60
SWEEP_GRID = (3, 3)
SWEEP_H_SPAN, SWEEP_M_SPAN = 0.15, 0.1
# 3/4 of the library's default tabulation, the coarsest that kept
# sup_error_U under a tenth of its tolerance on every seed tried (k = 2 data
# on a wide J are the hardest). U is compared on the inner 70% of J, as the
# acceptance test compares it on [-0.5, 0.5] of J = [-0.7, 0.7].
INVERSE_N_TAB = 384
INVERSE_PROBE_SHARE = 0.7
CLI_BUILD_SIZE = 16
CLI_TIMEOUT_S = 120

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def metric_identity_failures(spec, csv_text):
    """E = s^(2k), F = 0, G = U(s)^2 on every row of a forms.csv."""
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "s,t,E,F,G":
        return ["forms.csv header"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    s, E, F, G = rows[:, 0], rows[:, 2], rows[:, 3], rows[:, 4]
    worst = max(float(np.max(np.abs(E - s ** (2 * spec.k)))), float(np.max(np.abs(F))),
                float(np.max(np.abs(G - spec.U(s) ** 2))))
    return [] if worst < METRIC_IDENTITY_TOL else [f"metric identity off by {worst!r}"]


def helix_failures(spec, helices):
    """Each isomer's singular helix: radius sqrt(m^2 U(0)^2 - h^2), advance |h|."""
    radius = math.sqrt(spec.m**2 * spec.a0**2 - spec.h**2)
    if all(abs(r - radius) <= HELIX_TOL and abs(z - abs(spec.h)) <= HELIX_TOL
           for r, z in helices):
        return []
    return ["isomer helix invariants differ"]


def obj_vertices(text):
    return np.array([[float(v) for v in line.split()[1:]]
                     for line in text.splitlines() if line.startswith("v ")])


def compare_json(got, want, path="$"):
    """Differences between two CLI documents.

    Oracle values are finite differences, so they are compared at the oracle
    tolerance; every other number at REFERENCE_TOL.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for key in want for d in compare_json(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare_json(g, w, f"{path}[{i}]")]
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    oracle = "oracle" in path or "max_discrepancy" in path or (
        path.startswith("$.omega[") and path.endswith("[2]"))
    tol = ORACLE_TOL if oracle else REFERENCE_TOL
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not _close(got, want, tol):
        return [f"{path}: {got!r} != {want!r}"]
    return []


class Workload:
    name = ""
    cycle = len(corpus.STRATA)  # items per cycle of the input mix

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.corpus = corpus.Corpus(seed, profile.make_edge_data, BourEdgeError)
        # Item-level choices draw from their own stream, so they do not
        # shift the corpus stream.
        self.rng = np.random.default_rng([seed, 1])
        self.count = 0

    def item_dir(self, index):
        path = os.path.join(self.workdir, f"item{index}")
        os.makedirs(path, exist_ok=True)
        return path

    def library_work(self, item):
        return self.work(item)

    def cleanup(self, item):
        shutil.rmtree(os.path.join(self.workdir, f"item{item['index']}"), ignore_errors=True)


class Forward(Workload):
    """Build one distinct datum end to end, as ``build --out`` does."""

    name = "forward"

    def next_item(self):
        spec, _ = self.corpus.next()
        index, self.count = self.count, self.count + 1
        picks = self.rng.integers(0, FORWARD_ROWS, 3), self.rng.integers(0, FORWARD_COLS, 2)
        return {"index": index, "spec": spec, "out": self.item_dir(index), "picks": picks}

    def work(self, item):
        spec = item["spec"]
        data = profile.make_edge_data(spec.U_text, spec.h, spec.m, *spec.eps, spec.k, spec.J)
        mesh = bour.sample_mesh(data, rows=FORWARD_ROWS, cols=FORWARD_COLS)
        report = invariants.compute_invariant_report(data)
        edge = cusps.classify_edge(data)
        via = cusps.classify_edge_via_profile(data)
        obj_path = os.path.join(item["out"], "mesh.obj")
        csv_path = os.path.join(item["out"], "forms.csv")
        bour.write_obj(mesh, obj_path)
        stride = max(1, len(mesh.t_values) // 8)
        bour.write_form_csv(data, mesh.s_values, mesh.t_values[::stride], csv_path)
        return {"data": data, "mesh": mesh, "report": report, "edge": edge.tag,
                "via": via.tag, "obj": obj_path, "csv": csv_path}

    def check(self, item, out):
        spec, mesh, data = item["spec"], out["mesh"], out["data"]
        fails = []
        report = out["report"]
        if not report.max_discrepancy < ORACLE_TOL:
            fails.append(f"oracle discrepancy {report.max_discrepancy!r}")
        if not (_close(report.kappa_nu.closed, spec.kappa_nu(), CLOSED_FORM_TOL)
                and _close(report.kappa_t.closed, spec.kappa_t(), CLOSED_FORM_TOL)):
            fails.append("closed-form kappa_nu/kappa_t differ from the datum's formula")
        if not out["edge"] == out["via"] == spec.edge_tag():
            fails.append(f"edge types {out['edge']}, {out['via']}, expected {spec.edge_tag()}")
        with open(out["csv"]) as fh:
            fails += metric_identity_failures(spec, fh.read())
        with open(out["obj"]) as fh:
            verts = obj_vertices(fh.read())
        if verts.shape != (FORWARD_ROWS * FORWARD_COLS, 3):
            fails.append(f"OBJ holds {verts.shape} vertices")
        row = mesh.singular_row
        if row is None or mesh.s_values[row] != 0.0:
            fails.append("mesh lacks the exact s = 0 row")
        rows, cols = item["picks"]
        for r in list(rows) + ([row] if row is not None else []):
            for c in cols:
                s, t = float(mesh.s_values[r]), float(mesh.t_values[c])
                point = bour.psi(data, s, t).position
                if float(np.max(np.abs(np.array(point) - mesh.positions[r, c]))) > MESH_TOL:
                    fails.append(f"mesh row {r} disagrees with psi() at t = {t!r}")
        return fails


class Sweep(Workload):
    """An (h, m) family around one base, an inversion into it, and isomers."""

    name = "sweep"

    def next_item(self):
        spec, base = self.corpus.next()
        index, self.count = self.count, self.count + 1
        return {"index": index, "spec": spec, "base": base, "pick": float(self.rng.uniform())}

    def work(self, item):
        base = item["base"]
        family = deform.deformation_family(base, SWEEP_H_SPAN, SWEEP_M_SPAN, *SWEEP_GRID)
        valid = family.valid_members()
        target = valid[int(item["pick"] * len(valid))]
        inversion = deform.invert_invariants(base, deform.invariant_map(target.data))
        return {"family": family, "target": target, "inversion": inversion,
                "isomers": deform.isomers(base)}

    def check(self, item, out):
        spec, family = item["spec"], out["family"]
        fails = []
        if len(family.members) != SWEEP_GRID[0] * SWEEP_GRID[1]:
            fails.append(f"family has {len(family.members)} members")
        grid = np.linspace(spec.J[0], spec.J[1], 4097)
        for member in family.members:
            if member.valid and not member.metric_deviation < FAMILY_METRIC_TOL:
                fails.append(f"member ({member.h!r}, {member.m!r}) metric deviation "
                             f"{member.metric_deviation!r}")
            # An invalid member is an outcome, not a failure, unless the
            # closed-form radicand clearly says otherwise.
            margin = 1e-3 * member.m**2 * spec.a0**2
            r_min = float(np.min(spec.radicand(grid, member.h, member.m)))
            if (r_min > margin and not member.valid) or (r_min < -margin and member.valid):
                fails.append(f"member ({member.h!r}, {member.m!r}) valid={member.valid} "
                             f"but min radicand {r_min!r}")
        inv, target = out["inversion"], out["target"]
        if abs(inv.h - target.h) >= INVERSION_TOL or abs(inv.m - target.m) >= INVERSION_TOL:
            fails.append(f"inversion gave ({inv.h!r}, {inv.m!r}) for ({target.h!r}, {target.m!r})")
        iso = out["isomers"]
        if not iso.metric_deviation < ISOMER_TOL:
            fails.append(f"isomer metric deviation {iso.metric_deviation!r}")
        return fails + helix_failures(spec, [(hel.radius, hel.z_advance_per_angle)
                                             for hel in iso.helix])


class Inverse(Workload):
    """The natural-coordinate roundtrip of one datum."""

    name = "inverse"

    def next_item(self):
        spec, data = self.corpus.next()
        index, self.count = self.count, self.count + 1
        return {"index": index, "spec": spec, "data": data}

    def work(self, item):
        half = INVERSE_PROBE_SHARE * item["spec"].J[1]
        return natural.roundtrip(item["data"], s_probe=np.linspace(-half, half, 41),
                                 n_tab=INVERSE_N_TAB)

    def check(self, item, out):
        fails = []
        if not out.sup_error_U < ROUNDTRIP_TOL:
            fails.append(f"roundtrip sup_error_U {out.sup_error_U!r}")
        if not out.sup_error_metric < ROUNDTRIP_TOL:
            fails.append(f"roundtrip sup_error_metric {out.sup_error_metric!r}")
        if not _close(out.m_hat, item["spec"].m, INVERSION_TOL):
            fails.append(f"roundtrip m_hat {out.m_hat!r}")
        return fails


class CliCold(Workload):
    """One ``python -m bour_edge.cli`` process per item, cycling commands."""

    name = "cli_cold"
    COMMANDS = ("validate", "invariants", "classify", "invert", "isomers",
                "classify-curve", "build")
    cycle = len(COMMANDS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        with open(REFERENCE_PATH) as fh:
            self.reference = json.load(fh)
        self.readme = self._write_datum("readme.json", corpus.README_DATUM)
        self.edge_k2 = self._write_datum("edge_k2.json", corpus.EDGE_K2_DATUM)

    def _write_datum(self, name, payload):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def next_item(self):
        index, self.count = self.count, self.count + 1
        command = self.COMMANDS[index % len(self.COMMANDS)]
        out_dir = self.item_dir(index)
        item = {"index": index, "command": command}
        if command == "validate":
            item.update(argv=["validate", "--datum", self.readme], ref="validate_readme")
        elif command == "invariants":
            item.update(argv=["invariants", "--datum", self.edge_k2], ref="invariants_edge_k2")
        elif command in ("classify", "isomers"):
            spec, _ = self.corpus.next()
            path = self._write_datum(os.path.join(out_dir, "datum.json"), spec.payload())
            item.update(argv=[command, "--datum", path], spec=spec)
        elif command == "invert":
            h, m = self._invert_target()
            # README datum: U(0) = 1 and V(0) = 0, so kappa_nu = sqrt(m^2 - h^2) / m^2.
            item.update(argv=["invert", "--datum", self.readme,
                              "--target-kappa-nu", repr(math.sqrt(m**2 - h**2) / m**2),
                              "--target-kappa-t", repr(h / m**2)], target=(h, m))
        elif command == "classify-curve":
            x, y, tag = corpus.draw_curve(self.rng)
            # "--flag=value": a leading minus sign would read as an option.
            item.update(argv=["classify-curve", f"--expr-x={x}", f"--expr-y={y}"], tag=tag)
        else:
            item.update(argv=["build", "--datum", self.edge_k2, "--out", out_dir,
                              "--rows", str(CLI_BUILD_SIZE), "--cols", str(CLI_BUILD_SIZE)],
                        ref="build_edge_k2", out=out_dir)
        return item

    def _invert_target(self):
        d = corpus.README_DATUM
        while True:
            h, m = float(self.rng.uniform(0.05, 0.3)), float(self.rng.uniform(0.9, 1.1))
            try:
                profile.make_edge_data(d["U"], h, m, d["eps0"], d["eps1"], d["eps2"], d["k"],
                                       d["J"])
            except BourEdgeError:
                continue
            return h, m

    def command(self, item, importtime=False):
        flags = ["-X", "importtime"] if importtime else []
        return [sys.executable] + flags + ["-m", "bour_edge.cli"] + item["argv"]

    def work(self, item, importtime=False):
        # Working directory and PYTHONPATH come from the worker's own.
        proc = subprocess.run(self.command(item, importtime), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def library_work(self, item):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(item["argv"]))
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def check(self, item, out):
        if out["code"] != 0:
            return [f"{item['command']} exited {out['code']}: {out['stderr'][-300:]}"]
        try:
            doc = json.loads(out["stdout"])
        except json.JSONDecodeError:
            return [f"{item['command']} printed no JSON"]
        command = item["command"]
        if command == "build":
            ref = self.reference["build_edge_k2"]
            fails = compare_json({k: v for k, v in doc.items() if k != "mesh"}, ref["doc"])
            with open(os.path.join(item["out"], "mesh.obj")) as fh:
                verts = obj_vertices(fh.read())
            want = np.array(ref["vertices"])
            if verts.shape != want.shape or float(np.max(np.abs(verts - want))) > MESH_TOL:
                fails.append("build vertices differ from the reference")
            with open(os.path.join(item["out"], "forms.csv")) as fh:
                spec = corpus.fixed_spec(corpus.EDGE_K2_DATUM)
                fails += metric_identity_failures(spec, fh.read())
            return fails
        if "ref" in item:
            return compare_json(doc, self.reference[item["ref"]])
        if command == "classify":
            if not (doc["agree"] and doc["tag"] == item["spec"].edge_tag()):
                return [f"classify gave {doc['tag']} (agree={doc['agree']}), "
                        f"expected {item['spec'].edge_tag()}"]
            return []
        if command == "invert":
            h, m = item["target"]
            if abs(doc["h"] - h) >= INVERSION_TOL or abs(doc["m"] - m) >= INVERSION_TOL:
                return [f"invert gave ({doc['h']!r}, {doc['m']!r}) for ({h!r}, {m!r})"]
            return []
        if command == "isomers":
            spec = item["spec"]
            fails = [] if doc["metric_deviation"] < ISOMER_TOL else ["isomer metric deviation"]
            return fails + helix_failures(spec, [(v["radius"], v["z_advance_per_angle"])
                                                 for v in doc["variants"]])
        if doc["tag"] != item["tag"]:
            return [f"curve classified {doc['tag']}, expected {item['tag']}"]
        return []


WORKLOADS = {cls.name: cls for cls in (CliCold, Forward, Sweep, Inverse)}
