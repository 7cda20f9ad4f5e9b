"""Per-layer tracing of the bour_edge package, from outside it.

Each layer is a package module. Its public functions are replaced by
wrappers in every module that holds them (``from .jets import jet_eval``
binds the name in the importing module, so patching only ``jets`` would let
those calls escape). Nothing under ``src/`` changes.

Only names that the workloads enter are wrapped: those the benchmark's own
files call, and the ones that run inside them.

A wrapper pushes a frame on entry and pops it on exit. A frame's self time
is its duration minus the durations of the frames it encloses; the sum over
a layer's frames is the layer's self time. Two kinds of wrapper:

* ``leaf``  -- hot calls with no traced callee (``SmoothFn.__call__``,
  ``jet_eval``): only a count and summed time, folded into the parent frame;
* ``frame`` -- counted and timed with self time.

Quadrature integrands are wrapped on the way into ``integrate`` and count as
frames of the module that defined the integrand.

A wrapped name that no longer exists marks its layer as missing; the
layer's metrics are then reported as null, never as 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

LAYERS = ("expr", "jets", "quadrature", "profile", "bour", "invariants",
          "cusps", "natural", "deform", "cli")

# (layer, qualified name in bour_edge.<layer>, kind)
WRAPPED = (
    ("expr", "SmoothFn.__call__", "leaf"),
    ("expr", "parse_expr", "frame"),
    ("jets", "jet_eval", "leaf"),
    ("quadrature", "integrate", "frame"),
    ("quadrature", "integrate_cumulative", "frame"),
    ("profile", "make_edge_data", "frame"),
    ("profile", "check_star", "frame"),
    ("profile", "rho", "frame"),
    ("bour", "sample_mesh", "frame"),
    ("bour", "write_obj", "frame"),
    ("bour", "write_form_csv", "frame"),
    ("bour", "first_fundamental_form", "frame"),
    ("bour", "psi", "frame"),
    ("bour", "psi_jet_at_zero", "frame"),
    ("bour", "x_of_s", "frame"),
    ("bour", "z_of_s", "frame"),
    ("invariants", "compute_invariant_report", "frame"),
    ("invariants", "kappa_nu", "frame"),
    ("invariants", "kappa_t", "frame"),
    ("invariants", "kappa_nu_numeric", "frame"),
    ("invariants", "kappa_t_numeric", "frame"),
    ("invariants", "omega", "frame"),
    ("invariants", "omega_numeric", "frame"),
    ("cusps", "classify_edge", "frame"),
    ("cusps", "classify_edge_via_profile", "frame"),
    ("cusps", "classify_plane_cusp", "frame"),
    ("cusps", "canonical_from_speed", "frame"),
    ("natural", "roundtrip", "frame"),
    ("deform", "deformation_family", "frame"),
    ("deform", "invert_invariants", "frame"),
    ("deform", "isomers", "frame"),
    ("deform", "invariant_map", "frame"),
    ("deform", "metric_deviation", "frame"),
    ("cli", "main", "frame"),
)

# Per-layer metrics of the traced run, in report order, with units.
LAYER_METRICS = (
    ("expr.calls", "count"), ("expr.self_s", "s"),
    ("jets.calls", "count"), ("jets.order1_calls", "count"), ("jets.self_s", "s"),
    ("quadrature.calls", "count"), ("quadrature.integrand_evals", "count"),
    ("quadrature.self_s", "s"),
    ("profile.validations", "count"), ("profile.rejected", "count"),
    ("profile.star_scans", "count"), ("profile.self_s", "s"),
    ("bour.mesh_points", "count"), ("bour.ff_calls", "count"),
    ("bour.obj_bytes", "bytes"), ("bour.self_s", "s"),
    ("invariants.calls", "count"), ("invariants.self_s", "s"),
    ("cusps.calls", "count"), ("cusps.self_s", "s"),
    ("natural.calls", "count"), ("natural.self_s", "s"),
    ("deform.members", "count"), ("deform.valid_ratio", "ratio"),
    ("deform.newton_iters", "count"), ("deform.self_s", "s"),
)

_clock = time.perf_counter


class Tracer:
    """Counters and per-layer self time for one traced pass."""

    def __init__(self, error_type):
        self.enabled = False
        self.error_type = error_type
        self.self_time = {layer: 0.0 for layer in LAYERS + ("bench",)}
        self.counts = {}
        self.missing = set()
        # frame: [layer, start, time covered by children]
        self.stack = [["bench", 0.0, 0.0]]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_item(self):
        """Open the root frame of one benchmark item."""
        self.enabled = True
        self.stack = [["bench", _clock(), 0.0]]

    def end_item(self):
        self.enabled = False
        root = self.stack[0]
        self.self_time["bench"] += _clock() - root[1] - root[2]

    def _enter(self, layer):
        frame = [layer, _clock(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = _clock() - frame[1]
        self.stack.pop()
        self.self_time[frame[0]] += duration - frame[2]
        self.stack[-1][2] += duration

    # -- wrapper factories -------------------------------------------------

    def leaf(self, layer, key, fn, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                tracer.stack[-1][2] += duration
                tracer.self_time[layer] += duration
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
                if extra is not None:
                    extra(args, kwargs)

        return wrapper

    def frame(self, layer, name, fn, prepare=None, on_result=None, on_error=None):
        tracer = self
        key = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            tracer.count(key)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def integrand(self, f):
        """Wrap a quadrature integrand, once, as a frame of its own module."""
        if getattr(f, "_bench_integrand", False):
            return f
        module = getattr(f, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("bour_edge.") else "bench"
        if layer not in self.self_time:
            layer = "bench"
        tracer = self

        def wrapped(x):
            if not tracer.enabled:
                return f(x)
            tracer.count("quadrature.integrand_evals")
            frame = tracer._enter(layer)
            try:
                return f(x)
            finally:
                tracer._exit(frame)

        wrapped._bench_integrand = True
        return wrapped

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every wrapped name in every bour_edge module holding it."""
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"bour_edge.{layer}")
            except ImportError:
                layers[layer] = None
        modules = [m for name, m in sys.modules.items()
                   if name == "bour_edge" or name.startswith("bour_edge.")]
        for layer, qualname, kind in WRAPPED:
            module = layers[layer]
            owner, _, attr = qualname.rpartition(".")
            holder = module
            if owner:
                holder = getattr(module, owner, None) if module is not None else None
            # vars(), not getattr(): every class answers getattr(cls, "__call__").
            original = vars(holder).get(attr) if holder is not None else None
            if original is None:
                self.missing.add(layer)
                continue
            wrapper = self._make(layer, attr, kind, original)
            if owner:
                setattr(holder, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _make(self, layer, name, kind, fn):
        if kind == "leaf":
            extra = None
            if layer == "jets":
                def extra(args, kwargs):
                    order = kwargs.get("order", args[2] if len(args) > 2 else None)
                    if order == 1:
                        self.count("jets.order1_calls")
            return self.leaf(layer, f"{layer}.calls", fn, extra)
        hooks = {key: functools.partial(hook, self)
                 for key, hook in _HOOKS.get((layer, name), {}).items()}
        return self.frame(layer, name, fn, **hooks)

    # -- results -------------------------------------------------------------

    def layer_calls(self, layer):
        """Calls into the layer's wrapped functions, nested calls included."""
        return sum(self.counts.get(f"{layer}.{q.rpartition('.')[2]}", 0)
                   for lay, q, kind in WRAPPED if lay == layer and kind != "leaf")

    def metrics(self):
        """LAYER_METRICS as {name: value}; None for a missing layer."""
        c = self.counts.get
        members = c("deform.members_total", 0)
        values = {
            "expr.calls": c("expr.calls", 0),
            "expr.self_s": self.self_time["expr"],
            "jets.calls": c("jets.calls", 0),
            "jets.order1_calls": c("jets.order1_calls", 0),
            "jets.self_s": self.self_time["jets"],
            "quadrature.calls": c("quadrature.integrate", 0),
            "quadrature.integrand_evals": c("quadrature.integrand_evals", 0),
            "quadrature.self_s": self.self_time["quadrature"],
            "profile.validations": c("profile.make_edge_data", 0),
            "profile.rejected": c("profile.rejected", 0),
            "profile.star_scans": c("profile.check_star", 0),
            "profile.self_s": self.self_time["profile"],
            "bour.mesh_points": c("bour.mesh_points", 0),
            "bour.ff_calls": c("bour.first_fundamental_form", 0),
            "bour.obj_bytes": c("bour.obj_bytes", 0),
            "bour.self_s": self.self_time["bour"],
            "invariants.calls": self.layer_calls("invariants"),
            "invariants.self_s": self.self_time["invariants"],
            "cusps.calls": self.layer_calls("cusps"),
            "cusps.self_s": self.self_time["cusps"],
            "natural.calls": self.layer_calls("natural"),
            "natural.self_s": self.self_time["natural"],
            "deform.members": members,
            # 0 when no family was built, as on every workload but sweep.
            "deform.valid_ratio": c("deform.members_valid", 0) / members if members else 0.0,
            "deform.newton_iters": c("deform.newton_iters", 0),
            "deform.self_s": self.self_time["deform"],
        }
        for name in values:
            if name.split(".", 1)[0] in self.missing:
                values[name] = None
        return values


def _count_mesh(tracer, args, kwargs, mesh):
    tracer.count("bour.mesh_points", int(mesh.positions.shape[0] * mesh.positions.shape[1]))


def _count_obj(tracer, args, kwargs, result):
    target = kwargs.get("target", args[1] if len(args) > 1 else None)
    if isinstance(target, (str, os.PathLike)):
        tracer.count("bour.obj_bytes", os.path.getsize(target))


def _count_family(tracer, args, kwargs, family):
    tracer.count("deform.members_total", len(family.members))
    tracer.count("deform.members_valid", sum(1 for m in family.members if m.valid))


def _count_newton(tracer, args, kwargs, result):
    tracer.count("deform.newton_iters", int(result.iterations))


def _count_rejected(tracer, exc):
    if isinstance(exc, tracer.error_type):
        tracer.count("profile.rejected")


def _wrap_integrand(tracer, args, kwargs):
    if args:
        args = (tracer.integrand(args[0]),) + tuple(args[1:])
    elif "f" in kwargs:
        kwargs = dict(kwargs, f=tracer.integrand(kwargs["f"]))
    return args, kwargs


_HOOKS = {
    ("bour", "sample_mesh"): {"on_result": _count_mesh},
    ("bour", "write_obj"): {"on_result": _count_obj},
    ("deform", "deformation_family"): {"on_result": _count_family},
    ("deform", "invert_invariants"): {"on_result": _count_newton},
    ("profile", "make_edge_data"): {"on_error": _count_rejected},
    ("quadrature", "integrate"): {"prepare": _wrap_integrand},
    ("quadrature", "integrate_cumulative"): {"prepare": _wrap_integrand},
}


def parse_importtime(stderr_text):
    """(bour_edge seconds, scipy seconds) from ``python -X importtime`` output.

    Each figure is the sum of the cumulative times of the outermost imports
    whose name starts with the package name; nested imports are inside them.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1].strip())
        except ValueError:
            continue
        raw = parts[2][1:] if parts[2].startswith(" ") else parts[2]
        name = raw.strip()
        entries.append((len(raw) - len(raw.lstrip(" ")), name, cumulative))

    def outermost(prefix):
        total = 0
        for i, (indent, name, cumulative) in enumerate(entries):
            if not (name == prefix or name.startswith(prefix + ".")):
                continue
            parent = next((e for e in entries[i + 1:] if e[0] < indent), None)
            if parent is None or not (parent[1] == prefix or parent[1].startswith(prefix + ".")):
                total += cumulative
        return total / 1e6

    return outermost("bour_edge"), outermost("scipy")
