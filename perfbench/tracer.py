"""Per-layer tracing of cmc_lab from outside the program.

``install`` wraps the public functions of each layer module (and the listed
class methods, including the Jet1/Jet2 operators) at every binding site: the
defining module, every other cmc_lab module that imported the name, module
level dicts, and class attributes (so ``__rmul__ = __mul__`` shares one
wrapper).  Spans are aggregated per (name, parent) rather than stored per
call: a single ``verify`` job makes about a million jet products.  Self time
is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import pstats
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("lorentz", "jets", "quadrature", "surfaces", "singularities", "representation", "cli")

# class methods traced besides the public module-level functions
METHODS = {
    "jets": {"Jet1": ("__mul__", "__truediv__", "__rtruediv__"),
             "Jet2": ("__mul__", "__truediv__", "__rtruediv__")},
    "quadrature": {"Primitive": ("value", "jet")},
    "surfaces": {"Surface": ("jet", "point", "analytic_normal_jet"), "Mesh": ("write_obj",)},
    "singularities": {"StraightChart": ("__post_init__", "jets")},
    "representation": {
        "ConformalProfile": ("s_of_r", "s_jet", "r_of_s", "r_jet_of_s", "surface_jets",
                             "sigma_jet", "conformality_residual"),
        "GaussData": ("validate", "to_json"),
    },
}
# private functions traced for their counts
PRIVATE = {"quadrature": ("_gk15",)}

GK15_NODES = 15


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stack = []  # open spans: [name, start, time covered by children]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.calls = Counter()
        self.active = Counter()  # name -> open spans of that name
        self.errors = Counter()  # layer -> exceptions that crossed a wrapper
        self.counts = Counter()  # probe counts (jet degrees, cache hits, records)
        self._restore = []
        self.targets = {}  # original function -> span name

    # -- spans -----------------------------------------------------------------

    def enter(self, name):
        self.calls[name] += 1
        self.active[name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, covered = self.stack.pop()
        dur = end - start
        parent = None
        if self.stack:
            parent = self.stack[-1][0]
            self.stack[-1][2] += dur
        rec = self.spans[(name, parent)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - covered
        self.active[name] -= 1

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.active.clear()
        self.errors.clear()
        self.counts.clear()

    def self_s(self, names):
        return sum(rec[2] for (name, _), rec in self.spans.items() if name in names)

    def total_calls(self, names):
        return sum(self.calls[n] for n in names)

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, fn, name, probe=None):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            after = probe(tracer, args, kwargs) if probe else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.exit()
            if after:
                after(result)
            return result

        return traced

    def install(self, modules):
        """Wrap every target at every binding site in ``modules`` (name -> module)."""
        targets = {}
        for layer in LAYERS:
            mod = modules[f"cmc_lab.{layer}"]
            for attr, val in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and public:
                    targets[val] = f"{layer}.{val.__qualname__}"
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    fn = vars(cls)[m]
                    targets[fn] = f"{layer}.{fn.__qualname__}"
        wrappers = {fn: self.wrap(fn, name, PROBES.get(name)) for fn, name in targets.items()}
        for mod in modules.values():
            self._rebind(vars(mod), lambda k, w, m=mod: setattr(m, k, w), wrappers)
            for val in list(vars(mod).values()):
                if inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._rebind(vars(val), lambda k, w, c=val: setattr(c, k, w), wrappers)
                elif isinstance(val, dict):
                    self._rebind(val, val.__setitem__, wrappers)
        self.targets = targets

    def _rebind(self, namespace, setter, wrappers):
        for key, val in list(namespace.items()):
            try:
                wrapper = wrappers.get(val)
            except TypeError:  # unhashable value
                continue
            if wrapper is not None:
                setter(key, wrapper)
                self._restore.append((setter, key, val))

    def uninstall(self):
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)


# -- probes: extra counts at a wrapper, computed from its arguments and result --


def _surface_jet_probe(tracer, args, kwargs):
    degree = args[3] if len(args) > 3 else kwargs.get("degree", 5)
    tracer.counts[f"jet_d{degree}"] += 1
    if tracer.active["singularities.trace_singular_curve"]:
        tracer.counts["scan_jets"] += 1
    return None


def _primitive_value_probe(tracer, args, kwargs):
    before = tracer.calls["quadrature.integrate"]

    def after(result):
        if tracer.calls["quadrature.integrate"] == before:
            tracer.counts["primitive_hits"] += 1

    return after


def _trace_probe(tracer, args, kwargs):
    def after(result):
        tracer.counts["records"] += len(result)

    return after


PROBES = {
    "surfaces.Surface.jet": _surface_jet_probe,
    "quadrature.Primitive.value": _primitive_value_probe,
    "singularities.trace_singular_curve": _trace_probe,
}


# -- metrics ---------------------------------------------------------------------

JET_OPS = {
    "mul": ("jets.Jet1.__mul__", "jets.Jet2.__mul__"),
    "div": ("jets.Jet1.__truediv__", "jets.Jet1.__rtruediv__",
            "jets.Jet2.__truediv__", "jets.Jet2.__rtruediv__"),
    "elem": tuple(f"jets.{f}" for f in ("sqrt", "exp", "log", "sin", "cos", "sinh", "cosh",
                                        "arctan", "artanh", "power")),
    "compose": ("jets.compose2", "jets.compose_curve", "jets._compose_poly"),
    "field_deriv": ("jets.apply_vector_field", "jets.iterated_field_derivative"),
}
GROUPS = {
    "integrate": ("quadrature.integrate", "quadrature._gk15"),
    "primitive_jet": ("quadrature.Primitive.jet", "quadrature.primitive_jet"),
    "build": tuple(f"surfaces.{f}" for f in ("delaunay_timelike", "delaunay_spacelike",
                                             "delaunay_lightlike", "conjugate_of",
                                             "standard_model", "custom_surface")),
    "surface_jet": ("surfaces.Surface.jet", "surfaces.Surface.point",
                    "surfaces.Surface.analytic_normal_jet"),
    "chart": ("singularities.StraightChart.__post_init__", "singularities.StraightChart.jets"),
    "criterion": tuple(f"singularities.{f}" for f in (
        "criterion_25", "condition3_det", "condition4_det", "constant_C",
        "lemma_special_coefficients", "special_field", "special_null_field")),
    "fold": ("singularities.fold_symmetry_test", "singularities.cmc_fold_obstruction"),
    "profile_chart": ("representation.conformal_profile_chart",) + tuple(
        f"representation.ConformalProfile.{m}" for m in (
            "s_of_r", "s_jet", "r_jet_of_s", "surface_jets", "sigma_jet", "conformality_residual")),
    "residual": tuple(f"representation.{f}" for f in (
        "harmonic_residual", "extended_harmonic_residual", "derivative_identity_residual",
        "gauss_codazzi_residual", "laplacian_identity_residual", "compatibility_residuals")),
    "write": ("cli.write_json", "surfaces.Mesh.write_obj", "singularities.sweep_rows_to_csv"),
}


def per_layer_metrics(tracer, jobs, raw_s, scale, bytes_written):
    """Per-job means of counts and self times, plus ratios and layer shares.

    ``raw_s`` is the traced jobs' wall time; self times are multiplied by
    ``scale`` (normalized over raw seconds of those jobs), shares are not.
    """
    names = set(tracer.targets.values())
    n = max(jobs, 1)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value * scale if unit == "s/job" else value, "unit": unit}

    for op, group in JET_OPS.items():
        if op in ("mul", "div", "elem", "compose"):
            put(f"jets.{op}_calls", tracer.total_calls(group) / n, "count/job")
        put(f"jets.{op}_s", tracer.self_s(group) / n, "s/job")
    put("quadrature.integrate_calls", tracer.calls["quadrature.integrate"] / n, "count/job")
    put("quadrature.integrate_s", tracer.self_s(GROUPS["integrate"]) / n, "s/job")
    put("quadrature.integrand_evals", GK15_NODES * tracer.calls["quadrature._gk15"] / n, "count/job")
    values = tracer.calls["quadrature.Primitive.value"]
    put("quadrature.primitive_value_calls", values / n, "count/job")
    put("quadrature.primitive_hit_ratio", tracer.counts["primitive_hits"] / values if values else 0.0,
        "share")
    put("quadrature.primitive_jet_s", tracer.self_s(GROUPS["primitive_jet"]) / n, "s/job")
    put("surfaces.build_s", tracer.self_s(GROUPS["build"]) / n, "s/job")
    for d in range(6):
        put(f"surfaces.jet_calls.d{d}", tracer.counts[f"jet_d{d}"] / n, "count/job")
    put("surfaces.jet_s", tracer.self_s(GROUPS["surface_jet"]) / n, "s/job")
    put("surfaces.mesh_export_s", tracer.self_s({"surfaces.mesh_export"}) / n, "s/job")
    put("singularities.trace_s", tracer.self_s({"singularities.trace_singular_curve"}) / n, "s/job")
    put("singularities.records", tracer.counts["records"] / n, "count/job")
    scan = tracer.counts["scan_jets"]
    put("singularities.records_per_kjet", 1000.0 * tracer.counts["records"] / scan if scan else 0.0,
        "count/kjet")
    for g in ("chart", "criterion", "fold"):
        put(f"singularities.{g}_s", tracer.self_s(GROUPS[g]) / n, "s/job")
    put("singularities.diffeo_push_s", tracer.self_s({"singularities.diffeo_push"}) / n, "s/job")
    put("representation.profile_chart_s", tracer.self_s(GROUPS["profile_chart"]) / n, "s/job")
    put("representation.r_of_s_calls",
        tracer.calls["representation.ConformalProfile.r_of_s"] / n, "count/job")
    put("representation.r_of_s_s", tracer.self_s({"representation.ConformalProfile.r_of_s"}) / n,
        "s/job")
    put("representation.gauss_data_s",
        tracer.self_s({"representation.gauss_data_from_surface"}) / n, "s/job")
    put("representation.integrate_rep_s",
        tracer.self_s({"representation.integrate_representation"}) / n, "s/job")
    put("representation.residual_s", tracer.self_s(GROUPS["residual"]) / n, "s/job")
    lorentz = {x for x in names if x.startswith("lorentz.")}
    put("lorentz.calls", tracer.total_calls(lorentz) / n, "count/job")
    put("lorentz.s", tracer.self_s(lorentz) / n, "s/job")
    put("cli.write_s", tracer.self_s(GROUPS["write"]) / n, "s/job")
    put("cli.bytes_written", bytes_written / n, "B/job")
    for layer in LAYERS:
        put(f"{layer}.errors", tracer.errors[layer] / n, "count/job")
    for layer in LAYERS:
        own = {x for x in names if x.startswith(layer + ".")}
        put(f"{layer}.self_share", tracer.self_s(own) / raw_s if raw_s else 0.0, "share")
    return m


# -- cross-check against cProfile ------------------------------------------------


def profile_counts(run):
    """ncalls per code location of everything ``run()`` calls, from cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    return {(f, line, name): nc for (f, line, name), (_, nc, *_rest) in pstats.Stats(prof).stats.items()}


def cross_check(tracer, counts):
    """Targets whose traced call count differs from cProfile's; empty if none."""
    out = []
    for fn, name in tracer.targets.items():
        code = fn.__code__
        expected = counts.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if tracer.calls[name] != expected:
            out.append((name, tracer.calls[name], expected))
    return sorted(out)


def cmc_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "cmc_lab" or name.startswith("cmc_lab.")}
