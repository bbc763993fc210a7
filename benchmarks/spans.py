"""In-memory span tracing of pursuit_lab, installed from outside the package.

``Tracer.install`` replaces selected public functions of each pursuit_lab
module with wrappers that record one span per call: an id, the name
``<module>.<function>``, start and end (``perf_counter_ns``), the id of the
calling span, the thread, a per-function note (for example ``n``), the
name of the exception that ended the call, if any, and the CPU time the
calling thread spent inside the call (``thread_time_ns``).  ``rk4_step`` also wraps
the field it is given, so every field evaluation is a child span named after
the module that defined the field.  Spans stay in memory until
``write_spans`` is called at the end of a run.

Self time is a span's duration minus the part of it covered by the union of
its child spans.  Spans opened by a worker thread with nothing open on that
thread take the innermost span then open on the main thread as parent.  The
wall-clock duration of such a span includes waits for the interpreter lock,
so per-call times count main-thread spans only, and each layer's share of a
pass adds up CPU self time (a span's CPU time minus that of its children on
the same thread), which no thread counts twice.

A function named in ``TARGETS`` that no longer exists is listed in
``Tracer.absent`` and is skipped; the metrics that depend on it are left out.
"""

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "params", "full_space", "shape_space", "equilibria",
          "stability", "pure_shape", "cli")

# Public functions wrapped per module; "Class.method" patches the class.
TARGETS = {
    "numerics": ("rk4_step", "eig5", "poly_roots"),
    "params": ("ControlParams.flags", "require_shape_assumptions",
               "require_analysis_assumptions", "require_a6"),
    "full_space": ("simulate", "control_profile", "extract_shape",
                   "extract_shape_trajectory", "random_world",
                   "write_trajectory_csv"),
    "shape_space": ("integrate_shape", "shape_derivative",
                    "constraint_residuals", "write_shape_csv"),
    "equilibria": ("enumerate_equilibria", "alpha_star", "embed_world",
                   "equilibrium_shape", "classify_degenerate",
                   "format_equilibrium_report"),
    "stability": ("routh_necessary", "spectrum_report", "abd",
                  "block_triple", "dk", "cubic_coeffs", "routh_conditions",
                  "corollary_checks", "format_stability_report",
                  "write_spectrum_csv"),
    "pure_shape": ("integrate_pure_shape", "integrate_reduced",
                   "phase_portrait", "lift", "manifold_spec",
                   "reduced_equilibrium", "invariant_region_check",
                   "asymptote_prediction", "a5_guard_values",
                   "write_portrait_csv", "write_portrait_trajectory_csv"),
    "cli": ("main", "parse_config", "run"),
}


def _param_n(args, result):
    return args[0].n


# Extra value stored with a span, computed from the call's arguments and
# its result (None when the call raised).
NOTES = {
    "equilibria.enumerate_equilibria":
        lambda args, result: (args[0].n,
                              None if result is None else len(result)),
    "stability.spectrum_report": _param_n,
    "stability.routh_necessary": _param_n,
    "pure_shape.integrate_pure_shape":
        lambda args, result: 0 if result is None else len(result.a5_flags),
    "cli.run": lambda args, result: args[0].mode,
}

INTEGRATORS = ("full_space.simulate", "shape_space.integrate_shape",
               "pure_shape.integrate_pure_shape",
               "pure_shape.integrate_reduced")

# Span tuple layout.
SID, NAME, START, END, PARENT, THREAD, NOTE, ERROR, CPU = range(9)


class Tracer:
    """Records spans around calls into pursuit_lab while installed."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self._main_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self.main_thread:
                self._main_stack = stack
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        sid = next(self._ids)
        stack.append(sid)
        note_fn = NOTES.get(name)
        result = error = None
        cpu = time.thread_time_ns()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            cpu = time.thread_time_ns() - cpu
            stack.pop()
            note = note_fn(args, result) if note_fn else None
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), note, error, cpu))

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_rk4(self, fn):
        tracer = self
        fields = {}

        def traced_field(field):
            wrapped = fields.get(field)
            if wrapped is None:
                owner = getattr(field, "__module__", "") or ""
                layer = owner.rsplit(".", 1)[-1]
                name = f"{layer if layer in LAYERS else 'numerics'}.field"
                wrapped = fields[field] = tracer._wrap(name, field)
            return wrapped

        def traced(field, *args, **kwargs):
            return tracer._call("numerics.rk4_step", fn,
                                (traced_field(field),) + args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        import pursuit_lab
        self.absent = []
        modules = {layer: importlib.import_module(f"pursuit_lab.{layer}")
                   for layer in LAYERS}
        namespaces = [pursuit_lab] + list(modules.values())
        for layer, names in TARGETS.items():
            module = modules[layer]
            for attr in names:
                name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(method) if cls else None
                    if not callable(original):
                        self.absent.append(name)
                        continue
                    setattr(cls, method, self._wrap(name, original))
                    self._patches.append((cls, method, original))
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                if attr == "rk4_step":
                    wrapper = self._wrap_rk4(original)
                else:
                    wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)
                            self._patches.append((namespace, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(spans, path):
    """Write spans as gzip-compressed JSON lines, one span per line."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent",
                             "thread", "note", "error", "cpu_ns"]) + "\n")
        for span in sorted(spans):
            fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time in ns per span id: duration minus the union of the
    intervals its children cover, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(span[SID], ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span[SID]] = end - start - covered
    return out


def cpu_self_times(spans):
    """CPU self time in ns per span id: the span's CPU time minus that of
    its children on the same thread."""
    by_id = {span[SID]: span for span in spans}
    out = {span[SID]: span[CPU] for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is not None and parent[THREAD] == span[THREAD]:
            out[parent[SID]] -= span[CPU]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


# Wrapped functions each metric depends on, beyond the one its name starts
# with; a metric is left out when any of them is absent.
_DEPENDS = {
    "numerics.field_evals": ("numerics.rk4_step",),
    "params.flags.share": INTEGRATORS,
    "full_space.simulate.step_us": ("numerics.rk4_step",),
    "shape_space.integrate_shape.step_us": ("numerics.rk4_step",),
    "pure_shape.integrate_pure_shape.step_us": ("numerics.rk4_step",),
    "pure_shape.integrate_reduced.step_us": ("numerics.rk4_step",),
    "equilibria.branches_screened": ("equilibria.enumerate_equilibria",
                                     "equilibria.alpha_star"),
    "equilibria.accepted": ("equilibria.enumerate_equilibria",),
    "equilibria.accept_ratio": ("equilibria.enumerate_equilibria",
                                "equilibria.alpha_star"),
    "stability.spectra_per_point": ("stability.spectrum_report", "cli.run"),
    "stability.exists_ratio": ("stability.routh_necessary",),
    "cli.write.ms": ("cli.run",),
}


def layer_metrics(tracer, passes, pass_ns, enum_sizes, spectrum_sizes,
                  extra=None):
    """Per-layer figures from the spans of ``passes`` traced passes that
    lasted ``pass_ns`` ns in all.

    Counts are per pass.  ``*_us``, ``*_ms`` and ``*_s`` figures are mean
    wall times per main-thread call, per RK4 step for ``step_us`` and per
    pass for ``cli.run.s`` and ``cli.write.ms``.  ``layer.<name>.self_share``
    is the layer's CPU self time over the traced passes' wall time.  A layer
    that is idle on a workload reports 0.  ``extra`` maps further names to (value, unit) pairs measured
    by the workload itself.
    """
    spans = tracer.spans
    by_id = {span[SID]: span for span in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    selfs = self_times(spans)
    layer_self = defaultdict(int)
    for sid, cpu in cpu_self_times(spans).items():
        layer_self[by_id[sid][NAME].split(".", 1)[0]] += cpu

    def ancestor(span, names):
        parent = by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return parent
            parent = by_id.get(parent[PARENT])
        return None

    def duration(picked):
        return sum(s[END] - s[START] for s in picked)

    def calls(name):
        return len(by_name[name])

    def mean(name, scale, ok_only=False, where=None):
        picked = [s for s in by_name[name]
                  if (not ok_only or s[ERROR] is None)
                  and s[THREAD] == tracer.main_thread
                  and (where is None or where(s))]
        return _ratio(duration(picked), len(picked)) / scale

    def per_pass(value):
        return value / passes

    def step_us(name):
        steps = sum(1 for s in by_name["numerics.rk4_step"]
                    if by_id.get(s[PARENT], (None, None))[NAME] == name)
        return _ratio(duration(by_name[name]), steps) / 1e3

    def under_stability_run(span):
        run = ancestor(span, ("cli.run",))
        return run is not None and run[NOTE] == "stability"

    integrator_ns = sum(duration(s for s in by_name[name]
                                 if not ancestor(s, INTEGRATORS))
                        for name in INTEGRATORS)
    flags_ns = duration(s for s in by_name["params.flags"]
                        if ancestor(s, INTEGRATORS))
    screened = sum(
        1 for s in by_name["equilibria.alpha_star"]
        if by_id.get(s[PARENT], (None, None))[NAME]
        == "equilibria.enumerate_equilibria")
    accepted = sum(s[NOTE][1] for s in by_name["equilibria.enumerate_equilibria"]
                   if s[NOTE][1] is not None)
    stability_runs = sum(1 for s in by_name["cli.run"]
                         if s[NOTE] == "stability")
    spectra_main = [s for s in by_name["stability.spectrum_report"]
                    if s[THREAD] == tracer.main_thread and s[ERROR] is None]
    routh = by_name["stability.routh_necessary"]
    write_ns = sum(duration(s for s in picked if ancestor(s, ("cli.run",)))
                   for name, picked in by_name.items() if ".write_" in name)

    metrics = {
        "numerics.rk4_step.calls": (per_pass(calls("numerics.rk4_step")),
                                    "count"),
        "numerics.field_evals": (per_pass(sum(
            len(picked) for name, picked in by_name.items()
            if name.endswith(".field"))), "count"),
        "numerics.rk4_step.self_us": (_ratio(
            sum(selfs[s[SID]] for s in by_name["numerics.rk4_step"]),
            calls("numerics.rk4_step")) / 1e3, "us"),
        "numerics.eig5.calls": (per_pass(calls("numerics.eig5")), "count"),
        "numerics.eig5.us": (mean("numerics.eig5", 1e3), "us"),
        "params.flags.calls": (per_pass(calls("params.flags")), "count"),
        "params.flags.share": (_ratio(flags_ns, integrator_ns), "fraction"),
        "full_space.simulate.step_us": (step_us("full_space.simulate"),
                                        "us"),
        "full_space.control_profile.calls": (
            per_pass(calls("full_space.control_profile")), "count"),
        "full_space.control_profile.us": (
            mean("full_space.control_profile", 1e3), "us"),
        "full_space.extract_shape_trajectory.ms": (
            mean("full_space.extract_shape_trajectory", 1e6), "ms"),
        "full_space.collisions": (per_pass(sum(
            1 for s in by_name["full_space.simulate"]
            if s[ERROR] == "CollisionError")), "count"),
        "shape_space.integrate_shape.step_us": (
            step_us("shape_space.integrate_shape"), "us"),
        "shape_space.shape_derivative.calls": (
            per_pass(calls("shape_space.shape_derivative")), "count"),
        "shape_space.shape_derivative.us": (
            mean("shape_space.shape_derivative", 1e3), "us"),
        "shape_space.constraint_residuals.us": (
            mean("shape_space.constraint_residuals", 1e3), "us"),
        "pure_shape.integrate_pure_shape.step_us": (
            step_us("pure_shape.integrate_pure_shape"), "us"),
        "pure_shape.integrate_reduced.step_us": (
            step_us("pure_shape.integrate_reduced"), "us"),
        "pure_shape.phase_portrait.ms": (
            mean("pure_shape.phase_portrait", 1e6), "ms"),
        "pure_shape.a5_flags": (per_pass(sum(
            s[NOTE] for s in by_name["pure_shape.integrate_pure_shape"])),
            "count"),
        "equilibria.branches_screened": (per_pass(screened), "count"),
        "equilibria.accepted": (per_pass(accepted), "count"),
        "equilibria.accept_ratio": (_ratio(accepted, screened), "fraction"),
        "stability.spectrum_report.per_mode_us": (
            _ratio(duration(spectra_main),
                   sum(s[NOTE] for s in spectra_main)) / 1e3, "us"),
        "stability.routh_necessary.ms": (
            mean("stability.routh_necessary", 1e6, ok_only=True), "ms"),
        "stability.spectra_per_point": (_ratio(
            sum(1 for s in by_name["stability.spectrum_report"]
                if under_stability_run(s)), stability_runs), "count"),
        "stability.exists_ratio": (_ratio(
            sum(1 for s in routh if s[ERROR] is None), len(routh)),
            "fraction"),
        "cli.parse_config.ms": (mean("cli.parse_config", 1e6), "ms"),
        "cli.run.s": (per_pass(duration(by_name["cli.run"])) / 1e9, "s"),
        "cli.write.ms": (per_pass(write_ns) / 1e6, "ms"),
    }
    for n in enum_sizes:
        metrics[f"equilibria.enumerate_equilibria.s.n{n}"] = (
            mean("equilibria.enumerate_equilibria", 1e9, ok_only=True,
                 where=lambda s, n=n: s[NOTE][0] == n), "s")
    for n in spectrum_sizes:
        metrics[f"stability.spectrum_report.ms.n{n}"] = (
            mean("stability.spectrum_report", 1e6, ok_only=True,
                 where=lambda s, n=n: s[NOTE] == n), "ms")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = (
            _ratio(layer_self[layer], pass_ns), "fraction")
    metrics.update(extra or {})

    absent = set(tracer.absent)

    def available(metric):
        own = ".".join(metric.split(".", 2)[:2])
        return own not in absent and absent.isdisjoint(
            _DEPENDS.get(metric, ()))

    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if available(name)}
