"""Span and counter recorder for the traced benchmark pass.

``Recorder.install()`` wraps every public function of the crosswitch modules
under each name it is bound to (``crosswitch.flow.rk4_step_2d`` and
``crosswitch.numerics.rk4_step_2d`` are separate bindings of one function),
plus scipy's ``solve_ivp`` as bound in ``crosswitch.returnmap``.  Functions
too hot to span (HOT, and the Poly / FieldSpec methods in METHOD_COUNTERS) only
count calls.  Every other call records a span: name, start, end, parent span,
item id, and the RK4 steps taken inside it.  Spans stay in memory; the
per-layer metrics are derived from them once the pass has ended, and
``uninstall()`` puts every original binding back.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "classify", "fields", "flow", "numerics", "report",
           "returnmap", "series", "switching")

#: Public functions that get a call count instead of a span.
HOT = frozenset({
    "numerics.rk4_step_2d", "numerics.rk4_step_1d", "numerics.polyline_arclength",
    "fields.region_of", "fields.branch_point", "fields.running_coordinate",
    "fields.normal_component", "fields.quadrant_of_signs", "fields.constant_field",
    "series.truncate", "series.integrate_first",
    "switching.band_tolerance", "switching.field_scale",
    "switching.tangency_tolerance", "switching.xi_values",
    "switching.branch_point_class", "switching.crossing_direction",
    "switching.fold_lie_value", "switching.fold_visibility",
    "switching.filippov_combination", "switching.sliding_value_direct",
    "returnmap.is_transient", "returnmap.require_transverse",
    "returnmap.require_transient", "returnmap.gamma_value",
    "returnmap.compose_cubic",
})

#: Counter name of each HOT function whose metric is named differently.
HOT_COUNTER = {"numerics.rk4_step_2d": "numerics.rk4_2d_steps",
               "numerics.rk4_step_1d": "numerics.rk4_1d_steps"}

#: (class, method, counter) for hot methods.
METHOD_COUNTERS = (("FieldSpec", "eval", "fields.field_evals"),
                   ("Poly1", "__call__", "fields.poly1_evals"),
                   ("Poly2", "__init__", "fields.poly2_builds"))

RK2, RK1 = "numerics.rk4_2d_steps", "numerics.rk4_1d_steps"

#: Writers whose output leaves the report layer (bytes_out).
WRITERS = ("report.canonical_json", "report.trajectory_csv",
           "report.sweep_csv", "report.portrait_svg")


class Recorder:
    def __init__(self):
        self.spans: list = []     # (name, t0, t1, parent, item, outermost, rk2, rk1)
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.item: str | None = None
        self._saved: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import importlib

        from scipy.integrate import solve_ivp

        mods = [importlib.import_module("crosswitch")]
        mods += [importlib.import_module(f"crosswitch.{m}") for m in MODULES]
        wrappers: dict = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if obj is solve_ivp:
                    name = "returnmap.solve_ivp"
                elif inspect.isfunction(obj) and obj.__module__.startswith("crosswitch."):
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                else:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        fields = sys.modules["crosswitch.fields"]
        for cls_name, meth, counter in METHOD_COUNTERS:
            cls = getattr(fields, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._counting(original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ----------------------------------------------------------
    def _counting(self, fn, counter: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str):
        if name in HOT:
            return self._counting(fn, HOT_COUNTER.get(name, f"{name}.calls"))
        counts, spans, stack, depth = self.counts, self.spans, self.stack, self.depth
        pre = _PRE.get(name)
        post = _POST.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if pre is not None:
                args = pre(counts, args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name,))  # completed in `finally`
            stack.append(idx)
            outermost = depth[name] == 0
            depth[name] += 1
            rk2, rk1 = counts[RK2], counts[RK1]
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item, outermost,
                              counts[RK2] - rk2, counts[RK1] - rk1)
                if not ok:
                    counts[f"{name}.raised"] += 1
                elif post is not None:
                    post(self, fn, args, kwargs, result, parent)

        return spanned

    def write(self, path) -> None:
        """Write the spans, one JSON array per line, after the pass."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:5]) + "\n")


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (outermost spans only), self_s, and the
    RK4 steps taken inside outermost spans."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict[str, dict[str, float]] = {}
    for k, (name, t0, t1, parent, _item, outermost, rk2, rk1) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "rk2": 0, "rk1": 0})
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - child_time[k]
        if outermost:
            st["busy_s"] += t1 - t0
            st["rk2"] += rk2
            st["rk1"] += rk1
    return stats


# -- per-function extras -------------------------------------------------------

def _count_evals(counter: str):
    def pre(counts, args):
        if not args:
            return args
        f = args[0]

        def counted(x):
            counts[counter] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    return pre


def _add(counter: str, value):
    def post(rec, fn, args, kwargs, result, parent):
        rec.counts[counter] += value(result)

    return post


def _solve_ivp_post(rec, fn, args, kwargs, result, parent):
    rec.counts["returnmap.solve_ivp.nfev"] += int(result.nfev)
    rec.counts["returnmap.solve_ivp.fails"] += 0 if result.success else 1


def _integrate_post(rec, fn, args, kwargs, result, parent):
    rec.counts["flow.samples"] += len(result.samples)
    rec.counts["flow.events"] += len(result.events)


def _portrait_post(rec, fn, args, kwargs, result, parent):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    seeds = 4 * (bound.arguments["seeds_per_quadrant"] + bound.arguments["seeds_per_branch"])
    rec.counts["flow.phase_portrait.dropped"] += 2 * seeds - len(result)


def _writer_post(name: str):
    def post(rec, fn, args, kwargs, result, parent):
        if name == "report.canonical_json":
            rec.counts["report.canonical_json.bytes"] += len(result)
        if parent < 0 or not rec.spans[parent][0].startswith("report."):
            rec.counts["report.bytes_out"] += len(result)

    return post


_PRE = {"numerics.scan_roots": _count_evals("numerics.scan_roots.evals"),
        "numerics.bisect_root": _count_evals("numerics.bisect_root.evals")}

_POST = {
    "numerics.scan_roots": _add("numerics.scan_roots.roots", len),
    "switching.find_tangencies": _add("switching.find_tangencies.found", len),
    "switching.pseudo_equilibria": _add("switching.pseudo_equilibria.found", len),
    "switching.sigma_decomposition": _add("switching.sigma_decomposition.found",
                                          lambda d: len(d.arcs)),
    "returnmap.fixed_points": _add("returnmap.fixed_points.found", len),
    "classify.verify_unfolding": _add("classify.verify_unfolding.not_ok",
                                      lambda v: 0 if v.ok else 1),
    "returnmap.solve_ivp": _solve_ivp_post,
    "flow.integrate": _integrate_post,
    "flow.phase_portrait": _portrait_post,
    "cli.main": _add("cli.main.exit_nonzero", lambda code: int(code != 0)),
}
_POST.update({w: _writer_post(w) for w in WRITERS})


# -- the per-layer metrics ------------------------------------------------------

#: (metric, unit) of the traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.import_scipy_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.main.exit_nonzero", "count"), ("cli.main.crashes", "count"),
    ("series.picard_chart_jet.calls", "count"), ("series.picard_chart_jet.self_s", "s"),
    ("series.invert_graph.calls", "count"), ("series.invert_graph.self_s", "s"),
    ("fields.poly2_builds", "count"),
    ("switching.sigma_decomposition.calls", "count"),
    ("switching.sigma_decomposition.self_s", "s"),
    ("switching.sigma_decomposition.found", "count"),
    ("switching.find_tangencies.calls", "count"),
    ("switching.find_tangencies.self_s", "s"),
    ("switching.find_tangencies.found", "count"),
    ("switching.pseudo_equilibria.calls", "count"),
    ("switching.pseudo_equilibria.self_s", "s"),
    ("switching.pseudo_equilibria.found", "count"),
    ("switching.branch_point_class.calls", "count"),
    ("numerics.scan_roots.calls", "count"), ("numerics.scan_roots.evals", "count"),
    ("numerics.scan_roots.roots", "count"), ("numerics.scan_yield", "roots/eval"),
    ("returnmap.half_map_jet.calls", "count"), ("returnmap.half_map_jet.self_s", "s"),
    ("returnmap.half_map_numeric_fit.calls", "count"),
    ("returnmap.half_map_numeric_fit.busy_s", "s"),
    ("returnmap.solve_ivp.calls", "count"), ("returnmap.solve_ivp.busy_s", "s"),
    ("returnmap.solve_ivp.nfev", "count"), ("returnmap.solve_ivp.fails", "count"),
    ("returnmap.fixed_points.calls", "count"), ("returnmap.fixed_points.busy_s", "s"),
    ("returnmap.fixed_points.found", "count"),
    ("returnmap.numeric_return_map.calls", "count"),
    ("returnmap.numeric_return_map.self_s", "s"),
    ("returnmap.rk4_per_map_eval", "steps/eval"),
    ("flow.half_crossing.calls", "count"), ("flow.half_crossing.self_s", "s"),
    ("flow.half_crossing.fails", "count"),
    ("numerics.bisect_root.calls", "count"), ("numerics.bisect_root.evals", "count"),
    ("numerics.central_slope.calls", "count"),
    ("numerics.rk4_2d_steps", "count"), ("fields.field_evals", "count"),
    ("flow.integrate.calls", "count"), ("flow.integrate.self_s", "s"),
    ("flow.samples", "count"), ("flow.events", "count"),
    ("flow.rk4_per_sample", "steps/sample"), ("numerics.rk4_1d_steps", "count"),
    ("fields.poly1_evals", "count"), ("flow.phase_portrait.dropped", "count"),
    ("report.trajectory_csv.self_s", "s"), ("report.write_csv.self_s", "s"),
    ("report.portrait_svg.self_s", "s"),
    ("report.bytes_out", "B"),
    ("report.classification_report.busy_s", "s"),
    ("report.return_map_report.busy_s", "s"),
    ("report.canonical_json.self_s", "s"), ("report.canonical_json.bytes", "B"),
    ("classify.classify.calls", "count"), ("classify.classify.self_s", "s"),
    ("classify.verify_unfolding.calls", "count"),
    ("classify.verify_unfolding.busy_s", "s"),
    ("classify.verify_unfolding.not_ok", "count"),
    ("trace.overhead", "ratio"),
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every PER_LAYER value that the traced pass itself determines (the
    import times and the overhead ratio come from elsewhere)."""
    stats = span_stats(rec.spans)
    counts = rec.counts

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric in counts:
            out[metric] = counts[metric]
            continue
        name, _, key = metric.rpartition(".")
        if key in ("calls", "busy_s", "self_s") and name in stats:
            out[metric] = stat(name, key)
        else:
            out[metric] = counts.get(metric, 0)
    out["cli.main.crashes"] = counts.get("cli.main.raised", 0)
    out["flow.half_crossing.fails"] = counts.get("flow.half_crossing.raised", 0)
    evals = counts.get("numerics.scan_roots.evals", 0)
    out["numerics.scan_yield"] = counts.get("numerics.scan_roots.roots", 0) / evals if evals else 0.0
    maps = stat("returnmap.numeric_return_map", "calls")
    out["returnmap.rk4_per_map_eval"] = (stat("returnmap.numeric_return_map", "rk2") / maps
                                         if maps else 0.0)
    samples = counts.get("flow.samples", 0)
    steps = stat("flow.integrate", "rk2") + stat("flow.integrate", "rk1")
    out["flow.rk4_per_sample"] = steps / samples if samples else 0.0
    return out
