"""Inputs, item runners and reference checks of the crosswitch benchmark.

Three workloads, each a list of units run in a fixed order per pass:

- ``analyze``: one unit per system.  The 52 normal forms plus a seeded,
  cost-stratified quarter of a fixed pool of random polynomial systems.  Each
  unit calls the CLI in-process: ``classify`` and, for transient systems,
  ``return-map --numeric``.  The program sees only the system JSON (on stdin).
- ``sweep``: one unit per model-family point, ``report.sweep_family`` with
  ``jobs=1`` and its CSV.  The three 9-point grids of the sweep demo plus the
  other seven pseudo-Hopf sign tuples at delta = +-1e-3.
- ``portrait``: one unit per gallery system (phase portrait, decomposition,
  SVG, CSV); its items are the 40 trajectories of the portrait.

Every item outcome is checked against the outcome the seed code produced,
stored under ``reference/``; ``make_reference.py`` rebuilds those files.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "reference"

WORKLOADS = ("analyze", "sweep", "portrait")

#: Random pool of the analyze workload: fixed, so its reference can be stored.
POOL_SEED = 161103770
POOL_SIZE = 1000
#: One pool system in POOL_SHARE enters a run, drawn per cost stratum.
POOL_SHARE = 4

#: Reference-check tolerances (acceptance criteria 05, 08 and 09 where named).
JET_RTOL = 1e-9          # alpha / beta / c3 jets, relative
GAP_TOL = 1e-5           # jet vs numeric half-map gap (acceptance 08)
FIXED_POINT_TOL = 1e-8   # fixed-point location (acceptance 05)
RESIDUAL_TOL = 1e-10     # |x1*x2| at BranchCross events (acceptance 09)
FINAL_POINT_TOL = 1e-6   # trajectory end point

SWEEP_FAMILIES = (  # (family, signs, half-span) of the sweep demo grids
    ("Codim1_DoublePseudoEq", {"a": 1, "b": 1, "c1": 1, "c2": -1}, 2e-3),
    ("Codim1_PseudoHopf", {"a": 1, "b": 1, "c": 1}, 2e-3),
    ("Codim1_RegularFold", {"a": -1, "b": 1}, 0.4),
)
SWEEP_POINTS = 9
PH_EXTRA_DELTAS = (-1e-3, 1e-3)

PORTRAIT_BOX = 0.8
PORTRAIT_T_MAX = 3.0
PORTRAIT_GALLERY = (  # (slug, class or family, signs, delta or None, title)
    ("c1", "Stable_C1", {"a": 1, "b": -1}, None, "class C1"),
    ("c2", "Stable_C2", {"a": 1, "b": -1, "c": 1}, None, "class C2"),
    ("c31", "Stable_C31", {"a": 1, "b": 1}, None, "class C31"),
    ("c32", "Stable_C32", {"a": 1, "b": 1, "c": 1}, None, "class C32"),
) + tuple(
    (f"{slug}_{tag}", family, signs, delta, f"{family} delta={delta:+g}")
    for slug, family, signs in (
        ("double_pseudo_eq", "Codim1_DoublePseudoEq", {"a": 1, "b": 1, "c1": 1, "c2": 1}),
        ("pseudo_hopf", "Codim1_PseudoHopf", {"a": 1, "b": 1, "c": 1}),
        ("regular_fold", "Codim1_RegularFold", {"a": -1, "b": 1}),
    )
    for tag, delta in (("minus", -0.2), ("zero", 0.0), ("plus", 0.2))
)

EVENT_CODES = {"BranchCross": "C", "SlidingEntry": "S", "SlidingExit": "X",
               "Graze": "G", "TangencyStop": "T", "OriginStop": "O",
               "TimeLimit": "L", "BoxExit": "B"}


def use_checkout_source() -> None:
    """Import crosswitch from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "crosswitch" / "__init__.py").is_file():
        raise SystemExit(f"error: no crosswitch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def modules() -> SimpleNamespace:
    """The crosswitch modules, looked up at call time by the item runners so
    that wrapped bindings (tracing, taps) take effect."""
    import importlib

    pkg = importlib.import_module("crosswitch")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: crosswitch imported from {pkg.__file__}, not from {SRC}")
    # submodules by import path: the package re-exports a function `classify`
    return SimpleNamespace(pkg=pkg, **{
        name: importlib.import_module(f"crosswitch.{name}")
        for name in ("cli", "classify", "fields", "flow", "report", "switching")})


def signs_text(signs: dict) -> str:
    return ",".join(f"{k}={signs[k]}" for k in sorted(signs))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unit:
    key: str
    data: object


def _random_poly(rng, max_terms=4, degree=3, scale=3.0) -> list[dict]:
    """Acceptance 06's random polynomial with a nonzero constant term."""
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        i, j = int(rng.integers(0, degree + 1)), int(rng.integers(0, degree + 1))
        terms[(i, j)] = float(rng.uniform(-scale, scale))
    sign = 1.0 if rng.integers(0, 2) else -1.0
    terms[(0, 0)] = sign * float(rng.uniform(0.25, scale))
    return [{"c": c, "i": i, "j": j} for (i, j), c in sorted(terms.items())]


def pool_system(k: int) -> dict:
    """System JSON object number k of the random pool."""
    import numpy as np

    rng = np.random.default_rng([POOL_SEED, k])
    f = [_random_poly(rng) for _ in range(4)]
    return {"X": {"f1": f[0], "f2": f[1]}, "Y": {"f1": f[2], "f2": f[3]}}


def is_transient_obj(obj: dict) -> bool:
    """X1*X2(0) < 0 < Y1*Y2(0), read from the constant terms of the JSON."""
    def c0(terms):
        return sum(t["c"] for t in terms if t["i"] == 0 and t["j"] == 0)

    x1, x2 = c0(obj["X"]["f1"]), c0(obj["X"]["f2"])
    y1, y2 = c0(obj["Y"]["f1"]), c0(obj["Y"]["f2"])
    return x1 * x2 < 0.0 < y1 * y2


def normal_form_systems(cw) -> list[tuple[str, dict]]:
    out = []
    for name in cw.classify.STABLE_CLASSES + cw.classify.CODIM1_CLASSES:
        for signs in cw.classify.all_sign_tuples(name):
            Z = cw.classify.normal_form(name, signs)
            out.append((f"nf|{name}|{signs_text(signs)}", cw.fields.system_to_obj(Z)))
    return out


def select_pool(seed: int) -> list[int]:
    """Pool indices of one run: every known-crash system, plus one system from
    each bin of POOL_SHARE neighbours in every cost-sorted stratum."""
    strata = json.loads((REF_DIR / "analyze_strata.json").read_text())
    rnd = random.Random(seed)
    chosen = list(strata["always"])
    for name in sorted(strata["strata"]):
        members = strata["strata"][name]
        bins = round(len(members) / POOL_SHARE)
        for b in range(bins):
            lo, hi = b * len(members) // bins, (b + 1) * len(members) // bins
            chosen.append(members[rnd.randrange(lo, hi)])
    return sorted(chosen)


def sweep_points() -> list[tuple[str, dict, float]]:
    pts = []
    for family, signs, span in SWEEP_FAMILIES:
        step = 2.0 * span / (SWEEP_POINTS - 1)
        deltas = [round(-span + k * step, 15) for k in range(SWEEP_POINTS)]
        deltas[SWEEP_POINTS // 2] = 0.0
        pts.extend((family, signs, d) for d in deltas)
    ph_demo = SWEEP_FAMILIES[1][1]
    for mask in range(8):
        signs = {k: 1 if (mask >> i) & 1 == 0 else -1 for i, k in enumerate("abc")}
        if signs != ph_demo:
            pts.extend(("Codim1_PseudoHopf", signs, d) for d in PH_EXTRA_DELTAS)
    return pts


def build_units(workload: str, seed: int, cw, limit: int | None = None) -> list[Unit]:
    """The units of one run, in the seed's order; `limit` keeps the first few
    (in reference order) for smoke runs."""
    if workload == "analyze":
        pairs = normal_form_systems(cw)
        pairs += [(f"pool|{k:04d}", pool_system(k)) for k in select_pool(seed)]
        units = [Unit(key, (json.dumps(obj), is_transient_obj(obj))) for key, obj in pairs]
    elif workload == "sweep":
        units = [Unit(f"{fam}|{signs_text(s)}|{d!r}", (fam, s, d))
                 for fam, s, d in sweep_points()]
    elif workload == "portrait":
        units = []
        for slug, name, signs, delta, title in PORTRAIT_GALLERY:
            Z = (cw.classify.normal_form(name, signs) if delta is None
                 else cw.classify.unfolding(name, signs, delta))
            units.append(Unit(slug, (cw.fields.system_to_obj(Z), title)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if limit is not None:
        units = units[:limit]
    random.Random(seed).shuffle(units)
    return units


# ---------------------------------------------------------------------------
# running one unit
# ---------------------------------------------------------------------------

@dataclass
class UnitResult:
    seconds: float
    items: list[tuple[str, float, dict]]   # (item key, latency s, outcome)
    outputs: list[str]                      # canonical outputs, for the digest
    problems: list[str] = field(default_factory=list)   # the unit's own checks


def _call_cli(cw, argv: list[str], stdin_text: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cw.cli.main(argv)
    except Exception as e:  # a crash is an outcome the reference records
        return {"raise": type(e).__name__, "message": str(e).splitlines()[0] if str(e) else ""}
    finally:
        sys.stdin = saved
    return {"exit": code, "text": out.getvalue()}


@contextlib.contextmanager
def tap(module, name: str, sink: list, clock=time.perf_counter):
    """Temporarily wrap module.name so each call appends
    (args, kwargs, seconds, result or None when it raised) to `sink`."""
    original = getattr(module, name)

    def tapped(*args, **kwargs):
        t0 = clock()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            sink.append((args, kwargs, clock() - t0, result))

    setattr(module, name, tapped)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_unit(workload: str, unit: Unit, cw, clock=time.perf_counter) -> UnitResult:
    """Run one unit; `clock` times it (the worker passes one that leaves out
    its own calibration samples)."""
    if workload == "analyze":
        return _run_analyze(unit, cw, clock)
    if workload == "sweep":
        return _run_sweep(unit, cw, clock)
    return _run_portrait(unit, cw, clock)


def _run_analyze(unit: Unit, cw, clock) -> UnitResult:
    text, transient = unit.data
    t0 = clock()
    cls = _call_cli(cw, ["classify", "--system", "-"], text)
    rm = (_call_cli(cw, ["return-map", "--numeric", "--system", "-"], text)
          if transient else None)
    dt = clock() - t0
    outputs = [_output_text(cls)] + ([_output_text(rm)] if rm is not None else [])
    outcome = {"classify": _classify_summary(cls)}
    if rm is not None:
        outcome["return_map"] = _return_map_summary(rm)
    return UnitResult(dt, [(unit.key, dt, outcome)], outputs)


def _output_text(res: dict) -> str:
    if "raise" in res:
        return f"raise {res['raise']}: {res['message']}\n"
    return f"exit {res['exit']}\n{res['text']}"


def _classify_summary(res: dict) -> dict:
    if "raise" in res or res["exit"] != 0:
        return {k: res[k] for k in ("raise", "exit") if k in res}
    rep = json.loads(res["text"])
    c = rep["classification"]
    out = {"exit": 0, "class": c["class"], "signs": signs_text(c["signs"]),
           "codim": c["codimension"]}
    sigma = rep.get("sigma", {})
    if "error" in sigma:
        out["kinds"] = "error"
    else:
        k = sigma["kinds_outward"]
        out["kinds"] = "|".join(k[n] for n in ("sigma1_plus", "sigma1_minus",
                                               "sigma2_plus", "sigma2_minus"))
        out["ntan"] = len(sigma["tangencies"])
        out["npe"] = len(rep["pseudo_equilibria"])
    return out


def _return_map_summary(res: dict) -> dict:
    if "raise" in res or res["exit"] != 0:
        return {k: res[k] for k in ("raise", "exit") if k in res}
    rep = json.loads(res["text"])
    rm = rep["return_map"]
    return {"exit": 0, "alpha": rm["alpha"], "beta": rm["beta"], "c3": rm["c3"],
            "gap": max(rep["jet_vs_numeric"].values())}


def _run_sweep(unit: Unit, cw, clock) -> UnitResult:
    family, signs, delta = unit.data
    scans: list = []
    with tap(cw.classify, "fixed_points", scans):
        t0 = clock()
        records = cw.report.sweep_family(family, dict(signs), [delta], jobs=1)
        text = cw.report.sweep_csv(records)
        dt = clock() - t0
    v = records[0].verification
    outcome = {
        "observed": v.observed_class, "predicted": v.predicted_class, "ok": v.ok,
        "checks": ";".join(f"{c.name}:{int(c.ok)}" for c in v.checks),
        # None when the scan was not observed through classify.fixed_points
        "fixed_points": ([[fp.x, fp.stable, fp.hit_sliding] for fp in scans[0][3]]
                         if scans else None),
    }
    return UnitResult(dt, [(unit.key, dt, outcome)], [text])


def _run_portrait(unit: Unit, cw, clock) -> UnitResult:
    obj, title = unit.data
    calls: list = []
    with tap(cw.flow, "integrate", calls, clock):
        t0 = clock()
        Z = cw.fields.system_from_obj(obj)
        trajectories = cw.flow.phase_portrait(Z, box=PORTRAIT_BOX, t_max=PORTRAIT_T_MAX)
        try:
            dec = cw.switching.sigma_decomposition(Z, radius=PORTRAIT_BOX)
        except cw.pkg.TooManyTangencies:
            dec = None
        svg = cw.report.portrait_svg(Z, trajectories, box=PORTRAIT_BOX,
                                     decomposition=dec, title=title)
        csv = cw.report.trajectory_csv(trajectories, with_id=True)
        dt = clock() - t0
    # One integrate call per attempted trajectory: a trajectory it raised on
    # was dropped by phase_portrait.  Item latency is the trajectory's own
    # integrate time plus an even share of the unit's remaining work
    # (portrait set-up, decomposition, SVG, CSV).
    own: dict = {}
    for args, kwargs, seconds, _ in calls:
        seed = kwargs.get("seed", args[1] if len(args) > 1 else None)
        if seed is not None:
            key = (_seed_key(seed), -1 if kwargs.get("backward") else 1)
            own[key] = own.get(key, 0.0) + seconds
    returned = {(_seed_key(tr.seed), tr.direction): tr for tr in trajectories}
    problems = []
    if len(own) != len(calls):
        problems.append(f"{len(calls)} integrate calls observed for {len(own)} trajectories")
    if returned.keys() - own.keys():
        problems.append(f"{len(returned.keys() - own.keys())} trajectories returned "
                        "without an observed integrate call")
    attempted = sorted(own.keys() | returned.keys())
    share = (dt - sum(own.values())) / max(len(attempted), 1)
    items = [(f"{unit.key}|{seed}|{direction}", own.get((seed, direction), 0.0) + share,
              _trajectory_summary(returned[seed, direction])
              if (seed, direction) in returned else {"dropped": True})
             for seed, direction in attempted]
    return UnitResult(dt, items, [svg, csv], problems)


def _seed_key(seed) -> str:
    return f"{float(seed[0])!r},{float(seed[1])!r}"


def _trajectory_summary(tr) -> dict:
    residual = max((abs(e.point[0] * e.point[1]) for e in tr.events
                    if e.kind.value == "BranchCross"), default=0.0)
    x1, x2 = tr.final_point()
    return {"terminal": tr.terminal.kind.value if tr.terminal else None,
            "events": "".join(EVENT_CODES.get(e.kind.value, "?") for e in tr.events),
            "final": [x1, x2], "residual": residual}


# ---------------------------------------------------------------------------
# reference check
# ---------------------------------------------------------------------------

def load_reference(workload: str) -> dict[str, dict]:
    path = REF_DIR / f"{workload}.jsonl"
    with path.open() as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["key"]: row["out"] for row in rows}


def expected_items(workload: str, units, ref: dict) -> set[str]:
    """Item keys one pass over `units` must produce: every reference
    trajectory of a portrait unit, otherwise the unit itself."""
    if workload == "portrait":
        slugs = {unit.key for unit in units}
        return {key for key in ref if key.split("|", 1)[0] in slugs}
    return {unit.key for unit in units}


def check(workload: str, out: dict, ref: dict | None) -> tuple[bool, list[str]]:
    """(failed, problems).  An item fails when it crashed, missed a gate or
    disagrees with the reference; a problem is a failure the seed code did not
    have, and makes the run incorrect."""
    if ref is None:
        return True, ["no reference outcome"]
    if workload == "analyze":
        return _check_analyze(out, ref)
    if workload == "sweep":
        return _check_sweep(out, ref)
    return _check_portrait(out, ref)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b) + 1e-300


def _check_analyze(out: dict, ref: dict) -> tuple[bool, list[str]]:
    problems = []
    failed = "raise" in out["classify"]
    if out["classify"] != ref["classify"]:
        problems.append(f"classify {out['classify']} != reference {ref['classify']}")
    rm, want = out.get("return_map"), ref.get("return_map")
    if (rm is None) != (want is None):
        problems.append("return-map run does not match the reference")
    elif rm is not None:
        if "raise" in rm:
            failed = True
            if rm.get("raise") != want.get("raise"):
                problems.append(f"return-map raised {rm['raise']}")
        elif rm["exit"] != 0:
            if want.get("exit") != rm["exit"]:
                problems.append(f"return-map exit {rm['exit']} != reference")
        else:
            seed_ok = want.get("exit") == 0
            if seed_ok:
                for name in ("alpha", "beta", "c3"):
                    if not _rel_close(rm[name], want[name], JET_RTOL):
                        problems.append(f"{name} {rm[name]!r} != reference {want[name]!r}")
            if rm["gap"] > GAP_TOL:
                failed = True
                if not (seed_ok and want["gap"] > GAP_TOL):
                    problems.append(f"jet vs numeric gap {rm['gap']:.3g} > {GAP_TOL:g}")
    return failed or bool(problems), problems


def _check_sweep(out: dict, ref: dict) -> tuple[bool, list[str]]:
    problems = [f"{k} {out[k]!r} != reference {ref[k]!r}"
                for k in ("observed", "predicted", "ok", "checks") if out[k] != ref[k]]
    got, want = out["fixed_points"], ref["fixed_points"]
    if got is None and want is not None:
        problems.append("fixed-point scan not observed")
    elif got is not None and want is not None:
        if len(got) != len(want):
            problems.append(f"{len(got)} fixed points, reference {len(want)}")
        for (x, stable, hit), (wx, wstable, whit) in zip(got, want):
            if abs(x - wx) > FIXED_POINT_TOL or stable != wstable or hit != whit:
                problems.append(f"fixed point {x!r}/{stable} != reference {wx!r}/{wstable}")
    return (not out["ok"]) or bool(problems), problems


def _check_portrait(out: dict, ref: dict) -> tuple[bool, list[str]]:
    if out.get("dropped"):
        return True, [] if ref.get("dropped") else ["trajectory dropped"]
    if ref.get("dropped"):
        return False, []
    problems = []
    for k in ("terminal", "events"):
        if out[k] != ref[k]:
            problems.append(f"{k} {out[k]!r} != reference {ref[k]!r}")
    if max(abs(a - b) for a, b in zip(out["final"], ref["final"])) > FINAL_POINT_TOL:
        problems.append(f"final point {out['final']} != reference {ref['final']}")
    failed = out["residual"] > RESIDUAL_TOL
    if failed and not ref["residual"] > RESIDUAL_TOL:
        problems.append(f"BranchCross residual {out['residual']:.3g}")
    return failed or bool(problems), problems
