"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import sys
import time

import pytest

import workloads

workloads.use_checkout_source()

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Unit, check, load_reference, modules, run_unit  # noqa: E402

#: Units per smoke pass: analyze reaches the first transient normal forms,
#: sweep the first pseudo-Hopf point with a fixed-point scan.
SMOKE = {"analyze": 18, "sweep": 10, "portrait": 1}


@pytest.fixture(scope="module")
def traced():
    return {w: worker.run_workload(w, seed=3, seconds=0.0, trace=True, limit=n)
            for w, n in SMOKE.items()}


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_matches_reference(workload):
    res = worker.run_workload(workload, seed=5, seconds=0.0, limit=SMOKE[workload])
    assert res["correct"], res["problems"]
    assert res["passes"] == 2 and res["failed"] == 0
    assert res["attempted"] == 2 * res["items_per_pass"] > 0
    assert res["items_per_s"] > 0 and 0 < res["item_p50_ms"] <= res["item_tail_ms"]


def test_traced_pass_matches_untraced_output(traced):
    for workload, res in traced.items():
        assert res["correct"], (workload, res["problems"])
        assert res["passes"] == 2 and res["layers"]["trace.overhead"] > 0


def test_layer_separation(traced):
    layers = {w: res["layers"] for w, res in traced.items()}
    zero = {"flow.half_crossing.calls": ("analyze", "portrait"),
            "returnmap.solve_ivp.calls": ("sweep", "portrait"),
            "flow.integrate.calls": ("analyze", "sweep")}
    for metric, idle in zero.items():
        for w in SMOKE:
            if w in idle:
                assert layers[w][metric] == 0, (w, metric)
            else:
                assert layers[w][metric] > 0, (w, metric)


def test_recorder_restores_every_binding():
    cw = modules()
    import crosswitch

    mods = [crosswitch] + [sys.modules[f"crosswitch.{m}"] for m in spans.MODULES]
    before = [dict(vars(m)) for m in mods]
    poly1_call = cw.fields.Poly1.__call__
    with spans.Recorder():
        assert cw.flow.rk4_step_2d is not before[mods.index(cw.flow)]["rk4_step_2d"]
        assert cw.fields.Poly1.__call__ is not poly1_call
    assert [dict(vars(m)) for m in mods] == before
    assert cw.fields.Poly1.__call__ is poly1_call


def test_self_time_on_synthetic_span_tree():
    # (name, t0, t1, parent, item, outermost, rk2, rk1)
    tree = [("root", 0.0, 10.0, -1, "i", True, 9, 1),
            ("a", 1.0, 4.0, 0, "i", True, 2, 0),
            ("b", 5.0, 9.0, 0, "i", True, 7, 1),
            ("b", 6.0, 7.0, 2, "i", False, 3, 0)]
    st = spans.span_stats(tree)
    assert st["root"]["self_s"] == pytest.approx(10 - 3 - 4)
    assert st["a"]["self_s"] == pytest.approx(3)
    assert st["b"]["self_s"] == pytest.approx((4 - 1) + 1)
    assert st["b"]["calls"] == 2
    assert st["b"]["busy_s"] == pytest.approx(4)   # the nested b is not counted twice
    assert st["b"]["rk2"] == 7


def test_tail_percentile_rule():
    assert worker.tail_percentile(41) == 75       # sweep: 10.25 items beyond p75
    assert worker.tail_percentile(302) == 95      # analyze
    assert worker.tail_percentile(520) == 95      # portrait: p99 leaves only 5.2
    assert worker.tail_percentile(1000) == 99
    assert worker.tail_percentile(10000) == 99.9
    assert worker.tail_percentile(19) == 50
    assert worker.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert worker.percentile(list(range(101)), 95) == 95


def test_known_crash_is_counted_but_expected():
    ref = load_reference("analyze")
    crash = json.loads((workloads.REF_DIR / "analyze_strata.json").read_text())["always"]
    assert crash, "the reference records the return-map --numeric crash"
    key = f"pool|{crash[0]:04d}"
    obj = workloads.pool_system(crash[0])
    res = run_unit("analyze", Unit(key, (json.dumps(obj), True)), modules())
    (_, _, out), = res.items
    assert out["return_map"]["raise"] == "RuntimeError"
    assert check("analyze", out, ref[key]) == (True, [])


def test_reference_check_rejects_a_changed_outcome():
    ref = load_reference("sweep")
    key, want = next((k, v) for k, v in ref.items() if v["fixed_points"])
    moved = json.loads(json.dumps(want))
    moved["fixed_points"][0][0] += 1e-7
    failed, problems = check("sweep", moved, want)
    assert failed and problems
    unseen = dict(want, fixed_points=None)   # the scan bypassed the tap
    assert check("sweep", unseen, want) == (True, ["fixed-point scan not observed"])
    assert check("sweep", want, want) == (False, [])


def test_portrait_flags_trajectories_the_tap_did_not_see(monkeypatch):
    cw = modules()
    integrate, portrait = cw.flow.integrate, cw.flow.phase_portrait

    def bypassing_tap(Z, **kwargs):   # integrate reached through another name
        tapped, cw.flow.integrate = cw.flow.integrate, integrate
        try:
            return portrait(Z, **kwargs)
        finally:
            cw.flow.integrate = tapped

    unit = workloads.build_units("portrait", 0, cw, limit=1)[0]
    assert run_unit("portrait", unit, cw).problems == []
    monkeypatch.setattr(cw.flow, "phase_portrait", bypassing_tap)
    problems = run_unit("portrait", unit, cw).problems
    assert problems == ["40 trajectories returned without an observed integrate call"]


def test_calibration_samples_are_left_out_of_program_time():
    with worker.Calibrator() as calibrator:
        t0, c0, s0 = time.perf_counter(), calibrator.program_clock(), calibrator.spent
        while time.perf_counter() - t0 < 0.2:
            pass
        wall, program = time.perf_counter() - t0, calibrator.program_clock() - c0
        spent = calibrator.spent - s0
    assert len(calibrator.samples) >= 5 and spent > 0
    assert program == pytest.approx(wall - spent, abs=1e-3)


def test_pool_selection_is_seeded_and_stratified():
    a, b = workloads.select_pool(1), workloads.select_pool(2)
    assert a == workloads.select_pool(1) and a != b
    assert len(a) == len(b)


def test_benchmark_json_names_every_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
