"""One benchmark process: ``setup`` builds a workload's inputs in a fresh
interpreter and reports how long that took; ``run`` times passes over the
workload, checks every item against the reference and prints one JSON line.

    python3 bench/worker.py setup --workload analyze --seed 1 --t-spawn <monotonic>
    python3 bench/worker.py run --workload sweep --seed 1 --seconds 36 [--trace]

Times are reported at a reference machine speed.  On a shared machine the
interpreter's speed changes by tens of percent within a second, whatever the
program does.  While a pass runs, a timer signal interrupts it every
CALIB_EVERY_S to time a short fixed RK4 loop that belongs to the benchmark,
not to crosswitch; every unit's time is divided by the ratio of the
calibration times during and around it to CALIB_REF_S.  The samples' own
time is left out of every unit's time, and the garbage collector is off while
they run.  The raw times are reported beside the scaled ones.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

import workloads
from workloads import (WORKLOADS, build_units, check, expected_items, load_reference,
                       modules, run_unit)

#: Percentiles considered for the tail; the highest with >= TAIL_BEYOND items
#: above it is reported.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
MAX_PROBLEMS_SHOWN = 20

CALIB_STEPS = 200
CALIB_EVERY_S = 0.02
#: Calibration time on an idle core of the machine the benchmark was defined
#: on (2-vCPU Intel Xeon, Python 3.11).
CALIB_REF_S = 2.2e-4
#: Calibration samples taken during a unit or within CALIB_WINDOW_S of it, and
#: at least CALIB_NEAREST of them, set that unit's machine speed.
CALIB_WINDOW_S = 0.1
CALIB_NEAREST = 5


def calibration_s() -> float:
    """Seconds for CALIB_STEPS RK4 steps of a fixed quadratic planar field."""
    def f(y):
        return (y[1] - 0.1 * y[0] * y[0], -y[0] + 0.3 * y[0] * y[1])

    y, h = (0.1, 0.2), 1e-3
    t0 = time.perf_counter()
    for _ in range(CALIB_STEPS):
        k1 = f(y)
        k2 = f((y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
        k3 = f((y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
        k4 = f((y[0] + h * k3[0], y[1] + h * k3[1]))
        y = (y[0] + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
             y[1] + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
    return time.perf_counter() - t0


class Calibrator:
    """Collects (time, calibration) samples from a SIGALRM handler every
    CALIB_EVERY_S while active.  The handler runs between bytecodes of the
    main thread and touches only this object."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0        # seconds spent in samples, handler included
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:          # a late signal inside the handler itself
            return
        self._busy = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()            # a collection here would be charged to no one
        try:
            self.samples.append((t0, calibration_s()))
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - t0
            self._busy = False

    def program_clock(self) -> float:
        """time.perf_counter() less the time spent in samples so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:   # no sample between the two reads
                return now - spent

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def slowness(self, start: float, end: float) -> float:
        """Machine slowness over [start, end] from the samples taken during it
        or within CALIB_WINDOW_S of it (at least the CALIB_NEAREST closest).

        The samples are evenly spaced in time and each measures 1/speed, so
        the work done per unit of time is their mean inverse: slowness is the
        harmonic mean of the sample times over CALIB_REF_S."""
        samples = self.samples
        times = [t for t, _ in samples]
        near = samples[bisect.bisect_left(times, start - CALIB_WINDOW_S):
                       bisect.bisect_right(times, end + CALIB_WINDOW_S)]
        if len(near) < CALIB_NEAREST:
            def distance(s):
                return max(start - s[0], s[0] - end, 0.0)
            near = sorted(samples, key=distance)[:CALIB_NEAREST]
        return statistics.harmonic_mean([v for _, v in near]) / CALIB_REF_S


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n items beyond it."""
    fits = [p for p in PERCENTILE_LADDER
            if round(n * (100.0 - p), 6) >= 100 * TAIL_BEYOND]
    return max(fits) if fits else PERCENTILE_LADDER[0]


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Timings:
    items: dict = field(default_factory=dict)   # item key -> latency s
    units: dict = field(default_factory=dict)   # unit key -> s in the program

    @property
    def total_s(self) -> float:
        return sum(self.units.values())


@dataclass
class Pass:
    raw: Timings = field(default_factory=Timings)
    scaled: Timings = field(default_factory=Timings)   # at reference machine speed
    wall_s: float = 0.0               # including calibration, digests, checks
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_pass(workload: str, units, cw, ref, recorder=None) -> Pass:
    p = Pass()
    expected = expected_items(workload, units, ref)
    h = hashlib.sha256()
    spans = []   # (start, end, UnitResult)
    t0 = time.perf_counter()
    if recorder is not None:
        recorder.install()
    try:
        with Calibrator() as calibrator:
            for unit in units:
                if recorder is not None:
                    recorder.item = unit.key
                start = time.perf_counter()
                res = run_unit(workload, unit, cw, calibrator.program_clock)
                spans.append((start, time.perf_counter(), res))
                for text in res.outputs:
                    h.update(text.encode())
                res.outputs = None  # keep the benchmark's memory out of peak_rss_mb
                p.problems += [f"{unit.key}: {msg}" for msg in res.problems]
                for key, _latency, outcome in res.items:
                    failed, problems = check(workload, outcome, ref.get(key))
                    p.attempted += 1
                    p.failed += failed
                    p.problems += [f"{key}: {msg}" for msg in problems]
    finally:
        if recorder is not None:
            recorder.uninstall()
    for unit, (start, end, res) in zip(units, spans):
        k = calibrator.slowness(start, end)
        p.raw.units[unit.key] = res.seconds
        p.scaled.units[unit.key] = res.seconds / k
        for key, latency, _ in res.items:
            p.raw.items[key] = latency
            p.scaled.items[key] = latency / k
    missing = expected - p.raw.items.keys()
    if missing:
        p.problems.append(f"{len(missing)} reference items not run, e.g. {min(missing)}")
    p.wall_s = time.perf_counter() - t0
    p.digest = h.hexdigest()
    return p


def _latency_metrics(timed: list[Timings], tail: float) -> dict:
    """Each item and unit counts with its median across passes."""
    per_item = [statistics.median(t.items[k] for t in timed) for k in timed[0].items]
    unit_s = sum(statistics.median(t.units[k] for t in timed) for k in timed[0].units)
    return {"items_per_s": len(per_item) / unit_s,
            "item_p50_ms": 1e3 * percentile(per_item, 50.0),
            "item_tail_ms": 1e3 * percentile(per_item, tail)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool = False,
                 limit: int | None = None, spans_path: str | None = None) -> dict:
    """Untraced passes until `seconds` would be exceeded (at least two, for
    the determinism guard); with `trace`, one untraced and one traced pass."""
    cw = modules()
    units = build_units(workload, seed, cw, limit)
    ref = load_reference(workload)
    passes: list[Pass] = []
    recorder = None
    start = time.perf_counter()
    while True:
        if trace and passes:
            from spans import Recorder

            recorder = Recorder()
            passes.append(run_pass(workload, units, cw, ref, recorder))
            break
        passes.append(run_pass(workload, units, cw, ref))
        if trace:
            continue
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + passes[-1].wall_s > seconds:
            break

    timed = passes[:1] if trace else passes
    n_items = len(timed[0].raw.items)
    tail = tail_percentile(n_items)
    problems = [msg for p in passes for msg in p.problems]
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        problems.append(f"passes differ: output digests {digests}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    out = {
        "correct": not problems,
        "problems": problems[:MAX_PROBLEMS_SHOWN],
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "items_per_pass": n_items,
        "units_per_pass": len(units),
        "digest": digests[0],
        "slowness": [p.raw.total_s / p.scaled.total_s for p in passes],
        **_latency_metrics([p.scaled for p in timed], tail),
        "raw": _latency_metrics([p.raw for p in timed], tail),
        "tail_percentile": tail,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        from spans import layer_metrics

        out["layers"] = layer_metrics(recorder)
        out["layers"]["trace.overhead"] = passes[1].scaled.total_s / passes[0].scaled.total_s
        out["spans"] = len(recorder.spans)
        if spans_path:
            recorder.write(spans_path)
    return out


def setup_probe(workload: str, seed: int, t_spawn: float) -> dict:
    """Import crosswitch.cli and build the inputs; the set-up time counts from
    `t_spawn`, just before the parent started this interpreter, and is scaled
    by calibrations made after it."""
    t0 = time.perf_counter()
    import crosswitch.cli  # noqa: F401  (the import users pay for)
    import_s = time.perf_counter() - t0
    units = build_units(workload, seed, modules())
    raw = time.monotonic() - t_spawn
    k = statistics.median(calibration_s() for _ in range(25)) / CALIB_REF_S
    return {"setup_s": raw / k, "raw_setup_s": raw, "import_s": import_s / k,
            "raw_import_s": import_s, "units": len(units)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None, help="write the traced spans here")
    ap.add_argument("--t-spawn", type=float, default=None,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)

    workloads.use_checkout_source()
    if args.mode == "setup":
        if args.t_spawn is None:
            ap.error("setup needs --t-spawn")
        result = setup_probe(args.workload, args.seed, args.t_spawn)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              spans_path=args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
