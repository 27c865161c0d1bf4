#!/usr/bin/env python3
"""Crosswitch benchmark: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload analyze|sweep|portrait --seed N \
        --seconds S --trace 0|1

Run from the root of a crosswitch checkout; the program is imported from its
``src/``.  Every run first starts SETUP_PROBES fresh interpreters that import
``crosswitch.cli`` and build the workload's inputs (``setup_s`` is their
median), then one fresh worker process that measures the workload for about
S seconds (at least two passes), checks every item against the stored
reference and compares the output digests of all passes.

Times are scaled to a reference machine speed by a calibration loop timed
around the work (see worker.py); the raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics of the traced one, with
the import split measured by ``python -X importtime``.  The last line of
standard output is the result object; the lines before it name every metric
with its unit and give the run's metadata.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import PER_LAYER
from workloads import ROOT, SRC, WORKLOADS

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 5
#: The whole run, probes included, must end well within 180 s.
TIME_LIMIT_S = 170.0
SPANS_DIR = ROOT / ".bench_out"

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("ok_frac", "frac"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float, python_flags: tuple[str, ...] = ()):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker could start")
    cmd = [sys.executable, *python_flags, str(WORKER), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _setup_probe(common: list[str], deadline: float, flags=()):
    return _worker(["setup", *common, "--t-spawn", repr(time.monotonic())], deadline, flags)


def scipy_import_s(importtime_stderr: str) -> float:
    """Self time of every scipy module in ``-X importtime`` output."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
            total_us += int(parts[0])
    return total_us / 1e6


def _metadata(args, worker: dict, tail_note: str) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, env=env,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    sources = hashlib.sha256()
    for path in sorted((SRC / "crosswitch").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": worker["passes"],
        "units_per_pass": worker["units_per_pass"],
        "items_per_pass": worker["items_per_pass"],
        "tail": tail_note, "output_digest": worker["digest"],
        "slowness_per_pass": [round(k, 3) for k in worker["slowness"]],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "crosswitch" / "__init__.py").is_file():
        print(f"error: no crosswitch sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [_setup_probe(common, deadline)[0] for _ in range(SETUP_PROBES)]
        run_args = ["run", *common, "--seconds", str(args.seconds)]
        if args.trace:
            importtime_probe, importtime = _setup_probe(common, deadline,
                                                        ("-X", "importtime"))
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            run_args += ["--trace", "--spans-out", str(spans_path)]
        worker, _ = _worker(run_args, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    n = worker["items_per_pass"]
    raw = worker["raw"]
    tail_note = f"p{worker['tail_percentile']:g} over {n} items"
    setup_raw = statistics.median(p["raw_setup_s"] for p in probes)
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters; raw {setup_raw:.6g}",
        "items_per_s": f"{n} items per pass, {worker['passes']} passes; "
                       f"raw {raw['items_per_s']:.6g}",
        "item_p50_ms": f"p50 over {n} items of their median across passes; "
                       f"raw {raw['item_p50_ms']:.6g}",
        "item_tail_ms": f"{tail_note}; raw {raw['item_tail_ms']:.6g}",
        "ok_frac": f"{worker['failed']} failed of {worker['attempted']} attempted",
        "peak_rss_mb": "worker process",
    }
    if args.trace:
        values = dict(worker["layers"])
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        probe_slowness = importtime_probe["raw_setup_s"] / importtime_probe["setup_s"]
        values["cli.import_scipy_s"] = scipy_import_s(importtime) / probe_slowness
        units = PER_LAYER
        notes = {"trace.overhead": f"traced over untraced pass, {worker['spans']} spans in "
                                   f"{spans_path.relative_to(ROOT)}"}
    else:
        values = {name: worker[name] for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        units = END_TO_END

    print(f"# crosswitch benchmark {json.dumps(_metadata(args, worker, tail_note))}")
    for name, unit in units:
        note = notes.get(name)
        print(f"{name} = {values[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    for msg in worker["problems"]:
        print(f"# reference check: {msg}")
    print(json.dumps({
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
