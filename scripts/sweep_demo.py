#!/usr/bin/env python3
"""Sweep each codimension-one model family across its unfolding parameter,
verify every prediction, and write one CSV per family.

Usage: python3 scripts/sweep_demo.py [--out-dir sweeps] [--points 9]
"""
from __future__ import annotations

import argparse
from pathlib import Path

from crosswitch import CLASS_DPE, CLASS_PH, CLASS_RF
from crosswitch.report import sweep_csv, sweep_family

FAMILIES = [
    (CLASS_DPE, {"a": 1, "b": 1, "c1": 1, "c2": -1}, 2e-3),
    (CLASS_PH, {"a": 1, "b": 1, "c": 1}, 2e-3),
    (CLASS_RF, {"a": -1, "b": 1}, 0.4),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="sweeps")
    ap.add_argument("--points", type=int, default=9,
                    help="odd grid size, at least 3, so delta = 0 is included")
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()
    if args.points < 3:
        ap.error("--points must be at least 3")
    if args.points % 2 == 0:
        ap.error("--points must be odd so the grid contains delta = 0")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for family, signs, span in FAMILIES:
        n = args.points
        step = 2.0 * span / (n - 1)
        deltas = [round(-span + k * step, 15) for k in range(n)]
        deltas[n // 2] = 0.0
        records = sweep_family(family, signs, deltas, jobs=args.jobs)
        path = out_dir / f"{family.lower()}.csv"
        path.write_text(sweep_csv(records))
        bad = [r for r in records if not r.verification.ok]
        failures += len(bad)
        status = "all verified" if not bad else f"{len(bad)} MISMATCHES"
        print(f"{family}: {len(records)} points -> {path} ({status})")
        for r in records:
            v = r.verification
            print(f"  delta={r.delta:+.3e}  {v.observed_class:24s} "
                  f"checks={'ok' if v.ok else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
