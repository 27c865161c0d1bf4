#!/usr/bin/env python3
"""Render a gallery of SVG phase portraits: one representative per stable
class plus each codimension-one family at delta < 0, 0, and delta > 0.

Usage: python3 scripts/make_portraits.py [--out-dir portraits] [--box 0.8]
"""
from __future__ import annotations

import argparse
import math
from pathlib import Path

from crosswitch import (
    CLASS_C1,
    CLASS_C2,
    CLASS_C31,
    CLASS_C32,
    CLASS_DPE,
    CLASS_PH,
    CLASS_RF,
    TooManyTangencies,
    normal_form,
    phase_portrait,
    sigma_decomposition,
    unfolding,
)
from crosswitch.report import portrait_svg

GALLERY = [
    ("c1", normal_form(CLASS_C1, {"a": 1, "b": -1}), "class C1"),
    ("c2", normal_form(CLASS_C2, {"a": 1, "b": -1, "c": 1}), "class C2"),
    ("c31", normal_form(CLASS_C31, {"a": 1, "b": 1}), "class C31"),
    ("c32", normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1}), "class C32"),
] + [
    (f"{slug}_{tag}", unfolding(family, signs, delta),
     f"{family} delta={delta:+g}")
    for slug, family, signs in (
        ("double_pseudo_eq", CLASS_DPE, {"a": 1, "b": 1, "c1": 1, "c2": 1}),
        ("pseudo_hopf", CLASS_PH, {"a": 1, "b": 1, "c": 1}),
        ("regular_fold", CLASS_RF, {"a": -1, "b": 1}),
    )
    for tag, delta in (("minus", -0.2), ("zero", 0.0), ("plus", 0.2))
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="portraits")
    ap.add_argument("--box", type=float, default=0.8)
    ap.add_argument("--t-max", type=float, default=3.0)
    args = ap.parse_args()
    for name, value in (("--box", args.box), ("--t-max", args.t_max)):
        if not 0.0 < value < math.inf:
            ap.error(f"{name} must be positive and finite, got {value!r}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for slug, Z, title in GALLERY:
        trajectories = phase_portrait(Z, box=args.box, t_max=args.t_max)
        try:
            dec = sigma_decomposition(Z, radius=args.box)
        except TooManyTangencies:
            dec = None
        svg = portrait_svg(Z, trajectories, box=args.box,
                           decomposition=dec, title=title)
        path = out_dir / f"{slug}.svg"
        path.write_text(svg)
        print(f"wrote {path} ({len(trajectories)} trajectories)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
