"""Command-line interface.

Verbs: classify, normal-form, return-map, integrate, portrait, sweep.
All outputs are deterministic (canonical JSON / fixed-format CSV / SVG), so
rerunning a command reproduces its output byte for byte.

Exit codes: 0 success; 2 unusable input (parse errors, unreadable files,
output paths that cannot be written, invalid signs or sign keys, systems
outside a verb's domain, seeds outside the box or not finite, radii, boxes
or times that are not positive and finite, negative seed counts, deltas
that are not finite, results that overflow to non-finite values); 3
non-finite coefficients; 4 a model-family prediction failed verification.
Only the named errors in `_USABLE_INPUT_ERRORS` mean unusable input; any
other exception is a bug and is not caught.  The library function that
takes a numeric option checks it; the CLI checks only what it parses.

One parser per process: `build_parser` is memoised and built by the first
`main` call, not at import, so callers that run `main` many times in one
process (the benchmark harness, the tests) build it once.  The parser binds
the `_cmd_*` handlers, which look up the library functions they call when
they run.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .classify import (
    CLASS_HIGHER,
    CODIM1_CLASSES,
    STABLE_CLASSES,
    normal_form,
    unfolding,
)
from .errors import (
    EvaluationOutsideDomain,
    InvalidSigns,
    LeftDomain,
    NonFiniteCoefficients,
    NonFiniteValue,
    NotTransient,
    NotTransverse,
    ParseError,
    PredictionMismatch,
    SeedOutsideBox,
    StepLimit,
    TooManyTangencies,
)
from .fields import PiecewiseSystem, system_from_obj, system_to_obj
from .flow import integrate, phase_portrait
from .report import (
    canonical_json,
    classification_report,
    events_report,
    portrait_svg,
    return_map_report,
    sweep_csv,
    sweep_family,
    trajectory_csv,
)
from .numerics import scan_grid
from .switching import sigma_decomposition

_USABLE_INPUT_ERRORS = (ParseError, InvalidSigns, NotTransverse, NotTransient,
                        EvaluationOutsideDomain, LeftDomain, StepLimit,
                        TooManyTangencies, SeedOutsideBox, NonFiniteValue)

_CLASS_BY_LOWER = {name.lower(): name
                   for name in STABLE_CLASSES + CODIM1_CLASSES + (CLASS_HIGHER,)}


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None


def _load_system(path: str) -> PiecewiseSystem:
    try:
        obj = json.loads(_read_text(path))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"invalid JSON in {path}: {e}") from e
    return system_from_obj(obj)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror or e}") from None


def _resolve_class(name: str) -> str:
    key = name.lower()
    if key not in _CLASS_BY_LOWER:
        known = ", ".join(sorted(_CLASS_BY_LOWER.values()))
        raise ParseError(f"unknown class {name!r}; known classes: {known}")
    return _CLASS_BY_LOWER[key]


def _parse_signs(text: str) -> dict:
    signs = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad sign assignment {part!r}; expected key=+1|-1")
        k, _, v = part.partition("=")
        k = k.strip()
        if k in signs:
            raise ParseError(f"repeated sign key {k!r} in {text!r}")
        try:
            signs[k] = int(v)
        except ValueError:
            raise ParseError(f"bad sign value {v!r} for {k!r}") from None
    return signs


def _parse_seed(text: str) -> tuple[float, float]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 2:
        raise ParseError(f"seed must be 'x1,x2', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError(f"non-numeric seed {text!r}") from None


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParseError(f"{name} must be finite, got {value!r}")


def _parse_delta_grid(spec: str | None, listing: str | None) -> list[float]:
    if (spec is None) == (listing is None):
        raise ParseError("give exactly one of --deltas lo:hi:n or --delta-list v,...")
    if spec is not None:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError(f"--deltas must be lo:hi:n, got {spec!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad --deltas {spec!r}") from None
        if n < 2:
            raise ParseError("--deltas needs n >= 2")
        _require_finite("--deltas", lo)
        _require_finite("--deltas", hi)
        values = scan_grid(lo, hi, n - 1)
    else:
        try:
            values = [float(v) for v in listing.split(",") if v.strip()]
        except ValueError:
            raise ParseError(f"bad --delta-list {listing!r}") from None
        if not values:
            raise ParseError("--delta-list is empty")
    for v in values:
        _require_finite("--deltas" if spec is not None else "--delta-list", v)
    snap = 1e-15 * max(abs(v) for v in values)
    values = [0.0 if abs(v) <= snap else v for v in values]
    if not any(v == 0.0 for v in values):
        raise ParseError("the sweep grid must include delta = 0 "
                         "(the organizing value)")
    return values


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    Z = _load_system(args.system)
    rep = classification_report(Z, radius=args.radius)
    _write_text(args.out, canonical_json(rep) + "\n")
    return 0


def _cmd_normal_form(args) -> int:
    name = _resolve_class(args.class_name)
    if name == CLASS_HIGHER:
        raise ParseError("no normal form is defined for HigherCodimension")
    signs = _parse_signs(args.signs)
    if args.delta is not None:
        if name not in CODIM1_CLASSES:
            raise ParseError(f"--delta applies only to the codimension-one "
                             f"families {CODIM1_CLASSES}")
        Z = unfolding(name, signs, args.delta)
    else:
        Z = normal_form(name, signs)
    _write_text(args.out, canonical_json(system_to_obj(Z)) + "\n")
    return 0


def _cmd_return_map(args) -> int:
    Z = _load_system(args.system)
    rep = return_map_report(Z, include_numeric=args.numeric)
    _write_text(args.out, canonical_json(rep) + "\n")
    return 0


def _cmd_integrate(args) -> int:
    Z = _load_system(args.system)
    tr = integrate(Z, _parse_seed(args.seed), t_max=args.t_max, box=args.box,
                   backward=args.backward)
    _write_text(args.out, trajectory_csv([tr]))
    if args.events is not None:
        _write_text(args.events, canonical_json(events_report(Z, tr)) + "\n")
    return 0


def _cmd_portrait(args) -> int:
    Z = _load_system(args.system)
    trajectories = phase_portrait(
        Z, box=args.box, seeds_per_quadrant=args.seeds_per_quadrant,
        seeds_per_branch=args.seeds_per_branch, t_max=args.t_max)
    svg = None
    if args.svg is not None or args.csv is None:
        try:
            dec = sigma_decomposition(Z, radius=args.box)
        except TooManyTangencies:
            dec = None
        # drawn before any file is written: a box too small to draw writes none
        svg = portrait_svg(Z, trajectories, box=args.box, decomposition=dec,
                           title=args.title)
    if args.csv is not None:
        _write_text(args.csv, trajectory_csv(trajectories, with_id=True))
    if svg is not None:
        _write_text(args.svg, svg)
    return 0


def _cmd_sweep(args) -> int:
    family = _resolve_class(args.family)
    if family not in CODIM1_CLASSES:
        raise ParseError(f"--family must be one of {CODIM1_CLASSES}")
    signs = _parse_signs(args.signs)
    deltas = _parse_delta_grid(args.deltas, args.delta_list)
    records = sweep_family(family, signs, deltas)
    _write_text(args.out, sweep_csv(records))
    bad = [r for r in records if not r.verification.ok]
    if bad:
        for r in bad:
            v = r.verification
            msgs = [f"{c.name}: {c.detail}" for c in v.checks if not c.ok]
            if v.predicted_class != v.observed_class:
                msgs.insert(0, f"class {v.observed_class}, "
                               f"predicted {v.predicted_class}")
            print(f"mismatch at delta={r.delta!r}: " + "; ".join(msgs),
                  file=sys.stderr)
        raise PredictionMismatch(f"{len(bad)} of {len(records)} sweep points "
                                 "failed verification")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller
    (so a caller must not change it).  No parser matches an option by a
    prefix of its name: a mistyped or removed option (say `--h` or `--t`)
    exits 2 as unrecognized, where it would be read as `--help` or
    `--t-max`."""
    ap = argparse.ArgumentParser(
        prog="crosswitch", allow_abbrev=False,
        description="Planar piecewise-smooth systems switched across "
                    "{x1*x2 = 0}: classification, return maps, model "
                    "families, trajectories.")
    ap.add_argument("--version", action="version", version=f"crosswitch {__version__}")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = verb("classify", help="classify the origin of a system")
    p.add_argument("--system", required=True, help="system JSON file ('-' = stdin)")
    p.add_argument("--radius", type=float, default=1.0,
                   help="decomposition radius along the branches")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_classify)

    p = verb("normal-form", help="emit the system JSON of a class representative")
    p.add_argument("class_name", help="class name (case-insensitive)")
    p.add_argument("--signs", required=True, help="e.g. 'a=1,b=-1'")
    p.add_argument("--delta", type=float, default=None,
                   help="unfolding parameter (codimension-one families only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_normal_form)

    p = verb("return-map", help="cubic return-map model of a transient system")
    p.add_argument("--system", required=True)
    p.add_argument("--numeric", action="store_true",
                   help="also fit the half maps from integrated orbits")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_return_map)

    p = verb("integrate", help="integrate one trajectory to CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--seed", required=True, help="'x1,x2'")
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--box", type=float, default=2.0,
                   help="stop when |x_i| reaches this bound")
    p.add_argument("--backward", action="store_true")
    p.add_argument("--events", default=None,
                   help="also write the event log as JSON to this path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_integrate)

    p = verb("portrait", help="phase portrait (SVG and/or CSV)")
    p.add_argument("--system", required=True)
    p.add_argument("--box", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--seeds-per-quadrant", type=int, default=3)
    p.add_argument("--seeds-per-branch", type=int, default=2)
    p.add_argument("--title", default="")
    p.add_argument("--svg", default=None, help="SVG path (default stdout)")
    p.add_argument("--csv", default=None, help="also write samples as CSV")
    p.set_defaults(func=_cmd_portrait)

    p = verb("sweep", help="verify a model family across a delta grid")
    p.add_argument("--family", required=True,
                   help="codimension-one class name (case-insensitive)")
    p.add_argument("--signs", required=True)
    p.add_argument("--deltas", default=None, help="grid 'lo:hi:n' (must span 0)")
    p.add_argument("--delta-list", default=None, help="explicit 'v1,v2,...'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NonFiniteCoefficients, PredictionMismatch, *_USABLE_INPUT_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return (3 if isinstance(e, NonFiniteCoefficients)
                else 4 if isinstance(e, PredictionMismatch) else 2)


if __name__ == "__main__":
    sys.exit(main())
