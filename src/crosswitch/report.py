"""Deterministic output layer: canonical JSON reports, CSV tables, a
sequential sweep driver for the one-parameter model families, and a
dependency-free SVG writer for phase portraits.

Canonical JSON rules (so reruns are byte-identical): object keys sorted,
no whitespace, floats rendered as %.12e with negative zero normalized,
non-finite numbers rejected.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

from . import __version__
from .classify import Classification, UnfoldingVerification, classify, verify_unfolding
from .errors import NonFiniteValue, TooManyTangencies, require_positive
from .fields import PiecewiseSystem, system_to_obj
from .flow import Mode, Trajectory
from .returnmap import ReturnMapModel, half_map_numeric_fit, return_map_model
from .switching import ArcKind, SigmaDecomposition, pseudo_equilibria, sigma_decomposition

SCHEMA_VERSION = 1
FLOAT_FORMAT = "%.12e"


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise NonFiniteValue(f"non-finite value {v!r} cannot enter a canonical report")
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return FLOAT_FORMAT % v


#: A character that `_escape` must rewrite: a quote, a backslash or a control
#: character below U+0020. Quote and backslash take a backslash; a control
#: character takes a \u00XX escape.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = {'"': '\\"', "\\": "\\\\"}


def _escape_char(m: re.Match) -> str:
    ch = m[0]
    return _ESCAPES.get(ch) or "\\u%04x" % ord(ch)


def _escape(s: str) -> str:
    return '"' + _NEEDS_ESCAPE.sub(_escape_char, s) + '"'


def _write_canonical(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
            if k:
                out.append(",")
            out.append(_escape(key))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, v in enumerate(obj):
            if k:
                out.append(",")
            _write_canonical(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def _header(system_obj: dict) -> dict:
    """Schema, tool and the digest of `system_to_obj(Z)` (sha256 over its
    canonical JSON): the keys every JSON report opens with."""
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "crosswitch", "version": __version__},
        "system_digest": hashlib.sha256(
            canonical_json(system_obj).encode("ascii")).hexdigest(),
    }


def _envelope(Z: PiecewiseSystem) -> dict:
    """`_header` with the system itself."""
    obj = system_to_obj(Z)
    return {**_header(obj), "system": obj}


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------

HALF_NAMES = {(1, 1): "sigma1_plus", (1, -1): "sigma1_minus",
              (2, 1): "sigma2_plus", (2, -1): "sigma2_minus"}


def _sigma_obj(dec: SigmaDecomposition) -> dict:
    return {
        "radius": dec.radius,
        "kinds_outward": {name: "".join(dec.kind_sequence(b, h))
                          for (b, h), name in HALF_NAMES.items()},
        "arcs": [
            {"branch": a.branch, "half": a.half, "inner": a.inner,
             "outer": a.outer, "kind": a.kind.value}
            for a in dec.arcs
        ],
        "tangencies": [
            {"field": t.field, "branch": t.branch, "s": t.s,
             "point": [t.point[0], t.point[1]], "lie": t.lie,
             "visibility": t.visibility.value}
            for t in dec.tangencies
        ],
    }


def _pseudo_eq_obj(Z: PiecewiseSystem, radius: float) -> list[dict]:
    return [{
        "branch": pe.branch, "s": pe.s,
        "point": [pe.point[0], pe.point[1]],
        "region_kind": pe.region_kind.value,
        "derivative": pe.derivative,
        "hyperbolic": pe.hyperbolic,
        "stability": pe.stability,
    } for branch in (1, 2) for pe in pseudo_equilibria(Z, branch, radius=radius)]


def classification_obj(cls: Classification) -> dict:
    return {
        "class": cls.class_name,
        "codimension": cls.codimension,
        "signs": dict(cls.signs),
        "witnesses": dict(cls.witnesses),
        "reasons": list(cls.reasons),
    }


def classification_report(Z: PiecewiseSystem, radius: float = 1.0) -> dict:
    """Full JSON-ready classification record for one system, with its
    decomposition and pseudo-equilibria within the radius."""
    rep = _envelope(Z)
    rep["classification"] = classification_obj(classify(Z))
    try:
        rep["sigma"] = _sigma_obj(sigma_decomposition(Z, radius))
        rep["pseudo_equilibria"] = _pseudo_eq_obj(Z, radius)
    except TooManyTangencies as e:
        rep["sigma"] = {"error": str(e)}
    return rep


# ---------------------------------------------------------------------------
# return-map report
# ---------------------------------------------------------------------------

def _half_map_obj(h) -> dict:
    return {"field": h.field, "a": h.a, "b": h.b, "c": h.c,
            "source": h.source, "error_estimate": h.error_estimate}


def return_map_obj(model: ReturnMapModel) -> dict:
    return {
        "alpha": model.alpha,
        "gamma": model.gamma,
        "beta": model.beta,
        "c3": model.c3,
        "eta": model.eta,
        "attractive": model.attractive,
        "half_turn": list(model.psi),
        "full_turn": list(model.phi),
        "half_map_x": _half_map_obj(model.half_x),
        "half_map_y": _half_map_obj(model.half_y),
    }


def return_map_report(Z: PiecewiseSystem, include_numeric: bool = False) -> dict:
    rep = _envelope(Z)
    model = return_map_model(Z)
    rep["return_map"] = return_map_obj(model)
    if include_numeric:
        numeric = return_map_model(Z, half_map_numeric_fit)
        rep["return_map_numeric"] = return_map_obj(numeric)
        rep["jet_vs_numeric"] = {
            "alpha": abs(model.alpha - numeric.alpha),
            "beta": abs(model.beta - numeric.beta),
            "c3": abs(model.c3 - numeric.c3),
        }
    return rep


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

#: CSV text of each sample mode.
_MODE_TEXT = {m: m.value for m in Mode}


def trajectory_csv(trajectories: list[Trajectory], with_id: bool = False) -> str:
    """One line per sample: (trajectory index,) t, x1, x2, mode.  Every t,
    x1 and x2 cell is formatted as by `_format_float`, ints included: a
    non-finite value raises NonFiniteValue and -0.0 is written as 0.0."""
    out = ["trajectory,t,x1,x2,mode\n" if with_id else "t,x1,x2,mode\n"]
    row = f"{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%s\n"
    for k, tr in enumerate(trajectories):
        if not tr.samples:
            continue
        *columns, modes = zip(*tr.samples)
        if not all(all(map(math.isfinite, col)) for col in columns):
            for s in tr.samples:   # raises at the first non-finite cell
                for v in s[:3]:
                    _format_float(v)
        cells = [None] * (4 * len(modes))
        for j, col in enumerate(columns):
            cells[j::4] = [v + 0.0 for v in col]   # -0.0 + 0.0 is 0.0
        cells[3::4] = map(_MODE_TEXT.__getitem__, modes)
        out.append(((f"{k}," if with_id else "") + row) * len(modes) % tuple(cells))
    return "".join(out)


def events_report(Z: PiecewiseSystem, tr: Trajectory) -> dict:
    """JSON-ready event log of one trajectory of Z, under `_header`."""
    events = [{"kind": e.kind.value, "t": e.t, "point": [e.point[0], e.point[1]],
               "branch": e.branch, "note": e.note} for e in tr.events]
    return {**_header(system_to_obj(Z)), "seed": [tr.seed[0], tr.seed[1]],
            "direction": tr.direction, "nonunique": tr.nonunique, "events": events}


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    delta: float
    verification: UnfoldingVerification


def sweep_family(family: str, signs: dict, deltas: list[float], *,
                 jobs: int = 1) -> list[SweepRecord]:
    """`verify_unfolding` at each delta, in order.  The work holds the GIL,
    so a sweep runs in one thread: `jobs` must be 1."""
    if jobs != 1:
        raise ValueError(f"a sweep runs in one thread; jobs must be 1, got {jobs!r}")
    return [SweepRecord(d, verify_unfolding(family, signs, d)) for d in deltas]


def sweep_csv(records: list[SweepRecord]) -> str:
    """One line per sweep point: delta, family, predicted and observed
    class, ok, signs, failed checks.  delta goes through `_format_float`,
    ints included, as in `trajectory_csv`."""
    lines = ["delta,family,predicted_class,observed_class,ok,signs,failed_checks"]
    for r in records:
        v = r.verification
        signs = ";".join(f"{k}={v.signs[k]}" for k in sorted(v.signs))
        failed = ";".join(c.name for c in v.checks if not c.ok)
        lines.append(f"{_format_float(r.delta)},{v.family},{v.predicted_class},"
                     f"{v.observed_class},{'true' if v.ok else 'false'},"
                     f"{signs},{failed}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG phase portraits
# ---------------------------------------------------------------------------

ARC_COLOR = {
    ArcKind.CROSSING: "#b0b0b0",
    ArcKind.SLIDING: "#2ca02c",
    ArcKind.ESCAPING: "#e6801a",
    ArcKind.TANGENCY: "#000000",
}

MODE_COLOR = {
    Mode.SMOOTH_X: "#1f77b4",
    Mode.SMOOTH_Y: "#d62728",
    Mode.SLIDING1: "#2ca02c",
    Mode.SLIDING2: "#2ca02c",
    Mode.STATIONARY_ORIGIN: "#000000",
    Mode.STATIONARY_TANGENCY: "#000000",
}

MAX_POLYLINE_POINTS = 400


def _runs_by_mode(tr: Trajectory):
    """Maximal sample runs of constant mode (consecutive runs share a point)."""
    runs = []
    cur_mode, cur = None, []
    for s in tr.samples:
        if cur_mode is None or s.mode is cur_mode:
            cur.append(s)
            cur_mode = s.mode
        else:
            runs.append((cur_mode, cur))
            cur = [cur[-1], s] if cur else [s]
            cur_mode = s.mode
    if cur:
        runs.append((cur_mode, cur))
    return runs


#: Width and height of a portrait SVG, in pixels.
SVG_SIZE = 640


def portrait_svg(Z: PiecewiseSystem, trajectories: list[Trajectory],
                 box: float = 1.0,
                 decomposition: SigmaDecomposition | None = None,
                 title: str = "") -> str:
    """Deterministic standalone SVG of trajectories and the switching set.
    Raises ParseError unless box is positive and finite."""
    require_positive("box", box)
    size = SVG_SIZE
    margin = 24.0
    span = size - 2.0 * margin
    scale = span / (2.0 * box)

    def at(x1: float, x2: float) -> tuple[float, float]:
        """Pixel coordinates of the point (x1, x2)."""
        return margin + (x1 + box) * scale, margin + (box - x2) * scale

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
               f'height="{size}" viewBox="0 0 {size} {size}">')
    out.append(f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>')
    out.append(f'<rect x="{margin}" y="{margin}" width="%.2f" height="%.2f" '
               'fill="none" stroke="#333333" stroke-width="1"/>' % (span, span))
    if title:
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{margin}" y="16" font-family="monospace" '
                   f'font-size="12" fill="#333333">{text}</text>')

    # switching set: colored by arc kind when available, plain gray otherwise
    if decomposition is not None:
        for a in decomposition.arcs:
            lo = max(-box, min(box, a.inner))
            hi = max(-box, min(box, a.outer))
            if a.branch == 1:
                x1a = x1b = 0.0
                y1a, y1b = lo, hi
            else:
                x1a, x1b = lo, hi
                y1a = y1b = 0.0
            dash = ' stroke-dasharray="5,4"' if a.kind is ArcKind.CROSSING else ""
            out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                       % (*at(x1a, y1a), *at(x1b, y1b))
                       + f'stroke="{ARC_COLOR[a.kind]}" stroke-width="2.5"{dash}/>')
        for t in decomposition.tangencies:
            if max(abs(t.point[0]), abs(t.point[1])) <= box:
                out.append('<circle cx="%.2f" cy="%.2f" ' % at(*t.point)
                           + 'r="4" fill="#ffffff" stroke="#000000" stroke-width="1.5"/>')
    else:
        for (xa, ya, xb, yb) in ((-box, 0.0, box, 0.0), (0.0, -box, 0.0, box)):
            out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                       % (*at(xa, ya), *at(xb, yb))
                       + 'stroke="#b0b0b0" stroke-width="1.5"/>')

    for tr in trajectories:
        for mode, run in _runs_by_mode(tr):
            if len(run) < 2:
                continue
            stride = max(1, len(run) // MAX_POLYLINE_POINTS)
            pts = run[::stride]
            if pts[-1] is not run[-1]:
                pts.append(run[-1])
            coords = " ".join("%.2f,%.2f" % at(s.x1, s.x2) for s in pts)
            width = "2.5" if mode in (Mode.SLIDING1, Mode.SLIDING2) else "1.2"
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{MODE_COLOR[mode]}" stroke-width="{width}"/>')

    out.append('<circle cx="%.2f" cy="%.2f" r="3" fill="#000000"/>' % at(0.0, 0.0))
    out.append("</svg>")
    return "\n".join(out) + "\n"
