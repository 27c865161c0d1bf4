"""The package's one numpy module: the lane route of the fixed-point scans
and the 3x3 solves of the numeric half-map fit.

`returnmap.fixed_points` and `returnmap.half_map_numeric_fit` import this
module when they run, so the verbs that run no lanes (`classify`,
`normal-form`, `integrate`, `portrait`, `return-map` without `--numeric`)
never load numpy.

The lane route runs all seeds of a scan window at once on numpy lanes; each
leg of the full turn is an RK4 run in the chart variable whose step count
each lane doubles until its step-doubling error estimate meets the leg
tolerance.  Every RK4 stage of a leg is one call of the field's generated
evaluator, `FieldSpec.compiled_eval`, on the lane arrays.  A lane that no
step count up to 256 brings within it, or that fails a guard of the scalar
route (transverse start, a start heading into the field's own quadrants,
chart denominator of constant sign and above the band, `switching.BAND`
times the field scale, no return to the starting branch, the box
|x| <= `flow.LEG_BOX` of the orbit legs), is evaluated on the scalar route,
`returnmap.numeric_return_map`.

A window has one result route: grid, lanes, multisection of the sign-change
cells on lanes, and the multiplier as a central difference on lanes.  The
scalar route checks it at the widest-leg lane of the window (its outermost
accepted seed) and at every root, where it also gives the conjugate and
`hit_sliding`; a disagreement raises `RouteMismatch`.  A root's stability
comes from the signs of phi(x) - x at the ends of its scan cell.  The
scalar route is looked up on `returnmap` at each call, so that a wrapper
installed there sees every scalar check.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import returnmap
from .errors import RouteMismatch
from .fields import FIELD_SIGN, PiecewiseSystem
from .flow import ARM, LEG_BOX
from .numerics import ROOT_XTOL, Cell, sign_change_roots
from .returnmap import _TURN_LEGS, FixedPoint, NumericReturn
from .switching import BAND

#: Largest accepted lane-vs-scalar full-turn difference, times (1 + |x|).
LANE_CHECK_TOL = 1e-9

#: Largest accepted step-doubling error estimate of one lane chart leg,
#: times (1 + |w|): well inside LANE_CHECK_TOL after four legs.
_LEG_TOL = 1e-3 * LANE_CHECK_TOL

#: RK4 steps per chart leg on the step-doubling ladder of the lane route.
_LEG_STEPS = (4, 8, 16, 32, 64, 128, 256)

#: Central-difference step of a fixed point's multiplier, times (1 + |x|).
SLOPE_STEP = 1e-5

#: Sections per round of `multisect_roots`.
MULTISECTIONS = 256


def multisect_roots(f, cells: Sequence[Cell]) -> list[float]:
    """Roots of f in sign-change cells [(a, b, f(a), f(b)), ...], refined
    together, the vectorised counterpart of `numerics.bisect_root`.

    f maps an array of points to an array of values.  Every round evaluates
    f once, at the MULTISECTIONS - 1 interior section points of all open
    cells, and keeps the first sub-cell of each that holds a sign change (an
    exact zero ends its cell), until the width is at most ROOT_XTOL.
    """
    if not cells:
        return []
    a, b, fa, fb = (np.array(c, dtype=float) for c in zip(*cells))
    root = np.full(a.shape, np.nan)
    frac = np.arange(1, MULTISECTIONS) / MULTISECTIONS
    while True:
        live = np.flatnonzero(np.isnan(root) & (b - a > ROOT_XTOL))
        if live.size == 0:
            break
        pts = a[live, None] + (b - a)[live, None] * frac
        vals = f(pts.ravel()).reshape(pts.shape)
        # section points with both cell ends, so the first flip always exists
        xs = np.hstack([a[live, None], pts, b[live, None]])
        fs = np.hstack([fa[live, None], vals, fb[live, None]])
        flip = (fs[:, 1:] == 0.0) | ((fs[:, 1:] < 0.0) != (fs[:, :1] < 0.0))
        j = np.argmax(flip, axis=1) + 1
        rows = np.arange(live.size)
        hit = fs[rows, j] == 0.0
        root[live[hit]] = xs[rows, j][hit]
        a[live], fa[live] = xs[rows, j - 1], fs[rows, j - 1]
        b[live], fb[live] = xs[rows, j], fs[rows, j]
    return np.where(np.isnan(root), 0.5 * (a + b), root).tolist()


def fit_cubic_through_origin(samples: dict[float, float], mags: tuple[float, float, float]):
    """Solve for (a, b, c) of f = a x + b x^2 + c x^3 + O(x^4) from values at
    +/- the three magnitudes, separating odd and even parts exactly."""
    m = np.asarray(mags)
    odd = np.array([(samples[mm] - samples[-mm]) / (2.0 * mm) for mm in mags])
    even = np.array([(samples[mm] + samples[-mm]) / (2.0 * mm * mm) for mm in mags])
    # odd[m]  = a + c m^2 + e m^4 ; even[m] = b + d m^2 + f m^4
    van = np.vander(m * m, 3, increasing=True)  # columns 1, m^2, m^4
    a, c, _e = np.linalg.solve(van, odd)
    b, _d, _f = np.linalg.solve(van, even)
    return float(a), float(b), float(c)


def _chart(Z: PiecewiseSystem, field: str):
    """The chart ODE dw/ds = num/den of a field's legs as (s, w) -> (num,
    den), on the field's generated evaluator: Y(s, w) with its components
    reversed (dw/ds = Y2/Y1), X(w, s) as it is (dw/ds = X1/X2)."""
    F = Z.field(field).compiled_eval
    if field == "Y":
        return lambda s, w: F((s, w))[::-1]
    return lambda s, w: F((w, s))


def _rk4_leg(chart, start: np.ndarray, n: int):
    """n fixed RK4 steps of the chart ODE dw/ds = num/den, (num, den) =
    chart(s, w), from (s, w) = (start, 0) to s = 0, on numpy lanes.

    Returns (w, den_min, w_min, w_max): the end values, the least
    den * sign(den(start, 0)) over all stages, and the least and the largest
    w after each step.  Every operation is elementwise, so a lane's results
    do not depend on the other lanes of the call.
    """
    zero = np.zeros_like(start)
    den_sign = np.sign(chart(start, zero)[1])
    h = -start / n
    half_h, sixth_h = 0.5 * h, h / 6.0
    w = zero
    den_min = np.full(start.shape, np.inf)
    w_min = np.full(start.shape, np.inf)
    w_max = np.full(start.shape, -np.inf)

    def f(s, w):
        nonlocal den_min
        num, d = chart(s, w)
        den_min = np.minimum(den_min, d * den_sign)
        return num / d

    for k in range(n):
        s = start + k * h
        mid = s + half_h
        k1 = f(s, w)
        k2 = f(mid, w + half_h * k1)
        k3 = f(mid, w + half_h * k2)
        k4 = f(s + h, w + h * k3)
        w = w + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w_min = np.minimum(w_min, w)
        w_max = np.maximum(w_max, w)
    return w, den_min, w_min, w_max


def _chart_turn(Z: PiecewiseSystem, xs: np.ndarray):
    """Numeric full turn from the seeds (x, 0), all seeds at once.

    Each leg integrates the chart ODE dw/ds = num/den (`_chart`) from
    (s, w) = (start, 0) to s = 0 on numpy lanes, with error control by step
    doubling: `_rk4_leg` runs N = 4, 8, ..., 256 RK4 steps on the lanes not
    yet accepted, and a lane is accepted at the first N with
    |w_2N - w_N| / 15 <= _LEG_TOL * (1 + |w_2N|).  Its value and its guards
    come from that 2N run.  A lane is evaluated only on its own seed, so its
    value does not depend on which other seeds share the call.

    Returns (values, ok).  ok is False on every lane that fails a guard of
    the scalar route, or that no N up to 256 accepts, and the value of such
    a lane is meaningless: the start point is not transverse (|num| within
    `switching.BAND` times the field scale there) or not on an
    open half-branch; the leg starts away from the field's own quadrants
    (FIELD_SIGN * num * den >= 0, read from the factors' signs); the chart
    denominator changes sign or comes within that band at some stage; w is
    outside the field's own quadrants after some step (the orbit leg heads
    away from the other branch, or back to its starting branch); or the leg
    leaves the box.
    """
    start = np.array(xs, dtype=float)
    ok = np.ones(start.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for field in _TURN_LEGS:
            chart = _chart(Z, field)
            zero = np.zeros_like(start)
            # the branch point (x1, x2) of the leg start, and the sign of w on
            # the field's own quadrants, where x1*x2 has the sign FIELD_SIGN
            point = (start, zero) if field == "Y" else (zero, start)
            side = FIELD_SIGN[field] * np.sign(start)
            at = {name: Z.field(name).compiled_eval(point) for name in FIELD_SIGN}
            scale = np.maximum.reduce([np.abs(v) + zero
                                       for values in at.values() for v in values])
            tol = BAND * scale
            num, den = at[field][::-1] if field == "Y" else at[field]
            # the scalar route's heading rule: the leg that runs s toward 0
            # starts into the field's own quadrants
            heading = FIELD_SIGN[field] * np.sign(num) * np.sign(den)
            ok &= ((np.abs(num) > tol) & (heading < 0.0) & (np.abs(start) > ARM)
                   & (np.abs(start) <= LEG_BOX))

            # the accepted 2N run of each lane: w, den_min, w_min, w_max
            leg = np.full((4,) + start.shape, np.nan)
            live = np.flatnonzero(ok)
            coarse = _rk4_leg(chart, start[live], _LEG_STEPS[0])
            for n in _LEG_STEPS[1:]:
                if not live.size:
                    break
                fine = _rk4_leg(chart, start[live], n)
                accept = (np.abs(fine[0] - coarse[0]) / 15.0
                          <= _LEG_TOL * (1.0 + np.abs(fine[0])))
                leg[:, live[accept]] = np.array(fine)[:, accept]
                live = live[~accept]
                coarse = tuple(r[~accept] for r in fine)
            w, den_min, w_min, w_max = leg
            # least and largest w * side
            ws_min = np.where(side > 0.0, w_min, -w_max)
            ws_max = np.where(side > 0.0, w_max, -w_min)
            ok &= (den_min > tol) & (ws_min > 0.0) & (ws_max <= LEG_BOX)
            start = w
    return start, ok


def _turn_values(Z: PiecewiseSystem, xs: np.ndarray):
    """`_chart_turn`, with every lane that is not ok (a failed guard, or a
    leg that 256 steps did not bring within its tolerance) evaluated by the
    scalar `numeric_return_map` instead, which raises what it raises."""
    values, ok = _chart_turn(Z, xs)
    for k in np.flatnonzero(~ok):
        values[k] = returnmap.numeric_return_map(Z, float(xs[k])).value
    return values, ok


def _bracket_verdict(fa: float, fb: float) -> bool | None:
    """Stability of the root of phi(x) - x in a scan cell from its end
    values, fa at the lower end and fb at the upper end.

    The full turn preserves orientation, so its multiplier is >= 0, and the
    root is stable exactly when phi(x) - x falls from + to - across it.  A
    root at an exact zero of the scan has no bracket and gets None.
    """
    if fa == 0.0 or fb == 0.0:
        return None
    return fa > 0.0


def _checked_turn(Z: PiecewiseSystem, x: float, lane: float) -> NumericReturn:
    """`numeric_return_map` at x, checked against the lane value of the full
    turn there; RouteMismatch when they differ by more than
    LANE_CHECK_TOL * (1 + |x|)."""
    res = returnmap.numeric_return_map(Z, x)
    if abs(lane - res.value) > LANE_CHECK_TOL * (1.0 + abs(x)):
        raise RouteMismatch(f"full turn at x = {x!r}: lane value {lane!r}, "
                            f"orbit legs {res.value!r}")
    return res


def lane_window(Z: PiecewiseSystem, grid: list[float],
                guard: float) -> list[FixedPoint]:
    """Fixed points in one scan window on the lane route (see
    `returnmap.fixed_points`).  The scalar check before any multisection
    runs at the widest-leg lane, whose chart error is largest: the outermost
    accepted grid seed."""

    def lanes(u):
        vals, ok = _turn_values(Z, u)
        d = vals - u
        d[np.abs(u) <= guard] = 0.0
        return d, ok

    xs = np.array(grid)
    vals, ok = lanes(xs)
    if ok.any():
        k = int(np.argmax(np.where(ok, np.abs(xs), -1.0)))
        _checked_turn(Z, grid[k], float(vals[k] + xs[k]))

    def refine(brackets):
        return multisect_roots(lambda u: lanes(u)[0], brackets)

    roots = [(r, cell) for r, cell in sign_change_roots(grid, vals.tolist(), refine)
             if abs(r) > 2.0 * guard]
    if not roots:
        return []
    at = np.array([r for r, _ in roots])
    h = SLOPE_STEP * (1.0 + np.abs(at))
    values = _turn_values(Z, np.concatenate([at - h, at, at + h]))[0]
    below, value, above = np.split(values, 3)
    out: list[FixedPoint] = []
    for i, (root, (_, _, fa, fb)) in enumerate(roots):
        res = _checked_turn(Z, root, float(value[i]))
        mult = float((above[i] - below[i]) / (2.0 * h[i]))
        out.append(FixedPoint(root, res.legs[2][0], mult,
                              _bracket_verdict(fa, fb), res.hit_sliding))
    return out
