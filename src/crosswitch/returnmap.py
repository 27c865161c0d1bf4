"""Half maps between the two branches, the composed return map around the
origin, its cubic-model coefficients, and fixed-point extraction.

For transient systems (X carries orbits across {x1*x2 > 0}, Y across
{x1*x2 < 0}) every orbit near the origin visits the four half-branches in
turn.  The branch-to-branch orbit maps are

    phi_Y : Sigma2 -> Sigma1   (chart dx2/dx1 = Y2/Y1),
    phi_X : Sigma1 -> Sigma2   (chart dx1/dx2 = X1/X2),

half turn psi = phi_X o phi_Y : Sigma2 -> Sigma2, full turn phi = psi o psi.
First-order coefficients: a_X = -X1(0)/X2(0), a_Y = -Y2(0)/Y1(0), and the
full-turn linear multiplier is alpha^2 with alpha = a_X * a_Y.  The cubic
jets of the half maps come from `half_map_jet` (exact) or
`half_map_numeric_fit`; `return_map_model` composes either.

Two numeric routes evaluate the orbit maps.  The scalar route,
`numeric_return_map`, follows one seed leg by leg with the event-driven,
time-parametrised RK4 of `flow.half_crossing`.  The lane route of
`fixed_points` runs all seeds of a scan at once on numpy lanes; each leg is
an RK4 run in the chart variable whose step count each lane doubles until
its step-doubling error estimate meets the leg tolerance.  A lane that no
step count up to 256 brings within it, or that fails a guard of the scalar
route (transverse start, chart denominator of constant sign and above the
tangency tolerance, no return to the starting branch, the box
|x| <= `flow.LEG_BOX` of the orbit legs), is evaluated on the scalar route.

A scan has one result route: grid, lanes, multisection of the sign-change
cells on lanes, and the multiplier as a central difference on lanes.  The
scalar route checks it at the widest-leg lane of each scan (its outermost
accepted seed) and at every root, where it also gives the conjugate and
`hit_sliding`; a disagreement raises `RouteMismatch`.  A root's stability
comes from the signs of phi(x) - x at the ends of its scan cell.

`flow` owns the orbit-leg constants (`ARM`, `LEG_BOX`) and `half_crossing`;
this module imports them, and `flow` imports nothing from here.

scipy serves one function here, the DOP853 legs of `half_map_numeric_fit`,
which only `return-map --numeric` reaches; its import costs more than the
rest of the package's.  So `solve_ivp` is a module-level function that
imports scipy's on its first call and forwards to it: importing this module,
and with it the CLI, loads no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotTransient, NotTransverse, RouteMismatch
from .fields import FIELD_SIGN, PiecewiseSystem, Point, Poly2
from .flow import ARM, LEG_BOX, half_crossing
from .numerics import multisect_roots, scan_grid, sign_change_roots
from .series import invert_graph, picard_chart_jet
from .switching import _tangency_band, band_tolerance, vanishing_components

#: Fields of the legs of a full turn from Sigma2, in order.
_TURN_LEGS = ("Y", "X", "Y", "X")

#: Largest accepted lane-vs-scalar full-turn difference, times (1 + |x|).
LANE_CHECK_TOL = 1e-9

#: Largest accepted step-doubling error estimate of one lane chart leg,
#: times (1 + |w|): well inside LANE_CHECK_TOL after four legs.
_LEG_TOL = 1e-3 * LANE_CHECK_TOL

#: RK4 steps per chart leg on the step-doubling ladder of the lane route.
_LEG_STEPS = (4, 8, 16, 32, 64, 128, 256)

#: Base magnitude h of the numeric fit's samples at x in {±h/4, ±h/2, ±h, ±2h}.
NUMERIC_FIT_H = 0.01

#: Central-difference step of a fixed point's multiplier, times (1 + |x|).
SLOPE_STEP = 1e-5


# ---------------------------------------------------------------------------
# transversality / transience predicates
# ---------------------------------------------------------------------------

def is_transient(Z: PiecewiseSystem) -> bool:
    """True when orbits near 0 cross all four half-branches in sequence:
    X1*X2(0) < 0 (X connects the two branches across its quadrants) and
    Y1*Y2(0) > 0 (Y does across its quadrants)."""
    x1, x2, y1, y2 = Z.origin_components()
    return x1 * x2 < 0.0 and y1 * y2 > 0.0


def require_transverse(Z: PiecewiseSystem) -> None:
    """Charts for the half maps need X2(0) != 0 and Y1(0) != 0."""
    vanishing = vanishing_components(Z)
    if ("X", 2) in vanishing:
        raise NotTransverse("X2(0) vanishes: phi_X chart is singular")
    if ("Y", 1) in vanishing:
        raise NotTransverse("Y1(0) vanishes: phi_Y chart is singular")


def require_transient(Z: PiecewiseSystem) -> None:
    if not is_transient(Z):
        x1, x2, y1, y2 = Z.origin_components()
        raise NotTransient(
            f"return map needs X1*X2(0) < 0 < Y1*Y2(0); "
            f"got X1*X2 = {x1 * x2:g}, Y1*Y2 = {y1 * y2:g}")


def gamma_value(Z: PiecewiseSystem) -> float:
    """gamma = X1*Y2(0) + X2*Y1(0); proportional to alpha + 1, so gamma = 0
    exactly on the critical band alpha = -1."""
    x1, x2, y1, y2 = Z.origin_components()
    return x1 * y2 + x2 * y1


# ---------------------------------------------------------------------------
# half-map coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfMapCoeffs:
    """Cubic jet G(x) = a x + b x^2 + c x^3 of one half map."""

    field: str                    # "X" or "Y"
    a: float
    b: float
    c: float
    source: str                   # "jet" | "numeric"
    error_estimate: float | None  # attached by the numeric fit


def _chart_polys(Z: PiecewiseSystem, field: str):
    """Chart numerator/denominator written in the (s, w) variables."""
    if field == "Y":
        # s = x1, w = x2; dw/ds = Y2/Y1 with natural variable order
        return Z.Y.f2, Z.Y.f1
    if field == "X":
        # s = x2, w = x1; dw/ds = X1/X2 with the arguments swapped
        return Z.X.f1.swap_vars(), Z.X.f2.swap_vars()
    raise ValueError(f"field must be 'X' or 'Y', got {field!r}")


def half_map_jet(Z: PiecewiseSystem, field: str) -> HalfMapCoeffs:
    """Exact cubic jet of the half map via Picard iteration on the chart ODE
    and order-by-order inversion of the two-parameter solution."""
    require_transverse(Z)
    num, den = _chart_polys(Z, field)
    w = picard_chart_jet(num, den)
    g1, g2, g3 = invert_graph(w)
    return HalfMapCoeffs(field, g1, g2, g3, source="jet", error_estimate=None)


def solve_ivp(*args, **kwargs):
    """scipy's `solve_ivp`, imported on the first call.  The benchmark's
    tracer counts the fit's DOP853 legs as calls to this binding."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def half_map_value_numeric(num: Poly2, den: Poly2, x: float) -> float:
    """Half-map value at x by high-order adaptive integration of the chart
    ODE dw/ds = num/den from (s, w) = (x, 0) to s = 0 (independent of the
    jet machinery; fixed endpoint, no event location)."""

    def rhs(s, w):
        return [num(s, w[0]) / den(s, w[0])]

    sol = solve_ivp(rhs, (x, 0.0), [0.0], method="DOP853", rtol=1e-12, atol=1e-14)
    # DOP853 fails on a chart whose radius of convergence is below |x|, as
    # on the Y chart of the benchmark's pool system 909 (ROADMAP item 3)
    if not sol.success:
        raise RuntimeError(f"chart integration failed: {sol.message}")
    return float(sol.y[0, -1])


def _fit_cubic_through_origin(samples: dict[float, float], mags: tuple[float, float, float]):
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


def half_map_numeric_fit(Z: PiecewiseSystem, field: str) -> HalfMapCoeffs:
    """Cubic coefficients fitted to accurately integrated half-map values at
    x in {±h/4, ±h/2, ±h, ±2h}, h = NUMERIC_FIT_H.  Two staggered
    three-magnitude fits give the coefficients and a defensible error
    estimate (their disagreement).

    The span keeps the seventh-order contamination of the exact degree-5
    odd solve (which scales like h^4) below 1e-6 for charts with order-one
    curvature while staying far above integrator noise.
    """
    require_transverse(Z)
    h = NUMERIC_FIT_H
    mags = (h / 4.0, h / 2.0, h, 2.0 * h)
    num, den = _chart_polys(Z, field)
    samples = {}
    for m in mags:
        samples[m] = half_map_value_numeric(num, den, m)
        samples[-m] = half_map_value_numeric(num, den, -m)
    fine = _fit_cubic_through_origin(samples, mags[:3])
    coarse = _fit_cubic_through_origin(samples, mags[1:])
    err = max(abs(f - g) for f, g in zip(fine, coarse))
    return HalfMapCoeffs(field, *fine, source="numeric", error_estimate=err)


# ---------------------------------------------------------------------------
# composed return map
# ---------------------------------------------------------------------------

def compose_cubic(outer: tuple[float, float, float],
                  inner: tuple[float, float, float]) -> tuple[float, float, float]:
    """Cubic jet of outer o inner for maps fixing 0."""
    ao, bo, co = outer
    ai, bi, ci = inner
    return (
        ao * ai,
        ao * bi + bo * ai * ai,
        ao * ci + 2.0 * bo * ai * bi + co * ai ** 3,
    )


@dataclass(frozen=True)
class ReturnMapModel:
    """Cubic models of the half turn psi and the full turn phi = psi o psi."""

    alpha: float                  # linear coefficient of psi
    gamma: float                  # X1*Y2(0) + X2*Y1(0)
    beta: float                   # quadratic coefficient of psi
    c3: float                     # cubic coefficient of psi
    eta: float | None             # cubic coefficient of phi on the band alpha = -1
    half_x: HalfMapCoeffs
    half_y: HalfMapCoeffs
    psi: tuple[float, float, float]
    phi: tuple[float, float, float]

    @property
    def attractive(self) -> bool | None:
        """Origin attracts the orbit sequence iff |alpha| < 1 (None within
        band_tolerance() of |alpha| = 1)."""
        if abs(abs(self.alpha) - 1.0) <= band_tolerance():
            return None
        return abs(self.alpha) < 1.0


def return_map_model(Z: PiecewiseSystem, half_map=None) -> ReturnMapModel:
    """Build the cubic return-map model; requires a transient system.
    The half maps come from `half_map(Z, field)`: `half_map_jet` when
    half_map is None, looked up at the call, or `half_map_numeric_fit`.
    eta is set on the critical band |alpha + 1| <= band_tolerance()."""
    require_transient(Z)
    half_map = half_map or half_map_jet
    hx, hy = half_map(Z, "X"), half_map(Z, "Y")
    psi = compose_cubic((hx.a, hx.b, hx.c), (hy.a, hy.b, hy.c))
    a, b, c = psi
    phi = compose_cubic(psi, psi)
    eta = None
    if abs(a + 1.0) <= band_tolerance():
        eta = -2.0 * (c + b * b)
    return ReturnMapModel(alpha=a, gamma=gamma_value(Z), beta=b, c3=c, eta=eta,
                          half_x=hx, half_y=hy, psi=psi, phi=phi)


# ---------------------------------------------------------------------------
# numeric return map (leg-by-leg orbit composition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericReturn:
    """Result of composing actual orbit legs between branches."""

    value: float
    hit_sliding: bool             # some junction landed off the crossing set
    legs: tuple[Point, ...]       # visited branch points, seed first


def numeric_return_map(Z: PiecewiseSystem, x: float) -> NumericReturn:
    """Follow the orbit geometry leg by leg starting from (x, 0) on Sigma2:
    Y-leg to Sigma1, X-leg to Sigma2 (half turn), twice for the full turn.
    The half-turn image is `legs[2][0]`.  x is taken as a Python float."""
    require_transient(Z)
    pts: list[Point] = [(float(x), 0.0)]
    hit = False
    for field in _TURN_LEGS:
        res = half_crossing(Z, field, pts[-1])
        hit = hit or res.off_crossing
        pts.append(res.point)
    return NumericReturn(value=pts[-1][0], hit_sliding=hit, legs=tuple(pts))


# ---------------------------------------------------------------------------
# fixed points of the numeric full-turn map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    """Nontrivial fixed point of the full-turn map on Sigma2."""

    x: float
    conjugate: float              # half-turn image: the paired branch point
    multiplier: float             # d(phi)/dx at the fixed point
    stable: bool | None           # from the bracket; None at an exact scan zero
    hit_sliding: bool


def _rk4_leg(num: Poly2, den: Poly2, start: np.ndarray, n: int):
    """n fixed RK4 steps of the chart ODE dw/ds = num/den from
    (s, w) = (start, 0) to s = 0, on numpy lanes.

    Returns (w, den_min, w_min, w_max): the end values, the least
    den * sign(den(start, 0)) over all stages, and the least and the largest
    w after each step.  Every operation is elementwise, so a lane's results
    do not depend on the other lanes of the call.
    """
    zero = np.zeros_like(start)
    den_sign = np.sign(den(start, zero))
    h = -start / n
    half_h, sixth_h = 0.5 * h, h / 6.0
    w = zero
    den_min = np.full(start.shape, np.inf)
    w_min = np.full(start.shape, np.inf)
    w_max = np.full(start.shape, -np.inf)

    def f(s, w):
        nonlocal den_min
        d = den(s, w)
        den_min = np.minimum(den_min, d * den_sign)
        return num(s, w) / d

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

    Each leg integrates the chart ODE dw/ds = num/den from (s, w) =
    (start, 0) to s = 0 on numpy lanes, with error control by step
    doubling: `_rk4_leg` runs N = 4, 8, ..., 256 RK4 steps on the lanes not
    yet accepted, and a lane is accepted at the first N with
    |w_2N - w_N| / 15 <= _LEG_TOL * (1 + |w_2N|).  Its value and its guards
    come from that 2N run.  A lane is evaluated only on its own seed, so its
    value does not depend on which other seeds share the call.

    Returns (values, ok).  ok is False on every lane that fails a guard of
    the scalar route, or that no N up to 256 accepts, and the value of such
    a lane is meaningless: the start point is not transverse (|num| within
    the tangency tolerance there) or not on an open half-branch; the chart
    denominator changes sign or comes within that tolerance at some stage;
    w is outside the field's own quadrants after some step (the orbit leg
    heads away from the other branch, or back to its starting branch); or
    the leg leaves the box.
    """
    start = np.array(xs, dtype=float)
    ok = np.ones(start.shape, dtype=bool)
    components = (Z.X.f1, Z.X.f2, Z.Y.f1, Z.Y.f2)
    charts = {field: _chart_polys(Z, field) for field in FIELD_SIGN}
    with np.errstate(all="ignore"):
        for field in _TURN_LEGS:
            num, den = charts[field]
            zero = np.zeros_like(start)
            # the branch point (x1, x2) of the leg start, and the sign of w on
            # the field's own quadrants, where x1*x2 has the sign FIELD_SIGN
            point = (start, zero) if field == "Y" else (zero, start)
            side = FIELD_SIGN[field] * np.sign(start)
            scale = np.maximum.reduce([np.abs(c(*point)) + zero for c in components])
            tol = _tangency_band(scale)
            ok &= ((np.abs(num(start, zero)) > tol) & (np.abs(start) > ARM)
                   & (np.abs(start) <= LEG_BOX))

            # the accepted 2N run of each lane: w, den_min, w_min, w_max
            leg = np.full((4,) + start.shape, np.nan)
            live = np.flatnonzero(ok)
            coarse = _rk4_leg(num, den, start[live], _LEG_STEPS[0])
            for n in _LEG_STEPS[1:]:
                if not live.size:
                    break
                fine = _rk4_leg(num, den, start[live], n)
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
        values[k] = numeric_return_map(Z, float(xs[k])).value
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
    res = numeric_return_map(Z, x)
    if abs(lane - res.value) > LANE_CHECK_TOL * (1.0 + abs(x)):
        raise RouteMismatch(f"full turn at x = {x!r}: lane value {lane!r}, "
                            f"orbit legs {res.value!r}")
    return res


def _lane_window(Z: PiecewiseSystem, xs: np.ndarray,
                 guard: float) -> list[FixedPoint]:
    """Fixed points in one scan window, grid xs, on the lane route.  The
    scalar check before any multisection runs at the widest-leg lane, whose
    chart error is largest: the outermost accepted seed (see fixed_points)."""

    def lanes(u):
        vals, ok = _turn_values(Z, u)
        d = vals - u
        d[np.abs(u) <= guard] = 0.0
        return d, ok

    vals, ok = lanes(xs)
    if ok.any():
        k = int(np.argmax(np.where(ok, np.abs(xs), -1.0)))
        _checked_turn(Z, float(xs[k]), float(vals[k] + xs[k]))

    def refine(brackets):
        return multisect_roots(lambda u: lanes(u)[0], brackets)

    roots = [(r, cell) for r, cell in sign_change_roots(xs, vals, refine)
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


def fixed_points(Z: PiecewiseSystem, lo: float, hi: float,
                 cells: int) -> list[FixedPoint]:
    """Fixed points of the numeric full turn with x in [lo, hi], 0 excluded.

    Each side of 0 is one scan window: a grid of `cells` cells over which
    phi(x) - x is scanned for sign changes.  Every window runs one
    sequence.  The grid seeds run through the four legs together on numpy
    lanes, each leg an error-controlled RK4 run in the chart variable
    (`_chart_turn`); a lane that fails one of the scalar route's guards, or
    whose legs do not meet their tolerance, is evaluated by
    `numeric_return_map` instead, which raises what it raises.  The
    sign-change cells are refined together by lane multisection
    (`multisect_roots`) to width 1e-12, and the multiplier is the central
    difference of the lane map with step SLOPE_STEP * (1 + |x|).  One
    scalar `numeric_return_map` at each root gives `hit_sliding` and the
    conjugate.

    The scalar orbit legs also check the lanes, at the widest-leg lane of
    the grid (before any multisection) and at every root: a difference
    above LANE_CHECK_TOL * (1 + |x|) raises RouteMismatch.  The widest-leg
    lane is the outermost accepted grid seed, since orbits of one field
    never cross and every leg end moves outward with |x|.

    The full turn preserves orientation, so a root is stable exactly when
    phi(x) - x falls from + to - across its cell; `stable` is read from the
    cell's end values, and is None only for a root at an exact zero of the
    scan.  The multiplier is reported as computed.  Raises ValueError
    unless cells >= 1 and lo < hi, both finite.
    """
    if not (cells >= 1 and -math.inf < lo < hi < math.inf):
        raise ValueError(f"a fixed-point scan needs cells >= 1 and finite "
                         f"lo < hi, got cells={cells!r}, lo={lo!r}, hi={hi!r}")
    require_transient(Z)
    guard = 1e-9 * (1.0 + abs(lo) + abs(hi))
    windows = ((lo, min(hi, -guard)), (max(lo, guard), hi))
    return [fp for wlo, whi in windows if whi > wlo
            for fp in _lane_window(Z, scan_grid(wlo, whi, cells), guard)]
