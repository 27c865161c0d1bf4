"""Half maps between the two branches, the composed return map around the
origin, its cubic-model coefficients, and fixed-point extraction.

For transient systems (X carries orbits across {x1*x2 > 0}, Y across
{x1*x2 < 0}) every orbit near the origin visits the four half-branches in
turn.  The branch-to-branch orbit maps are

    phi_Y : Sigma2 -> Sigma1   (chart dx2/dx1 = Y2/Y1),
    phi_X : Sigma1 -> Sigma2   (chart dx1/dx2 = X1/X2),

half turn psi = phi_X o phi_Y : Sigma2 -> Sigma2, full turn phi = psi o psi.
First-order coefficients: a_X = -X1(0)/X2(0), a_Y = -Y2(0)/Y1(0), and the
full-turn linear multiplier is alpha^2 with alpha = a_X * a_Y.

Two numeric routes evaluate the orbit maps.  The scalar route,
`numeric_return_map`, follows one seed leg by leg with the event-driven,
time-parametrised RK4 of `flow.half_crossing`.  The lane route of
`fixed_points` runs all seeds of a scan at once on numpy lanes; each leg is
a fixed-step RK4 in the chart variable.  A lane that fails a guard of the
scalar route (transverse start, chart denominator of constant sign and
above the tangency tolerance, no return to the starting branch, the box) is
evaluated on the scalar route.  The scalar route also checks the lane
route: at the widest-leg lane of each scan and at every root.  Where they
disagree, it redoes that scan or that root.  Roots are refined together by
multisection on lanes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (EtaUndefined, LeftDomain, NotTransient, NotTransverse,
                     StepLimit)
from .fields import PiecewiseSystem, Point
from .numerics import (bisect_root, central_slope, multisect_roots, scan_grid,
                       sign_change_roots)
from .series import invert_graph, picard_chart_jet
from .switching import TANGENCY_RTOL, band_tolerance, field_scale

#: Fixed RK4 steps per chart leg on the lane route of `fixed_points`.
CHART_STEPS = 50

#: Largest accepted lane-vs-scalar full-turn difference, times (1 + |x|).
LANE_CHECK_TOL = 1e-9

#: Box |x1|, |x2| <= LEG_BOX of the orbit legs (`flow.half_crossing`'s box).
LEG_BOX = 4.0


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
    x1, x2, y1, y2 = Z.origin_components()
    tol = band_tolerance() * (1.0 + field_scale(Z, (0.0, 0.0)))
    if abs(x2) <= tol:
        raise NotTransverse("X2(0) vanishes: phi_X chart is singular")
    if abs(y1) <= tol:
        raise NotTransverse("Y1(0) vanishes: phi_Y chart is singular")


def require_transient(Z: PiecewiseSystem) -> None:
    if not is_transient(Z):
        x1, x2, y1, y2 = Z.origin_components()
        raise NotTransient(
            f"return map needs X1*X2(0) < 0 < Y1*Y2(0); "
            f"got X1*X2 = {x1 * x2:g}, Y1*Y2 = {y1 * y2:g}")


def alpha_value(Z: PiecewiseSystem) -> float:
    """Linear coefficient of the half-turn map psi: a_X * a_Y."""
    require_transverse(Z)
    x1, x2, y1, y2 = Z.origin_components()
    return (-x1 / x2) * (-y2 / y1)


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

    def eval(self, x: float) -> float:
        return ((self.c * x + self.b) * x + self.a) * x


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
    g1, g2, g3 = invert_graph(w, order=3)
    return HalfMapCoeffs(field, g1, g2, g3, source="jet", error_estimate=None)


def half_map_value_numeric(Z: PiecewiseSystem, field: str, x: float,
                           rtol: float = 1e-12, atol: float = 1e-14) -> float:
    """Half-map value by high-order adaptive integration of the chart ODE
    (independent of the jet machinery; fixed endpoint, no event location)."""
    num, den = _chart_polys(Z, field)

    def rhs(s, w):
        return [num(s, w[0]) / den(s, w[0])]

    sol = solve_ivp(rhs, (x, 0.0), [0.0], method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:  # pragma: no cover - guarded by callers' domains
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


def half_map_numeric_fit(Z: PiecewiseSystem, field: str,
                         h: float = 0.01) -> HalfMapCoeffs:
    """Cubic coefficients fitted to accurately integrated half-map values at
    x in {±h/4, ±h/2, ±h, ±2h}.  Two staggered three-magnitude fits give the
    coefficients and a defensible error estimate (their disagreement).

    The default span keeps the seventh-order contamination of the exact
    degree-5 odd solve (which scales like h^4) below 1e-6 for charts with
    order-one curvature while staying far above integrator noise.
    """
    require_transverse(Z)
    mags = (h / 4.0, h / 2.0, h, 2.0 * h)
    samples = {}
    for m in mags:
        samples[m] = half_map_value_numeric(Z, field, m)
        samples[-m] = half_map_value_numeric(Z, field, -m)
    fine = _fit_cubic_through_origin(samples, mags[:3])
    coarse = _fit_cubic_through_origin(samples, mags[1:])
    err = max(abs(f - g) for f, g in zip(fine, coarse))
    return HalfMapCoeffs(field, *fine, source="numeric", error_estimate=err)


def half_map_coeffs(Z: PiecewiseSystem, field: str,
                    method: str = "jet") -> HalfMapCoeffs:
    if method == "jet":
        return half_map_jet(Z, field)
    if method == "numeric":
        return half_map_numeric_fit(Z, field)
    raise ValueError(f"method must be 'jet' or 'numeric', got {method!r}")


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

    def eval_half(self, x: float) -> float:
        a, b, c = self.psi
        return ((c * x + b) * x + a) * x

    def eval_full(self, x: float) -> float:
        a, b, c = self.phi
        return ((c * x + b) * x + a) * x

    @property
    def attractive(self) -> bool | None:
        """Origin attracts the orbit sequence iff |alpha| < 1 (None within
        band_tolerance() of |alpha| = 1)."""
        if abs(abs(self.alpha) - 1.0) <= band_tolerance():
            return None
        return abs(self.alpha) < 1.0


def return_map_model(Z: PiecewiseSystem, method: str = "jet") -> ReturnMapModel:
    """Build the cubic return-map model; requires a transient system.
    eta is set on the critical band |alpha + 1| <= band_tolerance()."""
    require_transient(Z)
    hx = half_map_coeffs(Z, "X", method)
    hy = half_map_coeffs(Z, "Y", method)
    psi = compose_cubic((hx.a, hx.b, hx.c), (hy.a, hy.b, hy.c))
    a, b, c = psi
    phi = compose_cubic(psi, psi)
    eta = None
    if abs(a + 1.0) <= band_tolerance():
        eta = -2.0 * (c + b * b)
    return ReturnMapModel(alpha=a, gamma=gamma_value(Z), beta=b, c3=c, eta=eta,
                          half_x=hx, half_y=hy, psi=psi, phi=phi)


def eta_coefficient(Z: PiecewiseSystem, method: str = "jet") -> float:
    """Cubic coefficient of the full turn on the critical band alpha = -1."""
    model = return_map_model(Z, method)
    if model.eta is None:
        raise EtaUndefined(
            f"eta needs alpha = -1 (within {band_tolerance():g}); "
            f"got alpha = {model.alpha!r}")
    return model.eta


# ---------------------------------------------------------------------------
# numeric return map (leg-by-leg orbit composition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericReturn:
    """Result of composing actual orbit legs between branches."""

    value: float
    hit_sliding: bool             # some junction landed off the crossing set
    legs: tuple[Point, ...]       # visited branch points, seed first


def numeric_return_map(Z: PiecewiseSystem, x: float,
                       half: bool = False) -> NumericReturn:
    """Follow the orbit geometry leg by leg starting from (x, 0) on Sigma2:
    Y-leg to Sigma1, X-leg to Sigma2 (half turn), twice for the full turn."""
    from .flow import half_crossing  # deferred: flow builds on this module's API

    require_transient(Z)
    pts: list[Point] = [(x, 0.0)]
    hit = False
    n_legs = 2 if half else 4
    for k in range(n_legs):
        field = "Y" if k % 2 == 0 else "X"
        res = half_crossing(Z, field, pts[-1])
        hit = hit or res.off_crossing
        pts.append(res.point)
    value = pts[-1][0] if n_legs % 2 == 0 else pts[-1][1]
    return NumericReturn(value=value, hit_sliding=hit, legs=tuple(pts))


# ---------------------------------------------------------------------------
# fixed points of the numeric full-turn map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    """Nontrivial fixed point of the full-turn map on Sigma2."""

    x: float
    conjugate: float              # half-turn image: the paired branch point
    multiplier: float             # d(phi)/dx at the fixed point
    stable: bool | None           # None when |multiplier - 1| is in the band
    hit_sliding: bool


def _chart_turn(Z: PiecewiseSystem, xs: np.ndarray, half: bool = False):
    """Numeric full (or half) turn from the seeds (x, 0), all seeds at once.

    Each leg takes CHART_STEPS fixed RK4 steps of the chart ODE
    dw/ds = num/den from (s, w) = (start, 0) to s = 0, on numpy lanes.
    Returns (values, ok, reach).  ok is False on every lane that fails a
    guard of the scalar route, and the value of such a lane is meaningless:
    the start point is not transverse (|num| within the tangency tolerance
    there) or not on an open half-branch; the chart denominator changes sign
    or comes within that tolerance at some stage; w is outside the field's
    own quadrants after some step (the orbit leg heads away from the other
    branch, or back to its starting branch); or the leg leaves the box.
    reach is each lane's largest |branch point| along the turn, the size of
    its widest leg.
    """
    from .flow import ARM  # deferred like numeric_return_map's flow import

    start = np.array(xs, dtype=float)
    ok = np.ones(start.shape, dtype=bool)
    reach = np.zeros(start.shape)
    components = (Z.X.f1, Z.X.f2, Z.Y.f1, Z.Y.f2)
    with np.errstate(all="ignore"):
        for k in range(2 if half else 4):
            field = "Y" if k % 2 == 0 else "X"
            num, den = _chart_polys(Z, field)
            zero = np.zeros_like(start)
            # the branch point (x1, x2) of the leg start and the field's own
            # sign of w there: Y lives on {x1*x2 < 0}, X on {x1*x2 > 0}
            point, side = (((start, zero), -np.sign(start)) if field == "Y"
                           else ((zero, start), np.sign(start)))
            scale = np.maximum.reduce([np.abs(c(*point)) + zero for c in components])
            tol = TANGENCY_RTOL * (1.0 + scale)
            den_sign = np.sign(den(start, zero))
            ok &= ((np.abs(num(start, zero)) > tol) & (np.abs(start) > ARM)
                   & (np.abs(start) <= LEG_BOX))
            reach = np.maximum(reach, np.abs(start))

            h = -start / CHART_STEPS
            half_h = 0.5 * h
            w = zero
            den_min = np.full(start.shape, np.inf)   # least den * den_sign
            w_min = np.full(start.shape, np.inf)     # least w * side
            w_max = zero                             # largest w * side

            def f(s, w):
                nonlocal den_min
                d = den(s, w)
                den_min = np.minimum(den_min, d * den_sign)
                return num(s, w) / d

            for n in range(CHART_STEPS):
                s = start + n * h
                k1 = f(s, w)
                k2 = f(s + half_h, w + half_h * k1)
                k3 = f(s + half_h, w + half_h * k2)
                k4 = f(s + h, w + h * k3)
                w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                ws = w * side
                w_min = np.minimum(w_min, ws)
                w_max = np.maximum(w_max, ws)
            ok &= (den_min > tol) & (w_min > 0.0) & (w_max <= LEG_BOX)
            start = w
    return start, ok, np.maximum(reach, np.abs(start))


def _turn_values(Z: PiecewiseSystem, xs: np.ndarray, half: bool = False):
    """`_chart_turn`, with every lane that failed a guard evaluated by the
    scalar `numeric_return_map` instead, which raises what it raises."""
    values, ok, reach = _chart_turn(Z, xs, half)
    for k in np.flatnonzero(~ok):
        values[k] = numeric_return_map(Z, float(xs[k]), half=half).value
    return values, ok, reach


def _stability(mult: float) -> bool | None:
    if abs(abs(mult) - 1.0) <= 1e-6:
        return None
    return abs(mult) < 1.0


def _scalar_fixed_point(Z: PiecewiseSystem, root: float,
                        slope_step: float) -> FixedPoint:
    res = numeric_return_map(Z, root)
    mult = central_slope(lambda u: numeric_return_map(Z, u).value,
                         root, slope_step * (1.0 + abs(root)))
    conj = numeric_return_map(Z, root, half=True).value
    return FixedPoint(root, conj, mult, _stability(mult), res.hit_sliding)


def _agrees(lane: float, exact: float, x: float) -> bool:
    return abs(lane - exact) <= LANE_CHECK_TOL * (1.0 + abs(x))


def _lane_window(Z: PiecewiseSystem, xs: list[float], displacement,
                 guard: float, slope_step: float) -> list[FixedPoint] | None:
    """Fixed points in one scan window on the lane route; None when the
    scalar route must redo the window."""

    def lanes(u):
        vals, ok, reach = _turn_values(Z, u)
        d = vals - u
        d[np.abs(u) <= guard] = 0.0
        return d, ok, reach

    grid = np.array(xs)
    vals, ok, reach = lanes(grid)
    if ok.any():
        # the widest-leg lane has the largest chart error
        k = int(np.argmax(np.where(ok, reach, -1.0)))
        try:
            exact = numeric_return_map(Z, xs[k]).value
        except (LeftDomain, NotTransverse, StepLimit):
            return None
        if not _agrees(vals[k] + xs[k], exact, xs[k]):
            return None
    def refine(brackets):
        return multisect_roots(lambda u: lanes(u)[0], brackets)

    roots = [(r, cell) for r, cell in sign_change_roots(xs, vals.tolist(), refine)
             if abs(r) > 2.0 * guard]
    if not roots:
        return []
    at = np.array([r for r, _ in roots])
    h = slope_step * (1.0 + np.abs(at))
    values = _turn_values(Z, np.concatenate([at - h, at, at + h]))[0]
    below, value, above = np.split(values, 3)
    out: list[FixedPoint] = []
    for i, (root, (a, b)) in enumerate(roots):
        try:
            res = numeric_return_map(Z, root)
            agree = _agrees(value[i], res.value, root)
        except (LeftDomain, NotTransverse, StepLimit):
            agree = False
        if agree:
            mult = float((above[i] - below[i]) / (2.0 * h[i]))
            out.append(FixedPoint(root, res.legs[2][0], mult, _stability(mult),
                                  res.hit_sliding))
            continue
        fa, fb = displacement(a), displacement(b)
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) == (fb < 0.0):
            return None
        out.append(_scalar_fixed_point(Z, bisect_root(displacement, a, b, fa, fb),
                                       slope_step))
    return out


def fixed_points(Z: PiecewiseSystem, lo: float, hi: float,
                 cells: int = 256, slope_step: float = 1e-5) -> list[FixedPoint]:
    """Fixed points of the numeric full turn with x in [lo, hi], 0 excluded.

    Each side of 0 is one scan window: a grid of `cells` cells over which
    phi(x) - x is scanned for sign changes.  The grid seeds run through the
    four legs together on numpy lanes, each leg a fixed-step RK4 in the
    chart variable (`_chart_turn`).  A lane that fails one of the scalar
    route's guards is evaluated by `numeric_return_map` instead.

    Before the lane values are used, the widest-leg lane is checked against
    one scalar evaluation.  If they differ by more than
    LANE_CHECK_TOL * (1 + |x|), the whole window runs on the scalar route
    (scalar grid values and `bisect_root`).  Otherwise the sign-change cells
    are refined together by lane multisection (`multisect_roots`) to width
    1e-12, and the multiplier is the central difference of the lane map with
    step slope_step * (1 + |x|).  One scalar `numeric_return_map` at each
    root gives `hit_sliding` and the conjugate.  If it disagrees with the
    lane value beyond the same bound, that cell is bisected again on the
    scalar route; if the scalar values at the cell ends do not bracket a
    root, the whole window runs on the scalar route.
    """
    require_transient(Z)
    guard = 1e-9 * (1.0 + abs(lo) + abs(hi))

    def displacement(x: float) -> float:
        if abs(x) <= guard:
            return 0.0
        return numeric_return_map(Z, x).value - x

    windows = []
    if lo < -guard:
        windows.append((lo, min(hi, -guard)))
    if hi > guard:
        windows.append((max(lo, guard), hi))
    out: list[FixedPoint] = []
    for wlo, whi in windows:
        if not whi > wlo:
            continue
        xs = scan_grid(wlo, whi, cells)
        found = _lane_window(Z, xs, displacement, guard, slope_step)
        if found is None:
            vals = [displacement(x) for x in xs]
            found = [_scalar_fixed_point(Z, r, slope_step) for r, _ in
                     sign_change_roots(xs, vals, lambda brackets: [
                         bisect_root(displacement, *c) for c in brackets])
                     if abs(r) > 2.0 * guard]
        out.extend(found)
    return out
