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
jets of the half maps come from `half_map_jet` (a closed form in the
Taylor coefficients of the chart slope, `series.chart_jet`) or
`half_map_numeric_fit`; `return_map_model` composes either.

Two numeric routes evaluate the orbit maps.  The scalar route,
`numeric_return_map`, follows one seed leg by leg with the event-driven,
time-parametrised RK4 of `flow.half_crossing`.  The lane route of
`fixed_points` runs all seeds of a scan window at once on numpy lanes, each
leg an error-controlled RK4 run in the chart variable, and the scalar route
checks it (see `lanes`).

`flow` owns `half_crossing` and the orbit-leg constants (`ARM`, `LEG_BOX`)
that the lanes share; `flow` imports nothing from here.

Two third-party imports wait for the functions that need them, as each
costs more than importing the rest of the package.  numpy serves the lane
route and the 3x3 solves of `half_map_numeric_fit`: these live in `lanes`,
which `fixed_points` and `half_map_numeric_fit` import when they run.
scipy serves the DOP853 legs of `half_map_numeric_fit`, which only
`return-map --numeric` reaches: `solve_ivp` is a module-level function that
imports scipy's on its first call and forwards to it.  So importing this
module, and with it the CLI, loads neither numpy nor scipy.

The fit's legs call a generated chart slope, `_chart_slope`, compiled once
per fitted half from the chart polynomials' `source()`, as
`FieldSpec.compiled_eval` is: the eight legs of a half evaluate it about
50 times each, and the generated code runs about ten times faster than
`Poly2`'s Horner loops on numpy scalars.
"""
from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

from .errors import NotTransient, NotTransverse, ParseError
from .fields import PiecewiseSystem, Point, Poly2, compile_function
from .flow import half_crossing
from .numerics import scan_grid
from .series import chart_jet
from .switching import BAND, vanishing_components

#: Fields of the legs of a full turn from Sigma2, in order.
_TURN_LEGS = ("Y", "X", "Y", "X")

#: Base magnitude h of the numeric fit's samples at x in {±h/4, ±h/2, ±h, ±2h}.
NUMERIC_FIT_H = 0.01


# ---------------------------------------------------------------------------
# transversality / transience predicates
# ---------------------------------------------------------------------------

def is_transient(Z: PiecewiseSystem) -> bool:
    """True when orbits near 0 cross all four half-branches in sequence:
    X1*X2(0) < 0 (X connects the two branches across its quadrants) and
    Y1*Y2(0) > 0 (Y does across its quadrants), read from the signs."""
    x1, x2, y1, y2 = Z.origin_components()
    return (min(x1, x2) < 0.0 < max(x1, x2)
            and (min(y1, y2) > 0.0 or max(y1, y2) < 0.0))


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

class HalfMapCoeffs(NamedTuple):
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
    """Cubic jet of the half map, in closed form from the 2-jet of the
    chart slope (`series.chart_jet`)."""
    require_transverse(Z)
    g1, g2, g3 = chart_jet(*_chart_polys(Z, field))
    return HalfMapCoeffs(field, g1, g2, g3, source="jet", error_estimate=None)


def solve_ivp(*args, **kwargs):
    """scipy's `solve_ivp`, imported on the first call.  The benchmark's
    tracer counts the fit's DOP853 legs as calls to this binding."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _chart_slope(num: Poly2, den: Poly2):
    """The chart slope (s, w) -> [num(s, w[0]) / den(s, w[0])], in the form
    DOP853 calls, as one generated straight-line function.  It evaluates
    num and den by their `source()`, which equals `Poly2.__call__` bit for
    bit at finite arguments, at (x1, x2) = (s, w[0]) read as Python floats
    (DOP853 passes numpy float64s; the conversion is exact).  Where den is
    zero the slope returns the loops' own quotient, so there too it gives
    what they give: an infinity or NaN of numpy, or ZeroDivisionError."""
    return compile_function("slope", (
        "def slope(s, w):\n"
        "    x1, x2 = float(s), float(w[0])\n"
        f"    d = {den.source()}\n"
        "    if not d:\n"
        "        return [num(s, w[0]) / den(s, w[0])]\n"
        f"    return [{num.source()} / d]\n"), num=num, den=den)


def half_map_value_numeric(slope, x: float) -> float:
    """Half-map value at x by high-order adaptive integration of the chart
    ODE dw/ds = num/den from (s, w) = (x, 0) to s = 0 (independent of the
    jet machinery; fixed endpoint, no event location).  slope is the
    chart slope as `_chart_slope` compiles it, (s, w) -> [num/den at
    (s, w[0])]."""
    sol = solve_ivp(slope, (x, 0.0), [0.0], method="DOP853", rtol=1e-12, atol=1e-14)
    # DOP853 fails on a chart whose radius of convergence is below |x|, as
    # on the Y chart of the benchmark's pool system 909 (ROADMAP item 3)
    if not sol.success:
        raise RuntimeError(f"chart integration failed: {sol.message}")
    return float(sol.y[0, -1])


def half_map_numeric_fit(Z: PiecewiseSystem, field: str) -> HalfMapCoeffs:
    """Cubic coefficients fitted to accurately integrated half-map values at
    x in {±h/4, ±h/2, ±h, ±2h}, h = NUMERIC_FIT_H.  Two staggered
    three-magnitude fits give the coefficients and a defensible error
    estimate (their disagreement).  The chart slope is compiled once
    (`_chart_slope`), and all eight legs call it.

    The span keeps the seventh-order contamination of the exact degree-5
    odd solve (which scales like h^4) below 1e-6 for charts with order-one
    curvature while staying far above integrator noise.
    """
    require_transverse(Z)
    h = NUMERIC_FIT_H
    mags = (h / 4.0, h / 2.0, h, 2.0 * h)
    slope = _chart_slope(*_chart_polys(Z, field))
    samples = {}
    for m in mags:
        samples[m] = half_map_value_numeric(slope, m)
        samples[-m] = half_map_value_numeric(slope, -m)
    from .lanes import fit_cubic_through_origin

    fine = fit_cubic_through_origin(samples, mags[:3])
    coarse = fit_cubic_through_origin(samples, mags[1:])
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


class ReturnMapModel(NamedTuple):
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
        BAND of |alpha| = 1)."""
        if abs(abs(self.alpha) - 1.0) <= BAND:
            return None
        return abs(self.alpha) < 1.0


def return_map_model(Z: PiecewiseSystem, half_map=None) -> ReturnMapModel:
    """Build the cubic return-map model; requires a transient system.
    The half maps come from `half_map(Z, field)`: `half_map_jet` when
    half_map is None, looked up at the call, or `half_map_numeric_fit`.
    eta is set on the critical band |alpha + 1| <= BAND."""
    require_transient(Z)
    half_map = half_map or half_map_jet
    hx, hy = half_map(Z, "X"), half_map(Z, "Y")
    psi = compose_cubic((hx.a, hx.b, hx.c), (hy.a, hy.b, hy.c))
    a, b, c = psi
    phi = compose_cubic(psi, psi)
    eta = None
    if abs(a + 1.0) <= BAND:
        eta = -2.0 * (c + b * b)
    return ReturnMapModel(alpha=a, gamma=gamma_value(Z), beta=b, c3=c, eta=eta,
                          half_x=hx, half_y=hy, psi=psi, phi=phi)


# ---------------------------------------------------------------------------
# numeric return map (leg-by-leg orbit composition)
# ---------------------------------------------------------------------------

class NumericReturn(NamedTuple):
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


class FixedPoint(NamedTuple):
    """Nontrivial fixed point of the full-turn map on Sigma2."""

    x: float
    conjugate: float              # half-turn image: the paired branch point
    multiplier: float             # d(phi)/dx at the fixed point
    stable: bool | None           # from the bracket; None at an exact scan zero
    hit_sliding: bool


def fixed_points(Z: PiecewiseSystem, lo: float, hi: float,
                 cells: int) -> list[FixedPoint]:
    """Fixed points of the numeric full turn with x in [lo, hi], 0 excluded.

    Each side of 0 is one scan window, [lo, min(hi, 0)] and [max(lo, 0),
    hi]: a grid of `cells` cells over which the divided displacement
    g(x) = (phi(x) - x)/|x|, of the sign of phi(x) - x, is scanned for sign
    changes.  The scan runs through the origin: the full turn fixes 0 with
    phi'(0) = alpha^2, so a node at 0 takes g = sign(window) * (alpha^2 - 1)
    from the origin components alone, as does every node and multisection
    point within `flow.ARM` of 0, where no orbit leg starts; a root there is
    the origin and is dropped.

    Every window runs on the lane route of `lanes`: the grid seeds run
    through the four legs together on numpy lanes (`lanes._chart_turn`),
    and a lane that fails a guard of the scalar route, or whose legs do not
    meet their tolerance, is evaluated by `numeric_return_map`, which
    raises what it raises.  The sign-change cells are refined together by
    lane multisection to width 1e-12, and the multiplier is the central
    difference of the lane map with step `lanes.SLOPE_STEP` * (1 + |x|).
    The scalar orbit legs check the lanes at the widest-leg lane of the
    grid (its outermost accepted seed, as orbits of one field never cross
    and every leg end moves outward with |x|) and at every root, where they
    also give `hit_sliding` and the conjugate: a difference above
    `lanes.LANE_CHECK_TOL` * (1 + |x|) raises RouteMismatch.

    The full turn preserves orientation, so a root is stable exactly when
    phi(x) - x falls from + to - across its cell; `stable` is read from the
    cell's end values, and is None only for a root at an exact zero of the
    scan.  The multiplier is reported as computed.  Raises ParseError
    unless cells is an integer >= 1 and lo < hi, both finite.
    """
    if not (isinstance(cells, Integral) and cells >= 1
            and -math.inf < lo < hi < math.inf):
        raise ParseError(f"a fixed-point scan needs an integer cells >= 1 and "
                         f"finite lo < hi, got cells={cells!r}, lo={lo!r}, hi={hi!r}")
    require_transient(Z)
    from .lanes import lane_window

    windows = ((lo, min(hi, 0.0)), (max(lo, 0.0), hi))
    return [fp for wlo, whi in windows if whi > wlo
            for fp in lane_window(Z, scan_grid(wlo, whi, cells))]
