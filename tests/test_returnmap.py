"""Half-map jets, numeric fits, return-map composition, fixed points.

Oracle notes:
  [DERIVED] jet anchors are closed-form solutions of the chart ODEs worked
            by hand (linear/separable equations); numeric fits use scipy's
            DOP853 on the same charts as an independent route.
  [TRIVIAL] composition algebra checked by direct evaluation.
  [ORACLE]  the lane route of fixed_points (error-controlled RK4 chart legs
            on numpy lanes) against the scalar, event-driven orbit legs of
            numeric_return_map, against the scalar scan written out below,
            and against chart legs integrated by scipy's DOP853.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from crosswitch.classify import CLASS_C32, CLASS_PH, all_sign_tuples, normal_form, unfolding
from crosswitch.errors import (CrosswitchError, LeftDomain, NotTransient, NotTransverse,
                               ParseError, RouteMismatch, StepLimit)
from crosswitch.fields import FIELD_SIGN, Poly2, make_system
from crosswitch.flow import ARM, LEG_BOX, half_crossing
import crosswitch.lanes as lanes
import crosswitch.returnmap as returnmap
from crosswitch.numerics import bisect_root, scan_grid, sign_change_roots
from crosswitch.switching import BAND
from crosswitch.returnmap import (
    compose_cubic,
    fixed_points,
    gamma_value,
    half_map_jet,
    half_map_numeric_fit,
    half_map_value_numeric,
    is_transient,
    numeric_return_map,
    return_map_model,
)

from conftest import assert_close, central_slope, richardson_slope


def numeric_return_samples(Z, n: int = 16, radius: float = 1e-2,
                           max_halvings: int = 10):
    """Sample the numeric return map at n seeds on Sigma2-, halving the
    window (up to max_halvings) whenever a seed's orbit leaves the tractable
    neighbourhood.  Returns (radius_used, [(x, value, hit_sliding), ...])."""
    r = radius
    for _ in range(max_halvings + 1):
        out = []
        try:
            for k in range(1, n + 1):
                x = -r * k / n
                res = numeric_return_map(Z, x)
                out.append((x, res.value, res.hit_sliding))
            return r, out
        except (LeftDomain, StepLimit):
            r *= 0.5
    raise LeftDomain(
        f"no tractable sampling window found down to radius {r:g}")


def alpha_value(Z) -> float:
    """Closed-form oracle for the half-turn multiplier, where the charts
    exist: alpha = a_X * a_Y = (-X1(0)/X2(0)) * (-Y2(0)/Y1(0))."""
    returnmap.require_transverse(Z)
    x1, x2, y1, y2 = Z.origin_components()
    return (-x1 / x2) * (-y2 / y1)


def cubic(a: float, b: float, c: float, x: float) -> float:
    """a x + b x^2 + c x^3 by Horner."""
    return ((c * x + b) * x + a) * x


def c32_normal() -> object:
    """X = (1, -1), Y = (2, 1): transient with alpha = -1/2."""
    return make_system(1.0, -1.0, 2.0, 1.0)


def hopf_family(delta: float, b: float = 1.0):
    """X = (1, -(1+delta)), Y = (1, 1 + x1 + b*x1^2): alpha = -1/(1+delta)."""
    return make_system(1.0, -(1.0 + delta), 1.0,
                       {(0, 0): 1.0, (1, 0): 1.0, (2, 0): b})


# ---------------------------------------------------------------------------
# transience / transversality
# ---------------------------------------------------------------------------

class TestPredicates:
    def test_transient_examples(self):
        # [DERIVED] X must connect the branches (X1*X2 < 0), Y must connect
        # them across its own quadrants (Y1*Y2 > 0)
        assert is_transient(make_system(1.0, -1.0, 1.0, 1.0))
        assert is_transient(c32_normal())
        assert not is_transient(make_system(1.0, 1.0, 1.0, 1.0))
        assert not is_transient(make_system(1.0, -1.0, 1.0, -1.0))
        assert not is_transient(make_system(-1.0, -1.0, 1.0, 1.0))

    @given(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]),
           st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=16, deadline=None)
    def test_transient_vs_leg_alternation_oracle(self, x1, x2, y1, y2):
        # [DERIVED] behavioral oracle: a transient system's orbit legs
        # alternate between the two branches for seeds on either side
        Z = make_system(x1, x2, y1, y2)
        if is_transient(Z):
            for x in (-0.05, 0.05):
                res = numeric_return_map(Z, x)
                assert len(res.legs) == 5
                # alternation: Sigma2, Sigma1, Sigma2, Sigma1, Sigma2
                for k, p in enumerate(res.legs):
                    on1 = abs(p[0]) < 1e-9
                    assert on1 == (k % 2 == 1)

    def test_not_transient_raises(self):
        with pytest.raises(NotTransient):
            return_map_model(make_system(1.0, 1.0, 1.0, 1.0))

    def test_not_transverse_raises(self):
        with pytest.raises(NotTransverse):
            alpha_value(make_system(1.0, 0.0, 1.0, 1.0))   # X2(0) = 0
        with pytest.raises(NotTransverse):
            alpha_value(make_system(1.0, 1.0, 0.0, 1.0))   # Y1(0) = 0

    def test_alpha_gamma_identity(self):
        # [TRIVIAL] gamma = X2(0)*Y1(0) * (alpha + 1)
        Z = c32_normal()
        a = alpha_value(Z)
        g = gamma_value(Z)
        x1, x2, y1, y2 = Z.origin_components()
        assert_close(g, x2 * y1 * (a + 1.0), 1e-12, "gamma identity")
        assert a == pytest.approx(-0.5)
        assert g == pytest.approx(-1.0)   # 1*1 + (-1)*2


# ---------------------------------------------------------------------------
# half-map jets: closed-form anchors
# ---------------------------------------------------------------------------

class TestHalfMapJets:
    def test_polynomial_chart_anchor(self):
        # [DERIVED] Y = (1, 1 + x1 + x1^2): dw/ds = 1 + s + s^2 integrates to
        # w = y + s + s^2/2 + s^3/3, so G(x) = -x - x^2/2 - x^3/3 exactly
        Z = make_system(1.0, -1.0, 1.0, {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0})
        hy = half_map_jet(Z, "Y")
        assert hy.a == pytest.approx(-1.0, abs=1e-14)
        assert hy.b == pytest.approx(-0.5, abs=1e-14)
        assert hy.c == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_exponential_chart_anchor(self):
        # [DERIVED] Y = (1, 1 + x2): dw/ds = 1 + w gives w = (1+y)e^s - 1 and
        # G(x) = e^(-x) - 1 = -x + x^2/2 - x^3/6
        Z = make_system(1.0, -1.0, 1.0, {(0, 0): 1.0, (0, 1): 1.0})
        hy = half_map_jet(Z, "Y")
        assert hy.a == pytest.approx(-1.0, abs=1e-13)
        assert hy.b == pytest.approx(0.5, abs=1e-13)
        assert hy.c == pytest.approx(-1.0 / 6.0, abs=1e-13)

    def test_constant_field_anchor(self):
        # [DERIVED] constant X = (2, -1): straight lines, G(x) = 2x
        Z = make_system(2.0, -1.0, 1.0, 1.0)
        hx = half_map_jet(Z, "X")
        assert hx.a == pytest.approx(2.0, abs=1e-14)
        assert hx.b == pytest.approx(0.0, abs=1e-14)
        assert hx.c == pytest.approx(0.0, abs=1e-14)

    def test_linear_coefficients(self):
        # a_X = -X1(0)/X2(0), a_Y = -Y2(0)/Y1(0)
        Z = make_system(3.0, -2.0, 5.0, 4.0)
        assert half_map_jet(Z, "X").a == pytest.approx(1.5, abs=1e-13)
        assert half_map_jet(Z, "Y").a == pytest.approx(-0.8, abs=1e-13)

    def test_jet_predicts_numeric_values(self):
        # [DERIVED] cubic jet matches accurately integrated chart values to
        # fourth order in the seed
        Z = hopf_family(0.0)
        hy = half_map_jet(Z, "Y")
        for x in (0.01, -0.01, 0.02):
            want = half_map_value_numeric(returnmap._chart_slope(Z.Y.f2, Z.Y.f1), x)
            assert abs(cubic(hy.a, hy.b, hy.c, x) - want) < 5.0 * abs(x) ** 4


def loop_slope(num, den):
    """The chart slope on the Horner loops of `Poly2.__call__`: the oracle of
    the generated `returnmap._chart_slope`."""
    return lambda s, w: [num(s, w[0]) / den(s, w[0])]


def slope_outcome(slope, s, w):
    """The slope's value as hex, or the class of the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            return slope(s, w)[0].hex()
        except ArithmeticError as e:
            return type(e)


# finite coefficients and arguments of every scale: signed zeros, subnormals
# and magnitudes up to 1e300, so that some products overflow mid-evaluation
slope_floats = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e300, -1e300]),
)

# sparse chart polynomials of degree <= 3; the constant term may be absent
sparse_chart_poly = st.lists(
    st.integers(0, 3).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, 3 - i),
                                                  slope_floats)),
    max_size=4).map(Poly2)


class TestChartSlope:
    """The fit's DOP853 legs call a generated chart slope; it must give what
    num(s, w[0]) / den(s, w[0]) on the Horner loops gives, bit for bit, at
    the argument types DOP853 passes: s a float or a numpy float64, w a
    float64 array."""

    @given(sparse_chart_poly, sparse_chart_poly, st.booleans(), slope_floats,
           st.sampled_from([float, np.float64]), slope_floats)
    @example(Poly2([(1, 0, 1.0)]), Poly2([(0, 0, 2.0)]), False,       # zero constant,
             -0.0, float, 0.0)                                          # zero value
    @example(Poly2([(0, 1, 1.0), (2, 0, -3.0)]),                        # X chart pair
             Poly2([(0, 0, -1.0), (1, 2, 0.5)]), True, 0.02, float, -0.001)
    @example(Poly2([(0, 0, 1.0)]), Poly2(), False, 0.5, float, 0.5)    # den is 0
    @example(Poly2(), Poly2([(1, 0, 1.0)]), False, 0.0, np.float64, 1.0)  # 0/0
    @example(Poly2([(3, 0, 1e300), (0, 1, 1.0)]), Poly2([(0, 0, 1.0)]),  # inf
             False, 1e300, float, 2.0)                                  # mid-evaluation
    @settings(max_examples=400, deadline=None)
    def test_generated_slope_is_bit_identical(self, p, q, swap, s, s_type, w0):
        num, den = (p.swap_vars(), q.swap_vars()) if swap else (p, q)
        s, w = s_type(s), np.array([w0])
        assert (slope_outcome(returnmap._chart_slope(num, den), s, w)
                == slope_outcome(loop_slope(num, den), s, w))

    @pytest.mark.parametrize("num, w, want", [
        # den = 1 - x1 is 0 at s = 1: on numpy float64 w the loops give
        # numpy's inf or NaN, on a Python-float w they raise
        (Poly2([(0, 0, 1.0), (0, 1, 1.0)]), np.array([0.5]), float("inf").hex()),
        (Poly2([(0, 0, -1.0), (1, 0, 1.0)]), np.array([0.5]), "nan"),
        (Poly2([(0, 0, 1.0), (0, 1, 1.0)]), [0.5], ZeroDivisionError),
        (Poly2([(0, 0, -1.0), (1, 0, 1.0)]), [0.5], ZeroDivisionError),
    ])
    def test_slope_at_a_zero_of_den_is_the_loops(self, num, w, want):
        den = Poly2([(0, 0, 1.0), (1, 0, -1.0)])
        assert slope_outcome(loop_slope(num, den), 1.0, w) == want
        assert slope_outcome(returnmap._chart_slope(num, den), 1.0, w) == want

    @pytest.mark.parametrize("Z", [
        normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1}),
        normal_form(CLASS_PH, {"a": 1, "b": 1, "c": 1}),
        normal_form(CLASS_PH, {"a": 1, "b": -1, "c": -1}),
    ])
    def test_fit_equals_the_fit_on_the_loop_slope(self, monkeypatch, Z):
        def bits(h):
            return [h.a.hex(), h.b.hex(), h.c.hex(), h.error_estimate.hex()]

        got = [bits(half_map_numeric_fit(Z, field)) for field in ("X", "Y")]
        monkeypatch.setattr(returnmap, "_chart_slope", loop_slope)
        assert got == [bits(half_map_numeric_fit(Z, field)) for field in ("X", "Y")]


class TestNumericFit:
    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
           st.floats(0.5, 2.0), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=25, deadline=None)
    def test_fit_matches_jet(self, q10, q01, q11, mag, sgn):
        # [DERIVED] numeric fit vs analytic jet on random quadratic charts
        Z = make_system(1.0, -1.0, sgn * mag,
                        {(0, 0): sgn * mag, (1, 0): q10, (0, 1): q01, (1, 1): q11})
        jet = half_map_jet(Z, "Y")
        fit = half_map_numeric_fit(Z, "Y")
        for got, want in ((fit.a, jet.a), (fit.b, jet.b), (fit.c, jet.c)):
            assert abs(got - want) < 1e-5
        assert fit.error_estimate is not None and fit.error_estimate < 1e-5

    def test_sources_labeled(self):
        Z = c32_normal()
        assert half_map_jet(Z, "X").source == "jet"
        numeric = half_map_numeric_fit(Z, "X")
        assert numeric.source == "numeric"
        assert numeric.error_estimate is not None

    def test_fit_calls_the_module_binding_of_solve_ivp(self, monkeypatch):
        # the benchmark counts DOP853 legs as calls to `returnmap.solve_ivp`:
        # one per sample of the fit, x in {±h/4, ±h/2, ±h, ±2h}
        calls = []
        deferred = returnmap.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args[1])
            return deferred(*args, **kwargs)

        monkeypatch.setattr(returnmap, "solve_ivp", counting)
        h = returnmap.NUMERIC_FIT_H
        for field in ("X", "Y"):
            calls.clear()
            half_map_numeric_fit(c32_normal(), field)
            assert sorted(x for x, _ in calls) == sorted(
                s * m * h for s in (1, -1) for m in (0.25, 0.5, 1.0, 2.0))

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="DOP853 fails on a Y chart whose radius of convergence "
                              "is below the fit's 0.02 span (ROADMAP item 3)")
    def test_failed_fit_raises_a_named_error(self):
        # pool system 909 of the benchmark: its Y jet has c = -1975, and DOP853
        # stops with "Required step size is less than spacing between numbers"
        Z = make_system(
            {(0, 0): 2.0227081739417927, (1, 0): 1.6422036342868056,
             (1, 2): -2.459006067914465, (2, 2): 1.835721492021925},
            {(0, 0): -0.3986005422037274, (0, 1): -1.2739748055507667,
             (3, 2): 0.13291892923739645},
            {(0, 0): 0.4416999520262266, (0, 1): 1.7518745037332195},
            {(0, 0): 2.786647711101133, (0, 3): 0.4295546959585823,
             (2, 3): 1.6122981358848119, (3, 3): 2.7196408729147956})
        assert half_map_jet(Z, "Y").c == pytest.approx(-1975.083, abs=1e-3)
        try:
            half_map_numeric_fit(Z, "Y")
        except CrosswitchError:
            pass        # a named error is a usable answer; a fit is too


# ---------------------------------------------------------------------------
# composition and the model
# ---------------------------------------------------------------------------

class TestComposition:
    @given(*(st.floats(-2, 2) for _ in range(6)))
    @settings(max_examples=100, deadline=None)
    def test_compose_cubic_pointwise(self, ao, bo, co, ai, bi, ci):
        # [TRIVIAL] composed cubic matches evaluation to fourth order
        comp = compose_cubic((ao, bo, co), (ai, bi, ci))
        for x in (1e-3, -1e-3):
            inner = ((ci * x + bi) * x + ai) * x
            direct = ((co * inner + bo) * inner + ao) * inner
            via = ((comp[2] * x + comp[1]) * x + comp[0]) * x
            scale = 1.0 + sum(abs(v) for v in (ao, bo, co, ai, bi, ci))
            assert abs(direct - via) <= 50.0 * scale ** 3 * abs(x) ** 4

    def test_c32_model(self):
        # [DERIVED] alpha = -1/2 exactly; full-turn linear coefficient 1/4
        m = return_map_model(c32_normal())
        assert m.alpha == pytest.approx(-0.5, abs=0.0)
        assert m.phi[0] == pytest.approx(0.25, abs=1e-15)
        assert m.eta is None
        assert m.attractive is True

    def test_full_turn_coefficients_from_half(self):
        # [TRIVIAL] phi(2) = (alpha + alpha^2) beta, phi(3) = (alpha+alpha^3)C + 2 alpha beta^2
        m = return_map_model(hopf_family(0.3))
        a, b, c = m.psi
        assert_close(m.phi[0], a * a, 1e-13, "phi1")
        assert_close(m.phi[1], (a + a * a) * b, 1e-13, "phi2")
        assert_close(m.phi[2], (a + a ** 3) * c + 2.0 * a * b * b, 1e-13, "phi3")

    def test_eta_on_critical_band(self):
        # [DERIVED] family with alpha = -1: psi = -x - x^2/2 - (b/3) x^3;
        # eta = -2*(C + beta^2) = 2b/3 - 1/2
        for b in (1.0, -1.0, 2.5):
            m = return_map_model(hopf_family(0.0, b=b))
            assert m.alpha == pytest.approx(-1.0, abs=1e-15)
            assert m.beta == pytest.approx(-0.5, abs=1e-13)
            assert m.eta == pytest.approx(2.0 * b / 3.0 - 0.5, abs=1e-12)

    def test_eta_undefined_off_band(self):
        # eta is None off the band alpha = -1, also just outside it
        for Z in (c32_normal(), hopf_family(1e-3), hopf_family(-1e-3)):
            assert return_map_model(Z).eta is None

    def test_attractivity_flag(self):
        assert return_map_model(hopf_family(0.5)).attractive is True
        assert return_map_model(hopf_family(-0.5)).attractive is False
        assert return_map_model(hopf_family(0.0)).attractive is None


# ---------------------------------------------------------------------------
# numeric return map and fixed points
# ---------------------------------------------------------------------------

class TestNumericReturn:
    def test_c32_legs_exact(self):
        # [DERIVED] constant fields: legs land at hand-computed points
        res = numeric_return_map(c32_normal(), -0.1)
        want = [(-0.1, 0.0), (0.0, 0.05), (0.05, 0.0), (0.0, -0.025), (-0.025, 0.0)]
        assert len(res.legs) == 5
        for got, exp in zip(res.legs, want):
            assert got[0] == pytest.approx(exp[0], abs=1e-9)
            assert got[1] == pytest.approx(exp[1], abs=1e-9)
        assert res.value == pytest.approx(-0.025, abs=1e-9)
        assert res.hit_sliding  # Sigma2 is non-crossing for transient systems

    def test_leg_landing_at_the_origin_leaves_the_domain(self):
        # the first leg from x = -1e-9 lands within ARM of the origin, where
        # the next leg cannot start: a named error, not a bare ValueError
        Z = make_system(1.0, -20.0, 1.0, 1.0)
        with pytest.raises(LeftDomain, match="origin"):
            numeric_return_map(Z, -1e-9)
        with pytest.raises(LeftDomain, match="origin"):
            fixed_points(Z, -1e-8, -1e-12, cells=8)

    def test_numeric_slope_matches_alpha_squared(self):
        # [DERIVED] Richardson slope of the numeric full turn near 0
        Z = c32_normal()
        slope = richardson_slope(lambda u: numeric_return_map(Z, u).value,
                                 -0.03, 1e-3)
        assert slope == pytest.approx(0.25, abs=1e-6)

    def test_model_predicts_numeric(self):
        # jet model vs true return values at small amplitude
        Z = hopf_family(0.2)
        m = return_map_model(Z)
        for x in (-0.02, -0.01):
            got = numeric_return_map(Z, x).value
            assert abs(got - cubic(*m.phi, x)) < 20.0 * abs(x) ** 4

    def test_numpy_seed_runs_on_python_floats(self):
        # an np.float64 seed or start point gives the float one's values bit
        # for bit, and Python floats throughout
        Z = hopf_family(1e-3)

        def values(res):
            return [res.value] + [c for p in res.legs for c in p]

        want = values(numeric_return_map(Z, -0.1))
        got = values(numeric_return_map(Z, np.float64(-0.1)))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert all(type(v) is float for v in got)
        leg = half_crossing(Z, "Y", (np.float64(-0.1), np.float64(0.0)))
        assert leg == half_crossing(Z, "Y", (-0.1, 0.0))
        assert all(type(v) is float for v in leg.point)

    def test_samples_window(self):
        r, samples = numeric_return_samples(c32_normal(), n=16, radius=1e-2)
        assert r == pytest.approx(1e-2)
        assert len(samples) == 16
        xs = [s[0] for s in samples]
        assert xs == sorted(xs, reverse=True)  # -r/16 ... -r order check
        assert min(xs) == pytest.approx(-1e-2)


class TestFixedPoints:
    def test_hopf_pair_appears_for_positive_delta(self):
        # [DERIVED] eta = 1/6 > 0 and alpha_delta + 1 > 0 for delta > 0:
        # a fixed point pair exists, unstable (multiplier approx 1 + 2 eta p^2)
        Z = hopf_family(1e-3)
        fps = fixed_points(Z, -0.2, -1e-6, cells=96)
        assert len(fps) == 1
        fp = fps[0]
        assert -0.13 < fp.x < -0.09
        assert fp.conjugate > 0.0
        assert fp.multiplier > 1.0
        assert fp.stable is False
        pred = 1.0 + 2.0 * (1.0 / 6.0) * fp.x ** 2
        assert fp.multiplier == pytest.approx(pred, rel=5e-3)

    def test_no_fixed_points_other_side(self):
        assert fixed_points(hopf_family(-1e-3), -0.2, -1e-6, cells=96) == []
        assert fixed_points(hopf_family(0.0), -0.2, -1e-6, cells=96) == []

    def test_location_stable_under_refinement(self):
        # [DERIVED] scan-grid refinement does not move the bisected root
        Z = hopf_family(1e-3)
        a = fixed_points(Z, -0.2, -1e-6, cells=96)[0].x
        b = fixed_points(Z, -0.2, -1e-6, cells=192)[0].x
        assert abs(a - b) < 1e-8

    def test_a_scan_across_the_origin_is_the_union_of_its_sides(self):
        # [DERIVED] fixed_points cuts [-0.25, 0.25] at the origin gap; the
        # lane values of each window's inner end are zeroed, so both scan
        # an exact zero there, at the last grid value of the left window
        # and the first of the right one, and drop it as the origin
        for signs in all_sign_tuples(CLASS_PH):
            for delta in (-2e-3, -1e-4, 1e-4, 2e-3):
                Z = unfolding(CLASS_PH, signs, delta)
                got = fixed_points(Z, -0.25, 0.25, 96)
                want = fixed_points(Z, -0.25, -1e-6, 96) + fixed_points(Z, 1e-6, 0.25, 96)
                assert [fp.stable for fp in got] == [fp.stable for fp in want], (signs, delta)
                for g, w in zip(got, want):
                    assert abs(g.x - w.x) <= 1e-9, (signs, delta)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="each window's inner end is zeroed, so a cycle inside "
                              "the innermost grid cell is lost (ROADMAP item 10)")
    def test_a_cycle_inside_the_innermost_cell_is_found(self):
        # [ORACLE] the side windows from +-1e-7 find the cycle pair at
        # +-1.3097e-3, inside the innermost cells (width 2.6e-3) of the
        # windows of [-0.25, 0.25], which find nothing
        Z = unfolding(CLASS_PH, {"a": 1, "b": -1, "c": 1}, -1e-6)
        want = [fp.x for lo, hi in ((-0.25, -1e-7), (1e-7, 0.25))
                for fp in fixed_points(Z, lo, hi, 96)]
        assert want == pytest.approx([-1.3097e-3, 1.3089e-3], abs=1e-7)
        got = [fp.x for fp in fixed_points(Z, -0.25, 0.25, 96)]
        assert got == pytest.approx(want, abs=1e-9)

    def test_sign_change_roots_takes_exact_zeros_and_merges_close_roots(self):
        # zeros at the first grid value, an interior one and the last one;
        # the roots refined in the cells (3, 4) and (4, 5) lie 2e-13 apart,
        # within the merge window, so only the first is kept
        xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        vals = [0.0, 1.0, 0.0, -1.0, 1.0, -1.0, 0.0]
        calls = []

        def refine(brackets):
            calls.append(brackets)
            return [4.0 - 1e-13, 4.0 + 1e-13]

        assert sign_change_roots(xs, vals, refine) == [
            (0.0, (0.0, 0.0, 0.0, 0.0)), (2.0, (2.0, 2.0, 0.0, 0.0)),
            (4.0 - 1e-13, (3.0, 4.0, -1.0, 1.0)), (6.0, (6.0, 6.0, 0.0, 0.0))]
        assert calls == [[(3.0, 4.0, -1.0, 1.0), (4.0, 5.0, 1.0, -1.0)]]

    @pytest.mark.parametrize("lo, hi, cells", [
        (-0.25, -1e-6, 0), (-0.25, -1e-6, -3), (-0.25, -1e-6, float("nan")),
        (float("nan"), -1e-6, 96), (-0.25, float("nan"), 96),
        (-float("inf"), -1e-6, 96), (-1e-6, -0.25, 96), (-0.1, -0.1, 96),
        (-0.25, -1e-6, 1.5), (-0.25, -1e-6, 96.0),
    ])
    def test_bad_scan_parameters_rejected(self, lo, hi, cells):
        # cells = 0 raised ZeroDivisionError and cells = -3 IndexError from
        # inside scan_grid; a NaN end returned [] without a scan, and
        # cells = 1.5 scanned a grid whose last cell was half as wide
        with pytest.raises(ParseError, match="integer cells >= 1 and finite lo < hi"):
            fixed_points(hopf_family(1e-3), lo, hi, cells=cells)


# ---------------------------------------------------------------------------
# lane route of fixed_points vs the scalar route
# ---------------------------------------------------------------------------

def scalar_fixed_points(Z, lo: float, hi: float, cells: int):
    """The scalar route for a window below 0: the scalar full turn on the
    scan grid, one bisection per sign-change cell, central-difference
    multiplier.  Returns (x, multiplier, hit_sliding) triples."""
    guard = 1e-9 * (1.0 + abs(lo) + abs(hi))

    def displacement(x):
        return 0.0 if abs(x) <= guard else numeric_return_map(Z, x).value - x

    xs = scan_grid(lo, min(hi, -guard), cells)
    vals = [displacement(x) for x in xs]
    out = []
    for root, _ in sign_change_roots(xs, vals, lambda brackets: [
            bisect_root(displacement, *c) for c in brackets]):
        if abs(root) <= 2.0 * guard:
            continue
        mult = central_slope(lambda u: numeric_return_map(Z, u).value,
                             root, 1e-5 * (1.0 + abs(root)))
        out.append((root, mult, numeric_return_map(Z, root).hit_sliding))
    return out


def curved_transient(seed: int):
    """Transient system with order-one linear and quadratic terms in every
    component."""
    rng = np.random.default_rng(seed)
    flip_x, flip_y = rng.choice([-1.0, 1.0], 2)
    signs = (flip_x, -flip_x, flip_y, flip_y)   # X1*X2(0) < 0 < Y1*Y2(0)
    comps = []
    for sgn in signs:
        d = {(0, 0): sgn * rng.uniform(0.5, 2.0)}
        for e in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            d[e] = rng.uniform(-1.0, 1.0)
        comps.append(d)
    return make_system(*comps)


def curved_hopf():
    """hopf_family(1e-3) with Y1 = 1 + x2/2, so that its Y chart
    dw/ds = Y2/Y1 depends on w and fixed-step chart legs carry an error."""
    return make_system(1.0, -1.001, {(0, 0): 1.0, (0, 1): 0.5},
                       {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0})


def fold_pair_system():
    """Pseudo-Hopf-like system whose X chart denominator X2 = -1.001 +
    8 x1 - 12 x1^2 vanishes at x1 = 1/6 and 1/2: X legs from far enough out
    turn back in x2 twice, so they are not graphs over the chart variable."""
    return make_system(1.0, {(0, 0): -1.001, (1, 0): 8.0, (2, 0): -12.0},
                       1.0, {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0})


def dop853_turn(Z, xs):
    """The full turn of the seeds (x, 0) by four chart legs, Y, X, Y, X,
    each integrated by DOP853 at rtol 1e-13 as one system over all seeds:
    with s = start * (1 - t), dw/dt = -start * dw/ds for t from 0 to 1."""
    w = np.array(xs, dtype=float)
    for F, y_leg in ((Z.Y, True), (Z.X, False)) * 2:
        start = w

        def rhs(t, y):
            s = start * (1.0 - t)
            if y_leg:   # w = x2 over s = x1
                return -start * F.f2(s, y) / F.f1(s, y)
            return -start * F.f1(y, s) / F.f2(y, s)   # w = x1 over s = x2

        sol = solve_ivp(rhs, (0.0, 1.0), np.zeros_like(start), method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert sol.success
        w = sol.y[:, -1]
    return w


def counting(monkeypatch, module, name: str):
    """Count the calls of a module's function; returns the call list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def dense_rk4_leg(num, den, start, n):
    """The lane leg as it ran on the dense `Poly2` loops of the chart
    polynomials (`returnmap._chart_polys`): the oracle of
    `lanes._rk4_leg`."""
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


def dense_chart_turn(Z, xs):
    """`lanes._chart_turn` with its legs and guards on the dense loops."""
    start = np.array(xs, dtype=float)
    ok = np.ones(start.shape, dtype=bool)
    components = (Z.X.f1, Z.X.f2, Z.Y.f1, Z.Y.f2)
    with np.errstate(all="ignore"):
        for field in returnmap._TURN_LEGS:
            num, den = returnmap._chart_polys(Z, field)
            zero = np.zeros_like(start)
            point = (start, zero) if field == "Y" else (zero, start)
            side = FIELD_SIGN[field] * np.sign(start)
            scale = np.maximum.reduce([np.abs(c(*point)) + zero for c in components])
            tol = BAND * scale
            n0, d0 = num(start, zero), den(start, zero)
            heading = FIELD_SIGN[field] * np.sign(n0) * np.sign(d0)
            ok &= ((np.abs(n0) > tol) & (heading < 0.0) & (np.abs(start) > ARM)
                   & (np.abs(start) <= LEG_BOX))
            leg = np.full((4,) + start.shape, np.nan)
            live = np.flatnonzero(ok)
            coarse = dense_rk4_leg(num, den, start[live], lanes._LEG_STEPS[0])
            for n in lanes._LEG_STEPS[1:]:
                if not live.size:
                    break
                fine = dense_rk4_leg(num, den, start[live], n)
                accept = (np.abs(fine[0] - coarse[0]) / 15.0
                          <= lanes._LEG_TOL * (1.0 + np.abs(fine[0])))
                leg[:, live[accept]] = np.array(fine)[:, accept]
                live = live[~accept]
                coarse = tuple(r[~accept] for r in fine)
            w, den_min, w_min, w_max = leg
            ws_min = np.where(side > 0.0, w_min, -w_max)
            ws_max = np.where(side > 0.0, w_max, -w_min)
            ok &= (den_min > tol) & (ws_min > 0.0) & (ws_max <= LEG_BOX)
            start = w
    return start, ok


class TestLaneRoute:
    def test_chart_turn_matches_the_dense_loops_on_the_pseudo_hopf_unfoldings(self):
        # [ORACLE] the generated evaluators give the loops' bits, and the
        # X chart of these unfoldings is constant: the same values, NaN
        # lanes included, and the same guards
        xs = np.concatenate([scan_grid(-0.25, -1e-6, 96), scan_grid(1e-6, 0.25, 96),
                             [-5.0, -3.9, 1e-12, 3.9, 5.0]])
        for signs in all_sign_tuples(CLASS_PH):
            for delta in (-2e-3, -1e-3, 0.0, 1e-3, 2e-3):
                Z = unfolding(CLASS_PH, signs, delta)
                values, ok = lanes._chart_turn(Z, xs)
                want, want_ok = dense_chart_turn(Z, xs)
                assert [v.hex() for v in values.tolist()] == [
                    v.hex() for v in want.tolist()], (signs, delta)
                assert (ok == want_ok).all(), (signs, delta)

    def test_chart_turn_matches_the_dense_loops_on_curved_systems(self):
        # [ORACLE] the X chart now runs X(w, s), nested in x1 = w outside,
        # where the swapped polynomial nested s outside: with mixed
        # monomials its values may move at rounding level only
        xs = np.concatenate([np.linspace(-0.15, -0.01, 8), np.linspace(0.01, 0.15, 8)])
        accepted = 0
        for seed in range(40):
            Z = curved_transient(seed)
            values, ok = lanes._chart_turn(Z, xs)
            want, want_ok = dense_chart_turn(Z, xs)
            assert (ok == want_ok).all(), seed
            assert (np.abs(values[ok] - want[ok])
                    <= 1e-13 * (1.0 + np.abs(xs[ok]))).all(), seed
            accepted += int(ok.sum())
        assert accepted >= 500     # of 640 lanes

    def test_lane_values_match_scalar_on_curved_systems(self):
        # [ORACLE] the accepted chart legs reproduce the scalar orbit legs
        xs = np.concatenate([np.linspace(-0.15, -0.01, 8),
                             np.linspace(0.01, 0.15, 8)])
        compared = 0
        for seed in range(12):
            Z = curved_transient(seed)
            assert is_transient(Z)
            values, ok = lanes._chart_turn(Z, xs)
            for x, value in zip(xs[ok], values[ok]):
                want = numeric_return_map(Z, float(x)).value
                assert abs(value - want) <= 1e-9, (seed, x)
                compared += 1
        assert compared >= 160     # of 192 lanes

    def test_accepted_lanes_match_dop853_chart_legs(self):
        # [ORACLE] every lane the step-doubling legs accept is within the
        # lane check's bound of an independent high-order integration
        xs = np.concatenate([np.linspace(-0.3, -0.01, 16),
                             np.linspace(0.01, 0.3, 16)])
        compared = 0
        for seed in range(8):
            Z = curved_transient(seed)
            values, ok = lanes._chart_turn(Z, xs)
            if not ok.any():
                continue
            want = dop853_turn(Z, xs[ok])
            bound = lanes.LANE_CHECK_TOL * (1.0 + np.abs(xs[ok]))
            assert (np.abs(values[ok] - want) <= bound).all(), seed
            compared += int(ok.sum())
        assert compared >= 150     # of 256 lanes

    def test_lane_value_does_not_depend_on_its_batch(self):
        # lanes of one call accept at different step counts; each lane run
        # alone passes the same guards, and an accepted one gives the same
        # bits
        xs = np.concatenate([np.linspace(-0.3, -0.01, 5),
                             np.linspace(0.01, 0.3, 5)])
        Z = curved_transient(3)
        values, ok = lanes._chart_turn(Z, xs)
        for k, x in enumerate(xs):
            v, o = lanes._chart_turn(Z, xs[k:k + 1])
            assert o[0] == ok[k], x
            if ok[k]:
                assert v[0] == values[k], x

    def test_curved_hopf_matches_scalar_route(self):
        Z = curved_hopf()
        got = fixed_points(Z, -0.2, -1e-6, cells=96)
        want = scalar_fixed_points(Z, -0.2, -1e-6, cells=96)
        assert len(got) == len(want) == 1
        (x, mult, hit), fp = want[0], got[0]
        assert abs(fp.x - x) < 1e-8
        assert fp.multiplier == pytest.approx(mult, abs=1e-6)
        assert fp.hit_sliding is hit
        assert fp.conjugate == numeric_return_map(Z, fp.x).legs[2][0]

    def test_vanishing_chart_denominator_matches_scalar_route(self):
        # [ORACLE] lanes whose X leg meets the fold pair fail the guards;
        # the fixed points are those of the scalar route all the same
        Z = fold_pair_system()
        _, ok = lanes._chart_turn(Z, np.linspace(-0.25, -1e-6, 97))
        assert (~ok).sum() >= 10
        got = fixed_points(Z, -0.25, -1e-6, cells=96)
        want = scalar_fixed_points(Z, -0.25, -1e-6, cells=96)
        assert len(got) == len(want) == 1
        for fp, (x, mult, hit) in zip(got, want):
            assert abs(fp.x - x) < 1e-8
            assert fp.stable is (abs(mult) < 1.0)
            assert fp.hit_sliding is hit

    def test_lane_leaving_box_raises_like_scalar_route(self):
        # constant fields, branch points |x|, 10|x|, 20|x|, 200|x|, 400|x|
        # along the full turn: a lane fails where the last leg leaves the
        # box |x1|, |x2| <= 4, and its scalar legs raise
        Z = make_system(2.0, -1.0, 1.0, 10.0)
        xs = -(np.arange(1, 20) + 0.5) / 1000.0
        _, ok = lanes._chart_turn(Z, xs)
        assert np.array_equal(ok, 400.0 * np.abs(xs) < 4.0)
        with pytest.raises(LeftDomain):
            numeric_return_map(Z, -0.015)
        with pytest.raises(LeftDomain):
            fixed_points(Z, -0.02, -1e-6, cells=19)

    def test_lane_heading_away_fails_like_scalar_route(self):
        # Y2 = 1 + 10 x1 is negative at seeds x < -0.1, so those orbits
        # leave Sigma2 away from the origin and out of the box; the chart
        # ODE still reaches s = 0, for x < -0.2 without w changing sign,
        # at a point outside Y's quadrants; at x = -0.1 the start is tangent
        Z = make_system(1.0, -1.0, 1.0, {(0, 0): 1.0, (1, 0): 10.0})
        xs = np.array([-0.25, -0.15, -0.1, -0.05])
        _, ok = lanes._chart_turn(Z, xs)
        assert ok.tolist() == [False, False, False, True]
        with pytest.raises(LeftDomain):
            numeric_return_map(Z, -0.25)
        with pytest.raises(NotTransverse):
            numeric_return_map(Z, -0.1)
        with pytest.raises(LeftDomain):
            fixed_points(Z, -0.3, -1e-6, cells=12)

    def test_lane_that_turns_back_within_a_step_fails_like_scalar_route(self):
        # the third leg starts at (0.6307, 0) with Y = (-1, 0.0285): the
        # orbit that enters Y's quadrant x2 < 0 runs away from x1 = 0 and
        # out of the box, while the chart ODE runs s toward 0 with w
        # heading into X's quadrant x2 > 0, back in Y's by the end of each
        # step.  The lane gave ok = True and the value -0.7956; the heading
        # rule of the scalar legs, FIELD_SIGN * num * den < 0 at the leg
        # start, fails it
        Z = unfolding(CLASS_PH, {"a": -1, "b": -1, "c": 1}, 10 ** -0.25)
        _, ok = lanes._chart_turn(Z, np.array([-0.25, -0.05]))
        assert ok.tolist() == [False, True]
        with pytest.raises(LeftDomain):
            numeric_return_map(Z, -0.25)
        with pytest.raises(LeftDomain):
            fixed_points(Z, -0.25, 0.25, 96)

    def test_leg_across_a_chart_pole_fails(self):
        # dw/ds = -0.01 / (0.1 + s) has a pole at s = -0.1, so Y legs from
        # x < -0.1 are not graphs over s; RK4 steps across the pole can
        # still keep w small and positive, and only the sign of the chart
        # denominator shows the pole
        Z = make_system(1.0, -1.0, {(0, 0): 0.1, (1, 0): 1.0}, -0.01)
        xs = -np.linspace(0.11, 0.3, 20) - 3e-4
        _, ok = lanes._chart_turn(Z, xs)
        assert not ok.any()

    def test_widest_lane_disagreement_raises_before_multisection(self, monkeypatch):
        # a widest lane (the outermost accepted seed) off by 1e-7 misses the
        # 1e-9 check against its scalar orbit legs: the scan raises, naming
        # that lane, before it refines any root
        chart_turn = lanes._chart_turn

        def biased(Z, xs):
            values, ok = chart_turn(Z, xs)
            widest = np.abs(xs) == np.max(np.where(ok, np.abs(xs), -1.0))
            return values + np.where(widest, 1e-7, 0.0), ok

        monkeypatch.setattr(lanes, "_chart_turn", biased)
        multisections = counting(monkeypatch, lanes, "multisect_roots")
        with pytest.raises(RouteMismatch, match=r"at x = -0\.2: lane value"):
            fixed_points(curved_hopf(), -0.2, -1e-6, cells=96)
        assert multisections == []

    def test_root_disagreement_raises_at_the_root(self, monkeypatch):
        # lane values off by 1e-7 everywhere but at the widest lane pass the
        # per-scan check; the scalar evaluation at the root catches them
        Z = curved_hopf()
        (fp,) = fixed_points(Z, -0.2, -1e-6, cells=96)
        chart_turn = lanes._chart_turn

        def biased(Z, xs):
            values, ok = chart_turn(Z, xs)
            return values + np.where(np.abs(xs) < 0.199, 1e-7, 0.0), ok

        monkeypatch.setattr(lanes, "_chart_turn", biased)
        calls = counting(monkeypatch, returnmap, "numeric_return_map")
        multisections = counting(monkeypatch, lanes, "multisect_roots")
        with pytest.raises(RouteMismatch) as err:
            fixed_points(Z, -0.2, -1e-6, cells=96)
        assert len(multisections) == 1
        assert [x for _, x in calls[:-1]] == [-0.2]
        root = calls[-1][1]
        assert abs(root - fp.x) < 1e-4
        assert f"at x = {root!r}: lane value" in str(err.value)

    def test_scan_roots_match_dop853_roots(self):
        # [ORACLE] with the scalar reruns gone, the fixed points rest on the
        # lanes: each lies within 1e-8 of the root of the DOP853 full turn
        # in its scan cell, and its verdict has the DOP853 signs there
        scans = [(curved_hopf(), -0.2, -1e-6), (fold_pair_system(), -0.25, -1e-6),
                 (curved_transient(22), -0.3, -0.25)]
        for Z, lo, hi in scans:
            (fp,) = fixed_points(Z, lo, hi, cells=96)
            xs = scan_grid(lo, hi, 96)
            k = int(np.searchsorted(xs, fp.x)) - 1
            a, b = float(xs[k]), float(xs[k + 1])

            def f(u):
                return float(dop853_turn(Z, [u])[0]) - u

            fa, fb = f(a), f(b)
            assert (fa > 0.0) != (fb > 0.0)
            assert fp.stable is (fa > 0.0)
            assert abs(fp.x - brentq(f, a, b, xtol=1e-13)) <= 1e-8
