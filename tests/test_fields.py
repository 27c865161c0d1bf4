"""Polynomial arithmetic, field containers, regions and JSON round-trips.

Oracle notes:
  [DERIVED] polynomial evaluation/derivatives checked against
            numpy.polynomial.polynomial (independent dense implementation).
  [TRIVIAL] canonicalization, region bookkeeping, exact hand values.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from crosswitch.errors import DegenerateInput, NonFiniteCoefficients, ParseError
from crosswitch.fields import (
    FieldSpec,
    PiecewiseSystem,
    Poly1,
    Poly2,
    Region,
    branch_point,
    constant_field,
    make_system,
    normal_component,
    region_of,
    running_coordinate,
    system_from_obj,
    system_to_obj,
)

from conftest import assert_close, dense_matrix, generic_system, points, poly2


# ---------------------------------------------------------------------------
# Poly2 canonicalization and evaluation
# ---------------------------------------------------------------------------

class TestPoly2Canonical:
    def test_merge_and_sort(self):
        # [TRIVIAL] duplicate monomials merge; order is by exponent pair
        p = Poly2([(1, 0, 2.0), (0, 0, 1.0), (1, 0, 3.0)])
        assert p.terms == ((0, 0, 1.0), (1, 0, 5.0))

    def test_drop_tiny(self):
        # [TRIVIAL] |c| < 1e-15 dropped, including after cancellation
        p = Poly2([(2, 1, 1e-16), (0, 0, 1.0), (1, 1, 0.5), (1, 1, -0.5)])
        assert p.terms == ((0, 0, 1.0),)

    def test_zero(self):
        assert Poly2().is_zero
        assert Poly2([(1, 1, 0.0)]).is_zero
        assert Poly2().total_degree == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            Poly2([(-1, 0, 1.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteCoefficients):
            Poly2([(0, 0, math.nan)])
        with pytest.raises(NonFiniteCoefficients):
            Poly2([(1, 0, math.inf)])

    def test_immutable(self):
        p = Poly2([(0, 0, 1.0)])
        with pytest.raises(AttributeError):
            p.terms = ()


class TestPoly2Eval:
    def test_hand_value(self):
        # [TRIVIAL] 1 + 2*x1 + 3*x1*x2^2 at (2, -1) = 1 + 4 + 6 = 11
        p = Poly2([(0, 0, 1.0), (1, 0, 2.0), (1, 2, 3.0)])
        assert p(2.0, -1.0) == pytest.approx(11.0, abs=1e-14)

    @given(poly2(), points)
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_polyval2d(self, p, pt):
        # [DERIVED] compare the compiled Horner evaluator against numpy's
        # independent dense polyval2d on the coefficient matrix
        want = float(npoly.polyval2d(pt[0], pt[1], dense_matrix(p)))
        assert_close(p(*pt), want, 1e-10, "polyval2d")

    @given(poly2(), poly2(), points)
    @settings(max_examples=150, deadline=None)
    def test_ring_ops(self, p, q, pt):
        # [TRIVIAL] ring operations agree with pointwise arithmetic
        assert_close((p + q)(*pt), p(*pt) + q(*pt), 1e-9, "add")
        assert_close((p - q)(*pt), p(*pt) - q(*pt), 1e-9, "sub")
        assert_close((p * q)(*pt), p(*pt) * q(*pt), 1e-8, "mul")
        assert_close((-p)(*pt), -p(*pt), 1e-12, "neg")
        assert_close(p.scale(3.5)(*pt), 3.5 * p(*pt), 1e-9, "scale")

    @given(poly2(), points)
    @settings(max_examples=150, deadline=None)
    def test_partial_matches_numpy(self, p, pt):
        # [DERIVED] partial derivatives against numpy polyder on the matrix
        m = dense_matrix(p)
        d1 = npoly.polyder(m, axis=0)
        d2 = npoly.polyder(m, axis=1)
        assert_close(p.partial(1)(*pt), float(npoly.polyval2d(pt[0], pt[1], d1)),
                     1e-9, "d/dx1")
        assert_close(p.partial(2)(*pt), float(npoly.polyval2d(pt[0], pt[1], d2)),
                     1e-9, "d/dx2")

    @given(poly2(), points)
    @settings(max_examples=100, deadline=None)
    def test_restrict_and_swap(self, p, pt):
        s = pt[0]
        assert_close(p.restrict_to_branch(1)(s), p(0.0, s), 1e-10, "restrict b1")
        assert_close(p.restrict_to_branch(2)(s), p(s, 0.0), 1e-10, "restrict b2")
        assert_close(p.swap_vars()(pt[0], pt[1]), p(pt[1], pt[0]), 1e-12, "swap")

    def test_coefficient_lookup(self):
        p = Poly2([(1, 2, 4.0)])
        assert p.coefficient(1, 2) == 4.0
        assert p.coefficient(2, 1) == 0.0
        assert p.constant_term() == 0.0


# ---------------------------------------------------------------------------
# Poly1
# ---------------------------------------------------------------------------

class TestPoly1:
    def test_hand_values(self):
        # [TRIVIAL] 2 - s + 3 s^3
        q = Poly1([2.0, -1.0, 0.0, 3.0])
        assert q(0.0) == 2.0
        assert q(1.0) == 4.0
        assert q(-1.0) == 0.0
        assert q.degree == 3

    def test_trailing_zeros_stripped(self):
        q = Poly1([1.0, 0.0, 0.0])
        assert q.coeffs == (1.0,)
        assert Poly1([0.0]).is_zero

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6), st.floats(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_eval_and_derivative_vs_numpy(self, cs, s):
        # [DERIVED] Horner and derivative against numpy.polynomial
        q = Poly1(cs)
        assert_close(q(s), float(npoly.polyval(s, np.asarray(q.coeffs))), 1e-9, "polyval")
        dq = q.derivative()
        want = float(npoly.polyval(s, npoly.polyder(np.asarray(q.coeffs)))) if q.degree else 0.0
        assert_close(dq(s), want, 1e-9, "polyder")

    def test_eval_array(self):
        # [TRIVIAL] pointwise evaluation over an array agrees with numpy's
        # vectorised polyval on the coefficients
        q = Poly1([1.0, 2.0])
        s = np.array([0.0, 1.0, 2.0])
        assert [q(x) for x in s] == [1.0, 3.0, 5.0]
        assert np.allclose(npoly.polyval(s, np.asarray(q.coeffs)), [1.0, 3.0, 5.0])


# ---------------------------------------------------------------------------
# FieldSpec / PiecewiseSystem
# ---------------------------------------------------------------------------

class TestFieldSpec:
    def test_degree_cap(self):
        with pytest.raises(DegenerateInput):
            FieldSpec(Poly2([(9, 0, 1.0)]), Poly2.constant(1.0))

    def test_eval_and_origin(self):
        f = FieldSpec(Poly2([(0, 0, 1.0), (0, 1, 1.0)]), Poly2.constant(-2.0))
        assert f.eval((0.0, 0.5)) == (1.5, -2.0)
        assert f.origin_value() == (1.0, -2.0)

    def test_negate_scale(self):
        f = constant_field(2.0, -1.0)
        assert f.negate().origin_value() == (-2.0, 1.0)
        assert f.scale(0.5).origin_value() == (1.0, -0.5)


class TestPiecewiseSystem:
    def test_det_poly_hand(self):
        # [TRIVIAL] X=(1,1), Y=(-1+x2,-1): det = 1*(-1) - 1*(-1+x2) = -x2
        Z = make_system(1.0, 1.0, {(0, 0): -1.0, (0, 1): 1.0}, -1.0)
        assert Z.det_poly.terms == ((0, 1, -1.0),)
        assert Z.det((0.0, 0.5)) == pytest.approx(-0.5)

    @given(generic_system(), points)
    @settings(max_examples=150, deadline=None)
    def test_det_matches_pointwise(self, Z, pt):
        # [TRIVIAL] det polynomial equals X1*Y2 - X2*Y1 pointwise
        x = Z.X.eval(pt)
        y = Z.Y.eval(pt)
        assert_close(Z.det(pt), x[0] * y[1] - x[1] * y[0], 1e-8, "det")

    @given(generic_system(), points)
    @settings(max_examples=100, deadline=None)
    def test_swap_axes_is_conjugation(self, Z, pt):
        # [DERIVED] pushforward under (x1,x2)->(x2,x1): components swap and
        # arguments swap; det is invariant up to the same variable swap with
        # a sign flip (the reflection reverses orientation... det Z' (x1,x2)
        # = X'1 Y'2 - X'2 Y'1 = X2(sw)Y1(sw) - X1(sw)Y2(sw) = -det(sw))
        W = Z.swap_axes()
        sw = (pt[1], pt[0])
        assert_close(W.X.eval(pt)[0], Z.X.eval(sw)[1], 1e-12, "swap X1")
        assert_close(W.X.eval(pt)[1], Z.X.eval(sw)[0], 1e-12, "swap X2")
        assert_close(W.det(pt), -Z.det(sw), 1e-8, "swap det")

    def test_negate_flips_det_sign_squared(self):
        Z = make_system(1.0, 2.0, 3.0, -1.0)
        assert Z.negate().det((0.3, 0.4)) == pytest.approx(Z.det((0.3, 0.4)))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class TestRegions:
    @pytest.mark.parametrize("p,want", [
        ((1.0, 1.0), Region.UPLUS_PLUS),
        ((-1.0, -2.0), Region.UPLUS_MINUS),
        ((-0.5, 3.0), Region.UMINUS_PLUS),
        ((2.0, -0.1), Region.UMINUS_MINUS),
        ((0.0, 1.0), Region.SIGMA1_PLUS),
        ((0.0, -1e-3), Region.SIGMA1_MINUS),
        ((0.7, 0.0), Region.SIGMA2_PLUS),
        ((-0.7, 1e-13), Region.SIGMA2_MINUS),   # below tol: on branch 2
        ((0.0, 0.0), Region.ORIGIN),
        ((1e-13, -1e-13), Region.ORIGIN),
    ])
    def test_cases(self, p, want):
        # [TRIVIAL]
        assert region_of(p) == want

    def test_tol_override(self):
        assert region_of((1e-3, 1.0), tol=1e-2) == Region.SIGMA1_PLUS

    def test_branch_point_roundtrip(self):
        assert branch_point(1, 0.25) == (0.0, 0.25)
        assert branch_point(2, -0.5) == (-0.5, 0.0)
        assert running_coordinate(1, (0.0, 0.25)) == 0.25
        assert running_coordinate(2, (-0.5, 0.0)) == -0.5

    def test_normal_component(self):
        f = FieldSpec(Poly2.constant(3.0), Poly2.constant(7.0))
        assert normal_component(f, 1)(0, 0) == 3.0
        assert normal_component(f, 2)(0, 0) == 7.0


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

class TestJson:
    @given(generic_system())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, Z):
        # [TRIVIAL] obj -> system -> obj is the identity on canonical objects
        obj = system_to_obj(Z)
        Z2 = system_from_obj(obj)
        assert Z2.X.f1 == Z.X.f1 and Z2.X.f2 == Z.X.f2
        assert Z2.Y.f1 == Z.Y.f1 and Z2.Y.f2 == Z.Y.f2
        assert system_to_obj(Z2) == obj

    @pytest.mark.parametrize("bad", [
        [],                                           # not a dict
        {"X": {"f1": [], "f2": []}},                  # missing Y
        {"X": {"f1": [], "f2": []}, "Y": {"f1": []}},  # missing f2
        {"X": {"f1": [{"c": 1.0, "i": 0}], "f2": []},
         "Y": {"f1": [], "f2": []}},                  # missing j
        {"X": {"f1": [{"c": 1.0, "i": 0, "j": -1}], "f2": []},
         "Y": {"f1": [], "f2": []}},                  # negative exponent
        {"X": {"f1": [{"c": 1.0, "i": 0.5, "j": 0}], "f2": []},
         "Y": {"f1": [], "f2": []}},                  # fractional exponent
        {"X": {"f1": [{"c": "x", "i": 0, "j": 0}], "f2": []},
         "Y": {"f1": [], "f2": []}},                  # non-numeric coefficient
        {"X": {"f1": [], "f2": [], "g": []}, "Y": {"f1": [], "f2": []}},  # extra key
    ])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            system_from_obj(bad)

    def test_nonfinite_is_its_own_error(self):
        bad = {"X": {"f1": [{"c": math.inf, "i": 0, "j": 0}], "f2": []},
               "Y": {"f1": [], "f2": []}}
        with pytest.raises(NonFiniteCoefficients):
            system_from_obj(bad)
