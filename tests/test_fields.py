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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from crosswitch.errors import DegenerateInput, NonFiniteCoefficients, ParseError
from crosswitch.fields import (
    FieldSpec,
    Poly1,
    Poly2,
    active_field,
    branch_point,
    compile_function,
    make_system,
    system_from_obj,
    system_to_obj,
)
from crosswitch.flow import Mode, integrate

from conftest import (
    assert_close,
    coefficient,
    coeffs,
    dense_matrix,
    generic_system,
    points,
    poly2,
    scale,
    scale_field,
    swap_axes,
)

# canonical polynomials up to total degree 8, the field degree cap
degree8_poly2 = st.lists(
    st.integers(0, 8).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, 8 - i), coeffs)),
    max_size=8).map(Poly2)


# ---------------------------------------------------------------------------
# Poly2 canonicalization and evaluation
# ---------------------------------------------------------------------------

class TestPoly2Canonical:
    def test_merge_and_sort(self):
        # [TRIVIAL] duplicate monomials merge; order is by exponent pair
        p = Poly2([(1, 0, 2.0), (0, 0, 1.0), (1, 0, 3.0)])
        assert p.terms == ((0, 0, 1.0), (1, 0, 5.0))

    def test_drop_only_exact_zeros(self):
        # [TRIVIAL] exact zeros dropped, including after cancellation; a
        # coefficient of any magnitude, a subnormal one included, is kept
        p = Poly2([(2, 1, 1e-16), (0, 0, 1.0), (1, 1, 0.5), (1, 1, -0.5),
                   (3, 0, 5e-324), (0, 2, -0.0)])
        assert p.terms == ((0, 0, 1.0), (2, 1, 1e-16), (3, 0, 5e-324))
        assert Poly1([1.0, 1e-300, 0.0, -0.0]).coeffs == (1.0, 1e-300)

    def test_a_sum_that_overflows_raises(self):
        # two finite terms of one monomial whose sum overflows: the Poly2
        # held an infinite coefficient
        with pytest.raises(NonFiniteCoefficients, match="inf at exponents"):
            Poly2([(1, 0, 1e308), (1, 0, 1e308)])

    def test_zero(self):
        assert Poly2().is_zero
        assert Poly2([(1, 1, 0.0)]).is_zero
        assert Poly2().total_degree == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            Poly2([(-1, 0, 1.0)])

    def test_numpy_integer_exponents_accepted(self):
        # fields imports no numpy, yet numpy's integers are integers
        p = Poly2([(np.int64(2), np.uint8(1), 3.0)])
        assert p.terms == ((2, 1, 3.0),)
        assert all(type(e) is int for e in p.terms[0][:2])
        with pytest.raises(ParseError):
            Poly2([(1.0, 0, 1.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteCoefficients):
            Poly2([(0, 0, math.nan)])
        with pytest.raises(NonFiniteCoefficients):
            Poly2([(1, 0, math.inf)])

    @pytest.mark.parametrize("c", [10**400, -10**400], ids=["positive", "negative"])
    def test_int_too_large_for_a_float_is_non_finite(self, c):
        # float() raises OverflowError on such an int; it is a non-finite
        # coefficient, not an internal error
        with pytest.raises(NonFiniteCoefficients):
            Poly2([(0, 0, c)])

    def test_immutable(self):
        p = Poly2([(0, 0, 1.0)])
        with pytest.raises(AttributeError):
            p.terms = ()


def horner_loop(p: Poly2, x1: float, x2: float) -> float:
    """The dense two-level Horner loop `Poly2` evaluates by, written out
    from the terms: rows by falling power of x1, each by falling power of x2."""
    if not p.terms:
        return 0.0
    di = max(i for i, _, _ in p.terms)
    dj = max(j for _, j, _ in p.terms)
    dense = [[0.0] * (dj + 1) for _ in range(di + 1)]
    for i, j, c in p.terms:
        dense[i][j] += c
    s = 0.0
    for row in reversed(dense):
        t = 0.0
        for c in reversed(row):
            t = t * x2 + c
        s = s * x1 + t
    return s


class TestPoly2Eval:
    @given(degree8_poly2, degree8_poly2, points)
    @settings(max_examples=100, deadline=None)
    def test_evaluator_built_on_first_evaluation(self, p, q, pt):
        # arithmetic intermediates are never evaluated and build no rows; the
        # first evaluation builds them, and gives the loop's values bit for bit
        r = p * q - p
        assert "_rows" not in vars(r)
        assert r(*pt).hex() == horner_loop(r, *pt).hex()
        assert "_rows" in vars(r)
        assert r.eval_point(pt).hex() == horner_loop(r, *pt).hex()
        assert p.eval_point(pt).hex() == horner_loop(p, *pt).hex()
        with pytest.raises(AttributeError):
            r._rows = None

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
        assert_close(scale(p, 3.5)(*pt), 3.5 * p(*pt), 1e-9, "scale")

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
        assert coefficient(p, 1, 2) == 4.0
        assert coefficient(p, 2, 1) == 0.0
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
        assert (f.component(1), f.component(2)) == (f.f1, f.f2)

    def test_negate_scale(self):
        f = FieldSpec(Poly2.constant(2.0), Poly2.constant(-1.0))
        assert f.negate().origin_value() == (-2.0, 1.0)
        assert scale_field(f, 0.5).origin_value() == (1.0, -0.5)

    @given(degree8_poly2, degree8_poly2,
           st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
    @example(Poly2(), Poly2(), (0.3, -0.7))                              # zero field
    @example(Poly2([(8, 0, -1.5), (0, 8, 2.0), (3, 2, -0.25)]),          # degree 8,
             Poly2([(4, 4, 1e-3), (0, 0, -7.0)]), (-1.3, 0.9))          # interior zeros
    @example(Poly2([(1, 0, 1.0)]), Poly2([(0, 1, -2.0)]), (-0.0, 0.0))  # signed zeros
    @settings(max_examples=200, deadline=None)
    def test_compiled_eval_is_bit_identical(self, f1, f2, p):
        # the generated evaluator against the Horner loops of f1 and f2
        got = FieldSpec(f1, f2).compiled_eval(p)
        assert [v.hex() for v in got] == [f1(*p).hex(), f2(*p).hex()]


# finite arguments and coefficients of every scale: signed zeros,
# subnormals, and magnitudes up to 1e300, so that some products overflow
# to inf (and inf * 0.0 to NaN) in the middle of an evaluation
wide_floats = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300]),
)

# sparse polynomials: a few terms of degree <= 8, so most Horner slots are 0
sparse_poly2 = st.lists(
    st.integers(0, 8).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, 8 - i),
                                                  wide_floats)),
    max_size=4).map(Poly2)
sparse_poly1 = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), wide_floats),
                        max_size=9).map(Poly1)


class TestGeneratedEvaluators:
    """The generated sources keep only the nonzero operations of the Horner
    loops, and still give the loops' values bit for bit at finite points."""

    @given(sparse_poly2, st.tuples(wide_floats, wide_floats))
    @example(Poly2([(1, 0, 1.0)]), (-0.0, 0.0))                  # zero constant, zero value
    @example(Poly2([(2, 1, 2.0), (0, 0, -1.0)]), (0.5, -3.0))    # all-zero middle row
    @example(Poly2([(2, 1, 2.0), (0, 2, -1.0)]), (-0.0, -0.0))    # signed zeros
    @example(Poly2([(8, 0, 1e300), (0, 1, 1.0)]), (1e300, 0.0))  # inf mid-evaluation
    @example(Poly2(), (0.3, -0.7))                               # zero polynomial
    @settings(max_examples=400, deadline=None)
    def test_poly2_source_is_bit_identical(self, p, pt):
        got = FieldSpec(p, p).compiled_eval(pt)[0]
        assert got.hex() == p(*pt).hex() == horner_loop(p, *pt).hex()

    @given(sparse_poly1, wide_floats)
    @example(Poly1([0.0, 1.0]), -0.0)                            # zero constant, zero value
    @example(Poly1([-0.0, 0.0, 1.0]), -0.0)                      # a -0.0 coefficient
    @example(Poly1([1.0, 0.0, 0.0, 2.0]), 1e300)
    @example(Poly1([-0.0]), -1.0)                                # zero polynomial
    @settings(max_examples=400, deadline=None)
    def test_poly1_source_is_bit_identical(self, q, s):
        f = compile_function("f", f"def f(s):\n    return {q.source()}\n")
        assert f(s).hex() == q(s).hex()

    def test_only_the_nonzero_operations_are_kept(self):
        # a leading zero slot goes, a later one keeps its multiplication, an
        # all-zero row keeps the multiplication by x1, and a zero constant
        # term adds 0.0 once at the end
        assert Poly2([(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)]).source() == (
            "((1.0 * x1 + 1.0) * x1 + 1.0)")
        assert Poly2([(1, 0, 1.0)]).source() == "((1.0 * x1) + 0.0)"
        assert Poly2([(2, 1, 2.0), (0, 0, -1.0)]).source() == (
            "(((2.0 * x2) * x1) * x1 + -1.0)")
        assert Poly1([0.0, 0.0, 3.0]).source() == "(((3.0 * s) * s) + 0.0)"

    @pytest.mark.parametrize("c", [1.5, -2.0, 7.25e10])
    def test_a_constant_source_does_no_arithmetic(self, c):
        f = FieldSpec(Poly2.constant(c), Poly2())
        assert (f.f1.source(), f.f2.source()) == (repr(c), "0.0")
        assert Poly1([c]).source() == repr(c)
        assert f.compiled_eval((math.inf, math.nan)) == (c, 0.0)


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
        W = swap_axes(Z)
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
    # each expectation: the field driving the quadrant, the branch, or the
    # origin; the ids name the region
    @pytest.mark.parametrize("p,want", [
        pytest.param((1.0, 1.0), "X", id="p0-UplusPlus"),
        pytest.param((-1.0, -2.0), "X", id="p1-UplusMinus"),
        pytest.param((-0.5, 3.0), "Y", id="p2-UminusPlus"),
        pytest.param((2.0, -0.1), "Y", id="p3-UminusMinus"),
        pytest.param((0.0, 1.0), 1, id="p4-Sigma1Plus"),
        pytest.param((0.0, -1e-3), 1, id="p5-Sigma1Minus"),
        pytest.param((0.7, 0.0), 2, id="p6-Sigma2Plus"),
        pytest.param((-0.7, 1e-13), 2, id="p7-Sigma2Minus"),  # below tol: on branch 2
        pytest.param((0.0, 0.0), "origin", id="p8-Origin"),
        pytest.param((1e-13, -1e-13), "origin", id="p9-Origin"),
    ])
    def test_cases(self, p, want):
        # [TRIVIAL] the flow's seeding places each point in its region: a
        # quadrant seed starts there with the quadrant's field, a seed within
        # ARM of a branch is snapped onto it, and one within ARM of both
        # starts at the origin, which X = Y = (1, 1) passes through with X
        first = integrate(make_system(1.0, 1.0, 1.0, 1.0), p, t_max=1e-3,
                          box=4.0).samples[0]
        if want == "origin":
            assert (first.x1, first.x2, first.mode) == (0.0, 0.0, Mode.SMOOTH_X)
        elif want == 1:
            assert (first.x1, first.x2) == (0.0, p[1])
        elif want == 2:
            assert (first.x1, first.x2) == (p[0], 0.0)
        else:
            assert (first.x1, first.x2) == p
            assert first.mode.value == "Smooth" + want

    def test_active_field(self):
        # [TRIVIAL] X drives {x1*x2 > 0} and Y drives {x1*x2 < 0}, whatever
        # the argument order; a zero counts as negative
        signs = ((1.0, 2.0), (-1.0, -2.0), (-1.0, 2.0), (2.0, -1.0))
        assert [active_field(a, b) for a, b in signs] == ["X", "X", "Y", "Y"]
        assert [active_field(a, b) for a, b in ((0.0, -1.0), (1.0, 0.0), (-0.0, 0.0))] \
            == ["X", "Y", "X"]

    def test_branch_point_roundtrip(self):
        assert branch_point(1, 0.25) == (0.0, 0.25)
        assert branch_point(2, -0.5) == (-0.5, 0.0)


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
