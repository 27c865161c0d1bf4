"""Closed-form cubic jets of the half maps.

Oracle notes:
  [ORACLE]  sympy: three Picard iterations of the chart ODE on symbolic
            Taylor coefficients r_ij (i + j <= 2) of its slope, then the
            graph inverted one order at a time, give the closed form of
            `chart_jet` exactly.
  [ORACLE]  exact rational Picard iteration in sympy for integer-coefficient
            systems, with the graph inverted by solving for the cubic's
            coefficients one order at a time.
  [DERIVED] a rounding bound from the operation count.  A float operation
            returns (x op y)(1 + d) + e with |d| <= u = 2^-53, and e = 0 for
            a sum, |e| <= 2^-1075 = u * TAU for a product or quotient, TAU =
            2^-1022 (underflow).  Evaluate `chart_jet`'s steps on the same
            Taylor data in `fractions.Fraction` twice: exactly, and on
            magnitudes with every difference a sum and TAU added after every
            product and quotient.  By induction over the operations (Higham,
            Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
            ch. 3), a value k roundings deep is within gamma_k = k u / (1 - k u)
            times its magnitude evaluation of the exact one; a product is as
            deep as its factors together plus one, a sum as its deeper term
            plus one.  No jet coefficient is more than 21 roundings deep.
"""
from __future__ import annotations

import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from crosswitch.errors import NonFiniteCoefficients, NotTransverse
from crosswitch.fields import Poly2, make_system
from crosswitch.returnmap import half_map_jet
from crosswitch.series import chart_jet

from conftest import coefficient


# ---------------------------------------------------------------------------
# the closed form, proved by Picard iteration
# ---------------------------------------------------------------------------

#: Exponents of the Taylor coefficients r_ij that the cubic jet reads, in the
#: argument order of `closed_form`.
TAYLOR = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def closed_form(r00, r10, r01, r20, r11, r02):
    """(g1, g2, g3) from the 2-jet of the chart slope, with the products and
    quotients of `chart_jet` in its order (for the rounding bound)."""
    half = Fraction(1, 2)
    return (-r00,
            half * r00 * r01 - half * r10,
            (r00 * r11 - r00 * r01 * r01) / 6 + (r01 * r10 - r00 * r00 * r02 - r20) / 3)


def test_closed_form_is_picard_iteration_and_graph_inversion():
    s, y, x = sympy.symbols("s y x")
    r = {m: sympy.Symbol(f"r{m[0]}{m[1]}") for m in TAYLOR}

    def picard(w):
        """y + the integral from 0 to s of R(s, w), kept to total degree 3:
        a monomial of R above degree 2 only enters above degree 3, and so
        does the rest of R(s, w), as w - y has no constant term."""
        rate = sympy.Poly(sum(c * s ** i * w ** j for (i, j), c in r.items()), s, y)
        return y + sum((c * s ** (i + 1) * y ** j / (i + 1)
                        for (i, j), c in rate.terms() if i + j <= 2), sympy.Integer(0))

    w = y
    for _ in range(3):
        w = picard(w)
    assert sympy.expand(picard(w) - w) == 0
    # G(x) is the y whose solution passes through (s, w) = (x, 0)
    g = sympy.symbols("g1:4")
    graph = sympy.expand(w.subs({s: x, y: sum(gk * x ** k for k, gk in enumerate(g, 1))},
                                simultaneous=True))
    sol = {}
    for k, gk in enumerate(g, start=1):
        sol[gk] = sympy.solve(graph.coeff(x, k).subs(sol), gk)[0]
    for gk, want in zip(g, closed_form(*(r[m] for m in TAYLOR))):
        assert sympy.expand(sol[gk] - want) == 0


# ---------------------------------------------------------------------------
# the float jet within its rounding bound of the exact one
# ---------------------------------------------------------------------------

U = Fraction(1, 2 ** 53)
TAU = Fraction(1, 2 ** 1022)
GAMMA = 21 * U / (1 - 21 * U)


class Magnitude:
    """A value of the magnitude evaluation, and the largest value met on
    the way to it (an overflow below it is ruled out)."""

    def __init__(self, value, peak=Fraction(0)):
        self.value = abs(Fraction(value))
        self.peak = max(self.value, peak)

    def _then(self, other, op):
        other = other if isinstance(other, Magnitude) else Magnitude(other)
        return Magnitude(op(self.value, other.value), max(self.peak, other.peak))

    def __add__(self, other):
        return self._then(other, lambda a, b: a + b)

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return self._then(other, lambda a, b: a * b + TAU)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._then(other, lambda a, b: a / b + TAU)

    def __rtruediv__(self, other):
        return self._then(other, lambda a, b: b / a + TAU)


def taylor(numerator: Poly2, denominator: Poly2, number) -> tuple:
    """The r_ij of `TAYLOR` for R = numerator/denominator, by `chart_jet`'s
    steps on the coefficients as `number`s (Fraction or Magnitude).  A zero
    difference stays exact, as in the float steps; in the magnitude
    evaluation none is zero."""
    n = {(i, j): number(c) for i, j, c in numerator.terms if i + j <= 2}
    d = {(i, j): number(c) for i, j, c in denominator.terms if i + j <= 2}
    q = 1 / d.pop((0, 0))
    r = {}
    for m in TAYLOR:
        t = n.get(m, number(0))
        for (i, j), c in d.items():
            k = (m[0] - i, m[1] - j)
            if k in r:
                t = t - r[k] * c
        r[m] = t * q
    return tuple(r[m] for m in TAYLOR)


def truncated(p: Poly2) -> Poly2:
    return Poly2(t for t in p.terms if t[0] + t[1] <= 2)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# zeros, order-one values (also ones that are not short binary fractions, so
# that the jet rounds), small values whose products are smaller still, and
# tiny ones whose products underflow (the bound's TAU) or, as a denominator's
# constant term, whose reciprocals make the Taylor data overflow
chart_coeffs = st.one_of(
    st.just(0.0),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.integers(-4_000_000, 4_000_000).map(lambda n: n / 999_983),
    _signed(st.floats(min_value=1e-8, max_value=1e-7)),
    _signed(st.floats(min_value=1e-16, max_value=1e-14)),
    _signed(st.floats(min_value=1e-170, max_value=1e-150)),
)

# total degree first, so that three in nine monomials enter the jet and the
# others must not
monomials = st.integers(0, 8).flatmap(lambda d: st.integers(0, d).flatmap(
    lambda i: st.tuples(st.just(i), st.just(d - i), chart_coeffs)))

numerators = st.lists(monomials, min_size=1, max_size=16).map(Poly2)

denominators = st.tuples(
    st.lists(monomials, max_size=16),
    st.one_of(st.floats(min_value=0.1, max_value=4.0),
              st.floats(min_value=-4.0, max_value=-0.1), chart_coeffs),
).map(lambda t: Poly2(t[0] + [(0, 0, t[1])]))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=150, deadline=None)
@given(num=numerators, den=denominators)
# a numerator with terms only above degree 2: the jet is 0
@example(num=Poly2([(5, 0, 1.5), (2, 3, -2.0), (0, 8, 0.25)]),
         den=Poly2([(0, 0, 2.0), (1, 0, 0.5), (6, 1, 3.0)]))
# a coefficient of 1e-16 is kept: only exact zeros are dropped
@example(num=Poly2([(0, 0, 1e-16)]), den=Poly2([(0, 0, 1.0)]))
# products of 1e-170 and 1e-160 underflow to zeros
@example(num=Poly2([(0, 0, 1e-170), (0, 1, 1e-160), (1, 1, -3.0)]),
         den=Poly2([(0, 0, 1.0), (1, 0, 1e-160), (0, 1, 1e-170)]))
# 1 / 1e-170 makes r00 ** 2 overflow
@example(num=Poly2([(0, 0, 1.0), (0, 2, 1.0)]), den=Poly2([(0, 0, 1e-170)]))
def test_jet_is_within_its_rounding_bound_of_the_exact_jet(num, den):
    if coefficient(den, 0, 0) == 0.0:
        with pytest.raises(NotTransverse):
            chart_jet(num, den)
        return
    exact = closed_form(*taylor(num, den, Fraction))
    bound = closed_form(*taylor(num, den, Magnitude))
    try:
        jet = chart_jet(num, den)
    except NonFiniteCoefficients:
        # refused only where a computed value may pass the largest float
        assert max(b.peak for b in bound) * (1 + GAMMA) >= sys.float_info.max
        return
    for got, want, b in zip(jet, exact, bound):
        assert abs(Fraction(got) - want) <= GAMMA * b.value, (got, float(want))
    # monomials of total degree 3 and above do not enter, not even in the bits
    assert _hex(chart_jet(truncated(num), truncated(den))) == _hex(jet)


@pytest.mark.parametrize("num, den, error", [
    # a zero constant denominator term: not transverse
    (Poly2([(0, 0, 1.0)]), Poly2([(1, 0, 1.0), (0, 2, -2.0)]), NotTransverse),
    (Poly2([(0, 0, 1.0)]), Poly2(), NotTransverse),
    # 1 / 5e-324 overflows, and so does the linear coefficient
    (Poly2([(0, 0, 1.0)]), Poly2([(0, 0, 5e-324)]), NonFiniteCoefficients),
    # the cubic coefficient is about -3.3e308, out of range
    (Poly2([(0, 0, 1.0), (2, 0, 1e308)]), Poly2([(0, 0, 0.1)]), NonFiniteCoefficients),
])
def test_named_errors(num, den, error):
    with pytest.raises(error):
        chart_jet(num, den)


@pytest.mark.parametrize("num, c", [
    # r00 = 1, r20 = r02 = 1e200: r02 ** 2 overflows, but no coefficient of
    # the cubic jet reads it
    (Poly2([(0, 0, 1.0), (2, 0, 1e200), (0, 2, 1e200)]), -6.666666666666667e+199),
    # r20 = 1e308: 2 * r20 overflows, r20 / 3 does not
    (Poly2([(0, 0, 1.0), (2, 0, 1e308)]), -3.333333333333333e+307),
])
def test_a_jet_in_range_is_not_refused(num, c):
    assert chart_jet(num, Poly2([(0, 0, 1.0)])) == (-1.0, 0.0, c)


# ---------------------------------------------------------------------------
# exact jets by rational Picard iteration
# ---------------------------------------------------------------------------

# integer-coefficient systems {component: {(i, j): c}} with X2(0), Y1(0) != 0,
# some with monomials above the jet degree
EXACT_SYSTEMS = {
    "cubic": ({(0, 0): -1, (1, 1): 1, (0, 2): 2, (3, 0): -1},
              {(0, 0): 1, (1, 0): 1, (0, 2): -1, (2, 1): 3},
              {(0, 0): 2, (0, 1): 1, (2, 0): -3, (5, 0): 1},
              {(0, 0): 1, (1, 0): 2, (1, 2): 1, (0, 4): -1}),
    "sextic": ({(0, 0): 1, (0, 1): -2, (2, 0): 1},
               {(0, 0): -3, (1, 1): 1, (0, 3): 1},
               {(0, 0): -1, (1, 1): 4, (3, 3): 2},
               {(0, 0): -2, (2, 0): 1, (0, 2): -1, (2, 4): 1}),
    "linear": ({(0, 0): -1, (0, 1): 1},
               {(0, 0): 2, (1, 0): 1},
               {(0, 0): 1, (1, 0): 2, (0, 1): -1},
               {(0, 0): 3, (1, 0): 1, (0, 1): 1}),
    "quadratic": ({(0, 0): 2, (2, 0): -1, (0, 2): 3},
                  {(0, 0): -1, (1, 1): -2, (2, 0): 1},
                  {(0, 0): 3, (0, 2): 1, (1, 1): -1},
                  {(0, 0): 1, (2, 0): 2, (1, 0): -1}),
}


def exact_half_map_jet(components, field: str):
    """(g1, g2, g3) as exact rationals: the chart solution w(s, y) by
    rational Picard iteration in the ring QQ[s, y] truncated at total
    degree 3 (all that the cubic needs), iterated to its fixed point; then
    w(x, G(x)) = O(x^4) solved for G one order at a time."""
    deg = 3
    R, s, y = ring("s,y", QQ)
    x1_, x2_, y1_, y2_ = components
    if field == "Y":   # s = x1, w = x2, dw/ds = Y2 / Y1
        num, den = (R({(i, j): QQ(c) for (i, j), c in p.items()}) for p in (y2_, y1_))
    else:              # s = x2, w = x1, dw/ds = X1 / X2
        num, den = (R({(j, i): QQ(c) for (i, j), c in p.items()}) for p in (x1_, x2_))

    def trunc(p):
        return R({m: c for m, c in p.items() if sum(m) <= deg})

    c0 = dict(den)[(0, 0)]
    u = trunc(den - c0) * (QQ(1) / c0)
    inv, term = R(0), R(1)
    for _ in range(deg + 1):
        inv += term
        term = trunc(-term * u)
    rate = trunc(num * inv * (QQ(1) / c0))
    w = y
    while True:
        sub = trunc(rate.compose(y, w))
        new = y + R({(i + 1, j): c / (i + 1) for (i, j), c in sub.items() if i + j < deg})
        if new == w:
            break
        w = new

    x = sympy.Symbol("x")
    gs = sympy.symbols("g1:4")
    G = sum(g * x ** (k + 1) for k, g in enumerate(gs))
    expr = sympy.expand(sum(QQ.to_sympy(c) * x ** i * G ** j for (i, j), c in w.items()))
    sol = {}
    for k, g in enumerate(gs, start=1):
        sol[g] = sympy.solve(expr.coeff(x, k).subs(sol), g)[0]
    return tuple(sol[g] for g in gs)


@pytest.mark.parametrize("field", ["X", "Y"])
@pytest.mark.parametrize("name", sorted(EXACT_SYSTEMS))
def test_jet_matches_exact_rational_picard(name, field):
    components = EXACT_SYSTEMS[name]
    Z = make_system(*({k: float(c) for k, c in p.items()} for p in components))
    jet = half_map_jet(Z, field)
    exact = exact_half_map_jet(components, field)
    for got, want in zip((jet.a, jet.b, jet.c), exact):
        want = float(want)
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)
