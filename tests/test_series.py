"""Dense truncated series of the half-map jets.

Oracle notes:
  [ORACLE]  the sparse route below: Picard iteration and graph inversion on
            `Poly2` arithmetic, truncating after each step.  The dense
            series must equal it bit for bit (`float.hex`), because it sums
            the same products in the same order and drops the same terms.
  [ORACLE]  exact rational Picard iteration in sympy for integer-coefficient
            systems, with the graph inverted by solving for the cubic's
            coefficients one order at a time.
"""
from __future__ import annotations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from crosswitch.errors import NonFiniteCoefficients, NotTransverse
from crosswitch.fields import Poly2, make_system
from crosswitch.returnmap import half_map_jet
from crosswitch.series import JET_DEGREE, MONOMIALS, invert_graph, picard_chart_jet

from conftest import coefficient, scale


# ---------------------------------------------------------------------------
# the sparse Poly2 route
# ---------------------------------------------------------------------------

def truncate(p: Poly2, deg: int) -> Poly2:
    return Poly2(t for t in p.terms if t[0] + t[1] <= deg)


def mul(a: Poly2, b: Poly2, deg: int) -> Poly2:
    """truncate(a * b, deg), forming only the products within deg, in the
    order of `Poly2.__mul__`: a product above deg that overflows does not
    raise, as the dense series never forms it."""
    return Poly2((i1 + i2, j1 + j2, c1 * c2) for i1, j1, c1 in a.terms
                 for i2, j2, c2 in b.terms if i1 + i2 + j1 + j2 <= deg)


def series_reciprocal(p: Poly2, deg: int) -> Poly2:
    c0 = p.constant_term()
    if c0 == 0.0:
        raise NotTransverse("series reciprocal of a polynomial vanishing at 0")
    u = Poly2((i, j, c / c0) for i, j, c in p.terms if 0 < i + j <= deg)
    acc = Poly2.constant(1.0)
    upow = Poly2.constant(1.0)
    sign = 1.0
    for _ in range(deg):
        upow = mul(upow, u, deg)
        if upow.is_zero:
            break
        sign = -sign
        acc = acc + scale(upow, sign)
    return scale(acc, 1.0 / c0)


def substitute_second(p: Poly2, w: Poly2, deg: int) -> Poly2:
    max_j = max((j for _, j, _ in p.terms), default=0)
    powers = [Poly2.constant(1.0)]
    for _ in range(max_j):
        powers.append(mul(powers[-1], w, deg))
    acc = Poly2()
    for i, j, c in p.terms:
        if i > deg:
            continue
        acc = acc + mul(Poly2([(i, 0, c)]), powers[j], deg)
    return truncate(acc, deg)


def integrate_first(p: Poly2) -> Poly2:
    return Poly2((i + 1, j, c / (i + 1)) for i, j, c in p.terms)


def sparse_chart_jet(numerator: Poly2, denominator: Poly2) -> Poly2:
    deg = JET_DEGREE
    rate = mul(truncate(numerator, deg), series_reciprocal(denominator, deg), deg)
    w = Poly2([(0, 1, 1.0)])
    for _ in range(deg + 1):
        w = Poly2([(0, 1, 1.0)]) + integrate_first(substitute_second(rate, w, deg))
        w = truncate(w, deg)
    return w


def _poly_mul_trunc(a: list[float], b: list[float], order: int) -> list[float]:
    out = [0.0] * (order + 1)
    for i, ca in enumerate(a):
        if ca == 0.0:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ca * cb
    return out


def _graph_coefficient(w: Poly2, gs: list[float], k: int) -> float:
    order = len(gs) - 1
    powers = [[1.0] + [0.0] * order]
    cur = gs[:]
    cur[0] = 0.0
    powers.append(cur)
    max_j = max((j for _, j, _ in w.terms), default=0)
    for _ in range(max_j - 1):
        powers.append(_poly_mul_trunc(powers[-1], powers[1], order))
    total = 0.0
    for i, j, c in w.terms:
        if i > k or j >= len(powers):
            continue
        total += c * powers[j][k - i]
    return total


def sparse_invert_graph(w: Poly2) -> tuple[float, float, float]:
    c01 = coefficient(w, 0, 1)
    gs = [0.0] * 4
    for k in (1, 2, 3):
        gs[k] = -_graph_coefficient(w, gs, k) / c01
    return tuple(gs[1:])


# ---------------------------------------------------------------------------
# bit identity with the sparse route
# ---------------------------------------------------------------------------

def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# zeros, order-one values (also ones that are not short binary fractions, so
# that the order of a sum shows in its rounding), small values whose
# products are smaller still, and tiny ones whose products underflow to
# zeros, which both routes then skip
chart_coeffs = st.one_of(
    st.just(0.0),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.integers(-4_000_000, 4_000_000).map(lambda n: n / 999_983),
    _signed(st.floats(min_value=1e-8, max_value=1e-7)),
    _signed(st.floats(min_value=1e-16, max_value=1e-14)),
    _signed(st.floats(min_value=1e-170, max_value=1e-150)),
)

# total degree first, so that five in nine monomials are within JET_DEGREE
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
# a zero constant denominator term: not transverse on both routes
@example(num=Poly2([(0, 0, 1.0)]), den=Poly2([(1, 0, 1.0), (0, 2, -2.0)]))
# a numerator with terms only above JET_DEGREE: the jet is w = y
@example(num=Poly2([(5, 0, 1.5), (2, 3, -2.0), (0, 8, 0.25)]),
         den=Poly2([(0, 0, 2.0), (1, 0, 0.5), (6, 1, 3.0)]))
# a coefficient of 1e-16 is kept: only exact zeros are dropped
@example(num=Poly2([(0, 0, 1e-16)]), den=Poly2([(0, 0, 1.0)]))
# sums of three or more products, whose rounding depends on their order
@example(num=Poly2([(0, 0, 3.787), (0, 1, -2.638), (0, 3, -2.329), (4, 0, -2.175)]),
         den=Poly2([(0, 0, 1.0), (0, 1, -2.95)]))
# in 1/den, u = 1.2e-15 s / 1.5 is kept, and so is its product with 4 y / 1.5
@example(num=Poly2([(0, 0, 1.0)]),
         den=Poly2([(0, 0, 1.5), (1, 0, 1.2e-15), (0, 1, 4.0)]))
# in 1/den, the s^3 coefficient of 1 - u + u^2 is 2^-51 before -u^3 adds -1
@example(num=Poly2([(0, 0, 1.0)]),
         den=Poly2([(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 0, 2.0 - 2.0**-51)]))
# in the second substitution, the s^2 coefficient of rate(s, w) is 2^-52
# after two of its three terms
@example(num=Poly2([(0, 0, 1.0), (0, 2, 1.0), (1, 1, -(1.0 - 2.0**-52)), (2, 0, 1.0)]),
         den=Poly2([(0, 0, 1.0)]))
# products of 1e-170 and 1e-160 underflow to zeros, which both routes skip
@example(num=Poly2([(0, 0, 1e-170), (0, 1, 1e-160), (1, 1, -3.0)]),
         den=Poly2([(0, 0, 1.0), (1, 0, 1e-160), (0, 1, 1e-170)]))
# 1 / 5e-324 overflows: both routes raise the same named error
@example(num=Poly2([(0, 0, 1.0)]), den=Poly2([(0, 0, 5e-324)]))
def test_jet_matches_the_poly2_route_bit_for_bit(num, den):
    try:
        expected = sparse_chart_jet(num, den)
    except (NotTransverse, NonFiniteCoefficients) as e:
        with pytest.raises(type(e)):
            picard_chart_jet(num, den)
        return
    assert all(i + j <= JET_DEGREE for i, j, _ in expected.terms)
    w = picard_chart_jet(num, den)
    assert _hex(w) == _hex(coefficient(expected, i, j) for i, j in MONOMIALS)
    assert _hex(invert_graph(w)) == _hex(sparse_invert_graph(expected))


def test_monomials_follow_poly2_term_order():
    full = Poly2((i, j, 1.0) for i, j in MONOMIALS)
    assert tuple((i, j) for i, j, _ in full.terms) == MONOMIALS
    assert len(MONOMIALS) == (JET_DEGREE + 1) * (JET_DEGREE + 2) // 2


def test_invert_graph_requires_normalization():
    w = [0.0] * len(MONOMIALS)
    with pytest.raises(ValueError):
        invert_graph(w)


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
