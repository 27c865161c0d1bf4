"""Truncated bivariate series utilities for half-map jets.

A half map between branches is obtained from a chart ODE dw/ds = R(s, w)
(the orbit slope in suitable coordinates).  The two-parameter solution
w(s; y) with w(0; y) = y is built as a truncated bivariate polynomial in
(s, y) by Picard iteration; the half map G is then extracted from the
implicit equation w(x, G(x)) = 0 order by order.
"""
from __future__ import annotations

from .errors import NotTransverse
from .fields import Poly2

#: Working total degree for all series arithmetic (one above what the cubic
#: half-map jets need, for safety margin).
JET_DEGREE = 4


def truncate(p: Poly2, deg: int) -> Poly2:
    return Poly2(t for t in p.terms if t[0] + t[1] <= deg)


def series_reciprocal(p: Poly2, deg: int) -> Poly2:
    """Truncated Taylor series of 1/p; requires a nonzero constant term."""
    c0 = p.constant_term()
    if c0 == 0.0:
        raise NotTransverse("series reciprocal of a polynomial vanishing at 0")
    u = truncate(Poly2((i, j, c / c0) for i, j, c in p.terms
                       if not (i == 0 and j == 0)), deg)
    acc = Poly2.constant(1.0)
    upow = Poly2.constant(1.0)
    sign = 1.0
    for _ in range(deg):
        upow = truncate(upow * u, deg)
        if upow.is_zero:
            break
        sign = -sign
        acc = acc + upow.scale(sign)
    return acc.scale(1.0 / c0)


def substitute_second(p: Poly2, w: Poly2, deg: int) -> Poly2:
    """p(s, w(s, y)) as a truncated polynomial in (s, y).

    The first variable of p is kept; the second is replaced by w (itself a
    polynomial in (s, y) with no constant term, so truncation is exact to
    total degree `deg`).
    """
    max_j = max((j for _, j, _ in p.terms), default=0)
    powers = [Poly2.constant(1.0)]
    for _ in range(max_j):
        powers.append(truncate(powers[-1] * w, deg))
    acc = Poly2()
    for i, j, c in p.terms:
        if i > deg:
            continue
        term = Poly2([(i, 0, c)]) * powers[j]
        acc = acc + truncate(term, deg)
    return truncate(acc, deg)


def integrate_first(p: Poly2) -> Poly2:
    """Definite integral from 0 to s in the first variable."""
    return Poly2((i + 1, j, c / (i + 1)) for i, j, c in p.terms)


def picard_chart_jet(numerator: Poly2, denominator: Poly2) -> Poly2:
    """Two-parameter solution jet w(s, y) of dw/ds = num(s,w)/den(s,w) with
    w(0, y) = y, as a polynomial in (s, y) truncated at total degree
    JET_DEGREE.

    Both input polynomials must be written in the chart variables (s, w);
    the denominator must not vanish at the origin (transversality).
    """
    deg = JET_DEGREE
    rate = truncate(truncate(numerator, deg) * series_reciprocal(denominator, deg), deg)
    w = Poly2([(0, 1, 1.0)])  # w0(s, y) = y
    for _ in range(deg + 1):
        w = Poly2([(0, 1, 1.0)]) + integrate_first(substitute_second(rate, w, deg))
        w = truncate(w, deg)
    return w


def invert_graph(w: Poly2) -> tuple[float, float, float]:
    """Solve w(x, G(x)) = O(x^4) for the cubic G(x) = g1*x + g2*x^2 + g3*x^3.

    Requires the normalization w(0, y) = y (constant term 0, unit linear
    coefficient in the second variable), which picard_chart_jet guarantees.
    """
    c00 = w.coefficient(0, 0)
    c01 = w.coefficient(0, 1)
    if abs(c00) > 1e-12 or abs(c01 - 1.0) > 1e-12:
        raise ValueError("invert_graph expects w(0, y) = y normalization")
    gs = [0.0] * 4  # gs[k] multiplies x^k
    for k in (1, 2, 3):
        coeff = _graph_coefficient(w, gs, k)
        gs[k] = -coeff / c01
    return tuple(gs[1:])


def _graph_coefficient(w: Poly2, gs: list[float], k: int) -> float:
    """Coefficient of x^k in w(x, G(x)) for the current G (gs[k:] still 0)."""
    order = len(gs) - 1
    gpow = [0.0] * (order + 1)
    gpow[0] = 1.0
    powers = [list(gpow)]  # G^0
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
        need = k - i
        if need <= len(powers[j]) - 1:
            total += c * powers[j][need]
    return total


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
