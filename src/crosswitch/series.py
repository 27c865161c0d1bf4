"""Truncated bivariate series utilities for half-map jets.

A half map between branches is obtained from a chart ODE dw/ds = R(s, w)
(the orbit slope in suitable coordinates).  The two-parameter solution
w(s; y) with w(0; y) = y is built as a truncated bivariate polynomial in
(s, y) by Picard iteration; the half map G is then extracted from the
implicit equation w(x, G(x)) = 0 order by order.

Layout: a truncated series is a dense list of 15 floats, one slot for each
monomial s^i y^j with i + j <= JET_DEGREE, in the order of `MONOMIALS`
(sorted exponent pairs, which is `Poly2`'s term order).  A product runs
through a precomputed table of the slot pairs whose degrees add up to at
most JET_DEGREE; monomials above it are never formed.

The arithmetic reproduces, bit for bit, what the same steps give on
`Poly2`: every coefficient is summed over the same products in the same
order (nonzero slots in sorted order, pairs in `Poly2.__mul__`'s order), so
the `Poly2` route in the tests is its oracle.  A non-finite coefficient in
a kept monomial raises `NonFiniteCoefficients`, as building that `Poly2`
would.
"""
from __future__ import annotations

import math

from .errors import NonFiniteCoefficients, NotTransverse
from .fields import Poly2

#: Working total degree for all series arithmetic (one above what the cubic
#: half-map jets need, for safety margin).
JET_DEGREE = 4

#: Exponent pairs (i, j) of the slots of a dense series, in slot order.
MONOMIALS = tuple((i, j) for i in range(JET_DEGREE + 1)
                  for j in range(JET_DEGREE + 1 - i))

_SLOT = {m: k for k, m in enumerate(MONOMIALS)}
_N = len(MONOMIALS)

#: For each slot a: the (slot b, slot of a * b) pairs within JET_DEGREE, b
#: ascending.
_PRODUCTS = tuple(
    tuple((b, _SLOT[(ia + ib, ja + jb)]) for b, (ib, jb) in enumerate(MONOMIALS)
          if ia + ja + ib + jb <= JET_DEGREE)
    for ia, ja in MONOMIALS)

#: (slot of s^i y^j, slot of s^(i+1) y^j, i + 1) for the integration in s,
#: for the monomials that stay within JET_DEGREE.
_INTEGRALS = tuple((k, _SLOT[(i + 1, j)], float(i + 1))
                   for k, (i, j) in enumerate(MONOMIALS) if i + j < JET_DEGREE)

_ONE = (1.0,) + (0.0,) * (_N - 1)
_Y = tuple(1.0 if m == (0, 1) else 0.0 for m in MONOMIALS)   # w0(s, y) = y


def _dense(p: Poly2) -> list[float]:
    """The monomials of p up to JET_DEGREE as a dense series."""
    out = [0.0] * _N
    for i, j, c in p.terms:
        if i + j <= JET_DEGREE:
            out[_SLOT[(i, j)]] = c
    return out


def _checked(a: list[float]) -> list[float]:
    """a, after raising NonFiniteCoefficients for a non-finite slot."""
    if not math.isfinite(sum(a)):
        for (i, j), c in zip(MONOMIALS, a):
            if not math.isfinite(c):
                raise NonFiniteCoefficients(
                    f"series coefficient {c!r} at exponents ({i}, {j})")
    return a


def _mul(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * _N
    for ka, ca in enumerate(a):
        if ca:
            for kb, k in _PRODUCTS[ka]:
                cb = b[kb]
                if cb:
                    out[k] += ca * cb
    return _checked(out)


def _reciprocal(p: list[float]) -> list[float]:
    """Truncated series of 1/p; requires a nonzero constant term."""
    c0 = p[0]
    if c0 == 0.0:
        raise NotTransverse("series reciprocal of a polynomial vanishing at 0")
    u = [0.0] + [c / c0 for c in p[1:]]
    acc = _ONE
    upow = _ONE
    sign = 1.0
    for _ in range(JET_DEGREE):
        upow = _mul(upow, u)
        if not any(upow):
            break
        sign = -sign
        acc = [a + sign * c for a, c in zip(acc, upow)]
    r = 1.0 / c0
    return _checked([r * c for c in acc])


def _substitute_second(p: list[float], w: list[float]) -> list[float]:
    """p(s, w(s, y)) as a truncated series in (s, y); w has no constant
    term, so truncating the powers of w is exact to JET_DEGREE."""
    used = [(i, j, c) for (i, j), c in zip(MONOMIALS, p) if c]
    powers = [_ONE]
    for _ in range(max((j for _, j, _ in used), default=0)):
        powers.append(_mul(powers[-1], w))
    acc = [0.0] * _N
    for i, j, c in used:
        # c s^i times powers[j]: its slots within JET_DEGREE are the products
        # of slot (i, 0) with the slots of powers[j]
        pw = powers[j]
        for kb, k in _PRODUCTS[_SLOT[(i, 0)]]:
            cb = pw[kb]
            if cb:
                acc[k] += c * cb
    return _checked(acc)


def picard_chart_jet(numerator: Poly2, denominator: Poly2) -> list[float]:
    """Two-parameter solution jet w(s, y) of dw/ds = num(s,w)/den(s,w) with
    w(0, y) = y, as a dense series over `MONOMIALS` (total degree at most
    JET_DEGREE).

    Both input polynomials must be written in the chart variables (s, w);
    the denominator must not vanish at the origin (transversality).
    Monomials of the inputs above JET_DEGREE do not enter the jet.
    """
    rate = _mul(_dense(numerator), _reciprocal(_dense(denominator)))
    w = list(_Y)
    for _ in range(JET_DEGREE + 1):
        sub = _substitute_second(rate, w)
        w = list(_Y)
        for k, kt, n in _INTEGRALS:
            c = sub[k] / n
            if c:   # a -0.0 stays 0.0, as Poly2 drops it
                w[kt] = c
    return w


def invert_graph(w: list[float]) -> tuple[float, float, float]:
    """Solve w(x, G(x)) = O(x^4) for the cubic G(x) = g1*x + g2*x^2 + g3*x^3.

    w is a dense series over `MONOMIALS`.  Requires the normalization
    w(0, y) = y (constant term 0, unit linear coefficient in the second
    variable), which picard_chart_jet guarantees.
    """
    c00, c01 = w[_SLOT[(0, 0)]], w[_SLOT[(0, 1)]]
    if abs(c00) > 1e-12 or abs(c01 - 1.0) > 1e-12:
        raise ValueError("invert_graph expects w(0, y) = y normalization")
    terms = [(i, j, c) for (i, j), c in zip(MONOMIALS, w) if c]
    max_j = max((j for _, j, _ in terms), default=0)
    gs = [0.0] * 4  # gs[k] multiplies x^k
    for k in (1, 2, 3):
        # coefficient of x^k in w(x, G(x)) for the current G (gs[k:] still 0)
        g = [0.0] + gs[1:]
        powers = [[1.0, 0.0, 0.0, 0.0], g]  # G^0, G^1, ... up to x^3
        for _ in range(max_j - 1):
            prev, nxt = powers[-1], [0.0] * 4
            for a, ca in enumerate(prev):
                if ca != 0.0:
                    for b in range(4 - a):
                        nxt[a + b] += ca * g[b]
            powers.append(nxt)
        total = 0.0
        for i, j, c in terms:
            if i <= k and j < len(powers):
                total += c * powers[j][k - i]
        gs[k] = -total / c01
    return tuple(gs[1:])
