"""Cubic jets of the half maps, in closed form.

A half map between branches follows the chart ODE dw/ds = R(s, w), with
R = num/den the orbit slope in suitable coordinates: G(x) is the value at
s = 0 of the solution through (s, w) = (x, 0).  Its cubic jet depends only
on the Taylor coefficients r_ij of R at the origin with i + j <= 2, the
Taylor-coefficient route of Coll, Gasull & Prohens ("Degenerate Hopf
bifurcations in discontinuous planar systems", J. Math. Anal. Appl. 253,
2001):

    G(x) = -r00 x + (r00 r01 - r10)/2 x^2
           - (2 r00^2 r02 + r00 r01^2 - r00 r11 - 2 r01 r10 + 2 r20)/6 x^3.

The tests derive these formulas by Picard iteration on symbolic r_ij.
"""
from __future__ import annotations

import math

from .errors import NonFiniteCoefficients, NotTransverse
from .fields import Poly2


def chart_jet(numerator: Poly2, denominator: Poly2) -> tuple[float, float, float]:
    """(g1, g2, g3) of the half map G(x) = g1 x + g2 x^2 + g3 x^3 of the
    chart ODE dw/ds = numerator(s, w) / denominator(s, w).

    Only monomials of total degree at most 2 enter.  r00 is
    numerator(0) * (1 / denominator(0)).  No term is doubled: g2 halves
    its terms before their difference, and g3 divides its two groups by 6
    and by 3, so `2 * r20` cannot overflow where g3 is in range.  Raises
    NotTransverse when the denominator vanishes at the origin, and
    NonFiniteCoefficients when a coefficient comes out infinite or NaN: it
    is out of range, or an r_ij or a product on the way to it overflows.
    """
    n = {(i, j): c for i, j, c in numerator.terms if i + j <= 2}
    d = {(i, j): c for i, j, c in denominator.terms if i + j <= 2}
    d00 = d.pop((0, 0), 0.0)
    if d00 == 0.0:
        raise NotTransverse("chart denominator vanishes at the origin")
    q = 1.0 / d00
    # the Taylor coefficients of R = num/den, one order at a time; a zero
    # stays 0.0, not 0.0 * q (-0.0 for q < 0, NaN when q overflows)
    r = {}
    for m in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        t = n.get(m, 0.0)
        for (i, j), c in d.items():
            k = (m[0] - i, m[1] - j)
            if k in r:
                t -= r[k] * c
        r[m] = t * q if t else 0.0
    r00, r10, r01 = r[0, 0], r[1, 0], r[0, 1]
    r20, r11, r02 = r[2, 0], r[1, 1], r[0, 2]
    jet = (-r00,
           0.5 * r00 * r01 - 0.5 * r10,
           (r00 * r11 - r00 * r01 * r01) / 6.0
           + (r01 * r10 - r00 * r00 * r02 - r20) / 3.0)
    for k, g in enumerate(jet, start=1):
        if not math.isfinite(g):
            raise NonFiniteCoefficients(f"half-map jet coefficient {g!r} of x^{k}")
    return jet
