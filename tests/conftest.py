"""Shared hypothesis strategies and helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from crosswitch.fields import FieldSpec, PiecewiseSystem, Poly2

# Coefficients kept in a tame range so oracle comparisons stay well scaled.
coeffs = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                   allow_infinity=False).map(lambda c: 0.0 if abs(c) < 1e-12 else c)

nonzero_coeffs = st.one_of(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=-4.0, max_value=-0.1),
)

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def poly2(draw, max_terms: int = 5, include_constant: bool = False):
    n = draw(st.integers(0, max_terms))
    terms = [(i, j, draw(coeffs)) for i, j in draw(st.lists(exponents, min_size=n, max_size=n))]
    if include_constant:
        terms.append((0, 0, draw(nonzero_coeffs)))
    return Poly2(terms)


@st.composite
def field_spec(draw, nonzero_origin: bool = True):
    """A polynomial field; by default both components have a nonzero value at 0."""
    return FieldSpec(
        draw(poly2(include_constant=nonzero_origin)),
        draw(poly2(include_constant=nonzero_origin)),
    )


@st.composite
def generic_system(draw):
    """System whose four components are all nonzero at the origin."""
    return PiecewiseSystem(draw(field_spec()), draw(field_spec()))


points = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Mixed absolute/relative comparison used throughout the suite."""
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


def assert_close(a: float, b: float, tol: float = 1e-9, what: str = "") -> None:
    assert close(a, b, tol), f"{what} mismatch: {a!r} vs {b!r} (tol {tol})"


def is_finite_pair(p) -> bool:
    return math.isfinite(p[0]) and math.isfinite(p[1])


def coefficient(p: Poly2, i: int, j: int) -> float:
    """The coefficient of x1^i x2^j in p."""
    return next((c for ti, tj, c in p.terms if (ti, tj) == (i, j)), 0.0)


def scale(p: Poly2, c: float) -> Poly2:
    """c * p, each coefficient multiplied as c * coef."""
    return Poly2((i, j, c * coef) for i, j, coef in p.terms)


def scale_field(f: FieldSpec, c: float) -> FieldSpec:
    return FieldSpec(scale(f.f1, c), scale(f.f2, c))


def scale_system(Z: PiecewiseSystem, c: float) -> PiecewiseSystem:
    return PiecewiseSystem(scale_field(Z.X, c), scale_field(Z.Y, c))


def swap_axes(Z: PiecewiseSystem) -> PiecewiseSystem:
    """Z conjugated by (x1, x2) -> (x2, x1).  The reflection keeps
    {x1*x2 > 0} invariant, so X stays the positive-region field while the
    branches swap."""
    return PiecewiseSystem(*(FieldSpec(f.f2.swap_vars(), f.f1.swap_vars())
                             for f in (Z.X, Z.Y)))


def reflect_x1(Z: PiecewiseSystem) -> PiecewiseSystem:
    """Z pushed forward by (x1, x2) -> (-x1, x2), F -> (-F1, F2) at the
    mirror point.  The reflection maps {x1*x2 > 0} onto {x1*x2 < 0}, so the
    fields exchange."""
    def push(f: FieldSpec) -> FieldSpec:
        mirrored = [Poly2((i, j, (-1) ** i * c) for i, j, c in p.terms)
                    for p in (f.f1, f.f2)]
        return FieldSpec(-mirrored[0], mirrored[1])

    return PiecewiseSystem(push(Z.Y), push(Z.X))


def dense_matrix(p: Poly2) -> np.ndarray:
    """Coefficient matrix C with C[i, j] on x1^i x2^j (for numpy polyval2d)."""
    di = max((i for i, _, _ in p.terms), default=0)
    dj = max((j for _, j, _ in p.terms), default=0)
    out = np.zeros((di + 1, dj + 1))
    for i, j, c in p.terms:
        out[i, j] = c
    return out


def central_slope(f, x: float, h: float) -> float:
    """Plain central difference quotient (O(h^2))."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_slope(f, x: float, h: float) -> float:
    """Two-level Richardson extrapolation of the central quotient (O(h^4))."""
    d1 = central_slope(f, x, h)
    d2 = central_slope(f, x, 0.5 * h)
    return (4.0 * d2 - d1) / 3.0
