"""Switching-set decomposition, sliding dynamics, tangencies, root scanning.

Oracle notes:
  [DERIVED] sliding factorization route vs independent Filippov convex
            combination; half-branch kind table re-derived from the
            side-occupancy geometry.
  [ORACLE]  scan_roots vs sympy's exact real roots of the float coefficients.
  [TRIVIAL] hand-computed example values.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crosswitch.classify import (CLASS_C1, CLASS_DPE, CLASS_RF, all_sign_tuples, classify,
                                 normal_form, unfolding)
from crosswitch.errors import EvaluationOutsideDomain, ParseError, TooManyTangencies
from crosswitch.fields import Poly1, SlidingField, branch_point, make_system
from crosswitch import numerics
from crosswitch.lanes import multisect_roots
from crosswitch.numerics import (ROOT_XTOL, SCAN_CELLS, _bernstein_sign, bisect_root,
                                 scan_grid, scan_roots)
from crosswitch.report import canonical_json, classification_report
from crosswitch.switching import (
    ArcKind,
    Visibility,
    branch_point_class,
    find_tangencies,
    fold_lie_value,
    fold_visibility,
    pseudo_equilibria,
    sigma_decomposition,
)

from conftest import assert_close, coeffs, generic_system, richardson_slope, scale_system


def crossing_direction(Z, branch: int, s: float) -> int:
    """At a crossing point: sign of the (shared) normal-component direction."""
    xn = Z.X.component(branch).eval_point(branch_point(branch, s))
    return 1 if xn > 0.0 else -1


def filippov_combination(Z, branch: int, p) -> tuple[float, tuple[float, float]]:
    """Independent route to the sliding vector: the convex combination
    lam*X + (1-lam)*Y with vanishing normal component.  Returns (lam, vector).

    Evaluated exactly, in rationals on the float inputs, and rounded once at
    the end: where the normal components X_i and Y_i nearly agree, lam is
    large and a float route loses the digits this oracle is compared on.
    """
    q = (Fraction(p[0]), Fraction(p[1]))

    def value(poly) -> Fraction:
        return sum((Fraction(c) * q[0] ** a * q[1] ** b for a, b, c in poly.terms),
                   Fraction(0))

    xv = [value(Z.X.component(k)) for k in (1, 2)]
    yv = [value(Z.Y.component(k)) for k in (1, 2)]
    i = branch - 1
    denom = yv[i] - xv[i]
    if denom == 0:
        raise EvaluationOutsideDomain(
            f"normal components coincide at {p}: no unique convex combination")
    lam = yv[i] / denom
    vec = [lam * x + (1 - lam) * y for x, y in zip(xv, yv)]
    return float(lam), (float(vec[0]), float(vec[1]))


def sliding_value_direct(Z, branch: int, s: float) -> float:
    """Running component of the Filippov convex combination at the branch
    point (independent of the det-factorization route)."""
    _, vec = filippov_combination(Z, branch, branch_point(branch, s))
    return vec[1] if branch == 1 else vec[0]


def canonical_example():
    """X = (1, 1), Y = (-1 + x2, -1); det Z = -x2."""
    return make_system(1.0, 1.0, {(0, 0): -1.0, (0, 1): 1.0}, -1.0)


def section3_example(alpha: float):
    """X = (1 - alpha + x1, 1), Y = (-1 + x2, -1); det Z = alpha - x1 - x2."""
    return make_system({(0, 0): 1.0 - alpha, (1, 0): 1.0}, 1.0,
                       {(0, 0): -1.0, (0, 1): 1.0}, -1.0)


# ---------------------------------------------------------------------------
# root scanning
# ---------------------------------------------------------------------------

def loop_scan(f, lo, hi, cells=SCAN_CELLS, xtol=ROOT_XTOL):
    """The scalar grid scan, kept as the oracle of `scan_roots`: a list grid,
    one call of f per grid point, each zero value a root, one bisection per
    sign-change cell, duplicates within the merge window collapsed.  Returns
    (roots, grid)."""
    step = (hi - lo) / cells
    grid = [lo + step * k for k in range(cells + 1)]
    grid[-1] = hi
    vals = [f(x) for x in grid]
    hits = [k for k, (fa, fb) in enumerate(zip(vals, vals[1:]))
            if fa == 0.0 or (fb != 0.0 and (fa < 0.0) != (fb < 0.0))]
    if vals[-1] == 0.0:
        hits.append(cells)
    roots: list[float] = []
    for k in hits:
        r = grid[k] if vals[k] == 0.0 else bisect_root(f, grid[k], grid[k + 1],
                                                       vals[k], vals[k + 1], xtol)
        if roots and abs(r - roots[-1]) <= max(4.0 * xtol, 1e-11 * (1.0 + abs(r))):
            continue
        roots.append(r)
    return roots, grid


def exact_roots(q: Poly1) -> list[float]:
    """The real roots of q, with multiplicity, ascending: sympy's exact real
    root isolation (as in `sympy.real_roots`) on the float coefficients
    taken as rationals, refined to intervals of width 1e-15 whose midpoints
    are returned.  `fast` takes VAS's scaling step, also exact: the plain
    steps spend seconds on the far roots of a tiny leading coefficient
    (a 5e-324 one has roots near 1e64)."""
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(q.coeffs)], sympy.Symbol("s"))
    return [float((a + b) / 2) for (a, b), k in poly.intervals(
                eps=sympy.Rational(1, 10 ** 15), fast=True) for _ in range(k)]


def exact_value(q: Poly1, x: float) -> Fraction:
    return sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(q.coeffs)), Fraction(0))


def rounding_level(q: Poly1, x: float) -> bool:
    """True if q(x), exactly, lies within twice Horner's error bound
    gamma_2n sum |c_i| |x|^i, widened by the slope over 1e-12: the computed
    sign of q within 1e-12 of x may be wrong there."""
    n, ax = q.degree, abs(x) + 1e-12
    bound = 4 * n * 2.0 ** -53 * sum(abs(c) * ax ** i for i, c in enumerate(q.coeffs))
    slope = sum(i * abs(c) * ax ** (i - 1) for i, c in enumerate(q.coeffs) if i)
    return abs(exact_value(q, x)) <= bound + 1e-12 * slope


def has_sign(q: Poly1, lo: float, hi: float) -> bool:
    """The certified no-root test: q has one sign on [lo, hi], and so has
    its Horner value at every float there."""
    return _bernstein_sign(q, lo, hi)[0] != 0


def assert_matches_exact(q: Poly1, lo: float, hi: float, got: list[float]) -> None:
    """Every scan root lies within 1e-9 of an exact root of q, or where q is
    at rounding level (in a cluster that rounding hides, roots are placed by
    float signs); and every exact root that lies over 4 ROOT_XTOL (1 + |r|)
    from its neighbours and the window ends, the scan's resolution, and
    whose midpoints to them have a certified sign (`has_sign` on a
    point) is found: one scan root lies between those midpoints."""
    exact = [r for r in exact_roots(q) if lo <= r <= hi]
    for g in got:
        assert any(abs(g - r) <= 1e-9 for r in exact) or rounding_level(q, g), f"root {g}"
    ends = [lo, *exact, hi]
    for left, r, right in zip(ends, ends[1:], ends[2:]):
        m1, m2 = 0.5 * (left + r), 0.5 * (r + right)
        if (min(r - left, right - r) > 4 * ROOT_XTOL * (1 + abs(r))
                and has_sign(q, m1, m1) and has_sign(q, m2, m2)):
            assert len([g for g in got if m1 < g < m2]) == 1, f"missed root {r}"


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


#: Chebyshev T_16: degree 16, the most a sliding numerator det Z restricted to
#: a branch reaches (component degree cap 8), with 16 simple roots in (-1, 1).
T16 = [1.0, 0.0, -128.0, 0.0, 2688.0, 0.0, -21504.0, 0.0, 84480.0, 0.0,
       -180224.0, 0.0, 212992.0, 0.0, -131072.0, 0.0, 32768.0]

#: Coefficients of one scan: up to degree 5, window [lo, lo + width], cells.
scans = (st.lists(st.floats(-2, 2), min_size=1, max_size=6), st.floats(-2.0, 1.0),
         st.floats(1e-3, 3.0), st.sampled_from([7, 96, 512]))


class TestScanRoots:
    @given(*scans)
    @example(cs=[-0.25, 1.0], lo=-1.0, width=2.0, cells=512)       # root on a grid point
    @example(cs=[0.0, 2.0 ** -9, 1.0], lo=-1.0, width=2.0, cells=512)   # 2^-9 s + s^2
    @example(cs=[1.5], lo=-1.0, width=2.0, cells=512)              # constant
    # at the edge of the certified no-root exit
    @example(cs=[0.09 + 1e-15, -0.6, 1.0], lo=-1.0, width=2.0, cells=512)  # (s-0.3)^2 + 1e-15
    @example(cs=[0.25, -1.0, 1.0], lo=0.5, width=1.0, cells=512)   # (s - 0.5)^2, root at lo
    @example(cs=[0.25, 1.0, 1.0], lo=-1.5, width=1.0, cells=512)   # (s + 0.5)^2, root at hi
    @example(cs=[-1.0, 1.0], lo=0.0, width=1.0, cells=96)          # simple root at hi
    @example(cs=T16, lo=-1.0, width=2.0, cells=512)    # degree 16, as det Z can reach
    @example(cs=[1.0] + [0.0] * 15 + [1.0], lo=-1.0, width=2.0, cells=512)  # 1 + s^16
    # numpy's companion-matrix roots were off by 1.2e-7, 7.6e-6 and a factor
    # of 2 (-0.125 for -0.0625, beside a root at -5.7e14)
    @example(cs=[0.25, 1.0, 1e-09], lo=-1.0, width=2.0, cells=512)
    @example(cs=[0.5, 1.0, 1.9839346996837883e-11], lo=-1.0, width=2.0, cells=512)
    @example(cs=[2.440300306241937e-271, 0.0625, 1.0, 1.749464813927288e-15],
             lo=-1.0, width=2.0, cells=512)
    # every value below the sign test's underflow floor: the isolation
    # halved the window towards 10^10 pieces of width ROOT_XTOL
    @example(cs=[2.6089292731011785e-301, 2.2250738585072014e-308],
             lo=-1.606983458397624e-134, width=0.01, cells=512)
    @example(cs=[2.2250738585e-313] * 3, lo=2.2250738585e-313, width=0.2014753821195666,
             cells=512)
    @settings(max_examples=150, deadline=None)
    def test_scan_is_bit_identical_to_the_loop_oracle(self, cs, lo, width, cells):
        # the scan against the scalar grid loop, bit for bit, wherever no
        # grid cell holds two exact roots (counted with multiplicity; a root
        # at a grid point where Horner's rule gives 0.0 holds both cells
        # beside it, as the grid bisects neither) and Horner's rule gives
        # 0.0 at no grid point where f is not 0.  There the grid shows every
        # root and invents none, and the scan refines each root in the
        # grid's cell.  Elsewhere the grid can miss a pair, or report such a
        # grid point, and the scan is checked against the exact roots
        q, hi = Poly1(cs), lo + width
        assume(not q.is_zero)
        want_roots, want_grid = loop_scan(q, lo, hi, cells)
        assert hexes(scan_grid(lo, hi, cells)) == hexes(want_grid)
        assert hexes(q(np.array(want_grid))) == hexes(q(x) for x in want_grid)
        got = scan_roots(q, lo, hi, cells)
        zeros = [k for k, x in enumerate(want_grid) if q(x) == 0.0]
        held = []
        for r in exact_roots(q):
            if lo - 1e-12 <= r <= hi + 1e-12:
                at = [k for k in zeros if abs(want_grid[k] - r) <= 1e-12]
                held += ([k for k in (at[0] - 1, at[0]) if 0 <= k < cells] if at
                         else [min(math.floor((r - lo) / (hi - lo) * cells), cells - 1)])
        if len(set(held)) == len(held) and all(exact_value(q, want_grid[k]) == 0 for k in zeros):
            assert hexes(got) == hexes(want_roots)
        else:
            assert_matches_exact(q, lo, hi, got)

    @given(*scans)
    @example(cs=[0.7872777540343942, -1.7745734744263413, 1.0], lo=0.8872867148653585,
             width=1.7590175427351085e-08, cells=512)   # no real root: discriminant -7.4e-17
    @settings(max_examples=150, deadline=None)
    def test_no_more_roots_than_the_degree(self, cs, lo, width, cells):
        # [TRIVIAL] every root is shown by a change of certified sign, so
        # there are no more of them than the degree
        q = Poly1(cs)
        assume(not q.is_zero)
        assert len(scan_roots(q, lo, lo + width, cells)) <= q.degree

    def test_rounding_level_quadratic_without_real_root(self):
        # [DERIVED] exact discriminant -7.4e-17 of the float coefficients: no
        # real root, though the window's values lie at rounding level and
        # the grid's signs flip 39 times.  Horner's value at hi is 0.0 where
        # the exact one is 4.1e-17, so hi is no root as a window end either
        cs, lo = [0.7872777540343942, -1.7745734744263413, 1.0], 0.8872867148653585
        q, hi = Poly1(cs), lo + 1.7590175427351085e-08
        assert exact_roots(q) == []
        assert len(loop_scan(q, lo, hi)[0]) == 39
        assert scan_roots(q, lo, hi) == []
        assert q(hi) == 0.0
        assert scan_roots(q, 0.8, hi) == [] and scan_roots(q, hi, 1.0) == []

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_a_cluster_costs_few_tests(self, k, monkeypatch):
        # [ORACLE] (s - 0.3)^k, rounded to float coefficients: rounding hides
        # the signs of f and f' in a band around 0.3 that widens with k, so
        # halving to ROOT_XTOL would take ~1e4 pieces for k = 3 and ~1e7 for
        # k = 4; pieces where |f| or |f'| is certified to be too small for
        # any point's sign to show stop at once.  The window ends have
        # certified signs, so the roots found are as many as the exact ones
        # modulo 2, and they lie in the band
        real, calls = numerics._bernstein_sign, []

        def counted(*args):
            calls.append(args)
            if len(calls) > 500:
                raise RuntimeError("over 500 tests for one cluster")
            return real(*args)

        monkeypatch.setattr(numerics, "_bernstein_sign", counted)
        q = Poly1(np.polynomial.polynomial.polyfromroots([0.3] * k))
        got = scan_roots(q, -1.0, 1.0)
        assert (len(got) - len(exact_roots(q))) % 2 == 0
        assert all(abs(r - 0.3) < 1e-2 for r in got)
        assert_matches_exact(q, -1.0, 1.0, got)

    def test_roots_beside_dyadic_double_roots(self):
        # [ORACLE] s^2 (s^2 - 1)^2 (s - 0.5)(s + 0.25): dyadic coefficients,
        # so f and f' are exactly 0 at -1, 0 and 1, the ends and midpoint of
        # the window; the simple roots between them are found, as the grid
        # finds them, and the double roots as exact zeros
        q = Poly1(np.polynomial.polynomial.polyfromroots([0, 0, 1, 1, -1, -1, 0.5, -0.25]))
        got = scan_roots(q, -1.0, 1.0)
        assert got == [-1.0, -0.25, 0.0, 0.5, 1.0] == loop_scan(q, -1.0, 1.0)[0]
        assert_matches_exact(q, -1.0, 1.0, got)

    def test_huge_window(self):
        # [ORACLE] s^3 - 3 s + 1/2 on |s| <= 1e200, as `classify --radius
        # 1e200` scans it: values overflow far out, and the roots are found
        q = Poly1([0.5, -3.0, 0.0, 1.0])
        assert scan_roots(q, -1e200, 1e200) == pytest.approx(exact_roots(q), abs=1e-9)

    def test_zero_polynomial_raises(self):
        # every point is a root: the callers decide what that means
        with pytest.raises(ValueError):
            scan_roots(Poly1([0.0]), -1.0, 1.0)

    def test_subnormal_window(self):
        # the grid step 1e-321 / 512 underflowed to 0: ZeroDivisionError
        assert scan_roots(Poly1([-5e-322, 1.0]), 0.0, 1e-321) == [5e-322]

    @given(st.floats(-0.95, 0.5), st.lists(st.floats(-6.0, -0.3), max_size=4),
           st.sampled_from([1.0, -0.5, 3.0]))
    @example(first=0.1, exps=[-4.0], scale=1.0)                 # (s - 0.1)(s - 0.1001)
    @example(first=0.2, exps=[-6.0, -0.1549], scale=1.0)        # gap 1e-6 and a third root
    @example(first=-0.5, exps=[-6.0, -6.0, -6.0, -6.0], scale=1.0)   # five roots in 4e-6
    @settings(max_examples=80, deadline=None)
    def test_roots_match_sympy(self, first, exps, scale):
        # [ORACLE] a product of up to 5 rational linear factors with root
        # gaps down to 1e-6, rounded to float coefficients, against sympy's
        # exact real roots of those coefficients
        roots = [Fraction(first)]
        for e in exps:
            roots.append(roots[-1] + Fraction(10.0 ** e))
        cs = [Fraction(scale)]
        for r in roots:     # times (s - r), ascending coefficients
            cs = [a - r * b for a, b in zip([Fraction(0), *cs], [*cs, Fraction(0)])]
        q = Poly1([float(c) for c in cs])
        assert_matches_exact(q, -1.0, 1.0, scan_roots(q, -1.0, 1.0))

    @pytest.mark.parametrize("cs, r, want", [
        ([0.0, 2.0 ** -9, 1.0], 1.0, [-2.0 ** -9, 0.0]),         # 2^-9 s + s^2
        ([0.0, 1e-6, 0.0, -1.0], 1.0, [-1e-3, 0.0, 1e-3]),       # 1e-6 s - s^3
        ([0.0, 2.0 ** -8, 1.0], 2.0, [-2.0 ** -8, 0.0]),         # 2^-8 s + s^2
        ([2.0 ** -52, 2.0 ** -7, 1.0], 2.0, [-2.0 ** -7, 0.0]),  # two roots, one cell
        ([0.1 * 0.1001, -0.2001, 1.0], 1.0, [0.1, 0.1001]),      # (s - 0.1)(s - 0.1001)
    ])
    def test_roots_hidden_in_a_cell(self, cs, r, want):
        # [TRIVIAL] roots whose cell shows no sign change: one beside an
        # exact grid zero, or two in one cell; the cell's turn shows them
        got = scan_roots(Poly1(cs), -r, r, cells=512)
        assert got == pytest.approx(want, abs=1e-11)

    def test_hand_roots(self):
        # [TRIVIAL] (s - 0.25)(s + 0.5) has roots -0.5, 0.25
        q = Poly1([-0.125, 0.25, 1.0])
        roots = scan_roots(q, -1.0, 1.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-0.5, abs=1e-11)
        assert roots[1] == pytest.approx(0.25, abs=1e-11)

    def test_endpoint_root(self):
        q = Poly1([-1.0, 1.0])  # root at 1.0 == hi
        roots = scan_roots(q, 0.0, 1.0)
        assert len(roots) == 1 and roots[0] == pytest.approx(1.0, abs=1e-11)

    def test_no_roots(self):
        assert scan_roots(Poly1([1.0, 0.0, 1.0]), -1.0, 1.0) == []

    @pytest.mark.parametrize("cs, lo, hi, certified", [
        ([1.5], -1.0, 1.0, True),                         # constant
        ([2.0, 0.0, 1.0], -1.0, 1.0, True),               # 2 + s^2
        ([-0.125, 0.25, 1.0], 0.3, 1.0, True),            # (s - 0.25)(s + 0.5)
        ([1.0] + [0.0] * 15 + [1.0], -0.5, 0.5, True),    # 1 + s^16
        ([1.0, 0.0, 1.0], -1.0, 1.0, False),   # no root, but a Bernstein coefficient 0
        ([0.0], -1.0, 1.0, False),                        # zero polynomial
        ([0.09 + 1e-15, -0.6, 1.0], -1.0, 1.0, False),    # (s - 0.3)^2 + 1e-15
        ([-1.0, 1.0], 0.0, 1.0, False),                   # simple root at hi
        ([1.0, 1.0], 0.0, 1e300, False),       # no root, but the margin overflows
    ])
    def test_certified_no_root_exit(self, cs, lo, hi, certified):
        # the exit fires where every Bernstein coefficient clears the
        # rounding margin with one sign; it declines at a root, at a
        # minimum within rounding of 0, and wherever the coefficients are
        # too coarse a bound
        assert has_sign(Poly1(cs), lo, hi) is certified

    def test_multisection_matches_bisection(self):
        # [TRIVIAL] (s + 0.5)(s - 0.1)(s - 0.3): all three sign-change cells
        # refined together agree with one bisection per cell
        q = Poly1([0.015, -0.17, 0.1, 1.0])
        cells = [(-0.7, -0.2, q(-0.7), q(-0.2)), (0.05, 0.2, q(0.05), q(0.2)),
                 (0.2, 0.31, q(0.2), q(0.31))]
        got = multisect_roots(
            lambda u: np.polynomial.polynomial.polyval(u, q.coeffs), cells)
        want = [bisect_root(q, *c) for c in cells]
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx([-0.5, 0.1, 0.3], abs=1e-12)
        # the default ftol = 0 stops only at an exact zero: bit-exact values
        # of the bisection from before it had an ftol
        assert want == [-0.4999999999997271, 0.10000000000009095, 0.3000000000001091]

    @given(st.floats(-0.9, 0.9), st.sampled_from([1e-12, 1e-9, 1e-4]))
    @settings(max_examples=100, deadline=None)
    def test_bisect_stops_within_ftol(self, r, t):
        # [TRIVIAL] with ftol the result is a point where |f| <= ftol
        def f(x):
            return (x - r) * (1.0 + x * x)

        x = bisect_root(f, -1.0, 1.0, f(-1.0), f(1.0), xtol=1e-16, ftol=t)
        assert -1.0 <= x <= 1.0
        assert abs(f(x)) <= t

    def test_bisect_returns_end_point_within_ftol(self):
        # [TRIVIAL] an end value already within ftol is returned as it is,
        # without evaluating f, and needs no sign change
        def f(x):
            raise AssertionError("f evaluated")

        assert bisect_root(f, 0.0, 1.0, 1e-13, -1.0, ftol=1e-12) == 0.0
        assert bisect_root(f, 0.0, 1.0, 1.0, -5e-13, ftol=1e-12) == 1.0
        assert bisect_root(f, 0.0, 1.0, 1.0, 5e-13, ftol=1e-12) == 1.0
        with pytest.raises(ValueError):
            bisect_root(f, 0.0, 1.0, 1.0, 5e-13)


# ---------------------------------------------------------------------------
# half-branch point classification
# ---------------------------------------------------------------------------

def constant_system_with_normals(branch, xn, yn):
    """Constant fields whose Sigma_branch normal components are xn, yn and
    whose running components are 1 (irrelevant for classification)."""
    if branch == 1:
        return make_system(xn, 1.0, yn, 1.0)
    return make_system(1.0, xn, 1.0, yn)


class TestBranchPointClass:
    @pytest.mark.parametrize("branch", [1, 2])
    @pytest.mark.parametrize("half", [1, -1])
    @pytest.mark.parametrize("sx,sy", [(1, 1), (-1, -1), (1, -1), (-1, 1)])
    def test_sign_table(self, branch, half, sx, sy):
        # [DERIVED] side-occupancy rule: X occupies the side with normal sign
        # = half; sliding iff half*Xn < 0 < half*Yn, escaping the reverse
        Z = constant_system_with_normals(branch, float(sx), float(sy))
        got = branch_point_class(Z, branch, 0.5 * half)
        if sx * sy > 0:
            want = ArcKind.CROSSING
        elif half * sx < 0:
            want = ArcKind.SLIDING
        else:
            want = ArcKind.ESCAPING
        assert got == want

    def test_canonical_example_branch1(self):
        # [TRIVIAL] X1=1, Y1=-1+s: escaping on 0<s<1, crossing s>1,
        # sliding on s<0, tangency at s=1
        Z = canonical_example()
        assert branch_point_class(Z, 1, 0.5) == ArcKind.ESCAPING
        assert branch_point_class(Z, 1, 1.5) == ArcKind.CROSSING
        assert branch_point_class(Z, 1, -0.5) == ArcKind.SLIDING
        assert branch_point_class(Z, 1, 1.0) == ArcKind.TANGENCY

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            branch_point_class(canonical_example(), 1, 0.0)

    def test_crossing_direction(self):
        Z = make_system(1.0, 2.0, 3.0, 4.0)
        assert crossing_direction(Z, 1, 0.5) == 1
        assert crossing_direction(Z.negate(), 1, 0.5) == -1

    def test_xi_witnesses(self):
        # classify records xi_i = X_i(0) Y_i(0), and decides from the signs
        # of the factors, down to the smallest origin scale it accepts
        for c in (1.0, 2.0 ** -500):
            got = classify(scale_system(canonical_example(), c))
            assert (got.witnesses["xi1"], got.witnesses["xi2"]) == (-c * c, -c * c)
            assert got.reasons == ("boundary value: d(det)/dx1 at the origin",)


# ---------------------------------------------------------------------------
# sliding field: factorization vs convex combination
# ---------------------------------------------------------------------------

class TestSlidingField:
    def test_canonical_value(self):
        # [TRIVIAL] Z1^s(s) = s/(s-2); at s=0.5 the value is -1/3
        Z = canonical_example()
        sf = Z.sliding_field(1)
        assert sf.value(0.5) == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert sliding_value_direct(Z, 1, 0.5) == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_one_sliding_field_per_system_and_branch(self):
        # the system owns its sliding fields, as it owns det Z
        Z = canonical_example()
        for W in (Z, Z.negate()):
            for branch in (1, 2):
                assert W.sliding_field(branch) is W.sliding_field(branch)
                assert W.sliding_field(branch).branch == branch
        with pytest.raises(ValueError):
            Z.sliding_field(3)

    def test_convex_combination_normal_vanishes(self):
        Z = canonical_example()
        lam, vec = filippov_combination(Z, 1, (0.0, 0.5))
        assert 0.0 < lam < 1.0
        assert abs(vec[0]) < 1e-14  # normal component killed
        assert vec[1] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    @given(generic_system(), st.integers(1, 2),
           st.floats(0.05, 1.0), st.sampled_from([-1.0, 1.0]))
    @example(make_system(1.0, 1.0, 0.5, {(0, 0): 1.0, (3, 0): 2.0 ** -14}),
             2, 0.394, -1.0)  # X2 and Y2 agree to 3.7e-6 at the branch point
    # X1 and Y1 differ by 1e-5, so lam is about 2e5 and 1 - lam about -2e5:
    # lam*X + (1-lam)*Y cancels about five digits in floats, and a float
    # oracle was 1.8e-11 off N/D = -4.00001 here, over the bound of 9e-12,
    # where the program is 8.3e-13 off
    @example(make_system(-2.0, -2.00001, -2.00001, -2.0), 1, 1.0, -1.0)
    @settings(max_examples=200, deadline=None)
    def test_factorization_matches_direct(self, Z, branch, mag, sgn):
        # [DERIVED] h_i * det route == Filippov convex combination route
        s = sgn * mag
        sf = Z.sliding_field(branch)
        if abs(sf.denominator(s)) < 1e-6:
            assume(False)
        lhs = sf.value(s)
        rhs = sliding_value_direct(Z, branch, s)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))

    def test_denominator_vanishing_raises(self):
        Z = make_system(1.0, 1.0, 1.0, -1.0)  # X1 == Y1 everywhere
        with pytest.raises(EvaluationOutsideDomain):
            Z.sliding_field(1).value(0.5)

    @given(st.lists(coeffs, min_size=1, max_size=9),
           st.lists(coeffs, min_size=1, max_size=9),
           st.integers(1, 2), st.floats(-2.0, 2.0))
    @example([0.0], [2.0, 0.0, -1.5], 1, 0.5)              # zero numerator
    @example([1.0, 0.0, 0.0, -3.0], [0.0], 2, 0.25)      # zero denominator
    @example([0.5] + [0.0] * 7 + [-1.0], [-1.0, 0.0, 2.0], 1, -1.75)
    @settings(max_examples=200, deadline=None)
    def test_value_is_bit_identical(self, num, den, branch, s):
        # the generated evaluator against numerator(s) / denominator(s)
        sf = SlidingField(branch, Poly1(num), Poly1(den))
        d = sf.denominator(s)
        if abs(d) < 1e-300:
            with pytest.raises(EvaluationOutsideDomain):
                sf.value(s)
        else:
            assert sf.value(s).hex() == (sf.numerator(s) / d).hex()

    def test_branch2_sign_convention(self):
        # [DERIVED] Z2^s = det/(Y2 - X2); X=(1,1), Y=(2,-1) at s:
        # det = 1*(-1) - 1*2 = -3; Y2-X2 = -2 -> value 1.5 everywhere
        Z = make_system(1.0, 1.0, 2.0, -1.0)
        sf = Z.sliding_field(2)
        assert sf.value(0.3) == pytest.approx(1.5, abs=1e-14)
        assert sliding_value_direct(Z, 2, 0.3) == pytest.approx(1.5, abs=1e-14)


# ---------------------------------------------------------------------------
# tangencies
# ---------------------------------------------------------------------------

class TestTangencies:
    def test_fold_of_x_visibility(self):
        # [DERIVED] X=(1, x1-d): fold on Sigma2 at s=d, lie = 1 > 0;
        # visible on the positive half, invisible on the negative half
        for delta, want in ((0.3, Visibility.VISIBLE), (-0.3, Visibility.INVISIBLE)):
            Z = make_system(1.0, {(0, 0): -delta, (1, 0): 1.0}, 1.0, 1.0)
            tps = find_tangencies(Z, 2, -1.0, 1.0)
            assert len(tps) == 1
            tp = tps[0]
            assert tp.field == "X" and tp.branch == 2
            assert tp.s == pytest.approx(delta, abs=1e-10)
            assert tp.lie == pytest.approx(1.0)
            assert tp.visibility == want

    def test_fold_of_y_visibility(self):
        # [DERIVED] Y=(1, x1+d): fold at s=-d, lie=1, orientation flips for Y
        Z = make_system(1.0, 1.0, 1.0, {(0, 0): 0.5, (1, 0): 1.0})
        tps = find_tangencies(Z, 2, -1.0, 1.0)
        assert len(tps) == 1
        tp = tps[0]
        assert tp.field == "Y" and tp.s == pytest.approx(-0.5, abs=1e-10)
        assert tp.visibility == Visibility.VISIBLE  # -1 * 1 * (-1) > 0

    def test_fold_visibility_is_kept_under_time_scaling(self):
        # [DERIVED] c*X = (c, c (x1 - 0.3)): the fold at s = 0.3 has the Lie
        # value c^2, a product of two components, so its band is
        # BAND * scale^2.  Against BAND * scale, the component band, the
        # fold of c = 2^-40 (lie 8e-25, band 9e-22) was degenerate
        for c in (2.0 ** -100, 2.0 ** -40, 1.0, 2.0 ** 40, 2.0 ** 100):
            Z = make_system(c, {(0, 0): -0.3 * c, (1, 0): c}, c, c)
            tps = find_tangencies(Z, 2, -1.0, 1.0)
            assert [(t.field, t.lie, t.visibility) for t in tps] == [
                ("X", c * c, Visibility.VISIBLE)]
        # and a Lie value small against the squared scale is degenerate at
        # every scale: c*X = (c, 1e-10 c (x1 - 0.3)), lie 1e-10 c^2
        for c in (2.0 ** -40, 1.0, 2.0 ** 40):
            Z = make_system(c, {(0, 0): -0.3e-10 * c, (1, 0): 1e-10 * c}, c, c)
            [tp] = find_tangencies(Z, 2, -1.0, 1.0)
            assert tp.visibility == Visibility.DEGENERATE

    def test_two_folds_in_one_scan_cell(self):
        # [DERIVED] X2|Sigma2 = (x1 - 0.1)(x1 - 0.1001): two folds of X
        # 1e-4 apart, inside one of the 512 scan cells
        Z = make_system(1.0, {(2, 0): 1.0, (1, 0): -0.2001, (0, 0): 0.1 * 0.1001}, 1.0, 1.0)
        tps = find_tangencies(Z, 2, -1.0, 1.0)
        assert [tp.field for tp in tps] == ["X", "X"]
        assert [tp.s for tp in tps] == pytest.approx([0.1, 0.1001], abs=1e-10)

    def test_identically_tangent_raises(self):
        # X2 = x2 vanishes identically on Sigma2
        Z = make_system(1.0, {(0, 1): 1.0}, 1.0, 1.0)
        with pytest.raises(TooManyTangencies):
            find_tangencies(Z, 2, -1.0, 1.0)

    def test_degenerate_visibility(self):
        assert fold_visibility("X", 0.0, 0.5, 1e-9) == Visibility.DEGENERATE

    def test_lie_value_formula(self):
        # [TRIVIAL] W=(w1,w2) with w2 = x1 + 3*x1*x2: dW2/dx1 = 1 + 3*x2;
        # at p=(0.0, 0.0) on Sigma2... use p=(0.5,0.0): lie = w1 * 1
        Z = make_system(2.0, {(1, 0): 1.0, (1, 1): 3.0}, 1.0, 1.0)
        assert fold_lie_value(Z.X, 2, (0.5, 0.0)) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

class TestDecomposition:
    def test_canonical_example(self):
        # [TRIVIAL] branch1: [e, c] upward with fold at s=1, [s] downward;
        # branch2: X2=1, Y2=-1 everywhere -> escaping on +, sliding on -
        Z = canonical_example()
        dec = sigma_decomposition(Z, radius=2.0)
        assert dec.kind_sequence(1, 1) == ("e", "c")
        assert dec.kind_sequence(1, -1) == ("s",)
        # on Sigma2: X2=1, Y2=-1; half +: h*X2 > 0 -> escaping
        assert dec.kind_sequence(2, 1) == ("e",)
        assert dec.kind_sequence(2, -1) == ("s",)
        assert len(dec.tangencies) == 1
        assert dec.tangencies[0].s == pytest.approx(1.0, abs=1e-10)

    def test_fold_family_positive_delta(self):
        # [DERIVED] X=(1, x1-0.3), Y=(1,1): Sigma2+ = [s, c] split at 0.3,
        # Sigma2- = [e], Sigma1± = [c]
        Z = make_system(1.0, {(0, 0): -0.3, (1, 0): 1.0}, 1.0, 1.0)
        dec = sigma_decomposition(Z, radius=1.0)
        assert dec.kind_sequence(2, 1) == ("s", "c")
        assert dec.kind_sequence(2, -1) == ("e",)
        assert dec.kind_sequence(1, 1) == ("c",)
        assert dec.kind_sequence(1, -1) == ("c",)
        arcs = dec.half_branch(2, 1)
        assert arcs[0].outer == pytest.approx(0.3, abs=1e-9)
        assert arcs[1].inner == pytest.approx(0.3, abs=1e-9)

    def test_arcs_ordered_outward(self):
        Z = canonical_example()
        dec = sigma_decomposition(Z, radius=2.0)
        for branch in (1, 2):
            for half in (1, -1):
                arcs = dec.half_branch(branch, half)
                mags = [abs(a.inner) for a in arcs]
                assert mags == sorted(mags)
                assert abs(arcs[-1].outer) == pytest.approx(2.0)

    @given(generic_system())
    # X2(0) = -5e-10: the fold at s = 5e-10 was listed, next to one arc
    # that spanned it, as the tangencies and the arc cuts had two origin gaps
    @example(unfolding(CLASS_RF, {"a": -1, "b": 1}, 5e-10))
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_radius(self, Z):
        # [TRIVIAL] arcs tile each half-branch outward from 0 to the
        # radius, and every listed tangency inside the radius is an arc end
        try:
            dec = sigma_decomposition(Z, radius=1.0)
        except TooManyTangencies:
            assume(False)
        for branch in (1, 2):
            ends = set()
            for half in (1, -1):
                arcs = dec.half_branch(branch, half)
                stops = [0.0] + [a.outer for a in arcs]
                assert [a.inner for a in arcs] == stops[:-1]
                assert stops[-1] == half * 1.0
                assert all(abs(u) < abs(v) for u, v in zip(stops, stops[1:]))
                ends.update(stops[1:-1])
            for tp in dec.tangencies:
                if tp.branch == branch and abs(tp.s) < 1.0:
                    assert tp.s in ends, (tp, ends)

    def test_fold_is_cut_at_a_large_radius(self):
        # [DERIVED] X = (1, x1 - 0.2), Y = (-1, 1): sliding on (0, 0.2) of
        # Sigma2+, crossing beyond.  At radius 1e9 the cut's gap was
        # 1e-9 * radius = 1: the fold was listed but Sigma2+ was one arc "c"
        Z = unfolding(CLASS_RF, {"a": -1, "b": 1}, 0.2)
        dec = sigma_decomposition(Z, 1e9)
        assert [tp.s for tp in dec.tangencies] == pytest.approx([0.2], abs=1e-12)
        assert dec.kind_sequence(2, 1) == ("s", "c")
        assert dec.half_branch(2, 1)[0].outer == dec.tangencies[0].s

    def test_fold_inside_the_origin_gap_is_not_listed(self):
        # [DERIVED] X2(0) = -5e-10 lies in the component band, so the
        # origin is the regular fold and s = 5e-10 is no fold of an open
        # half-branch: it was listed, with no arc end at it
        Z = unfolding(CLASS_RF, {"a": -1, "b": 1}, 5e-10)
        assert find_tangencies(Z, 2, -1.0, 1.0) == []
        dec = sigma_decomposition(Z, 1.0)
        assert dec.tangencies == ()
        assert dec.kind_sequence(2, 1) == ("c",)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 0.0])
def test_radius_must_be_positive_and_finite(radius):
    # on C32 (a = b = c = 1) the decomposition returned Arc(1, 1, 0.0, nan,
    # ESCAPING) for nan and a crossing arc out to -1.0 for -1; 0 raised the
    # internal "origin does not lie on an open half-branch"; and
    # pseudo_equilibria returned [] for all three
    Z = make_system(1.0, -1.0, 2.0, 1.0)
    with pytest.raises(ParseError, match="radius must be positive and finite"):
        sigma_decomposition(Z, radius)
    for branch in (1, 2):
        with pytest.raises(ParseError, match="radius must be positive and finite"):
            pseudo_equilibria(Z, branch, radius=radius)


@pytest.mark.parametrize("radius", [1e-320, 5e-324])
def test_subnormal_radius(radius):
    # both raised "the origin does not lie on an open half-branch": the
    # midpoint of the arc (0, 5e-324] rounded to 0, and with eps = 1e-9 r
    # rounded to 0 the scan found the root s = 0 of det Z, which vanishes
    # at the origin of this normal form
    Z = normal_form(CLASS_DPE, {"a": 1, "b": 1, "c1": 1, "c2": 1})
    assert [(a.outer, a.kind) for a in sigma_decomposition(Z, radius).arcs] == [
        (radius, ArcKind.ESCAPING), (-radius, ArcKind.SLIDING)] * 2
    for branch in (1, 2):
        assert pseudo_equilibria(Z, branch, radius=radius) == []


# ---------------------------------------------------------------------------
# pseudo-equilibria
# ---------------------------------------------------------------------------

class TestPseudoEquilibria:
    def test_section3_positive_alpha(self):
        # [DERIVED] det = alpha - x1 - x2: pseudo-equilibrium at s = alpha on
        # each branch, in the escaping region.  Branch 1: derivative
        # N'/D = -1/(2 - alpha - s) < 0; branch 2: D = Y2 - X2 = -2, so
        # derivative = +1/2 > 0.
        Z = section3_example(0.1)
        for branch, want_stab in ((1, "attracting"), (2, "repelling")):
            pes = pseudo_equilibria(Z, branch, radius=1.0)
            assert len(pes) == 1
            pe = pes[0]
            assert pe.s == pytest.approx(0.1, abs=1e-10)
            assert pe.region_kind == ArcKind.ESCAPING
            assert pe.hyperbolic
            assert pe.stability == want_stab

    def test_section3_negative_alpha(self):
        Z = section3_example(-0.1)
        for branch in (1, 2):
            pes = pseudo_equilibria(Z, branch, radius=1.0)
            assert len(pes) == 1
            pe = pes[0]
            assert pe.s == pytest.approx(-0.1, abs=1e-10)
            assert pe.region_kind == ArcKind.SLIDING

    def test_crossing_roots_filtered(self):
        # det root lies on a crossing arc -> not a pseudo-equilibrium
        # X=(1,1), Y=(1, -1+x1) on Sigma2: X2*Y2 = -1+s changes... take
        # branch 2: det = (1)(-1+x1) - (1)(1) = x1 - 2: root s=2 outside;
        # simpler: X=(1,1), Y=(2, 2 - 4*x1): det = 2-4x1-2 = -4x1 root s=0
        # excluded as origin; shift: Y2 = 2 - 4*(x1-0.5) = 4 - 4x1? use
        # det root at crossing: X=(1,1), Y=(2, 8*(0.5 - x1) + 2*... )
        Z = make_system(1.0, 1.0, 2.0, {(0, 0): 4.0, (1, 0): -4.0})
        # det|Sigma2 = 4 - 4s - 2 = 2 - 4s... wait: det = X1*Y2 - X2*Y1
        #            = (4 - 4s) - 2 = 2 - 4s, root s = 0.5
        # there X2=1, Y2=4-2=2 > 0 -> crossing -> filtered out
        assert pseudo_equilibria(Z, 2, radius=1.0) == []

    def test_two_pseudo_equilibria_in_one_scan_cell(self):
        # [DERIVED] X = (-1, 1), Y = (1, -1 + (x2 - 0.3)(x2 - 0.3001)):
        # det|Sigma1 = (s - 0.3)(s - 0.3001), two zeros inside one scan
        # cell, both in the sliding region (X1 < 0 < Y1)
        Z = make_system(-1.0, 1.0, 1.0, {(0, 2): 1.0, (0, 1): -0.6001, (0, 0): 0.3 * 0.3001 - 1.0})
        pes = pseudo_equilibria(Z, 1)
        assert [pe.s for pe in pes] == pytest.approx([0.3, 0.3001], abs=1e-10)
        assert all(pe.region_kind == ArcKind.SLIDING for pe in pes)

    @pytest.mark.parametrize("radius", [1e8, 1e12])
    def test_pseudo_equilibria_are_found_at_a_large_radius(self, radius):
        # [DERIVED] the double pseudo-equilibrium family at delta = 0.1 (all
        # signs +1) has one pseudo-equilibrium at s = 0.1 on each branch.
        # With the scan windows outside +-1e-9 * radius, radius 1e8 and
        # 1e12 found none
        Z = unfolding(CLASS_DPE, {"a": 1, "b": 1, "c1": 1, "c2": 1}, 0.1)
        for branch in (1, 2):
            pes = pseudo_equilibria(Z, branch, radius=radius)
            assert [pe.s for pe in pes] == pytest.approx([0.1], abs=1e-9)
            assert pes[0].region_kind == ArcKind.ESCAPING

    def test_vanishing_det_with_sliding_arcs_raises(self):
        # [DERIVED] X = (-1, 1), Y = -X: det Z vanishes identically, and
        # each branch slides on one half and escapes on the other, so every
        # point of those arcs is a pseudo-equilibrium: the report names the
        # error instead of listing scan points
        Z = make_system(-1.0, 1.0, 1.0, -1.0)
        for branch in (1, 2):
            assert Z.sliding_field(branch).numerator.is_zero
            with pytest.raises(TooManyTangencies):
                pseudo_equilibria(Z, branch)
        rep = canonical_json(classification_report(Z))
        assert len(rep.encode()) < 2048
        assert "error" in json.loads(rep)["sigma"]

    @pytest.mark.parametrize("signs", all_sign_tuples(CLASS_C1))
    def test_vanishing_det_on_crossing_branches_gives_none(self, signs):
        # [DERIVED] Stable_C1 has X = Y: det Z vanishes identically, and both
        # branches are crossing, so there is no pseudo-equilibrium
        Z = normal_form(CLASS_C1, signs)
        for branch in (1, 2):
            assert Z.sliding_field(branch).numerator.is_zero
            assert pseudo_equilibria(Z, branch) == []

    @given(generic_system(), st.integers(1, 2))
    @settings(max_examples=80, deadline=None)
    def test_pe_points_really_zero_det(self, Z, branch):
        try:
            pes = pseudo_equilibria(Z, branch, radius=1.0)
        except (TooManyTangencies, EvaluationOutsideDomain):
            assume(False)
        for pe in pes:
            assert abs(Z.det(pe.point)) <= 1e-7 * (1.0 + abs(pe.derivative))
            assert pe.region_kind in (ArcKind.SLIDING, ArcKind.ESCAPING)

    def test_derivative_matches_numeric_slope(self):
        # [DERIVED] analytic derivative at the root vs Richardson quotient of
        # the sliding value
        Z = section3_example(0.1)
        sf = Z.sliding_field(1)
        pe = pseudo_equilibria(Z, 1, radius=1.0)[0]
        num = richardson_slope(sf.value, pe.s, 1e-4)
        assert_close(pe.derivative, num, 1e-7, "sliding slope")
