"""Switching-set decomposition, sliding dynamics, tangencies, root scanning.

Oracle notes:
  [DERIVED] sliding factorization route vs independent Filippov convex
            combination; scan_roots vs numpy polyroots; half-branch kind
            table re-derived from the side-occupancy geometry.
  [TRIVIAL] hand-computed example values.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crosswitch.errors import EvaluationOutsideDomain, ParseError, TooManyTangencies
from crosswitch.fields import Poly1, SlidingField, branch_point, make_system
from crosswitch.lanes import multisect_roots
from crosswitch.numerics import (ROOT_XTOL, SCAN_CELLS, _has_no_root, bisect_root, scan_grid,
                                 scan_roots)
from crosswitch.switching import (
    ArcKind,
    Visibility,
    branch_point_class,
    find_tangencies,
    fold_lie_value,
    fold_visibility,
    pseudo_equilibria,
    sigma_decomposition,
    xi_values,
)

from conftest import assert_close, coeffs, generic_system, richardson_slope


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

def loop_roots(f, xs, vals, xtol):
    """Zero points and bisected sign-change cells of f over the list grid
    xs, ascending, duplicates within the merge window collapsed."""
    hits = [k for k, (fa, fb) in enumerate(zip(vals, vals[1:]))
            if fa == 0.0 or (fb != 0.0 and (fa < 0.0) != (fb < 0.0))]
    if vals[-1] == 0.0:
        hits.append(len(vals) - 1)
    roots: list[float] = []
    for k in hits:
        r = xs[k] if vals[k] == 0.0 else bisect_root(f, xs[k], xs[k + 1],
                                                     vals[k], vals[k + 1], xtol)
        if roots and abs(r - roots[-1]) <= max(4.0 * xtol, 1e-11 * (1.0 + abs(r))):
            continue
        roots.append(r)
    return roots


def loop_turns(f, a, b, xtol):
    """Turns of f strictly inside (a, b): the roots of f' there, with f'
    split at its own turns first."""
    if f.degree <= 1:
        return []
    g = f.derivative()
    pts = [a, *loop_turns(g, a, b, xtol), b]
    return [r for r in loop_roots(g, pts, [g(x) for x in pts], xtol) if a < r < b]


def sign_flips(vals):
    signs = [v < 0.0 for v in vals if v != 0.0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def loop_scan(f, lo, hi, cells=SCAN_CELLS, xtol=ROOT_XTOL):
    """The scalar scan that `scan_roots` runs, kept as its oracle: a list
    grid, one call of f per grid point, per cell the Taylor tests at
    its left end of whether f and f' can vanish in it, the turns of every
    cell that passes both and where they show more sign changes than its
    ends, and one bisection per sign-change cell.  Returns (roots, grid)."""
    step = (hi - lo) / cells
    grid = [lo + step * k for k in range(cells + 1)]
    grid[-1] = hi
    vals = [f(x) for x in grid]
    derivs, g = [], f
    for _ in range(f.degree):
        g = g.derivative()
        derivs.append(g)
    pairs = list(zip(grid, vals))
    for k in range(cells if f.degree >= 2 else 0):
        a, b = grid[k], grid[k + 1]
        bound0, bound1, term = 0.0, 0.0, 1.0
        for j, g in enumerate(derivs, 1):
            d = abs(g(a))
            if j == 1:
                slope = d
            else:
                bound1 = bound1 + d * term
            term = term * (b - a) / j
            bound0 = bound0 + d * term
        if abs(vals[k]) <= 2.0 * bound0 and slope <= 2.0 * bound1:
            turns = [(t, f(t)) for t in loop_turns(f, a, b, xtol)]
            if (sign_flips([vals[k], *(v for _, v in turns), vals[k + 1]])
                    > sign_flips([vals[k], vals[k + 1]])):
                pairs += turns
    pairs.sort(key=lambda xv: xv[0])
    xs = [x for x, _ in pairs]
    return loop_roots(f, xs, [v for _, v in pairs], xtol), grid


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


#: Chebyshev T_16: degree 16, the most a sliding numerator det Z restricted to
#: a branch reaches (component degree cap 8), with 16 simple roots in (-1, 1).
T16 = [1.0, 0.0, -128.0, 0.0, 2688.0, 0.0, -21504.0, 0.0, 84480.0, 0.0,
       -180224.0, 0.0, 212992.0, 0.0, -131072.0, 0.0, 32768.0]


class TestScanRoots:
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=6),
           st.floats(-2.0, 1.0), st.floats(1e-3, 3.0), st.sampled_from([7, 96, 512]))
    @example(cs=[-0.25, 1.0], lo=-1.0, width=2.0, cells=512)       # root on a grid point
    @example(cs=[0.0, 2.0 ** -9, 1.0], lo=-1.0, width=2.0, cells=512)   # 2^-9 s + s^2
    @example(cs=[0.0], lo=-1.0, width=2.0, cells=512)              # zero polynomial
    @example(cs=[1.5], lo=-1.0, width=2.0, cells=512)              # constant
    # at the edge of the certified no-root exit
    @example(cs=[0.09 + 1e-15, -0.6, 1.0], lo=-1.0, width=2.0, cells=512)  # (s-0.3)^2 + 1e-15
    @example(cs=[0.25, -1.0, 1.0], lo=0.5, width=1.0, cells=512)   # (s - 0.5)^2, root at lo
    @example(cs=[0.25, 1.0, 1.0], lo=-1.5, width=1.0, cells=512)   # (s + 0.5)^2, root at hi
    @example(cs=[-1.0, 1.0], lo=0.0, width=1.0, cells=96)          # simple root at hi
    @example(cs=[0.7872777540343942, -1.7745734744263413, 1.0], lo=0.8872867148653585,
             width=1.7590175427351085e-08, cells=512)   # rounding-level values, two roots
    @example(cs=T16, lo=-1.0, width=2.0, cells=512)    # degree 16, as det Z can reach
    @example(cs=[1.0] + [0.0] * 15 + [1.0], lo=-1.0, width=2.0, cells=512)  # 1 + s^16
    @settings(max_examples=150, deadline=None)
    def test_scan_is_bit_identical_to_the_loop_oracle(self, cs, lo, width, cells):
        # the scan (or its certified exit) against the scalar loop: same grid
        # points, same grid values and same roots, bit for bit
        q, hi = Poly1(cs), lo + width
        want_roots, want_grid = loop_scan(q, lo, hi, cells)
        assert hexes(scan_grid(lo, hi, cells)) == hexes(want_grid)
        assert hexes(q.values(want_grid)) == hexes(q(x) for x in want_grid)
        assert hexes(q(np.array(want_grid))) == hexes(q(x) for x in want_grid)
        assert hexes(scan_roots(q, lo, hi, cells)) == hexes(want_roots)

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
        assert _has_no_root(Poly1(cs), lo, hi) is certified

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

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=5), st.floats(0.5, 2.0))
    @example(cs=[0.25, 1.0, 1e-09], r=1.0)   # numpy's root is off by 1.2e-7
    @example(cs=[0.5, 1.0, 1.9839346996837883e-11], r=1.0)   # off by 7.6e-6
    @example(cs=[2.440300306241937e-271, 0.0625, 1.0, 1.749464813927288e-15],
             r=1.0)   # -0.125 for the root -0.0625, next to a root at -5.7e14
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_polyroots(self, cs, r):
        # [DERIVED] every simple real numpy root well inside the window is
        # found by the scanner, and every scanner root is a numpy root; the
        # simple real numpy roots in the window are first polished by 60
        # Newton steps on q, kept where they lower |q|, as numpy's
        # companion-matrix roots can be off by 1e-7, or by a factor of 2
        q = Poly1(cs)
        assume(q.degree >= 1)
        dq = q.derivative()

        def simple_real(z: complex) -> bool:
            return abs(z.imag) < 1e-9 and abs(dq(float(z.real))) > 1e-6

        def polish(z: complex) -> complex:
            if not (simple_real(z) and abs(z.real) <= r):
                return z
            x = float(z.real)
            for _ in range(60):
                x -= q(x) / dq(x)
            return complex(x) if abs(q(x)) <= abs(q(float(z.real))) else z

        npr = [polish(z) for z in
               np.polynomial.polynomial.polyroots(np.asarray(q.coeffs))]
        want = [float(z.real) for z in npr
                if simple_real(z) and abs(z.real) < r - 0.05]
        got = scan_roots(q, -r, r)
        for w in want:
            assert any(abs(g - w) < 1e-8 for g in got), f"missed root {w}"
        for g in got:
            assert min(abs(g - float(z.real)) + abs(z.imag) for z in npr) < 1e-6


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

    def test_xi_values(self):
        Z = canonical_example()
        assert xi_values(Z) == (-1.0, -1.0)


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
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_radius(self, Z):
        # [TRIVIAL] arcs tile each half-branch exactly
        try:
            dec = sigma_decomposition(Z, radius=1.0)
        except TooManyTangencies:
            assume(False)
        for branch in (1, 2):
            for half in (1, -1):
                arcs = dec.half_branch(branch, half)
                assert arcs[0].inner == 0.0
                for a, b in zip(arcs, arcs[1:]):
                    assert a.outer == b.inner
                assert abs(arcs[-1].outer) == pytest.approx(1.0)


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
