"""Hand-rolled numerical primitives used by the analysis layers.

These are pinned implementations (grid-scan root isolation + bisection,
classical RK4 steps) so that results are bit-reproducible across
platforms.  Library root finders and adaptive integrators appear only as
independent oracles in the test suite.  Nothing here needs arrays, and this
module imports no numpy: the lane code of the fixed-point scans lives in
`lanes`, which only the verbs that run lanes import.

`scan_roots` evaluates f point by point on a list grid, each point
lo + step * k (hi exact), and finds the zero and sign-change cells in one
pass over the values.  For a `Poly1` it first tries a certified exit: when
the Bernstein coefficients of f on [lo, hi] all have one sign, with a
margin above a rigorous bound on every rounding error involved, f has no
root there and every value the scan would compute has that sign, so the
scan returns [] without running (`_has_no_root`).  Otherwise it also splits
each cell whose end values hide roots at the turns inside it, so that every
simple root shows as a sign change.

`bisect_root` is the one scalar bisection loop: it refines the roots of
`scan_roots` to width ROOT_XTOL (exact zeros stop early), and it localises
every flow event inside an RK4 substep [0, h], where it stops at
|g| <= `flow.SNAP` or at width 1e-16 * h.  The fixed-point scans refine
their roots on lanes with `lanes.multisect_roots`.
"""
from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import Callable, Sequence

from .fields import Poly1

#: Default number of scan cells for root isolation on an interval.
SCAN_CELLS = 512

#: Absolute width to which scan roots are refined; `bisect_root`'s default.
ROOT_XTOL = 1e-12

#: Most halvings `bisect_root` makes.
BISECT_MAX_ITER = 200

def bisect_root(f: Callable[[float], float], a: float, b: float,
                fa: float, fb: float,
                xtol: float = ROOT_XTOL, ftol: float = 0.0) -> float:
    """Bisection on a bracketing interval [a, b] with fa = f(a) and
    fb = f(b) of opposite signs.

    Returns the first of a, b and the midpoints where |f| <= ftol, else the
    midpoint of the first bracket no wider than xtol (or of the last one
    after BISECT_MAX_ITER halvings).  With ftol = 0 only an exact zero stops
    early.
    """
    if abs(fa) <= ftol:
        return a
    if abs(fb) <= ftol:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("bisect_root: interval does not bracket a sign change")
    for _ in range(BISECT_MAX_ITER):
        m = 0.5 * (a + b)
        if (b - a) <= xtol:
            return m
        fm = f(m)
        if abs(fm) <= ftol:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def scan_grid(lo: float, hi: float, cells: int) -> list[float]:
    """The cells + 1 equally spaced scan points from lo to hi (hi exact),
    each lo + step * k, step = (hi - lo) / cells."""
    step = (hi - lo) / cells
    xs = [lo + step * k for k in range(cells + 1)]
    xs[-1] = hi
    return xs


Cell = tuple[float, float, float, float]   # (a, b, f(a), f(b))


def sign_change_roots(xs: Sequence[float], vals: Sequence[float],
                      refine: Callable[[list[Cell]], Sequence[float]]
                      ) -> list[tuple[float, Cell]]:
    """Roots from the values of f on a scan grid (lists of floats).

    A zero grid value is a root, and every cell whose end values have
    opposite signs holds one.  refine([(a, b, f(a), f(b)), ...]) locates
    the roots of all those cells in a single call, one per cell.  Returns
    ascending (root, cell) pairs, cell being the root's (a, b, f(a), f(b)),
    or (r, r, 0.0, 0.0) for a zero grid value r, with duplicates within a
    small merge window collapsed.
    """
    # grid indices of zero values and of sign-change cells, ascending; only
    # a cell whose end values have no positive product can be either
    hits: list[int] = []
    brackets: list[Cell] = []
    for k in [k for k, p in enumerate(map(mul, vals, vals[1:])) if not p > 0.0]:
        fa, fb = vals[k], vals[k + 1]
        if fa == 0.0:
            hits.append(k)
        elif fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            hits.append(k)
            brackets.append((xs[k], xs[k + 1], fa, fb))
    if vals[-1] == 0.0:
        hits.append(len(vals) - 1)
    refined = iter(zip(refine(brackets), brackets))
    out: list[tuple[float, Cell]] = []
    for k in hits:
        if vals[k] == 0.0:
            r = xs[k]
            cell = (r, r, 0.0, 0.0)
        else:
            r, cell = next(refined)
        if out and abs(r - out[-1][0]) <= max(4.0 * ROOT_XTOL, 1e-11 * (1.0 + abs(r))):
            continue
        out.append((r, cell))
    return out


def scan_roots(f: Callable[[float], float], lo: float, hi: float,
               cells: int = SCAN_CELLS) -> list[float]:
    """Sign-change roots of f on [lo, hi]: uniform scan + bisection to
    ROOT_XTOL.

    The scan calls f once per grid point, and `bisect_root` refines each
    sign-change cell.  When f is a `Poly1`, a certified exit returns []
    without the scan where f has no root (`_has_no_root`), and a cell that
    holds more roots than its end values show gets its turns as extra scan
    points (see `_hidden_turns`); for any other f such roots go undetected.
    Roots of even multiplicity (no sign change) are not detected;
    duplicates within a small merge window are collapsed.  Returns an
    ascending list.
    """
    if not hi > lo:
        return []
    poly = isinstance(f, Poly1)
    if poly and _has_no_root(f, lo, hi):
        return []
    xs = scan_grid(lo, hi, cells)
    vals = f.values(xs) if poly else [f(x) for x in xs]
    turns = _hidden_turns(f, xs, vals) if poly else []
    if turns:
        pairs = sorted([*zip(xs, vals), *turns], key=itemgetter(0))
        xs = [x for x, _ in pairs]
        vals = [v for _, v in pairs]
    return [r for r, _ in sign_change_roots(
        xs, vals, lambda brackets: [bisect_root(f, *c) for c in brackets])]


def _has_no_root(f: Poly1, lo: float, hi: float) -> bool:
    """True only if f has no zero on [lo, hi] and its Horner value (as
    `Poly1.__call__` computes it) at every float x in [lo, hi] is nonzero
    with the sign of f there: a scan of [lo, hi] then finds no root.

    The Bernstein coefficients b_k of f, degree n, on [lo, lo + w], w =
    hi - lo rounded up, bound f there from both sides.  They are computed in
    floats: a Taylor shift to lo by repeated synthetic division, a scaling
    by w^i / C(n, i), and n rounds of pairwise sums.  Along this computation
    each term of a b_k passes through at most 5n + 2 roundings, and along
    Horner's rule each term of f(x) through at most 2n.  So with u = 2^-53,
    gamma_m = m u / (1 - m u) and P(rho) = sum |c_i| rho^i, rho = |lo| + w
    (rounded up), every computed b_k is within gamma_{5n+2} P(rho) of b_k
    and every computed f(x), |x| <= rho, within gamma_{2n} P(rho) of f(x)
    (the usual sum-of-products bound; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3 and 5).  Underflow adds an absolute error
    of at most 2^-1075 per multiplication, amplified by at most
    2 (2 + 2 rho)^(2n); there are fewer than (n + 2)^2 of them.

    The test asks every computed b_k to have one sign s and to exceed, as
    s b_k, the margin 2 (7n + 7) u P(rho) + 2^-999 (2 + 2 rho)^(2n), twice
    the sum of these bounds; an overflow anywhere fails it.
    """
    cs = f.coeffs
    n = len(cs) - 1
    w = math.nextafter(hi - lo, math.inf)
    rho = math.nextafter(abs(lo) + w, math.inf)
    try:
        tiny = 2.0 ** -999 * (2.0 + 2.0 * rho) ** (2 * n)
    except OverflowError:
        return False
    bound = 0.0
    for c in reversed(cs):
        bound = bound * rho + abs(c)
    margin = 2.0 * (7 * n + 7) * 2.0 ** -53 * bound + tiny
    # Taylor shift: d holds the coefficients of f(lo + t) in t
    d = list(cs)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            d[j] = d[j] + lo * d[j + 1]
    # b_k = sum_i C(k, i) d_i w^i / C(n, i): position k summed k times
    b, wp = [], 1.0
    for i, di in enumerate(d):
        b.append(di * wp / math.comb(n, i))
        wp = wp * w
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            b[i] = b[i] + b[i - 1]
    return (all(margin < v < math.inf for v in b)
            or all(-math.inf < v < -margin for v in b))


def _hidden_turns(f: Poly1, xs: list[float], vals: list[float]
                  ) -> list[tuple[float, float]]:
    """(t, f(t)) for the turns t of f inside every scan cell where f changes
    sign more often, along the cell's ends and turns, than between its ends.

    By Taylor's formula at a cell's left end a, exact for a polynomial, f
    can vanish in the cell only if |f(a)| <= sum_{j>=1} |f^(j)(a)| h^j / j!
    and f' only if |f'(a)| <= sum_{j>=2} |f^(j)(a)| h^(j-1) / (j-1)!; a
    cell that fails either holds at most the one root its ends show.  Only
    a cell that holds a root of f and one of f' can gain turns, and there
    f at both ends and f' at a lie within `_cell_reach` of zero, so the
    cells are sifted by these cheap bounds first.
    """
    if f.degree < 2:
        return []
    lo, hi = xs[0], xs[-1]
    r, h = max(-lo, hi), (hi - lo) / (len(xs) - 1)
    reach = _cell_reach(f, r, h)
    small = [k for k, v in enumerate(vals) if abs(v) <= reach]
    near = [k for k, j in zip(small, small[1:]) if j == k + 1]
    if not near:
        return []
    g = f.derivative()
    reach = _cell_reach(g, r, h)
    near = [(k, slope) for k in near if (slope := abs(g(xs[k]))) <= reach]
    higher = []
    for _ in range(2, f.degree + 1):
        g = g.derivative()
        higher.append(g)
    out: list[tuple[float, float]] = []
    for k, slope in near:
        a, b = xs[k], xs[k + 1]
        width = b - a
        term = width
        bound0, bound1 = slope * term, 0.0
        for j, g in enumerate(higher, 2):
            d = abs(g(a))
            bound1 = bound1 + d * term
            term = term * width / j
            bound0 = bound0 + d * term
        if not (abs(vals[k]) <= 2.0 * bound0 and slope <= 2.0 * bound1):
            continue
        pts = [(t, f(t)) for t in _turns(f, a, b)]
        fa, fb = vals[k], vals[k + 1]
        if _sign_changes([fa, *(v for _, v in pts), fb]) > _sign_changes([fa, fb]):
            out += pts
    return out


def _cell_reach(f: Poly1, r: float, h: float) -> float:
    """Twice sum_i |c_i| ((r + h)^i - r^i), a bound (with room for rounding)
    on |f(x) - f(a)| for |a| <= r and |x - a| <= h."""
    return 2.0 * sum(abs(c) * ((r + h) ** i - r ** i) for i, c in enumerate(f.coeffs))


def _sign_changes(vals: list[float]) -> int:
    """Sign changes along vals, zeros skipped."""
    signs = [v < 0.0 for v in vals if v != 0.0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _turns(f: Poly1, a: float, b: float) -> list[float]:
    """The turns of f strictly inside (a, b): the sign-change roots (and
    exact zeros) of f' there, ascending.

    f' is monotone between its own turns, so each piece between a, those
    turns and b holds at most one of them."""
    if f.degree <= 1:
        return []
    g = f.derivative()
    pts = [a, *_turns(g, a, b), b]
    return [r for r, _ in sign_change_roots(
        pts, [g(x) for x in pts], lambda brackets: [bisect_root(g, *c) for c in brackets])
        if a < r < b]


def rk4_step_2d(f: Callable[[tuple[float, float]], tuple[float, float]],
                y: tuple[float, float], h: float) -> tuple[float, float]:
    """One classical RK4 step for an autonomous planar field."""
    k1 = f(y)
    k2 = f((y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
    k3 = f((y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
    k4 = f((y[0] + h * k3[0], y[1] + h * k3[1]))
    return (
        y[0] + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y[1] + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
    )


def rk4_step_1d(f: Callable[[float], float], y: float, h: float) -> float:
    """One classical RK4 step for an autonomous scalar field."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

