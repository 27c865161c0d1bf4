"""Hand-rolled numerical primitives used by the analysis layers.

These are pinned implementations (certified root isolation + bisection,
classical RK4 steps) so that results are bit-reproducible across
platforms.  Library root finders and adaptive integrators appear only as
independent oracles in the test suite.  Nothing here needs arrays, and this
module imports no numpy: the lane code of the fixed-point scans lives in
`lanes`, which only the verbs that run lanes import.

`scan_roots` isolates the roots of a branch polynomial (`Poly1`) with one
certified test, `_bernstein_sign`, and signs certified (or exact) at the
ends of the pieces it leaves (`_isolate`); it refines each root in the cell
where a grid scan would, so the bits are a grid scan's wherever no grid
cell holds two roots.

`bisect_root` is the one scalar bisection loop, with no iteration cap: it
refines the roots of `scan_roots` to width ROOT_XTOL or to adjacent floats
(exact zeros stop early), and it localises every flow event inside an RK4
substep [0, h], where it stops at |g| <= `flow.SNAP` or at width 1e-16 * h.
`sign_change_roots` keeps one root per zero and per sign change of a scan.
The fixed-point scans refine their roots on lanes with `lanes.multisect_roots`.
"""
from __future__ import annotations

import math
from operator import mul
from typing import Callable, Sequence

from .fields import Poly1

#: Default number of grid cells of a scan; a root is refined in its grid cell.
SCAN_CELLS = 512

#: Absolute width to which scan roots are refined; `bisect_root`'s default.
ROOT_XTOL = 1e-12


def bisect_root(f: Callable[[float], float], a: float, b: float,
                fa: float, fb: float,
                xtol: float = ROOT_XTOL, ftol: float = 0.0) -> float:
    """Bisection on a bracketing interval [a, b] with fa = f(a) and
    fb = f(b) of opposite signs.

    Returns the first of a, b and the midpoints where |f| <= ftol, else the
    midpoint of the first bracket that is no wider than xtol or whose
    midpoint does not lie strictly inside it (its ends are adjacent
    floats).  Every float bracket ends so.  With ftol = 0 only an exact
    zero stops early.
    """
    if abs(fa) <= ftol:
        return a
    if abs(fb) <= ftol:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("bisect_root: interval does not bracket a sign change")
    while True:
        m = 0.5 * (a + b)
        if (b - a) <= xtol or not a < m < b:
            return m
        fm = f(m)
        if abs(fm) <= ftol:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm


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
    or (r, r, 0.0, 0.0) for a zero grid value r: every zero grid value and
    every sign-change cell yields its own root, however close to the next.
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
    return [(xs[k], (xs[k], xs[k], 0.0, 0.0)) if vals[k] == 0.0 else next(refined)
            for k in hits]


def scan_roots(f: Callable[[float], float], lo: float, hi: float,
               cells: int = SCAN_CELLS) -> list[float]:
    """Roots of f on [lo, hi], ascending, each refined by `bisect_root` to
    ROOT_XTOL.  Raises ValueError for the zero polynomial.

    A `Poly1` has its roots bracketed by certified signs (`_isolate`), and
    each bracket is bisected; the root is then refined again in the
    `scan_grid` cell holding it, if that cell's computed end values change
    sign and the result stays in the bracket.  So where no grid cell holds
    two roots the bits are a grid scan's.  Any other f is scanned on the
    grid (`sign_change_roots`), which misses roots hidden in a cell and
    roots of even multiplicity.
    """
    if not hi > lo:
        return []
    if not isinstance(f, Poly1):
        xs = scan_grid(lo, hi, cells)
        return [r for r, _ in sign_change_roots(
            xs, [f(x) for x in xs], lambda brackets: [bisect_root(f, *c) for c in brackets])]
    if f.is_zero:
        raise ValueError("scan_roots: the zero polynomial vanishes everywhere")
    lo += 0.0           # as scan_grid's first point: 0.0 for a window from -0.0
    step = (hi - lo) / cells

    def grid(k: int) -> float:
        return hi if k == cells else lo + step * k

    roots = []
    for a, b, fa, fb in _isolate(f, lo, hi):
        r = bisect_root(f, a, b, fa, fb)
        # the grid cell holding r, which a grid scan bisects if its values
        # change sign; a cell that hides other roots may yield one of them.
        # A window so narrow that its step underflows to 0 has no cells.
        if step > 0.0:
            k = min(max(int((r - lo) / step), 0), cells - 1)
            k += (k + 1 < cells and grid(k + 1) <= r) - (k > 0 and grid(k) > r)
            va, vb = f(grid(k)), f(grid(k + 1))
            if a < b and va != 0.0 and vb != 0.0 and (va < 0.0) != (vb < 0.0):
                c = bisect_root(f, grid(k), grid(k + 1), va, vb)
                r = c if a - ROOT_XTOL <= c <= b + ROOT_XTOL else r
        roots.append(r)
    return roots


def _isolate(f: Poly1, lo: float, hi: float) -> list[Cell]:
    """Brackets of the roots of a nonzero f on [lo, hi], ascending: (x, x,
    0.0, 0.0) for a zero x, (a, b, sa, sb) for a stretch whose ends have
    the signs sa, sb (-1.0 or 1.0) of f and hold a root between them.

    [lo, hi] is halved until `_bernstein_sign` shows, on each piece, f of one
    sign (no root), or f' of one sign (f monotone), or the piece narrower
    than ROOT_XTOL (1 + |a|), or |f| too small, at every point of the piece
    that lies between two of its roots, for the sign test on that point: a
    cluster of roots that no certified sign separates.  Each piece end takes
    its certified sign, or else the sign of f in exact arithmetic.  One root
    lies between neighbouring ends whose signs (-, 0, +) differ, at the end
    where f is 0 if there is one; the other roots of a cluster are not seen.
    """
    if f.degree == 0:
        return []
    # scaled by a power of two, exactly, so that its largest coefficient is
    # at least 1: the signs are f's, and the sign test's underflow floor
    # (2^-999 and up) no longer hides an f whose values all lie below it,
    # which would be halved down to pieces of width ROOT_XTOL
    big = max(abs(c) for c in f.coeffs)
    if big < 1.0:
        f = Poly1([math.ldexp(c, 1 - math.frexp(big)[1]) for c in f.coeffs])
    g = f.derivative()
    kept, todo = [], [(lo, hi)]
    while todo:
        a, b = todo.pop()
        sign, top = _bernstein_sign(f, a, b)
        if sign:
            continue
        quiet = _quiet(f.coeffs, 0.0 if a <= 0.0 <= b else min(abs(a), abs(b)))
        gsign, gtop = (0, 0.0) if top <= quiet else _bernstein_sign(g, a, b)
        if gsign or (b - a) * gtop <= 2.0 * quiet or b - a <= ROOT_XTOL * (1.0 + abs(a)):
            kept.append((a, b))
        else:
            m = 0.5 * (a + b)
            todo += [(m, b), (a, m)]
    pts = []
    for x in sorted({x for piece in kept for x in piece}):
        sign = _bernstein_sign(f, x, x)[0]
        if not sign:
            from fractions import Fraction     # loaded by the first uncertified sign
            e = sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(f.coeffs))
            sign = (e > 0) - (e < 0)
        pts.append((x, float(sign)))
    out: list[Cell] = []
    for (a, fa), (b, fb) in zip(pts, pts[1:]):
        if fa == fb:
            continue
        cell = ((b, b, 0.0, 0.0) if fb == 0.0 else (a, a, 0.0, 0.0) if fa == 0.0
                else (a, b, fa, fb))
        if not out or out[-1] != cell:     # a zero between two changes of sign
            out.append(cell)
    return out


def _bernstein_sign(f: Poly1, lo: float, hi: float) -> tuple[int, float]:
    """(sign, top): sign is 1 or -1 only if f has that sign on [lo, hi] and
    so has its Horner value at every float there (a scan of [lo, hi] then
    finds no root), else 0; top bounds |f| on [lo, hi] (inf on overflow).

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

    A sign asks every computed b_k to have it and to exceed, in it, the
    margin 2 (7n + 7) u P(rho) + tiny, tiny = 2^-999 (2 + 2 rho)^(2n),
    twice the sum of these bounds; an overflow anywhere fails it.  So a
    point x with a sign has |f(x)| > (12n + 13) u P(|x|) exactly.  top is
    the largest computed |b_k| plus (5n + 3) u P(rho) + tiny.
    """
    cs = f.coeffs
    n = len(cs) - 1
    w = math.nextafter(hi - lo, math.inf)
    rho = math.nextafter(abs(lo) + w, math.inf)
    try:
        tiny = 2.0 ** -999 * (2.0 + 2.0 * rho) ** (2 * n)
    except OverflowError:
        return 0, math.inf
    bound = sum(abs(c) * rho ** i for i, c in enumerate(cs))
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
    sign = (1 if all(margin < v < math.inf for v in b)
            else -1 if all(-math.inf < v < -margin for v in b) else 0)
    top = max(abs(v) if v == v else math.inf for v in b)
    return sign, top + (5 * n + 3) * 2.0 ** -53 * bound + tiny


def _quiet(cs: Sequence[float], r: float) -> float:
    """12 n u P(r), below which |f(x)| at a point |x| >= r gets no sign from
    `_bernstein_sign`; inf where that test overflows at r, so at every such x."""
    try:
        (2.0 + 2.0 * r) ** (2 * len(cs) - 2)
    except OverflowError:
        return math.inf
    return 12 * (len(cs) - 1) * 2.0 ** -53 * sum(abs(c) * r ** i for i, c in enumerate(cs))


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

