"""Hand-rolled numerical primitives used by the analysis layers.

These are pinned implementations (grid-scan root isolation + bisection or
vectorised multisection, classical RK4 steps) so that results are
bit-reproducible across platforms.  Library root finders and adaptive
integrators appear only as independent oracles in the test suite.

`scan_roots` evaluates f once per scan, on the whole grid as a numpy array,
and finds the zero and sign-change cells with array masks.  Elementwise
IEEE multiplies and adds round exactly as Python floats do, so a `Poly1`'s
Horner loop gives the same grid values on an array as point by point.
For a polynomial it also splits each cell whose end values hide roots at
the turns inside it, so that every simple root shows as a sign change.

`bisect_root` is the one scalar bisection loop: it refines the roots of
`scan_roots` to width ROOT_XTOL (exact zeros stop early), and it localises
every flow event inside an RK4 substep [0, h], where it stops at
|g| <= `flow.SNAP` or at width 1e-16 * h.  The fixed-point scans refine
their roots on lanes with `multisect_roots`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fields import Poly1

#: Default number of scan cells for root isolation on an interval.
SCAN_CELLS = 512

#: Absolute width to which scan roots are refined; `bisect_root`'s default.
ROOT_XTOL = 1e-12

#: Most halvings `bisect_root` makes.
BISECT_MAX_ITER = 200

#: Sections per round of `multisect_roots`.
MULTISECTIONS = 256


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


def scan_grid(lo: float, hi: float, cells: int) -> np.ndarray:
    """The cells + 1 equally spaced scan points from lo to hi (hi exact),
    each lo + step * k with the same two roundings as on Python floats."""
    xs = lo + (hi - lo) / cells * np.arange(cells + 1)
    xs[-1] = hi
    return xs


Cell = tuple[float, float, float, float]   # (a, b, f(a), f(b))


def sign_change_roots(xs: Sequence[float] | np.ndarray,
                      vals: Sequence[float] | np.ndarray,
                      refine: Callable[[list[Cell]], Sequence[float]]
                      ) -> list[tuple[float, Cell]]:
    """Roots from the values of f on a scan grid (lists or arrays).

    A zero grid value is a root, and every cell whose end values have
    opposite signs holds one.  refine([(a, b, f(a), f(b)), ...]) locates
    the roots of all those cells in a single call, one per cell, the cell
    data being Python floats.  Returns ascending (root, cell) pairs, cell
    being the root's (a, b, f(a), f(b)), or (r, r, 0.0, 0.0) for a zero
    grid value r, with duplicates within a small merge window collapsed.
    """
    v = np.asarray(vals, dtype=float)
    zero, neg = v == 0.0, v < 0.0
    # grid indices of zero values and of sign-change cells, ascending
    flip = ~zero[:-1] & ~zero[1:] & (neg[:-1] != neg[1:])
    hits = np.flatnonzero(np.append(zero[:-1] | flip, zero[-1])).tolist()
    cells = np.flatnonzero(flip).tolist()
    brackets = [(float(xs[k]), float(xs[k + 1]), float(v[k]), float(v[k + 1]))
                for k in cells]
    refined = dict(zip(cells, zip(refine(brackets), brackets)))
    out: list[tuple[float, Cell]] = []
    for k in hits:
        if k in refined:
            r, cell = refined[k]
        else:
            r = float(xs[k])
            cell = (r, r, 0.0, 0.0)
        if out and abs(r - out[-1][0]) <= max(4.0 * ROOT_XTOL, 1e-11 * (1.0 + abs(r))):
            continue
        out.append((r, cell))
    return out


def scan_roots(f: Callable[[float], float], lo: float, hi: float,
               cells: int = SCAN_CELLS) -> list[float]:
    """Sign-change roots of f on [lo, hi]: uniform scan + bisection to
    ROOT_XTOL.

    f maps a point to a value and an array of points to an array of values
    (a `Poly1` does both); the scan makes one call on the whole grid, and
    `bisect_root` refines each sign-change cell with scalar calls.  When f
    is a polynomial (it has `derivative`), a cell that holds more roots
    than its end values show gets its turns as extra scan points (see
    `_hidden_turns`); for any other f such roots go undetected.  Roots of
    even multiplicity (no sign change) are not detected; duplicates within
    a small merge window are collapsed.  Returns an ascending list.
    """
    if not hi > lo:
        return []
    xs = scan_grid(lo, hi, cells)
    vals = f(xs)
    turns = _hidden_turns(f, xs, vals) if hasattr(f, "derivative") else []
    if turns:
        tx, tv = (np.array(t) for t in zip(*turns))
        order = np.argsort(np.concatenate([xs, tx]), kind="stable")
        xs = np.concatenate([xs, tx])[order]
        vals = np.concatenate([vals, tv])[order]
    return [r for r, _ in sign_change_roots(
        xs, vals, lambda brackets: [bisect_root(f, *c) for c in brackets])]


def _hidden_turns(f: Poly1, xs: np.ndarray, vals: np.ndarray
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
    lo, hi = float(xs[0]), float(xs[-1])
    r, h = max(-lo, hi), (hi - lo) / (len(xs) - 1)
    small = np.abs(vals) <= _cell_reach(f, r, h)
    near = np.flatnonzero(small[:-1] & small[1:])
    if near.size == 0:
        return []
    g = f.derivative()
    slope = np.abs(g(xs[near]))
    keep = slope <= _cell_reach(g, r, h)
    near, slope = near[keep], slope[keep]
    if near.size == 0:
        return []
    a, width = xs[near], xs[near + 1] - xs[near]
    term = width
    bound0, bound1 = slope * term, np.zeros(near.shape)
    for j in range(2, f.degree + 1):
        g = g.derivative()
        d = np.abs(g(a))
        bound1 = bound1 + d * term
        term = term * width / j
        bound0 = bound0 + d * term
    out: list[tuple[float, float]] = []
    for k in near[(np.abs(vals[near]) <= 2.0 * bound0) & (slope <= 2.0 * bound1)].tolist():
        pts = [(t, f(t)) for t in _turns(f, float(xs[k]), float(xs[k + 1]))]
        fa, fb = float(vals[k]), float(vals[k + 1])
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


def multisect_roots(f: Callable[[np.ndarray], np.ndarray],
                    cells: Sequence[Cell]) -> list[float]:
    """Roots of f in sign-change cells [(a, b, f(a), f(b)), ...], refined
    together, the vectorised counterpart of `bisect_root`.

    f maps an array of points to an array of values.  Every round evaluates
    f once, at the MULTISECTIONS - 1 interior section points of all open
    cells, and keeps the first sub-cell of each that holds a sign change (an
    exact zero ends its cell), until the width is at most ROOT_XTOL.
    """
    if not cells:
        return []
    a, b, fa, fb = (np.array(c, dtype=float) for c in zip(*cells))
    root = np.full(a.shape, np.nan)
    frac = np.arange(1, MULTISECTIONS) / MULTISECTIONS
    while True:
        live = np.flatnonzero(np.isnan(root) & (b - a > ROOT_XTOL))
        if live.size == 0:
            break
        pts = a[live, None] + (b - a)[live, None] * frac
        vals = f(pts.ravel()).reshape(pts.shape)
        # section points with both cell ends, so the first flip always exists
        xs = np.hstack([a[live, None], pts, b[live, None]])
        fs = np.hstack([fa[live, None], vals, fb[live, None]])
        flip = (fs[:, 1:] == 0.0) | ((fs[:, 1:] < 0.0) != (fs[:, :1] < 0.0))
        j = np.argmax(flip, axis=1) + 1
        rows = np.arange(live.size)
        hit = fs[rows, j] == 0.0
        root[live[hit]] = xs[rows, j][hit]
        a[live], fa[live] = xs[rows, j - 1], fs[rows, j - 1]
        b[live], fb[live] = xs[rows, j], fs[rows, j]
    return np.where(np.isnan(root), 0.5 * (a + b), root).tolist()


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

