"""Hand-rolled numerical primitives used by the analysis layers.

These are pinned implementations (grid-scan root isolation + bisection or
vectorised multisection, classical RK4 steps, central difference quotients)
so that results are bit-reproducible across platforms.  Library root finders
and adaptive integrators appear only as independent oracles in the test
suite.

`bisect_root` is the one scalar bisection loop: it refines the roots of
`scan_roots` and of the fixed-point scans to width ROOT_XTOL (exact zeros
stop early), and it localises every flow event inside an RK4 substep
[0, h], where it stops at |g| <= `flow.SNAP` or at width 1e-16 * h.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Default number of scan cells for root isolation on an interval.
SCAN_CELLS = 512

#: Default absolute width tolerance for bisection refinement.
ROOT_XTOL = 1e-12

#: Sections per round of `multisect_roots`.
MULTISECTIONS = 256


def bisect_root(f: Callable[[float], float], a: float, b: float,
                fa: float | None = None, fb: float | None = None,
                xtol: float = ROOT_XTOL, max_iter: int = 200,
                ftol: float = 0.0) -> float:
    """Bisection on a bracketing interval [a, b] (f(a), f(b) opposite signs).

    Returns the first of a, b and the midpoints where |f| <= ftol, else the
    midpoint of the first bracket no wider than xtol (or of the last one
    after max_iter halvings).  With ftol = 0 only an exact zero stops early.
    """
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if abs(fa) <= ftol:
        return a
    if abs(fb) <= ftol:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("bisect_root: interval does not bracket a sign change")
    for _ in range(max_iter):
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
    """The cells + 1 equally spaced scan points from lo to hi (hi exact)."""
    step = (hi - lo) / cells
    xs = [lo + step * k for k in range(cells + 1)]
    xs[-1] = hi
    return xs


Cell = tuple[float, float, float, float]   # (a, b, f(a), f(b))


def sign_change_roots(xs: Sequence[float], vals: Sequence[float],
                      refine: Callable[[list[Cell]], Sequence[float]],
                      xtol: float = ROOT_XTOL) -> list[tuple[float, tuple[float, float]]]:
    """Roots from the values of f on a scan grid.

    A zero grid value is a root, and every cell whose end values have
    opposite signs holds one.  refine([(a, b, f(a), f(b)), ...]) locates
    the roots of all those cells in a single call, one per cell.  Returns
    ascending (root, (a, b)) pairs, (a, b) being the root's cell, with
    duplicates within a small merge window collapsed.
    """
    # grid indices of zero values and of sign-change cells, ascending
    hits = [k for k, (fa, fb) in enumerate(zip(vals, vals[1:]))
            if fa == 0.0 or (fb != 0.0 and (fa < 0.0) != (fb < 0.0))]
    if vals[-1] == 0.0:
        hits.append(len(vals) - 1)
    cells = [k for k in hits if vals[k] != 0.0]
    refined = dict(zip(cells, refine([(xs[k], xs[k + 1], vals[k], vals[k + 1])
                                      for k in cells])))
    out: list[tuple[float, tuple[float, float]]] = []
    for k in hits:
        if k in refined:
            r, cell = refined[k], (xs[k], xs[k + 1])
        else:
            r, cell = xs[k], (xs[k], xs[k])
        if out and abs(r - out[-1][0]) <= max(4.0 * xtol, 1e-11 * (1.0 + abs(r))):
            continue
        out.append((r, cell))
    return out


def scan_roots(f: Callable[[float], float], lo: float, hi: float,
               cells: int = SCAN_CELLS, xtol: float = ROOT_XTOL) -> list[float]:
    """Sign-change roots of f on [lo, hi]: uniform scan + bisection.

    Roots of even multiplicity (no sign change) are not detected; duplicates
    within a small merge window are collapsed.  Returns an ascending list.
    """
    if not hi > lo:
        return []
    xs = scan_grid(lo, hi, cells)
    vals = [f(x) for x in xs]
    return [r for r, _ in sign_change_roots(
        xs, vals, lambda brackets: [bisect_root(f, *c, xtol) for c in brackets], xtol)]


def multisect_roots(f: Callable[[np.ndarray], np.ndarray],
                    cells: Sequence[Cell],
                    xtol: float = ROOT_XTOL) -> list[float]:
    """Roots of f in sign-change cells [(a, b, f(a), f(b)), ...], refined
    together, the vectorised counterpart of `bisect_root`.

    f maps an array of points to an array of values.  Every round evaluates
    f once, at the MULTISECTIONS - 1 interior section points of all open
    cells, and keeps the first sub-cell of each that holds a sign change (an
    exact zero ends its cell), until the width is at most xtol.
    """
    if not cells:
        return []
    a, b, fa, fb = (np.array(c, dtype=float) for c in zip(*cells))
    root = np.full(a.shape, np.nan)
    frac = np.arange(1, MULTISECTIONS) / MULTISECTIONS
    while True:
        live = np.flatnonzero(np.isnan(root) & (b - a > xtol))
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


def central_slope(f: Callable[[float], float], x: float, h: float) -> float:
    """Plain central difference quotient (O(h^2))."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


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

