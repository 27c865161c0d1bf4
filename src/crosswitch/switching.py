"""Decomposition of the switching cross into crossing / sliding / escaping
arcs, tangency (fold) points, and the pseudo-equilibria of the sliding
vector field on each branch.

Sign conventions: on the half-branch of Sigma_i with running-coordinate sign
h, field X occupies the side where the normal coordinate has sign h and Y
the opposite side.  This is the side rule of `fields` (`FIELD_SIGN`: X
drives {x1*x2 > 0}, Y drives {x1*x2 < 0}) read on one branch.  Writing Xi,
Yi for the normal components,

    crossing  <=>  Xi*Yi > 0,
    sliding   <=>  h*Xi < 0 and h*Yi > 0   (both fields point at the branch),
    escaping  <=>  h*Xi > 0 and h*Yi < 0   (both fields point away).

The sliding field on Sigma_i factors as  Z_i^s(s) = N_i(s) / D_i(s)  with
N_i = (det Z)|Sigma_i and D_i = (-1)^(i-1) * (X_i - Y_i)|Sigma_i, where
det Z = X1*Y2 - X2*Y1.  It is an object of the system, as det Z is:
`fields.SlidingField`, built once per system and branch by
`PiecewiseSystem.sliding_field`.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import ParseError, TooManyTangencies, require_positive
from .fields import FIELD_SIGN, FieldSpec, PiecewiseSystem, Point, branch_point
from .numerics import scan_roots

#: Degeneracy band of every sign decision, relative to the quantity's own
#: scale (`scaled_band`): `field_scale` for a field component, its square
#: for a product of two (det Z, a Lie value), 1 for alpha, beta and eta,
#: which time scaling leaves unchanged.  So Z and c*Z, c > 0, get the same
#: verdicts.
BAND = 1e-9


def field_scale(Z: PiecewiseSystem, p: Point) -> float:
    """Max absolute field component at p — the local scale for tolerances.
    Reads the components' own evaluators, so that a field looked at only
    here compiles no `FieldSpec.compiled_eval`."""
    return max(abs(Z.X.f1.eval_point(p)), abs(Z.X.f2.eval_point(p)),
               abs(Z.Y.f1.eval_point(p)), abs(Z.Y.f2.eval_point(p)))


def scaled_band(scale):
    """The band for a quantity of the given scale (a float, or an array of
    them on lanes): BAND * scale, with no absolute floor."""
    return BAND * scale


def _origin_gap(reach: float) -> float:
    """The origin's gap in the branch coordinate for a window reaching
    |s| <= reach: BAND on windows of reach >= 1, proportionally less on
    narrower ones, so a tiny window (a subnormal one included) keeps its
    interior.  A root with |s| within it is the origin, not an object of
    an open half-branch."""
    return BAND * min(reach, 1.0)


def component_tolerance(Z: PiecewiseSystem, p: Point) -> float:
    """Degeneracy band for one field component (or a quantity of the same
    scale) at p, normal components of the branches included."""
    return scaled_band(field_scale(Z, p))


def vanishing_components(Z: PiecewiseSystem) -> list[tuple[str, int]]:
    """The components ("X"|"Y", 1|2) with |value at 0| <= the component
    tolerance there.  The one test of "X_i(0) or Y_i(0) vanishes": the
    classifier, the half-map charts and the flow at the origin all use it.
    Raises ParseError when the field scale at the origin is not 0 and lies
    outside [2**-500, 2**500], where products of two components underflow
    or overflow."""
    scale = field_scale(Z, (0.0, 0.0))
    if scale and not 2.0 ** -500 <= scale <= 2.0 ** 500:
        raise ParseError(f"the field scale at the origin, {scale!r}, is outside "
                         "[2**-500, 2**500]")
    tol = scaled_band(scale)
    x1, x2, y1, y2 = Z.origin_components()
    return [k for k, v in ((("X", 1), x1), (("X", 2), x2),
                           (("Y", 1), y1), (("Y", 2), y2)) if abs(v) <= tol]


class ArcKind(str, Enum):
    CROSSING = "crossing"
    SLIDING = "sliding"
    ESCAPING = "escaping"
    TANGENCY = "tangency"


#: One-letter codes used in outward kind sequences.
SHORT_CODE = {
    ArcKind.CROSSING: "c",
    ArcKind.SLIDING: "s",
    ArcKind.ESCAPING: "e",
    ArcKind.TANGENCY: "t",
}


class Visibility(str, Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"
    DEGENERATE = "degenerate"


def branch_point_class(Z: PiecewiseSystem, branch: int, s: float) -> ArcKind:
    """Classify the branch point at running coordinate s != 0 on Sigma_branch."""
    if s == 0.0:
        raise ValueError("the origin does not lie on an open half-branch")
    p = branch_point(branch, s)
    xn = Z.X.component(branch).eval_point(p)
    yn = Z.Y.component(branch).eval_point(p)
    tol = component_tolerance(Z, p)
    if abs(xn) <= tol or abs(yn) <= tol:
        return ArcKind.TANGENCY
    if (xn > 0.0) == (yn > 0.0):   # both nonzero here: the signs decide
        return ArcKind.CROSSING
    h = 1.0 if s > 0.0 else -1.0
    return ArcKind.SLIDING if h * xn < 0.0 else ArcKind.ESCAPING


# ---------------------------------------------------------------------------
# tangency (fold) points
# ---------------------------------------------------------------------------

def fold_lie_value(field: FieldSpec, branch: int, p: Point) -> float:
    """Second-order contact quantity W_j * dW_i/dx_j at a point with W_i = 0
    (i = branch = normal index, j = the running index)."""
    i = branch
    j = 2 if branch == 1 else 1
    wj = field.component(j).eval_point(p)
    dwi = field.component(i).partial(j).eval_point(p)
    return wj * dwi


def fold_visibility(field_name: str, lie: float, s: float, tol: float) -> Visibility:
    """Visible = the field's parabolic arc stays in its own active region.

    For field X (active where x1*x2 > 0) this happens iff sign(lie) equals
    sign(s); for Y (`FIELD_SIGN` -1) the rule flips.
    """
    if abs(lie) <= tol:
        return Visibility.DEGENERATE
    h = 1.0 if s > 0.0 else -1.0
    return (Visibility.VISIBLE if FIELD_SIGN[field_name] * lie * h > 0.0
            else Visibility.INVISIBLE)


class TangencyPoint(NamedTuple):
    """Fold of one field with one branch (W_i = 0 at an isolated point)."""

    field: str            # "X" or "Y"
    branch: int           # 1 or 2
    s: float              # running coordinate
    point: Point
    lie: float            # W_j * dW_i/dx_j at the point
    visibility: Visibility

    @property
    def half(self) -> int:
        return 1 if self.s > 0.0 else -1


def find_tangencies(Z: PiecewiseSystem, branch: int,
                    lo: float, hi: float) -> list[TangencyPoint]:
    """Folds of X and Y on Sigma_branch with running coordinate in [lo, hi],
    sorted by (s, field).  A root with |s| <= `_origin_gap` of the window's
    reach max(|lo|, |hi|) is the origin and is excluded.

    Raises TooManyTangencies when a normal component vanishes identically on
    the branch (every point would be a tangency).
    """
    gap = _origin_gap(max(abs(lo), abs(hi)))
    out: list[TangencyPoint] = []
    for name in ("X", "Y"):
        field = Z.field(name)
        restricted = field.component(branch).restrict_to_branch(branch)
        if restricted.is_zero:
            raise TooManyTangencies(
                f"{name}{branch} vanishes identically on Sigma{branch}")
        for s in scan_roots(restricted, lo, hi):
            if abs(s) <= gap:
                continue
            p = branch_point(branch, s)
            lie = fold_lie_value(field, branch, p)
            # the Lie value is a product of two components
            vis = fold_visibility(name, lie, s, scaled_band(field_scale(Z, p) ** 2))
            out.append(TangencyPoint(name, branch, s, p, lie, vis))
    out.sort(key=lambda t: (t.s, t.field))
    return out


# ---------------------------------------------------------------------------
# decomposition into arcs
# ---------------------------------------------------------------------------

class Arc(NamedTuple):
    """Open sub-arc of one half-branch with a single region kind.

    inner/outer are signed running coordinates with |inner| < |outer|; the
    arc is ordered outward from the origin.
    """

    branch: int
    half: int
    inner: float
    outer: float
    kind: ArcKind


class SigmaDecomposition(NamedTuple):
    """Arcs and tangency points on all four half-branches within a radius."""

    radius: float
    arcs: tuple[Arc, ...]
    tangencies: tuple[TangencyPoint, ...]

    def half_branch(self, branch: int, half: int) -> tuple[Arc, ...]:
        return tuple(a for a in self.arcs if a.branch == branch and a.half == half)

    def kind_sequence(self, branch: int, half: int) -> tuple[str, ...]:
        """One-letter kinds ordered outward from the origin."""
        return tuple(SHORT_CODE[a.kind] for a in self.half_branch(branch, half))


def sigma_decomposition(Z: PiecewiseSystem, radius: float = 1.0) -> SigmaDecomposition:
    """Decompose all four half-branches within |s| <= radius into arcs of
    constant kind separated by tangency points.  Every tangency that
    `find_tangencies` lists inside the radius is an arc end.  Arcs come in
    (branch, -half, |inner|) order, tangencies in (branch, s, field) order.
    Raises ParseError unless the radius is positive and finite."""
    require_positive("radius", radius)
    arcs: list[Arc] = []
    tangencies: list[TangencyPoint] = []
    for branch in (1, 2):
        found = find_tangencies(Z, branch, -radius, radius)
        tangencies.extend(found)
        for half in (1, -1):
            cuts = sorted({abs(t.s) for t in found
                           if t.half == half and abs(t.s) < radius})
            stops = [0.0] + cuts + [radius]
            for lo_abs, hi_abs in zip(stops, stops[1:]):
                # an arc (0, 5e-324] has no midpoint: classify its outer end
                mid = half * (0.5 * (lo_abs + hi_abs) or hi_abs)
                kind = branch_point_class(Z, branch, mid)
                arcs.append(Arc(branch, half, half * lo_abs, half * hi_abs, kind))
    return SigmaDecomposition(radius, tuple(arcs), tuple(tangencies))


# ---------------------------------------------------------------------------
# pseudo-equilibria
# ---------------------------------------------------------------------------

class PseudoEquilibrium(NamedTuple):
    """Zero of the sliding field inside a sliding or escaping arc."""

    branch: int
    s: float
    point: Point
    region_kind: ArcKind          # SLIDING or ESCAPING
    derivative: float             # d(N/D)/ds at the zero
    hyperbolic: bool
    stability: str | None         # "attracting" | "repelling" | None


def pseudo_equilibria(Z: PiecewiseSystem, branch: int,
                      radius: float = 1.0) -> list[PseudoEquilibrium]:
    """Pseudo-equilibria on Sigma_branch with `_origin_gap(radius)` < |s| <=
    radius.

    Zeros of det Z restricted to the branch, kept only where the branch point
    lies in a sliding or escaping region (normal components of opposite sign).
    The origin is excluded: a vanishing determinant there is an organizing-
    center condition handled by the classifier.  Where det Z vanishes on
    the whole branch, every point of a sliding or escaping arc would be one:
    raises TooManyTangencies if the branch has such an arc, else returns [].
    Raises ParseError unless the radius is positive and finite.
    """
    require_positive("radius", radius)
    sf = Z.sliding_field(branch)
    if sf.numerator.is_zero:
        if any(a.branch == branch and a.kind in (ArcKind.SLIDING, ArcKind.ESCAPING)
               for a in sigma_decomposition(Z, radius).arcs):
            raise TooManyTangencies(f"det Z vanishes identically on Sigma{branch}")
        return []
    gap = _origin_gap(radius)
    roots: list[float] = []
    for lo, hi in ((-radius, -gap), (gap, radius)):
        # gap underflows to 0 for a subnormal radius: drop the origin
        roots.extend(s for s in scan_roots(sf.numerator, lo, hi) if s != 0.0)
    out: list[PseudoEquilibrium] = []
    for s0 in sorted(roots):
        kind = branch_point_class(Z, branch, s0)
        if kind not in (ArcKind.SLIDING, ArcKind.ESCAPING):
            continue
        p = branch_point(branch, s0)
        der = sf.derivative_at_root(s0)
        hyper = abs(der) > component_tolerance(Z, p)
        stability = None
        if hyper:
            stability = "attracting" if der < 0.0 else "repelling"
        out.append(PseudoEquilibrium(branch, s0, p, kind, der, hyper, stability))
    return out
