"""Planar polynomial two-field systems switched across the cross {x1*x2 = 0}.

Conventions used throughout the package:

- The switching set is the "cross" Sigma = {x1*x2 = 0} = Sigma1 ∪ Sigma2 with
  Sigma1 = {x1 = 0} (running coordinate x2) and Sigma2 = {x2 = 0} (running
  coordinate x1).  Half-branches are named by the sign of the running
  coordinate: Sigma1+ = {x1=0, x2>0}, Sigma2- = {x2=0, x1<0}, etc.
- Field X drives the open region {x1*x2 > 0} (quadrants I and III), field Y
  drives {x1*x2 < 0} (quadrants II and IV).
- Points are plain `(x1, x2)` float tuples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DegenerateInput, NonFiniteCoefficients, ParseError

Point = tuple[float, float]

#: Coefficients below this magnitude are dropped during canonicalization.
CANON_EPS = 1e-15

#: Default cap on the total degree of any field component.
MAX_DEGREE_DEFAULT = 8


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _canonical_terms(terms: Iterable[tuple[int, int, float]]) -> tuple[tuple[int, int, float], ...]:
    acc: dict[tuple[int, int], float] = {}
    for i, j, c in terms:
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise ParseError(f"monomial exponents must be integers, got ({i!r}, {j!r})")
        if i < 0 or j < 0:
            raise ParseError(f"monomial exponents must be non-negative, got ({i}, {j})")
        c = float(c)
        if not math.isfinite(c):
            raise NonFiniteCoefficients(f"non-finite coefficient {c!r} at exponents ({i}, {j})")
        key = (int(i), int(j))
        acc[key] = acc.get(key, 0.0) + c
    kept = sorted((i, j, c) for (i, j), c in acc.items() if abs(c) >= CANON_EPS)
    return tuple(kept)


def _compile_eval(terms: tuple[tuple[int, int, float], ...]) -> Callable[[float, float], float]:
    """Build a fast scalar evaluator (dense two-level Horner)."""
    if not terms:
        return lambda x1, x2: 0.0
    di = max(i for i, _, _ in terms)
    dj = max(j for _, j, _ in terms)
    dense = [[0.0] * (dj + 1) for _ in range(di + 1)]
    for i, j, c in terms:
        dense[i][j] += c
    rows = [tuple(reversed(row)) for row in reversed(dense)]

    def ev(x1: float, x2: float, _rows=rows) -> float:
        s = 0.0
        for row in _rows:
            t = 0.0
            for c in row:
                t = t * x2 + c
            s = s * x1 + t
        return s

    return ev


class Poly2:
    """Sparse bivariate polynomial in (x1, x2) with canonical term storage.

    Terms are `(i, j, c)` = coefficient c on x1^i * x2^j, merged, sorted by
    exponent pair, with |c| < CANON_EPS dropped.  Instances are immutable.
    """

    __slots__ = ("terms", "_eval")

    def __init__(self, terms: Iterable[tuple[int, int, float]] = ()):  # noqa: D401
        object.__setattr__(self, "terms", _canonical_terms(terms))
        object.__setattr__(self, "_eval", _compile_eval(self.terms))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly2 is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], float]) -> "Poly2":
        return cls((i, j, c) for (i, j), c in d.items())

    @classmethod
    def constant(cls, c: float) -> "Poly2":
        return cls([(0, 0, c)])

    # -- basic queries -----------------------------------------------------
    def __call__(self, x1: float, x2: float) -> float:
        return self._eval(x1, x2)

    def eval_point(self, p: Point) -> float:
        return self._eval(p[0], p[1])

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j, _ in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> float:
        for i, j, c in self.terms:
            if i == 0 and j == 0:
                return c
        return 0.0

    def coefficient(self, i: int, j: int) -> float:
        for ti, tj, c in self.terms:
            if ti == i and tj == j:
                return c
        return 0.0

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.terms + other.terms)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.terms + tuple((i, j, -c) for i, j, c in other.terms))

    def __neg__(self) -> "Poly2":
        return Poly2((i, j, -c) for i, j, c in self.terms)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out = []
        for i1, j1, c1 in self.terms:
            for i2, j2, c2 in other.terms:
                out.append((i1 + i2, j1 + j2, c1 * c2))
        return Poly2(out)

    def scale(self, c: float) -> "Poly2":
        return Poly2((i, j, c * coef) for i, j, coef in self.terms)

    def partial(self, axis: int) -> "Poly2":
        """Partial derivative with respect to x1 (axis=1) or x2 (axis=2)."""
        if axis == 1:
            return Poly2((i - 1, j, i * c) for i, j, c in self.terms if i > 0)
        if axis == 2:
            return Poly2((i, j - 1, j * c) for i, j, c in self.terms if j > 0)
        raise ValueError(f"axis must be 1 or 2, got {axis}")

    def restrict_to_branch(self, branch: int) -> "Poly1":
        """Restrict to Sigma_branch as a univariate polynomial in the running
        coordinate (x2 on Sigma1, x1 on Sigma2)."""
        if branch == 1:
            pairs = [(j, c) for i, j, c in self.terms if i == 0]
        elif branch == 2:
            pairs = [(i, c) for i, j, c in self.terms if j == 0]
        else:
            raise ValueError(f"branch must be 1 or 2, got {branch}")
        deg = max((k for k, _ in pairs), default=0)
        coeffs = [0.0] * (deg + 1)
        for k, c in pairs:
            coeffs[k] += c
        return Poly1(coeffs)

    def swap_vars(self) -> "Poly2":
        """The polynomial q with q(x1, x2) = p(x2, x1)."""
        return Poly2((j, i, c) for i, j, c in self.terms)

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly2(0)"
        bits = []
        for i, j, c in self.terms:
            mon = "".join(f"*x{k}^{e}" if e > 1 else (f"*x{k}" if e == 1 else "")
                          for k, e in ((1, i), (2, j)))
            bits.append(f"{c:g}{mon}")
        return "Poly2(" + " + ".join(bits) + ")"


class Poly1:
    """Univariate polynomial, ascending coefficients, immutable."""

    __slots__ = ("coeffs", "_eval")

    def __init__(self, coeffs: Iterable[float]):
        cs = [float(c) for c in coeffs]
        while len(cs) > 1 and abs(cs[-1]) < CANON_EPS:
            cs.pop()
        if not cs:
            cs = [0.0]
        for c in cs:
            if not math.isfinite(c):
                raise NonFiniteCoefficients(f"non-finite coefficient {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))
        rev = tuple(reversed(cs))

        def ev(s: float, _rev=rev) -> float:
            t = 0.0
            for c in _rev:
                t = t * s + c
            return t

        object.__setattr__(self, "_eval", ev)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly1 is immutable")

    def __call__(self, s: float) -> float:
        return self._eval(s)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def derivative(self) -> "Poly1":
        if self.degree == 0:
            return Poly1([0.0])
        return Poly1([k * c for k, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly1({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# fields and systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """One smooth planar polynomial vector field (f1, f2)."""

    f1: Poly2
    f2: Poly2

    def __post_init__(self) -> None:
        deg = max(self.f1.total_degree, self.f2.total_degree)
        if deg > MAX_DEGREE_DEFAULT:
            raise DegenerateInput(
                f"component total degree {deg} exceeds the cap {MAX_DEGREE_DEFAULT}")

    def eval(self, p: Point) -> tuple[float, float]:
        return (self.f1(p[0], p[1]), self.f2(p[0], p[1]))

    def component(self, k: int) -> Poly2:
        if k == 1:
            return self.f1
        if k == 2:
            return self.f2
        raise ValueError(f"component index must be 1 or 2, got {k}")

    def origin_value(self) -> tuple[float, float]:
        return (self.f1.constant_term(), self.f2.constant_term())

    def negate(self) -> "FieldSpec":
        return FieldSpec(-self.f1, -self.f2)

    def scale(self, c: float) -> "FieldSpec":
        return FieldSpec(self.f1.scale(c), self.f2.scale(c))

    def swap_axes(self) -> "FieldSpec":
        """Conjugate by the reflection (x1, x2) -> (x2, x1)."""
        return FieldSpec(self.f2.swap_vars(), self.f1.swap_vars())


@dataclass(frozen=True)
class PiecewiseSystem:
    """The pair Z = (X, Y): X acts on {x1*x2 > 0}, Y on {x1*x2 < 0}."""

    X: FieldSpec
    Y: FieldSpec

    @cached_property
    def det_poly(self) -> Poly2:
        """det Z = X1*Y2 - X2*Y1 as a polynomial (the sliding-field numerator
        up to the scalar factor h_i)."""
        return self.X.f1 * self.Y.f2 - self.X.f2 * self.Y.f1

    def det(self, p: Point) -> float:
        return self.det_poly.eval_point(p)

    def origin_components(self) -> tuple[float, float, float, float]:
        """(X1, X2, Y1, Y2) evaluated at the origin."""
        x1, x2 = self.X.origin_value()
        y1, y2 = self.Y.origin_value()
        return (x1, x2, y1, y2)

    def field(self, name: str) -> FieldSpec:
        if name == "X":
            return self.X
        if name == "Y":
            return self.Y
        raise ValueError(f"field name must be 'X' or 'Y', got {name!r}")

    def negate(self) -> "PiecewiseSystem":
        """Time reversal: both fields negated (region assignment unchanged;
        sliding and escaping roles exchange automatically)."""
        return PiecewiseSystem(self.X.negate(), self.Y.negate())

    def scale(self, c: float) -> "PiecewiseSystem":
        return PiecewiseSystem(self.X.scale(c), self.Y.scale(c))

    def swap_axes(self) -> "PiecewiseSystem":
        """Conjugate by (x1, x2) -> (x2, x1); this keeps {x1*x2>0} invariant,
        so X stays the positive-region field while the branches swap."""
        return PiecewiseSystem(self.X.swap_axes(), self.Y.swap_axes())


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class Region(str, Enum):
    """Complement regions, half-branches and the origin."""

    UPLUS_PLUS = "UplusPlus"      # quadrant I   (x1>0, x2>0) — X active
    UPLUS_MINUS = "UplusMinus"    # quadrant III (x1<0, x2<0) — X active
    UMINUS_PLUS = "UminusPlus"    # quadrant II  (x1<0, x2>0) — Y active
    UMINUS_MINUS = "UminusMinus"  # quadrant IV  (x1>0, x2<0) — Y active
    SIGMA1_PLUS = "Sigma1Plus"
    SIGMA1_MINUS = "Sigma1Minus"
    SIGMA2_PLUS = "Sigma2Plus"
    SIGMA2_MINUS = "Sigma2Minus"
    ORIGIN = "Origin"


_QUADRANTS = {
    (1, 1): Region.UPLUS_PLUS,
    (-1, -1): Region.UPLUS_MINUS,
    (-1, 1): Region.UMINUS_PLUS,
    (1, -1): Region.UMINUS_MINUS,
}

#: Field name active on each open quadrant.
ACTIVE_FIELD = {
    Region.UPLUS_PLUS: "X",
    Region.UPLUS_MINUS: "X",
    Region.UMINUS_PLUS: "Y",
    Region.UMINUS_MINUS: "Y",
}


def region_of(p: Point, tol: float = 1e-12) -> Region:
    """Classify a point into quadrant / half-branch / origin.

    Coordinates with |x| <= tol are treated as exactly on the branch.
    """
    x1, x2 = p
    on1 = abs(x1) <= tol
    on2 = abs(x2) <= tol
    if on1 and on2:
        return Region.ORIGIN
    if on1:
        return Region.SIGMA1_PLUS if x2 > 0 else Region.SIGMA1_MINUS
    if on2:
        return Region.SIGMA2_PLUS if x1 > 0 else Region.SIGMA2_MINUS
    return _QUADRANTS[(1 if x1 > 0 else -1, 1 if x2 > 0 else -1)]


def quadrant_of_signs(s1: int, s2: int) -> Region:
    """Open quadrant with sign(x1)=s1, sign(x2)=s2 (each in {-1, +1})."""
    return _QUADRANTS[(s1, s2)]


def branch_point(branch: int, s: float) -> Point:
    """Point on Sigma_branch at running coordinate s."""
    if branch == 1:
        return (0.0, s)
    if branch == 2:
        return (s, 0.0)
    raise ValueError(f"branch must be 1 or 2, got {branch}")


def running_coordinate(branch: int, p: Point) -> float:
    """Running coordinate of a point assumed to lie on Sigma_branch."""
    return p[1] if branch == 1 else p[0]


def normal_component(field: FieldSpec, branch: int) -> Poly2:
    """Component of the field transversal to Sigma_branch (f1 on Sigma1,
    f2 on Sigma2)."""
    return field.component(branch)


# ---------------------------------------------------------------------------
# JSON representation
# ---------------------------------------------------------------------------

def _poly_to_obj(p: Poly2) -> list[dict]:
    return [{"c": c, "i": i, "j": j} for i, j, c in p.terms]


def _poly_from_obj(obj, where: str) -> Poly2:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of monomials, got {type(obj).__name__}")
    terms = []
    for k, t in enumerate(obj):
        if not isinstance(t, dict) or set(t) != {"c", "i", "j"}:
            raise ParseError(f"{where}[{k}]: expected keys exactly {{c, i, j}}")
        c, i, j = t["c"], t["i"], t["j"]
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ParseError(f"{where}[{k}]: coefficient must be a number")
        if isinstance(i, bool) or isinstance(j, bool) or not isinstance(i, int) or not isinstance(j, int):
            raise ParseError(f"{where}[{k}]: exponents must be integers")
        if not math.isfinite(float(c)):
            raise NonFiniteCoefficients(f"{where}[{k}]: non-finite coefficient")
        if i < 0 or j < 0:
            raise ParseError(f"{where}[{k}]: exponents must be non-negative")
        terms.append((i, j, float(c)))
    return Poly2(terms)


def system_to_obj(Z: PiecewiseSystem) -> dict:
    """Canonical JSON-ready object for a system."""
    return {
        "X": {"f1": _poly_to_obj(Z.X.f1), "f2": _poly_to_obj(Z.X.f2)},
        "Y": {"f1": _poly_to_obj(Z.Y.f1), "f2": _poly_to_obj(Z.Y.f2)},
    }


def system_from_obj(obj) -> PiecewiseSystem:
    """Parse and validate the canonical system object."""
    if not isinstance(obj, dict) or set(obj) != {"X", "Y"}:
        raise ParseError("top level must be an object with keys exactly {X, Y}")
    fields = {}
    for name in ("X", "Y"):
        sub = obj[name]
        if not isinstance(sub, dict) or set(sub) != {"f1", "f2"}:
            raise ParseError(f"{name}: expected an object with keys exactly {{f1, f2}}")
        fields[name] = FieldSpec(
            _poly_from_obj(sub["f1"], f"{name}.f1"),
            _poly_from_obj(sub["f2"], f"{name}.f2"),
        )
    return PiecewiseSystem(fields["X"], fields["Y"])


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def constant_field(v1: float, v2: float) -> FieldSpec:
    return FieldSpec(Poly2.constant(v1), Poly2.constant(v2))


def make_system(X1, X2, Y1, Y2) -> PiecewiseSystem:
    """Build a system from four components given as Poly2, mapping
    {(i, j): c}, or plain numbers (constants)."""

    def as_poly(v) -> Poly2:
        if isinstance(v, Poly2):
            return v
        if isinstance(v, Mapping):
            return Poly2.from_dict(v)
        return Poly2.constant(float(v))

    return PiecewiseSystem(
        FieldSpec(as_poly(X1), as_poly(X2)),
        FieldSpec(as_poly(Y1), as_poly(Y2)),
    )
