"""Planar polynomial two-field systems switched across the cross {x1*x2 = 0}.

Conventions used throughout the package:

- The switching set is the "cross" Sigma = {x1*x2 = 0} = Sigma1 ∪ Sigma2 with
  Sigma1 = {x1 = 0} (running coordinate x2) and Sigma2 = {x2 = 0} (running
  coordinate x1).  Half-branches are named by the sign of the running
  coordinate: Sigma1+ = {x1=0, x2>0}, Sigma2- = {x2=0, x1<0}, etc.
- Field X drives the open region {x1*x2 > 0} (quadrants I and III), field Y
  drives {x1*x2 < 0} (quadrants II and IV).  This side rule is written once,
  as `FIELD_SIGN` (the sign of x1*x2 on each field's own quadrants) and
  `active_field` built on it; the flow, the fold visibility and the return
  map's chart legs all read it from there.
- Points are plain `(x1, x2)` float tuples.
- Records are `typing.NamedTuple`s.  The three that cache (`FieldSpec`,
  `SlidingField`, `PiecewiseSystem`) subclass one without `__slots__`, so
  each `cached_property` has a `__dict__`, and refuse attribute assignment.

Evaluation: every polynomial evaluates by one dense Horner loop over its
coefficients, in evaluation order.  A `Poly1` stores them reversed when it
is built.  A `Poly2` runs a two-level loop over `_rows`, which a
`cached_property` builds on first use, as many polynomials (swapped chart
polynomials, intermediate products) are never evaluated.  A `FieldSpec`
evaluates through one generated function, `compiled_eval`, also built on
first use: the nonzero operations of both components' Horner loops, in
the loops' order, unrolled into straight-line code (`_horner_source`).  At
finite arguments its values equal the loops' bit for bit, the sign of a
zero included; only a non-finite argument, where a loop's `0.0 * inf` gives
NaN, can tell them apart.  The event-driven flow evaluates one field
hundreds of thousands of times and binds `compiled_eval` directly, and the
lane route of the fixed-point scans (`lanes`) runs it on numpy lanes.  The
numeric half-map fit is the second compiled user: it compiles its chart
slope num/den from the two polynomials' `source()` once per fitted half
(`returnmap._chart_slope`), and its DOP853 legs call it some 400 times.
Other `Poly2`s keep the loop because the classifier evaluates most of its
polynomials only a few times, which would not pay for a compilation each.
The sliding field N/D on each branch is an object of the system, as det Z
is: `PiecewiseSystem.sliding_field(branch)` returns one `SlidingField` per
branch, whose generated `value` is also built on first use, so it compiles
once per system (and once per negated system, itself built once).  The
half-map jets evaluate no polynomial: `series` reads the chart
polynomials' terms of total degree at most 2.
"""
from __future__ import annotations

import math
from functools import cached_property
from numbers import Integral
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import (
    DegenerateInput,
    EvaluationOutsideDomain,
    NonFiniteCoefficients,
    ParseError,
)

Point = tuple[float, float]

#: Default cap on the total degree of any field component.
MAX_DEGREE_DEFAULT = 8


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _as_float(c) -> float:
    """float(c), with an int too large for a float read as the infinity of
    its sign, where float() raises OverflowError."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _canonical_terms(terms: Iterable[tuple[int, int, float]]) -> tuple[tuple[int, int, float], ...]:
    acc: dict[tuple[int, int], float] = {}
    for i, j, c in terms:
        if not (isinstance(i, Integral) and isinstance(j, Integral)):
            raise ParseError(f"monomial exponents must be integers, got ({i!r}, {j!r})")
        if i < 0 or j < 0:
            raise ParseError(f"monomial exponents must be non-negative, got ({i}, {j})")
        key = (int(i), int(j))
        acc[key] = acc.get(key, 0.0) + _as_float(c)
    kept = sorted((i, j, c) for (i, j), c in acc.items() if c)
    for i, j, c in kept:   # a sum of finite terms can overflow too
        if not math.isfinite(c):
            raise NonFiniteCoefficients(f"non-finite coefficient {c!r} at exponents ({i}, {j})")
    return tuple(kept)


def _horner_source(coeffs: Iterable[str | None], var: str) -> str | None:
    """Source of what `t = 0.0; for c in coeffs: t = t * var + c` computes,
    with only the loop's nonzero operations, in its order; None when every
    slot is zero.  A coefficient is its source text, or None for a zero.

    The leading zero slots go, and the first nonzero coefficient is the
    start value: at a finite var the loop holds 0.0 until it adds that
    coefficient.  A later zero slot keeps only its multiplication: its
    addition of 0.0 can only turn a -0.0 into 0.0.  So at a finite var the
    result is the loop's up to the sign of a zero (see `_polynomial_source`).
    """
    src = None
    for c in coeffs:
        if src is None:
            src = c
        elif c is None:
            src = f"({src} * {var})"
        else:
            src = f"({src} * {var} + {c})"
    return src


def _literals(coeffs: Iterable[float]) -> Iterable[str | None]:
    """The coefficients as `_horner_source` reads them."""
    return (float.__repr__(c) if c else None for c in coeffs)


def _polynomial_source(src: str | None, constant: float) -> str:
    """The expression of a polynomial from the `_horner_source` of its
    Horner loop: "0.0" when every coefficient is zero, and one final
    `+ 0.0` when the constant term is zero, as the loop's last operation
    then is.  A zero that the dropped operations leave with the other sign
    is either replaced by the next nonzero coefficient or still a zero at
    that final addition, so at finite arguments the expression equals the
    loop bit for bit."""
    if src is None:
        return "0.0"
    return src if constant else f"({src} + 0.0)"


def compile_function(name: str, source: str, **env) -> Callable:
    """The function `name` defined by generated source text.

    Callers build the source only from fixed identifiers and float constants
    written with `float.__repr__`, which reads back as the same float, so
    the generated code computes what the loop it unrolls computes, bit for
    bit.  env holds the globals the source refers to.
    """
    namespace = dict(env)
    exec(compile(source, f"<crosswitch {name}>", "exec"), namespace)
    return namespace[name]


class Poly2:
    """Sparse bivariate polynomial in (x1, x2) with canonical term storage.

    Terms are `(i, j, c)` = coefficient c on x1^i * x2^j, merged, sorted by
    exponent pair, with exact zeros dropped (however small the others are,
    so that c*Z has the terms of Z for every c > 0).  Instances are immutable;
    `_rows`, the Horner coefficients, is built on first use.
    """

    def __init__(self, terms: Iterable[tuple[int, int, float]] = ()):  # noqa: D401
        object.__setattr__(self, "terms", _canonical_terms(terms))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly2 is immutable")

    @cached_property
    def _rows(self) -> list[tuple[float, ...]]:
        """Coefficients of the dense two-level Horner scheme, in evaluation
        order: one row per power of x1 (highest first), each row highest
        power of x2 first, with zeros where a monomial is missing."""
        if not self.terms:
            return []
        dense = [[0.0] * (max(j for _, j, _ in self.terms) + 1)
                 for _ in range(max(i for i, _, _ in self.terms) + 1)]
        for i, j, c in self.terms:
            dense[i][j] += c
        return [tuple(reversed(row)) for row in reversed(dense)]

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], float]) -> "Poly2":
        return cls((i, j, c) for (i, j), c in d.items())

    @classmethod
    def constant(cls, c: float) -> "Poly2":
        return cls([(0, 0, c)])

    # -- basic queries -----------------------------------------------------
    def __call__(self, x1: float, x2: float) -> float:
        s = 0.0
        for row in self._rows:
            t = 0.0
            for c in row:
                t = t * x2 + c
            s = s * x1 + t
        return s

    def eval_point(self, p: Point) -> float:
        return self(p[0], p[1])

    def source(self) -> str:
        """Straight-line expression of this polynomial in the variables x1
        and x2: the nonzero operations of `__call__`'s loop, in its order,
        equal to it bit for bit at finite arguments.  An all-zero row keeps
        only the multiplication by x1."""
        rows = (_horner_source(_literals(row), "x2") for row in self._rows)
        return _polynomial_source(_horner_source(rows, "x1"), self.constant_term())

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
    """Univariate polynomial, ascending coefficients, immutable.

    A -0.0 coefficient is stored as 0.0 (a negated zero slot makes one), so
    that `__call__`, like `Poly2`'s loop, never returns -0.0 at a finite s,
    and `source()` can match it.
    """

    __slots__ = ("coeffs", "_rev")

    def __init__(self, coeffs: Iterable[float]):
        cs = [float(c) + 0.0 for c in coeffs]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [0.0]
        for c in cs:
            if not math.isfinite(c):
                raise NonFiniteCoefficients(f"non-finite coefficient {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_rev", tuple(reversed(cs)))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly1 is immutable")

    def __call__(self, s: float) -> float:
        t = 0.0
        for c in self._rev:
            t = t * s + c
        return t

    def source(self) -> str:
        """Straight-line expression of this polynomial in the variable s:
        the nonzero operations of `__call__`'s loop, in its order, equal to
        it bit for bit at finite s."""
        return _polynomial_source(_horner_source(_literals(self._rev), "s"),
                                  self.coeffs[0])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def derivative(self) -> "Poly1":
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

class FieldSpec(NamedTuple("FieldSpec", [("f1", Poly2), ("f2", Poly2)])):
    """One smooth planar polynomial vector field (f1, f2), of total degree
    at most MAX_DEGREE_DEFAULT."""

    def __new__(cls, f1: Poly2, f2: Poly2) -> "FieldSpec":
        deg = max(f1.total_degree, f2.total_degree)
        if deg > MAX_DEGREE_DEFAULT:
            raise DegenerateInput(
                f"component total degree {deg} exceeds the cap {MAX_DEGREE_DEFAULT}")
        return super().__new__(cls, f1, f2)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def eval(self, p: Point) -> tuple[float, float]:
        return self.compiled_eval(p)

    @cached_property
    def compiled_eval(self) -> Callable[[Point], tuple[float, float]]:
        """p -> (f1(p), f2(p)) as one generated straight-line function,
        equal bit for bit to the components' Horner loops at finite points;
        built on first use, once per field.  A constant component comes
        back as its float, whatever p holds."""
        return compile_function("field", (
            "def field(p):\n"
            "    x1, x2 = p\n"
            f"    return ({self.f1.source()}, {self.f2.source()})\n"))

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


def _denominator_vanishes(branch: int, s: float) -> EvaluationOutsideDomain:
    return EvaluationOutsideDomain(
        f"sliding denominator vanishes at s={s} on Sigma{branch}")


class SlidingField(NamedTuple("SlidingField", [
        ("branch", int), ("numerator", Poly1), ("denominator", Poly1)])):
    """Scalar sliding dynamics s' = N(s)/D(s) on Sigma_branch.

    N = (det Z) restricted to the branch; D = (-1)^(branch-1) * (X_i - Y_i)
    restricted.  Valid wherever the two normal components differ (in
    particular on every sliding/escaping arc).
    """

    def __setattr__(self, name, value):
        raise AttributeError("SlidingField is immutable")

    @cached_property
    def value(self) -> Callable[[float], float]:
        """s -> N(s)/D(s), raising `EvaluationOutsideDomain` where
        |D(s)| < 1e-300.  One generated straight-line function, built on
        first use: the nonzero Horner steps of `Poly1.__call__` unrolled,
        so at finite s it equals `numerator(s) / denominator(s)` bit for
        bit."""
        return compile_function("value", (
            "def value(s):\n"
            f"    d = {self.denominator.source()}\n"
            "    if abs(d) < 1e-300:\n"
            "        raise outside(branch, s)\n"
            f"    return {self.numerator.source()} / d\n"),
            outside=_denominator_vanishes, branch=self.branch)

    def derivative_at_root(self, s0: float) -> float:
        """d/ds of N/D at a zero of N: exactly N'(s0)/D(s0)."""
        return self.numerator.derivative()(s0) / self.denominator(s0)


class PiecewiseSystem(NamedTuple("PiecewiseSystem", [("X", FieldSpec), ("Y", FieldSpec)])):
    """The pair Z = (X, Y): X acts on {x1*x2 > 0}, Y on {x1*x2 < 0}."""

    def __setattr__(self, name, value):
        raise AttributeError("PiecewiseSystem is immutable")

    @cached_property
    def det_poly(self) -> Poly2:
        """det Z = X1*Y2 - X2*Y1 as a polynomial (the sliding-field numerator
        up to the scalar factor h_i)."""
        return self.X.f1 * self.Y.f2 - self.X.f2 * self.Y.f1

    def det(self, p: Point) -> float:
        return self.det_poly.eval_point(p)

    def sliding_field(self, branch: int) -> SlidingField:
        """The sliding field on Sigma_branch, one instance per branch, so its
        evaluator `value` compiles once per system."""
        if branch not in (1, 2):
            raise ValueError(f"branch must be 1 or 2, got {branch}")
        return self._sliding_fields[branch - 1]

    @cached_property
    def _sliding_fields(self) -> tuple[SlidingField, SlidingField]:
        out = []
        for branch, sign in ((1, 1.0), (2, -1.0)):
            numer = self.det_poly.restrict_to_branch(branch)
            diff = (self.X.component(branch)
                    - self.Y.component(branch)).restrict_to_branch(branch)
            out.append(SlidingField(branch, numer,
                                    Poly1([sign * c for c in diff.coeffs])))
        return tuple(out)

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
        sliding and escaping roles exchange automatically).  Built once per
        system, so the negated fields compile their evaluators once."""
        return self._negated

    @cached_property
    def _negated(self) -> "PiecewiseSystem":
        return PiecewiseSystem(self.X.negate(), self.Y.negate())


# ---------------------------------------------------------------------------
# the side rule and the branches
# ---------------------------------------------------------------------------

#: The side rule: the sign of x1*x2 on the open quadrants that each field
#: drives.
FIELD_SIGN = {"X": 1.0, "Y": -1.0}


def active_field(a: float, b: float) -> str:
    """The field that drives the open quadrant whose two coordinates have the
    signs of a and b, in either order; a zero counts as negative."""
    side = (1.0 if a > 0.0 else -1.0) * (1.0 if b > 0.0 else -1.0)
    return "X" if side == FIELD_SIGN["X"] else "Y"


def branch_point(branch: int, s: float) -> Point:
    """Point on Sigma_branch at running coordinate s."""
    if branch == 1:
        return (0.0, s)
    if branch == 2:
        return (s, 0.0)
    raise ValueError(f"branch must be 1 or 2, got {branch}")


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
        c = _as_float(c)
        if not math.isfinite(c):
            raise NonFiniteCoefficients(f"{where}[{k}]: non-finite coefficient")
        if i < 0 or j < 0:
            raise ParseError(f"{where}[{k}]: exponents must be non-negative")
        terms.append((i, j, c))
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

def make_system(X1, X2, Y1, Y2) -> PiecewiseSystem:
    """Build a system from four components given as mappings
    {(i, j): c} or plain numbers (constants)."""

    def as_poly(v) -> Poly2:
        if isinstance(v, Mapping):
            return Poly2.from_dict(v)
        return Poly2.constant(float(v))

    return PiecewiseSystem(
        FieldSpec(as_poly(X1), as_poly(X2)),
        FieldSpec(as_poly(Y1), as_poly(Y2)),
    )
