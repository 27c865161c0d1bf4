"""Local classification of the origin, model normal forms, one-parameter
model families (unfoldings), and quantitative verification of their
predicted behavior.

Decision tree (all sign decisions at the origin, with one degeneracy
band; see switching.BAND):

1. If some field component vanishes at the origin
   (`switching.vanishing_components`, the test on which the flow stops at
   the origin): exactly one vanishing component with a nonzero
   second-order contact (Lie value) and a fully nonzero companion field is
   the regular-fold boundary class; anything else is higher codimension.
2. Both branches crossing (xi1 > 0 and xi2 > 0): class C1.
3. No branch crossing (xi1 < 0 and xi2 < 0): class C2 when det Z(0) != 0;
   det Z(0) = 0 with a nonvanishing gradient is the double
   pseudo-equilibrium collision; degenerate gradients are higher
   codimension.
4. Exactly one branch crossing: class C31 when X does not connect the
   branches (X1*X2(0) > 0); otherwise the system is transient and the
   half-turn multiplier alpha decides: off the critical band it is C32,
   on the band (alpha = -1) a nondegenerate quadratic/cubic pair
   (beta != 0, eta != 0) is the pseudo-Hopf boundary class.

Sign tuples use the conventions of the generator functions in this module,
so classify(normal_form(name, signs)) reproduces (name, signs) exactly.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidSigns, ParseError
from .fields import PiecewiseSystem, make_system
from .returnmap import fixed_points, return_map_model
from .switching import (
    BAND,
    Visibility,
    field_scale,
    find_tangencies,
    fold_lie_value,
    pseudo_equilibria,
    scaled_band,
    vanishing_components,
)

CLASS_C1 = "Stable_C1"
CLASS_C2 = "Stable_C2"
CLASS_C31 = "Stable_C31"
CLASS_C32 = "Stable_C32"
CLASS_DPE = "Codim1_DoublePseudoEq"
CLASS_PH = "Codim1_PseudoHopf"
CLASS_RF = "Codim1_RegularFold"
CLASS_HIGHER = "HigherCodimension"

STABLE_CLASSES = (CLASS_C1, CLASS_C2, CLASS_C31, CLASS_C32)
CODIM1_CLASSES = (CLASS_DPE, CLASS_PH, CLASS_RF)

#: Required sign keys per class (values are +1 or -1).
SIGN_KEYS = {
    CLASS_C1: ("a", "b"),
    CLASS_C2: ("a", "b", "c"),
    CLASS_C31: ("a", "b"),
    CLASS_C32: ("a", "b", "c"),
    CLASS_DPE: ("a", "b", "c1", "c2"),
    CLASS_PH: ("a", "b", "c"),
    CLASS_RF: ("a", "b"),
}


def _sgn(v: float) -> int:
    return 1 if v > 0.0 else -1


class Classification(NamedTuple):
    """Classification verdict with every evaluated quantity recorded."""

    class_name: str
    signs: dict
    witnesses: dict
    reasons: tuple[str, ...] = ()
    codimension: int | None = 0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _fold_canonical_signs(Z: PiecewiseSystem, field_name: str, comp: int):
    """Reduce a fold in any field/component to the canonical frame (fold in
    the second component of the positive-region field) and return the sign
    pair of the companion field there.

    Reductions: an axis swap moves a first-component fold to the second; the
    reflection (x1, x2) -> (-x1, x2) exchanges the roles of the two fields
    (pushing forward Y to (-Y1, Y2) composed with the reflection).
    """
    x1, x2, y1, y2 = Z.origin_components()
    if field_name == "X" and comp == 2:
        return (_sgn(y1), _sgn(y2))
    if field_name == "X" and comp == 1:
        return (_sgn(y2), _sgn(y1))
    if field_name == "Y" and comp == 2:
        return (_sgn(-x1), _sgn(x2))
    return (_sgn(-x2), _sgn(x1))


def classify(Z: PiecewiseSystem) -> Classification:
    """Classify the origin of a two-field system switched across the cross."""
    x1, x2, y1, y2 = Z.origin_components()
    scale = field_scale(Z, (0.0, 0.0))
    # det, its gradient and the Lie value are products of two components
    quad_tol = scaled_band(scale * scale)
    witnesses = {
        "X1_at_origin": x1, "X2_at_origin": x2,
        "Y1_at_origin": y1, "Y2_at_origin": y2,
        "band_tolerance": BAND, "component_tolerance": scaled_band(scale),
    }

    vanishing = vanishing_components(Z)
    if vanishing:
        return _classify_fold_layer(Z, vanishing, witnesses, quad_tol)

    witnesses["xi1"], witnesses["xi2"] = x1 * y1, x2 * y2
    # no component is in the band: signs decide, as a product can underflow
    cross1, cross2 = _sgn(x1) == _sgn(y1), _sgn(x2) == _sgn(y2)

    if cross1 and cross2:
        return Classification(CLASS_C1, {"a": _sgn(x1), "b": _sgn(x2)}, witnesses)

    if not cross1 and not cross2:
        det0 = Z.det((0.0, 0.0))
        witnesses["det_at_origin"] = det0
        if abs(det0) > quad_tol:
            return Classification(
                CLASS_C2, {"a": _sgn(x1), "b": _sgn(x2), "c": _sgn(det0)},
                witnesses)
        d1 = Z.det_poly.partial(1)(0.0, 0.0)
        d2 = Z.det_poly.partial(2)(0.0, 0.0)
        witnesses["ddet_dx1_at_origin"] = d1
        witnesses["ddet_dx2_at_origin"] = d2
        if abs(d1) > quad_tol and abs(d2) > quad_tol:
            return Classification(
                CLASS_DPE,
                {"a": _sgn(x1), "b": _sgn(x2), "c1": _sgn(d2), "c2": _sgn(d1)},
                witnesses, codimension=1)
        reasons = tuple(f"boundary value: d(det)/dx{k} at the origin"
                        for k, v in ((1, d1), (2, d2)) if abs(v) <= quad_tol)
        return Classification(CLASS_HIGHER, {}, witnesses, reasons, None)

    # mixed: exactly one branch crossing
    if _sgn(x1) * _sgn(x2) > 0:
        return Classification(CLASS_C31, {"a": _sgn(x1), "b": _sgn(y1)}, witnesses)

    model = return_map_model(Z)
    witnesses["alpha"] = model.alpha
    witnesses["gamma"] = model.gamma
    if model.eta is None:  # off the critical band
        return Classification(
            CLASS_C32,
            {"a": _sgn(x1), "b": _sgn(y1), "c": _sgn(model.alpha + 1.0)},
            witnesses)

    # beta and eta are jet coefficients, which time scaling leaves unchanged
    beta, eta = model.beta, model.eta
    witnesses["beta"] = beta
    witnesses["eta"] = eta
    if abs(beta) > BAND and abs(eta) > BAND:
        return Classification(
            CLASS_PH,
            {"a": _sgn(y1), "b": _sgn(eta), "c": _sgn(x1) * _sgn(y1)},
            witnesses, codimension=1)
    reasons = tuple(f"boundary value: {name} on the critical band"
                    for name, v in (("beta", beta), ("eta", eta))
                    if abs(v) <= BAND)
    return Classification(CLASS_HIGHER, {}, witnesses, reasons, None)


def _classify_fold_layer(Z, vanishing, witnesses, quad_tol) -> Classification:
    names = [f"{f}{i}" for f, i in vanishing]
    witnesses["vanishing_components"] = ",".join(names)
    if len(vanishing) > 1:
        return Classification(
            CLASS_HIGHER, {}, witnesses,
            tuple(f"boundary value: {n} at the origin" for n in names), None)
    (fname, comp), = vanishing
    lie = fold_lie_value(Z.field(fname), comp, (0.0, 0.0))
    witnesses["fold_field"] = fname
    witnesses["fold_component"] = float(comp)
    witnesses["fold_lie"] = lie
    if abs(lie) <= quad_tol:
        return Classification(
            CLASS_HIGHER, {}, witnesses,
            (f"boundary value: second-order contact of {fname}{comp} "
             f"(vanishing Lie value)",), None)
    a, b = _fold_canonical_signs(Z, fname, comp)
    return Classification(CLASS_RF, {"a": a, "b": b}, witnesses, codimension=1)


# ---------------------------------------------------------------------------
# sign validation
# ---------------------------------------------------------------------------

def validate_signs(class_name: str, signs: dict) -> dict:
    if class_name not in SIGN_KEYS:
        raise InvalidSigns(f"unknown class {class_name!r}; expected one of "
                           f"{sorted(SIGN_KEYS)}")
    keys = SIGN_KEYS[class_name]
    if set(signs) != set(keys):
        raise InvalidSigns(
            f"{class_name} needs sign keys {keys}, got {sorted(signs)}")
    for k, v in signs.items():
        if v not in (1, -1):
            raise InvalidSigns(f"sign {k!r} must be +1 or -1, got {v!r}")
    return {k: int(signs[k]) for k in keys}


def all_sign_tuples(class_name: str):
    """Every admissible sign dict for a class (for exhaustive sweeps)."""
    keys = SIGN_KEYS[class_name]
    return [{k: 1 if (mask >> i) & 1 == 0 else -1 for i, k in enumerate(keys)}
            for mask in range(2 ** len(keys))]


# ---------------------------------------------------------------------------
# normal forms and unfoldings
# ---------------------------------------------------------------------------

def normal_form(class_name: str, signs: dict) -> PiecewiseSystem:
    """Simplest polynomial representative of a class with the given signs;
    for boundary (codimension-one) classes this is the unfolding at 0."""
    s = validate_signs(class_name, signs)
    if class_name == CLASS_C1:
        a, b = s["a"], s["b"]
        return make_system(a, b, a, b)
    if class_name == CLASS_C2:
        a, b, c = s["a"], s["b"], s["c"]
        ab = a * b
        x1 = ((ab == -1) * (c == 1) + 1) * a
        x2 = -((ab == -1) * (c == -1) - ab) * a
        y1 = -((ab == 1) * (c == 1) + 1) * a
        y2 = -((ab == 1) * (c == -1) + ab) * a
        return make_system(x1, x2, y1, y2)
    if class_name == CLASS_C31:
        a, b = s["a"], s["b"]
        return make_system(a, a, b, -b)
    if class_name == CLASS_C32:
        a, b, c = s["a"], s["b"], s["c"]
        return make_system(a, -a, b * (1 + (c == 1)), b * (1 + (c == -1)))
    return unfolding(class_name, s, 0.0)


def unfolding(family: str, signs: dict, delta: float) -> PiecewiseSystem:
    """One-parameter model family through a codimension-one class.  Raises
    ParseError unless delta is finite."""
    if not math.isfinite(delta):
        raise ParseError(f"delta must be finite, got {delta!r}")
    s = validate_signs(family, signs)
    if family == CLASS_DPE:
        a, b, c1, c2 = s["a"], s["b"], s["c1"], s["c2"]
        return make_system({(0, 0): float(a), (1, 0): float(-b * c2)},
                           b - a * delta,
                           -a,
                           {(0, 0): float(-b), (0, 1): float(a * c1)})
    if family == CLASS_PH:
        a, b, c = s["a"], s["b"], s["c"]
        return make_system(a * c, -(a * c + delta), a,
                           {(0, 0): float(a), (1, 0): 1.0, (2, 0): float(a * b)})
    if family == CLASS_RF:
        a, b = s["a"], s["b"]
        return make_system(1.0, {(0, 0): -delta, (1, 0): 1.0}, a, b)
    raise InvalidSigns(f"{family!r} is not a codimension-one class")


# ---------------------------------------------------------------------------
# verification of unfolding predictions
# ---------------------------------------------------------------------------

class VerifyCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


class UnfoldingVerification(NamedTuple):
    family: str
    signs: dict
    delta: float
    predicted_class: str
    observed_class: str
    checks: tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return (self.predicted_class == self.observed_class
                and all(c.ok for c in self.checks))


def _require_inside_chart(delta: float, past: bool, edge: str) -> None:
    """Raise ParseError when delta is at or past the family's edge."""
    if past:
        raise ParseError(f"delta = {delta!r} is at or past the family's edge "
                         f"delta = {edge} vanishes")


def _predict_side_class(family: str, s: dict, delta: float) -> str:
    """Independent side prediction from the generator's closed form: the
    family itself where its boundary quantity lies in the band `classify`
    applies to it, else the class its sign structure gives.  Raises
    ParseError at or past the chart's edge, where another quantity that the
    side's class decision reads meets its band."""
    a, b = s["a"], s["b"]
    if family == CLASS_DPE:
        # X = (a - b c2 x1, b - a delta), Y = (-a, -b + a c1 x2): det Z(0) =
        # a X2(0) - ab = -delta, on the generated X2(0), against a product's band
        x2 = b - a * delta
        scale = max(1.0, abs(x2))
        _require_inside_chart(delta, b * x2 <= scaled_band(scale),
                              f"b/a = {a * b}, where X2(0) = b - a delta")
        return family if abs(a * x2 - a * b) <= scaled_band(scale * scale) else CLASS_C2
    if family == CLASS_PH:
        # X = (ac, -(ac + delta)): alpha = -ac / (ac + delta), on the
        # critical band as in `classify`
        ac = a * s["c"]
        x2 = -(ac + delta)
        _require_inside_chart(delta, -ac * x2 <= scaled_band(max(1.0, abs(x2))),
                              f"-ac = {-ac}, where X2(0) = -(ac + delta)")
        return family if abs(-ac / (ac + delta) + 1.0) <= BAND else CLASS_C32
    # regular fold: X = (1, x1 - delta), Y = (a, b); X2(0) = -delta against
    # the component band
    scale = max(1.0, abs(delta))
    if abs(delta) <= scaled_band(scale):
        return family
    xi2 = _sgn(-delta) * b
    if a > 0 and xi2 > 0:
        return CLASS_C1
    if a < 0 and xi2 < 0:
        _require_inside_chart(delta, b * (b + a * delta) <= scaled_band(scale * scale),
                              f"b = {b}, where det Z(0) = b + a delta")
        return CLASS_C2
    if delta < 0.0:
        return CLASS_C31
    # transient, so ab = 1: alpha = -ab/delta
    _require_inside_chart(delta, 1.0 / delta - 1.0 <= BAND,
                          "ab = 1, where alpha + 1 = 1 - ab/delta")
    return CLASS_C32


#: pseudo-Hopf fixed-point scans are only meaningful very close to the band
PH_FP_MAX_DELTA = 5e-3


def verify_unfolding(family: str, signs: dict, delta: float) -> UnfoldingVerification:
    """Build the family member, classify it, and test the quantitative
    predictions of the family against independently computed objects, the
    pseudo-Hopf fixed-point scan at every 0 < |delta| <= PH_FP_MAX_DELTA.
    The regular fold is looked for in |s| <= max(1, 2|delta|).  Raises
    ParseError for a member at or past the edge of the family's chart."""
    s = validate_signs(family, signs)
    Z = unfolding(family, s, delta)
    predicted = _predict_side_class(family, s, delta)
    got = classify(Z)
    checks: list[VerifyCheck] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(VerifyCheck(name, bool(ok), detail))

    if family == CLASS_DPE and predicted != family:
        a, b, c1, c2 = s["a"], s["b"], s["c1"], s["c2"]
        d0 = Z.det((0.0, 0.0))
        check("det_at_origin", abs(d0 + delta) <= 1e-12 * (1 + abs(delta)),
              f"det(0) = {d0!r}, expected {-delta!r}")
        radius = max(0.5, 4.0 * abs(delta))
        for branch, s_want, der_sign in ((1, c1 * delta, a * c1),
                                         (2, c2 * delta, -b * c2)):
            pes = pseudo_equilibria(Z, branch, radius=radius)
            ok = len(pes) == 1 and abs(pes[0].s - s_want) <= 1e-9 * (1 + abs(delta))
            detail = (f"branch {branch}: found {[p.s for p in pes]}, "
                      f"expected [{s_want!r}]")
            check(f"pseudo_equilibrium_sigma{branch}", ok, detail)
            if pes:
                ok2 = _sgn(pes[0].derivative) == der_sign
                check(f"pseudo_equilibrium_sigma{branch}_slope_sign", ok2,
                      f"derivative {pes[0].derivative!r}, expected sign {der_sign}")

    if family == CLASS_PH:
        a, b, c = s["a"], s["b"], s["c"]
        model = return_map_model(Z)
        alpha_want = -(a * c) / (a * c + delta)
        check("alpha_formula",
              abs(model.alpha - alpha_want) <= 1e-12 * (1 + abs(alpha_want)),
              f"alpha = {model.alpha!r}, expected {alpha_want!r}")
        if 0.0 < abs(delta) <= PH_FP_MAX_DELTA:
            fps = fixed_points(Z, -0.25, -1e-6, cells=96)
            expect_pair = (_sgn(delta) * _sgn(a * c) == b)
            check("fixed_point_pair_side",
                  (len(fps) == 1) == expect_pair,
                  f"found {len(fps)} fixed points on the scan side, "
                  f"pair expected: {expect_pair}")
            if fps and expect_pair:
                want_stable = b < 0
                check("fixed_point_stability", fps[0].stable is want_stable,
                      f"multiplier {fps[0].multiplier!r}")

    if family == CLASS_RF and predicted != family:
        reach = max(1.0, 2.0 * abs(delta))
        tps = find_tangencies(Z, 2, -reach, reach)
        ok = (len(tps) == 1 and tps[0].field == "X"
              and abs(tps[0].s - delta) <= 1e-9)
        check("fold_location", ok,
              f"tangencies at {[t.s for t in tps]}, expected [{delta!r}]")
        if tps:
            want = Visibility.VISIBLE if delta > 0 else Visibility.INVISIBLE
            check("fold_visibility", tps[0].visibility is want,
                  f"visibility {tps[0].visibility.value}")

    return UnfoldingVerification(family, s, delta, predicted, got.class_name,
                                 tuple(checks))
