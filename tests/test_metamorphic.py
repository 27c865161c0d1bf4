"""Time scaling and the symmetries of the cross keep the verdicts.

Time scaling: Z and c*Z, for c > 0, have the same verdicts and objects.
The swap (x1, x2) -> (x2, x1) and the reflection x1 -> -x1 (which
exchanges X and Y) conjugate the system, so they keep its class.

Oracle notes:
  [DERIVED] multiplying both fields by c > 0 rescales time only: the orbits,
            arcs, folds, pseudo-equilibria and the class are those of Z
            (Filippov, Differential Equations with Discontinuous Righthand
            Sides, 1988).  So is every sign that `classify` reports.
  [DERIVED] for c = 2^k every coefficient is multiplied exactly, and so is
            every product of coefficients: det Z by c^2, a sliding field's
            numerator by c^2 and its denominator by c.  Every quantity is
            then the unscaled one times a power of two, bit for bit, and a
            band relative to the quantity's own scale decides alike: roots
            and arc ends keep their bits, a Lie value (a product of two
            components) is c^2 times the unscaled one, and a sliding
            field's slope c times.
  [DERIVED] under either symmetry the half-turn multiplier becomes 1/alpha:
            a_X = -X1(0)/X2(0) and a_Y = -Y2(0)/Y1(0) turn into 1/a_X and
            1/a_Y under the swap, and into -1/a_Y and -1/a_X under the
            reflection.  alpha = a_X * a_Y is five roundings from the
            components (two reciprocals and three products), so
            |alpha * alpha' - 1| <= gamma_11 with the final product.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_system, reflect_x1, scale_system, swap_axes
from crosswitch import (
    CODIM1_CLASSES,
    STABLE_CLASSES,
    ParseError,
    TooManyTangencies,
    all_sign_tuples,
    classify,
    normal_form,
)
from crosswitch.returnmap import is_transient
from crosswitch.switching import pseudo_equilibria, sigma_decomposition

NORMAL_FORMS = [(name, signs) for name in STABLE_CLASSES + CODIM1_CLASSES
                for signs in all_sign_tuples(name)]


def _id(case) -> str:
    name, signs = case
    return name + "|" + ",".join(f"{k}{'+' if v > 0 else '-'}" for k, v in signs.items())


@pytest.mark.parametrize("case", NORMAL_FORMS, ids=_id)
def test_classify_keeps_class_and_signs_under_time_scaling(case):
    # [DERIVED] 1,028 of the 2,132 (normal form, 2^k) pairs, k = -100, -95, ...,
    # 100 changed class under a band with an absolute floor and a 1e-15
    # coefficient drop; 2^40 made every pseudo-Hopf form HigherCodimension
    name, signs = case
    Z = normal_form(name, signs)
    base = classify(Z)
    assert (base.class_name, base.signs) == (name, signs)
    for k in range(-100, 101):
        c = 2.0 ** k
        got = classify(scale_system(Z, c))
        assert (got.class_name, got.signs) == (name, signs), k
        assert got.witnesses["component_tolerance"] == c * base.witnesses["component_tolerance"]


@pytest.mark.parametrize("k", [-540, 520])
def test_an_origin_scale_out_of_range_is_a_parse_error(k):
    # [DERIVED] at 2^-540 products of two components underflow: 14 normal
    # forms came out Stable_C31 and 30 raised NotTransient.  At 2^520 the
    # products overflow.  Every normal form now raises one named error
    for name, signs in NORMAL_FORMS:
        with pytest.raises(ParseError, match=r"outside \[2\*\*-500, 2\*\*500\]"):
            classify(scale_system(normal_form(name, signs), 2.0 ** k))


def _objects(Z, c: float):
    """The decomposition and pseudo-equilibria of Z within radius 1, each
    value that scales with time divided by its power of c (exact for c a
    power of two), floats as hex; a named error stands for its objects."""
    try:
        dec = sigma_decomposition(Z, 1.0)
        return [[(a.branch, a.half, a.inner.hex(), a.outer.hex(), a.kind) for a in dec.arcs],
                [(t.field, t.branch, t.s.hex(), (t.lie / (c * c)).hex(), t.visibility)
                 for t in dec.tangencies]] + [
                [(p.s.hex(), p.region_kind, (p.derivative / c).hex(), p.hyperbolic,
                  p.stability) for p in pseudo_equilibria(Z, branch, 1.0)]
                for branch in (1, 2)]
    except TooManyTangencies:
        return "TooManyTangencies"


@settings(max_examples=60, deadline=None)
@given(generic_system(), st.integers(-100, 100))
def test_generic_systems_keep_their_objects_in_bits_under_time_scaling(Z, k):
    # [DERIVED] at 2^-40 the arcs, folds or pseudo-equilibria changed on
    # every pool system of the benchmark, and a fold's visibility on 489 of
    # them with the Lie value tested against the component band
    c = 2.0 ** k
    scaled = scale_system(Z, c)
    got, want = classify(scaled), classify(Z)
    assert (got.class_name, got.signs) == (want.class_name, want.signs)
    assert _objects(scaled, c) == _objects(Z, 1.0)


SYMMETRIES = {"swap": swap_axes, "reflection": reflect_x1}

U = 2.0 ** -53
GAMMA_11 = 11 * U / (1 - 11 * U)


def _assert_symmetric(Z, image):
    got, want = classify(image), classify(Z)
    assert got.class_name == want.class_name
    assert is_transient(image) == is_transient(Z)
    if "alpha" in want.witnesses:
        assert abs(want.witnesses["alpha"] * got.witnesses["alpha"] - 1.0) <= GAMMA_11


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
def test_symmetries_keep_the_class_of_the_normal_forms(symmetry):
    for name, signs in NORMAL_FORMS:
        Z = normal_form(name, signs)
        _assert_symmetric(Z, SYMMETRIES[symmetry](Z))


@settings(max_examples=60, deadline=None)
@given(generic_system(), st.sampled_from(sorted(SYMMETRIES)))
def test_symmetries_keep_the_class_of_generic_systems(Z, symmetry):
    _assert_symmetric(Z, SYMMETRIES[symmetry](Z))
