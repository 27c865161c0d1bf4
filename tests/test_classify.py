"""Classification, normal forms, unfoldings, and prediction verification.

Oracle notes:
- Round-trip identities classify(normal_form(k, s)) == (k, s) are derived by
  hand from the generator definitions (sign algebra checked per class).
- Scaling invariance: orbits of both fields are unchanged by a common
  positive rescaling, so every sign decision is invariant.
- Axis-swap: the coordinate swap (x1, x2) -> (x2, x1) maps the system onto
  an equivalent one (the branch roles exchange); the class is invariant and
  the two half-turn multipliers satisfy alpha * alpha_swapped = 1.
- The linear-determinant example with fields X = (1 - mu + x1, 1),
  Y = (-1 + x2, -1) has det Z = mu - x1 - x2: at mu = 0 the origin is the
  double pseudo-equilibrium collision, for mu = +-0.1 it is class C2.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_system, reflect_x1, scale_system, swap_axes
from crosswitch import (
    CLASS_C1,
    CLASS_C2,
    CLASS_C31,
    CLASS_C32,
    CLASS_DPE,
    CLASS_HIGHER,
    CLASS_PH,
    CLASS_RF,
    CODIM1_CLASSES,
    SIGN_KEYS,
    STABLE_CLASSES,
    Classification,
    InvalidSigns,
    ParseError,
    UnfoldingVerification,
    VerifyCheck,
    all_sign_tuples,
    classify,
    make_system,
    normal_form,
    return_map_model,
    unfolding,
    verify_unfolding,
)
from crosswitch.switching import vanishing_components

ALL_CLASSES = STABLE_CLASSES + CODIM1_CLASSES


def all_combos():
    for name in ALL_CLASSES:
        for signs in all_sign_tuples(name):
            yield name, signs


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_total_number_of_sign_combinations():
    # [TRIVIAL] 4+8+4+8+16+8+4
    assert sum(len(all_sign_tuples(k)) for k in ALL_CLASSES) == 52


@pytest.mark.parametrize("name,signs", list(all_combos()),
                         ids=lambda v: v if isinstance(v, str) else
                         ",".join(f"{k}{'+' if s > 0 else '-'}" for k, s in v.items()))
def test_normal_form_round_trip(name, signs):
    # [DERIVED] generator sign algebra, checked by hand per class
    got = classify(normal_form(name, signs))
    assert got.class_name == name
    assert got.signs == signs
    assert got.codimension == (0 if name in STABLE_CLASSES else 1)


def test_round_trip_is_fast():
    import time
    t0 = time.perf_counter()
    for name, signs in all_combos():
        classify(normal_form(name, signs))
    assert time.perf_counter() - t0 < 5.0


def test_c2_normal_form_det_sign_matches_c():
    # [DERIVED] det(0) sign equals the c-sign by construction
    for signs in all_sign_tuples(CLASS_C2):
        Z = normal_form(CLASS_C2, signs)
        assert math.copysign(1, Z.det((0.0, 0.0))) == signs["c"]


def test_scaling_invariance():
    # [DERIVED] common positive rescaling preserves orbits, hence the class
    for name, signs in all_combos():
        Z = normal_form(name, signs)
        for c in (0.5, 2.0, 10.0):
            got = classify(scale_system(Z, c))
            assert (got.class_name, got.signs) == (name, signs), (name, signs, c)


def test_axis_swap_preserves_class():
    # [DERIVED] the swap (x1,x2)->(x2,x1) exchanges branch roles only
    for name, signs in all_combos():
        Z = normal_form(name, signs)
        got = classify(swap_axes(Z))
        assert got.class_name == name, (name, signs)


def test_axis_swap_inverts_alpha():
    # [DERIVED] half-turn linear parts are reciprocal under the swap
    for signs in all_sign_tuples(CLASS_C32):
        Z = normal_form(CLASS_C32, signs)
        a = classify(Z).witnesses["alpha"]
        a_sw = classify(swap_axes(Z)).witnesses["alpha"]
        assert abs(a * a_sw - 1.0) < 1e-12


def test_axis_swap_flips_eta_sign_for_pseudo_hopf():
    # [DERIVED] swapping axes reverses the orientation of the return-map
    # composition: the swapped full-turn map is the inverse of the original
    # one conjugated by a half map.  Inversion negates the cubic term of a
    # map tangent to the identity and conjugation rescales it by a positive
    # factor, so sgn(eta) flips.
    for signs in all_sign_tuples(CLASS_PH):
        Z = normal_form(CLASS_PH, signs)
        assert classify(swap_axes(Z)).signs["b"] == -signs["b"]


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witnesses_recorded_for_transient_class():
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    w = classify(Z).witnesses
    assert w["alpha"] == -0.5
    for key in ("X1_at_origin", "xi1", "xi2", "gamma", "band_tolerance"):
        assert key in w


def test_witnesses_recorded_for_pseudo_hopf():
    Z = normal_form(CLASS_PH, {"a": 1, "b": 1, "c": 1})
    w = classify(Z).witnesses
    assert abs(w["alpha"] + 1.0) == 0.0
    assert abs(w["beta"] + 0.5) < 1e-12
    assert abs(w["eta"] - 1.0 / 6.0) < 1e-12


def test_witnesses_recorded_for_fold():
    Z = normal_form(CLASS_RF, {"a": 1, "b": -1})
    w = classify(Z).witnesses
    assert w["fold_field"] == "X"
    assert w["fold_component"] == 2.0
    assert w["fold_lie"] == 1.0


# ---------------------------------------------------------------------------
# non-canonical fold positions
# ---------------------------------------------------------------------------

#: The four fold slots, each reached from the canonical one (X2) of the
#: regular-fold normal form by conjugations that keep its class and signs.
FOLD_SLOTS = {
    ("X", 2): lambda Z: Z,
    ("X", 1): swap_axes,
    ("Y", 2): reflect_x1,
    ("Y", 1): lambda Z: swap_axes(reflect_x1(Z)),
}


@pytest.mark.parametrize("slot", list(FOLD_SLOTS), ids=lambda v: f"{v[0]}{v[1]}")
@pytest.mark.parametrize("signs", all_sign_tuples(CLASS_RF),
                         ids=lambda v: ",".join(f"{k}{'+' if s > 0 else '-'}"
                                                for k, s in v.items()))
def test_fold_in_every_slot_reduces_to_canonical_frame(slot, signs):
    # [DERIVED] the axis swap moves a fold between the components of one
    # field, and the reflection x1 -> -x1 exchanges the fields; neither
    # changes the class or the companion signs of the canonical frame
    Z = FOLD_SLOTS[slot](normal_form(CLASS_RF, signs))
    assert vanishing_components(Z) == [slot]
    got = classify(Z)
    assert got.class_name == CLASS_RF
    assert got.signs == signs
    assert (got.witnesses["fold_field"], got.witnesses["fold_component"]) == (
        slot[0], float(slot[1]))


def test_double_tangency_is_higher_codimension():
    Z = make_system(1.0, {(1, 0): 1.0}, {(0, 1): 1.0}, 1.0)  # X2 and Y1 vanish
    got = classify(Z)
    assert got.class_name == CLASS_HIGHER
    assert got.codimension is None
    joined = " ".join(got.reasons)
    assert "X2" in joined and "Y1" in joined


def test_cusp_contact_is_higher_codimension():
    Z = make_system(1.0, {(2, 0): 1.0}, 1.0, 1.0)  # X = (1, x1^2): zero Lie value
    got = classify(Z)
    assert got.class_name == CLASS_HIGHER
    assert any("second-order contact" in r for r in got.reasons)


# ---------------------------------------------------------------------------
# boundary (in-band) quantities
# ---------------------------------------------------------------------------

def test_degenerate_det_gradient_is_higher_codimension():
    # det = -x1 exactly: gradient component in x2 vanishes
    Z = make_system(1.0, 1.0, {(0, 0): -1.0, (1, 0): 1.0}, -1.0)
    got = classify(Z)
    assert got.class_name == CLASS_HIGHER
    assert any("dx2" in r for r in got.reasons)
    assert got.witnesses["det_at_origin"] == 0.0


def test_identically_zero_det_is_higher_codimension():
    Z = make_system(1.0, 1.0, -1.0, -1.0)
    got = classify(Z)
    assert got.class_name == CLASS_HIGHER
    assert len(got.reasons) == 2


def test_vanishing_beta_on_band_is_higher_codimension():
    # [DERIVED] X constant makes beta = a_X * b_Y; Y = (1, 1 + x1^2) has b_Y = 0
    Z = make_system(1.0, -1.0, 1.0, {(0, 0): 1.0, (2, 0): 1.0})
    got = classify(Z)
    assert got.class_name == CLASS_HIGHER
    assert got.reasons == ("boundary value: beta on the critical band",)
    assert abs(got.witnesses["eta"] - 2.0 / 3.0) < 1e-12


def test_vanishing_eta_on_band_is_higher_codimension():
    # [DERIVED] Y = (1, 1 + x1 + 0.75 x1^2): beta = -1/2, eta = 2(0.75)/3 - 1/2 = 0
    Z = make_system(1.0, -1.0, 1.0,
                    {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.75})
    got = classify(Z)
    assert got.class_name == CLASS_HIGHER
    assert got.reasons == ("boundary value: eta on the critical band",)
    assert abs(got.witnesses["beta"] + 0.5) < 1e-12


def test_a_component_inside_the_band_vanishes():
    # X2(0) = 1e-5 is a real sign; 1e-10 lies inside the band 1e-9 * 1 (the
    # field scale at the origin) and is treated as a fold.  The band has no
    # absolute floor: with the whole system scaled by c, so is the band
    for c in (1.0, 2.0 ** -40, 2.0 ** 40):
        for x2, want in ((1e-5, CLASS_C1), (1e-10, CLASS_RF)):
            got = classify(make_system(c, {(0, 0): c * x2, (1, 0): c}, c, c))
            assert got.class_name == want
            assert got.witnesses["band_tolerance"] == 1e-9
            assert got.witnesses["component_tolerance"] == 1e-9 * c


def test_model_and_classify_share_the_critical_band():
    # pseudo-Hopf unfolding with |alpha + 1| ~ delta: inside the band 1e-9 at
    # delta = 1e-10, off it at 1e-7, for classify and the return-map model alike
    for delta, want, eta_set, attractive in ((1e-10, CLASS_PH, True, None),
                                             (1e-7, CLASS_C32, False, True)):
        Z = unfolding(CLASS_PH, {"a": 1, "b": 1, "c": 1}, delta)
        got = classify(Z)
        model = return_map_model(Z)
        assert got.class_name == want
        assert (model.eta is not None) == eta_set
        assert got.witnesses.get("eta") == model.eta
        assert model.eta is None or model.eta == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert model.attractive is attractive


@pytest.mark.parametrize("text", [None, "1e-3", "abc"])
def test_classify_reads_no_environment_variable(monkeypatch, text):
    # the band is the constant switching.BAND: CROSSWITCH_TOL, which once set
    # it, changes nothing, and a value that is not a number is not an error
    Z = unfolding(CLASS_PH, {"a": 1, "b": 1, "c": 1}, 1e-7)
    want = classify(Z)
    if text is None:
        monkeypatch.delenv("CROSSWITCH_TOL", raising=False)
    else:
        monkeypatch.setenv("CROSSWITCH_TOL", text)
    assert classify(Z) == want
    assert want.class_name == CLASS_C32


# ---------------------------------------------------------------------------
# linear-determinant example
# ---------------------------------------------------------------------------

def _linear_det_system(mu: float):
    return make_system({(0, 0): 1.0 - mu, (1, 0): 1.0}, 1.0,
                       {(0, 0): -1.0, (0, 1): 1.0}, -1.0)


def test_linear_det_example_critical():
    # [PAPER] at mu = 0 the two pseudo-equilibria collide at the origin
    got = classify(_linear_det_system(0.0))
    assert got.class_name == CLASS_DPE
    assert got.signs == {"a": 1, "b": 1, "c1": -1, "c2": -1}


@pytest.mark.parametrize("mu", [0.1, -0.1])
def test_linear_det_example_off_critical(mu):
    # [PAPER] nonzero mu gives a locally structurally stable C2 origin
    got = classify(_linear_det_system(mu))
    assert got.class_name == CLASS_C2
    assert got.signs == {"a": 1, "b": 1, "c": (1 if mu > 0 else -1)}
    assert abs(got.witnesses["det_at_origin"] - mu) < 1e-15


# ---------------------------------------------------------------------------
# sign validation
# ---------------------------------------------------------------------------

def test_invalid_signs_unknown_class():
    with pytest.raises(InvalidSigns):
        normal_form("NoSuchClass", {"a": 1})


def test_invalid_signs_missing_key():
    with pytest.raises(InvalidSigns):
        normal_form(CLASS_C2, {"a": 1, "b": 1})


def test_invalid_signs_extra_key():
    with pytest.raises(InvalidSigns):
        normal_form(CLASS_C1, {"a": 1, "b": 1, "c": 1})


def test_invalid_signs_bad_value():
    with pytest.raises(InvalidSigns):
        normal_form(CLASS_C1, {"a": 1, "b": 0})


def test_unfolding_rejects_stable_class():
    with pytest.raises(InvalidSigns):
        unfolding(CLASS_C1, {"a": 1, "b": 1}, 0.1)


@pytest.mark.parametrize("family", CODIM1_CLASSES)
@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_unfolding_rejects_a_delta_that_is_not_finite(family, delta):
    # a NaN delta reached the coefficient builder: NonFiniteCoefficients
    signs = all_sign_tuples(family)[0]
    with pytest.raises(ParseError, match=f"delta must be finite, got {delta!r}"):
        unfolding(family, signs, delta)


# ---------------------------------------------------------------------------
# unfoldings: side classes and quantitative predictions
# ---------------------------------------------------------------------------

def test_double_pseudo_equilibrium_unfolding_all_signs():
    for signs in all_sign_tuples(CLASS_DPE):
        for delta in (-1e-3, 0.0, 1e-3):
            rep = verify_unfolding(CLASS_DPE, signs, delta)
            assert rep.ok, (signs, delta, rep)
            if delta != 0.0:
                assert rep.observed_class == CLASS_C2


def test_pseudo_hopf_unfolding_all_signs_with_fixed_point_scans():
    for signs in all_sign_tuples(CLASS_PH):
        for delta in (-1e-3, 0.0, 1e-3):
            rep = verify_unfolding(CLASS_PH, signs, delta)
            assert rep.ok, (signs, delta, rep)
            names = [c.name for c in rep.checks]
            assert ("fixed_point_pair_side" in names) is (delta != 0.0)
            if delta != 0.0:
                assert rep.observed_class == CLASS_C32


@pytest.mark.parametrize("signs", [
    {"a": 1, "b": 1, "c": 1},
    {"a": -1, "b": -1, "c": 1},
])
def test_pseudo_hopf_unfolding_fixed_point_side(signs):
    for delta in (-1e-3, 1e-3):
        rep = verify_unfolding(CLASS_PH, signs, delta)
        assert rep.ok, (signs, delta, rep)
        names = [c.name for c in rep.checks]
        assert "fixed_point_pair_side" in names


def test_pseudo_hopf_prediction_on_the_band():
    # [DERIVED] |alpha + 1| = 1e-10 / (1 + 1e-10) is within the band 1e-9,
    # so classify observes the family itself; the prediction said Stable_C32
    rep = verify_unfolding(CLASS_PH, {"a": 1, "b": 1, "c": 1}, 1e-10)
    assert rep.predicted_class == rep.observed_class == CLASS_PH
    assert rep.ok, rep


@pytest.mark.parametrize("delta", [1e-16, 1e-18, 1e-20, 1e-30])
def test_pseudo_hopf_members_inside_the_band_verify(delta):
    # [DERIVED] inside the band the side class is the family itself, and
    # the fixed-point checks, like the other families' side checks, no
    # longer run.  They ran at every 0 < |delta| <= PH_FP_MAX_DELTA, and
    # where alpha = -ac / (ac + delta) rounds to -1 the scan's node 0 is an
    # exact zero (alpha^2 - 1 = 0.0 at delta = 1e-16 with a = b = c = 1),
    # so no pair could show: fixed_point_pair_side failed on 28 of these 64
    for signs in all_sign_tuples(CLASS_PH):
        for d in (delta, -delta):
            rep = verify_unfolding(CLASS_PH, signs, d)
            assert rep.predicted_class == rep.observed_class == CLASS_PH, (signs, d, rep)
            assert rep.ok, (signs, d, rep)
            assert [c.name for c in rep.checks] == ["alpha_formula"]


@pytest.mark.parametrize("signs", all_sign_tuples(CLASS_PH), ids=str)
def test_pseudo_hopf_edge_raises_a_parse_error(signs):
    # [DERIVED] X2(0) = -(ac + delta) vanishes at delta = -ac, where the
    # side prediction divided by zero; past it the member is not transient,
    # and the return-map check raised NotTransient
    ac = signs["a"] * signs["c"]
    for delta in (-ac, -2.0 * ac, -ac * (1.0 - 1e-12)):
        with pytest.raises(ParseError, match=f"edge delta = -ac = {-ac}"):
            verify_unfolding(CLASS_PH, signs, delta)
    assert verify_unfolding(CLASS_PH, signs, -0.99 * ac).ok


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(all_sign_tuples(CLASS_PH)),
       st.floats(min_value=math.log(1e-9), max_value=math.log(5e-3)),
       st.sampled_from([-1.0, 1.0]))
def test_pseudo_hopf_unfolding_is_verified_next_to_the_band(signs, log_delta, side):
    # the cycles of |delta| <= 1e-7 have multipliers within 1e-6 of 1, and
    # every one of them failed fixed_point_stability
    delta = side * math.exp(log_delta)
    rep = verify_unfolding(CLASS_PH, signs, delta)
    assert rep.ok, (signs, delta, rep)


def test_regular_fold_unfolding_all_signs():
    side = {  # [DERIVED] sign table for X = (1, x1 - delta), Y = (a, b), and
        # each side's edge |delta|: alpha + 1 = 1 - ab/delta vanishes at 1 on
        # the transient side (C32), det Z(0) = b + a delta on the C2 side
        (1, 1): {-1: (CLASS_C1, None), 1: (CLASS_C32, 1.0)},
        (1, -1): {-1: (CLASS_C31, None), 1: (CLASS_C1, None)},
        (-1, -1): {-1: (CLASS_C2, 1.0), 1: (CLASS_C32, 1.0)},
        (-1, 1): {-1: (CLASS_C31, None), 1: (CLASS_C2, 1.0)},
    }
    # the fold lies at s = delta; it was looked for in |s| <= 1 only, so
    # every |delta| > 1 failed fold_location.  Past a side's edge the member
    # is outside the family's chart
    for signs in all_sign_tuples(CLASS_RF):
        for delta in (-3.0, -1.5, -0.3, 0.0, 0.3, 1.5, 3.0):
            want, edge = ((CLASS_RF, None) if delta == 0.0
                          else side[(signs["a"], signs["b"])][1 if delta > 0 else -1])
            if edge is not None and abs(delta) >= edge:
                with pytest.raises(ParseError, match="family's edge"):
                    verify_unfolding(CLASS_RF, signs, delta)
                continue
            rep = verify_unfolding(CLASS_RF, signs, delta)
            assert rep.ok, (signs, delta, rep)
            assert rep.observed_class == want


def _past_the_edge(family: str, signs: dict, delta: float) -> bool:
    """[DERIVED] whether delta is at or past the edge of the family's chart,
    from the closed forms: X2(0) = b - a delta of the double
    pseudo-equilibrium vanishes at delta = ab, the pseudo-Hopf family's
    X2(0) = -(ac + delta) at -ac; the regular fold's alpha + 1 = 1 - ab/delta
    at 1 on its transient side (ab > 0 < delta) and det Z(0) = b + a delta at
    b on its C2 side (a < 0 < b delta).  Its other sides have no edge."""
    a = signs["a"]
    if family == CLASS_DPE:
        edge = a * signs["b"]
    elif family == CLASS_PH:
        edge = -a * signs["c"]
    elif a * signs["b"] > 0 < delta:
        edge = 1
    elif a < 0 < signs["b"] * delta:
        edge = signs["b"]
    else:
        return False
    return delta / edge >= 1.0


#: 28 log-spaced |delta| in [1e-11, 1e3], none on a band or chart edge, and
#: the chart edges |delta| = 1 with points on either side of them
FAMILY_DELTAS = sorted({side * v for side in (1.0, -1.0)
                        for v in [10.0 ** (-11 + 14 * k / 27) for k in range(28)]
                        + [0.5, 1.0, 2.0, 3.0]})


@pytest.mark.parametrize("family", CODIM1_CLASSES)
def test_every_family_member_verifies_inside_its_chart(family):
    # past a family's second boundary the prediction was wrong (240 double
    # pseudo-equilibrium points, 4 regular-fold points at |delta| = 1), or the
    # code raised; now a member verifies, or raises the named edge error
    # exactly where delta is at or past its chart's edge
    for signs in all_sign_tuples(family):
        for delta in FAMILY_DELTAS:
            if _past_the_edge(family, signs, delta):
                with pytest.raises(ParseError, match="family's edge delta = "):
                    verify_unfolding(family, signs, delta)
                continue
            rep = verify_unfolding(family, signs, delta)
            assert rep.ok, (signs, delta, rep)


#: 30 log-spaced |delta| in [1e-11, 1e-7], across each family's band edge
#: (|delta| = 1e-9 for both: X2(0), and det Z(0), against BAND * 1), and
#: that edge itself
NEAR_BAND_DELTAS = [10.0 ** (-11 + 4 * k / 29) for k in range(30)] + [1e-9]


@pytest.mark.parametrize("family", [CLASS_RF, CLASS_DPE])
def test_side_prediction_applies_the_band(family):
    # [DERIVED] the regular fold's X2(0) = -delta and the double
    # pseudo-equilibrium's det Z(0) = -delta: inside the band classify
    # observes the family itself.  The prediction ignored the band and
    # said Stable_C32 (fold) or Stable_C2, and the off-band fold and
    # pseudo-equilibrium checks failed there.  At |delta| = 1e-9, on the
    # band's edge, det Z(0) of the generated system is not -delta but
    # -ab + a fl(b - a delta), 1.00000008e-9 for delta = -1e-9
    for signs in all_sign_tuples(family):
        for delta in NEAR_BAND_DELTAS:
            for d in (delta, -delta):
                rep = verify_unfolding(family, signs, d)
                assert rep.predicted_class == rep.observed_class, (signs, d, rep)
                assert rep.ok, (signs, d, rep)


def test_verification_report_ok_logic():
    # [TRIVIAL]
    good = VerifyCheck("x", True, "")
    bad = VerifyCheck("y", False, "nope")
    rep = UnfoldingVerification("f", {}, 0.0, "A", "A", (good,))
    assert rep.ok
    assert not UnfoldingVerification("f", {}, 0.0, "A", "B", (good,)).ok
    assert not UnfoldingVerification("f", {}, 0.0, "A", "A", (good, bad)).ok


# ---------------------------------------------------------------------------
# totality
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(generic_system())
def test_classify_is_total_on_generic_systems(Z):
    got = classify(Z)
    assert isinstance(got, Classification)
    assert got.class_name in ALL_CLASSES + (CLASS_HIGHER,)
    if got.class_name != CLASS_HIGHER:
        assert set(got.signs) == set(SIGN_KEYS[got.class_name])
        assert all(v in (1, -1) for v in got.signs.values())
    else:
        assert got.reasons
