"""Event-driven integration: junction handling, sliding motion, origin rules.

Oracle notes:
  [DERIVED] constant/affine fields give closed-form orbits and event times,
            worked by hand; event sequences follow the junction conventions
            stated in the flow module docstring.
  [TRIVIAL] bookkeeping (monotone time, residuals at junctions).
"""
from __future__ import annotations

import hashlib
import math
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crosswitch.flow as flow
from crosswitch.classify import (CLASS_C2, CLASS_C32, CLASS_PH, CLASS_RF, classify, normal_form,
                                 unfolding)
from crosswitch.errors import LeftDomain, NonFiniteValue, NotTransverse, SeedOutsideBox, StepLimit
from crosswitch.fields import compile_function, make_system
from crosswitch.flow import (
    SNAP,
    EventKind,
    Mode,
    Sample,
    Trajectory,
    half_crossing,
    integrate,
    _cuts_reached,
    phase_portrait,
)
from crosswitch.report import canonical_json, events_report, trajectory_csv
from crosswitch.returnmap import FixedPoint, fixed_points
from crosswitch.switching import find_tangencies


def c32_normal():
    return make_system(1.0, -1.0, 2.0, 1.0)


def fold_family(delta: float, y2: float = 1.0, y1: float = 1.0):
    """X = (1, x1 - delta), Y = (y1, y2)."""
    return make_system(1.0, {(0, 0): -delta, (1, 0): 1.0}, y1, y2)


def overflowing_system():
    """Fields of magnitude ~1e150 near the branches, each within 1e9 of the
    others, so no start point is a tangency; the quadratic and cubic terms
    of Y1 overflow in the first RK4 stage of a step, to inf - inf = NaN."""
    c = 1e150
    return make_system(c, -c, {(0, 0): 2 * c, (2, 0): c, (3, 0): -c}, c)


def event_kinds(traj: Trajectory) -> list[str]:
    return [e.kind.value for e in traj.events]


# ---------------------------------------------------------------------------
# half crossings
# ---------------------------------------------------------------------------

class TestHalfCrossing:
    def test_four_legs_of_c32(self):
        # [DERIVED] time-direction rule: legs alternate forward/backward;
        # the landing points, each on the other branch, pin it
        Z = c32_normal()
        r1 = half_crossing(Z, "Y", (-0.1, 0.0))
        assert r1.point[0] == 0.0
        assert r1.point[1] == pytest.approx(0.05, abs=1e-10)
        r2 = half_crossing(Z, "X", r1.point)
        assert r2.point[1] == 0.0
        assert r2.point[0] == pytest.approx(0.05, abs=1e-10)
        r3 = half_crossing(Z, "Y", r2.point)
        assert r3.point[0] == 0.0
        assert r3.point[1] == pytest.approx(-0.025, abs=1e-10)
        r4 = half_crossing(Z, "X", r3.point)
        assert r4.point[1] == 0.0
        assert r4.point[0] == pytest.approx(-0.025, abs=1e-10)

    def test_landing_residual(self):
        # [TRIVIAL] junction residual |x1*x2| <= 1e-10 (landing coord snapped)
        Z = c32_normal()
        res = half_crossing(Z, "Y", (-0.05, 0.0))
        assert abs(res.point[0] * res.point[1]) <= 1e-10
        assert res.point[0] == 0.0

    def test_off_crossing_flag(self):
        # landing on the sliding half-branch is flagged but still returned
        Z = c32_normal()
        res = half_crossing(Z, "X", (0.0, 0.05))  # lands on Sigma2+ (sliding)
        assert res.off_crossing
        res2 = half_crossing(Z, "Y", (-0.1, 0.0))  # lands on Sigma1+ (crossing)
        assert not res2.off_crossing

    def test_tangent_start_rejected(self):
        Z = fold_family(0.3)
        with pytest.raises(NotTransverse):
            half_crossing(Z, "X", (0.3, 0.0))  # X2 vanishes at the start

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            half_crossing(c32_normal(), "Y", (0.1, 0.1))

    def test_leg_back_on_its_starting_branch_raises(self):
        # [DERIVED] the leg runs backward, along (1, -1 - 200 x1) from
        # x1 = -0.008: x2(t) = 0.6 t - 100 t^2 is back at 0 at t = 0.006,
        # x1 = -0.002, before the leg reaches Sigma1
        Z = make_system(1, -1, -1, {(0, 0): 1, (1, 0): 200})
        with pytest.raises(LeftDomain, match="returned to its starting branch"):
            half_crossing(Z, "Y", (-0.008, 0.0))

    def test_step_limit(self, monkeypatch):
        # the first leg of test_four_legs_of_c32 takes about 50 steps
        monkeypatch.setattr(flow, "MAX_STEPS", 10)
        with pytest.raises(StepLimit, match="within 10 steps"):
            half_crossing(c32_normal(), "Y", (-0.1, 0.0))

    @pytest.mark.parametrize("start", [(-0.1, 0.0), (0.1, 0.0), (0.0, 0.1)])
    def test_overflowing_leg_raises(self, start):
        # a NaN step passed the box test: one leg returned a NaN landing
        # point, the others stepped NaN until the step limit
        with pytest.raises(NonFiniteValue, match="non-finite coordinates"):
            half_crossing(overflowing_system(), "Y", start)


# ---------------------------------------------------------------------------
# smooth integration and junctions
# ---------------------------------------------------------------------------

class TestSmoothAndJunctions:
    def test_crossing_switches_field(self):
        # [DERIVED] X=(1,1), Y=(1,2): from QIV, Y carries up to Sigma2+,
        # crossing switches to X, orbit leaves the box top-right
        Z = make_system(1.0, 1.0, 1.0, 2.0)
        traj = integrate(Z, (0.5, -0.3), t_max=5.0, box=1.0)
        kinds = event_kinds(traj)
        assert kinds[0] == "BranchCross"
        assert traj.events[0].branch == 2
        assert traj.events[0].point[0] == pytest.approx(0.65, abs=1e-9)
        assert traj.events[0].t == pytest.approx(0.15, abs=1e-9)
        assert traj.terminal.kind is EventKind.BOX_EXIT
        modes = {s.mode for s in traj.samples}
        assert Mode.SMOOTH_Y in modes and Mode.SMOOTH_X in modes

    def test_seed_on_crossing_arc(self):
        # seed on Sigma2+ with upward passage: continue with X into QI
        Z = make_system(1.0, 1.0, 1.0, 2.0)
        traj = integrate(Z, (0.5, 0.0), t_max=0.2, box=2.0)
        assert traj.samples[0].mode is Mode.SMOOTH_X
        assert traj.samples[-1].x2 > 0.1

    def test_sliding_entry_motion_exit(self):
        # [DERIVED] fold family delta=0.3: Y carries (0.05,-0.1) to (0.15,0);
        # Sigma2+ is sliding there with constant speed N/D = 1, so the orbit
        # slides 0.15 -> 0.3 in time 0.15, exits at the fold of X, grazes on
        Z = fold_family(0.3)
        traj = integrate(Z, (0.05, -0.1), t_max=5.0, box=1.0)
        kinds = event_kinds(traj)
        assert kinds[0] == "SlidingEntry"
        assert kinds[1] == "SlidingExit"
        assert traj.events[1].note == "exit_at_fold_of_X"
        assert traj.events[1].point[0] == pytest.approx(0.3, abs=1e-9)
        slide_time = traj.events[1].t - traj.events[0].t
        assert slide_time == pytest.approx(0.15, abs=1e-6)
        assert traj.terminal.kind is EventKind.BOX_EXIT
        assert Mode.SLIDING2 in {s.mode for s in traj.samples}

    def test_crossing_at_fold_of_other_field(self):
        # Y lands exactly on the fold of X at (0.3, 0): cross and continue
        # with the tangent field
        Z = fold_family(0.3)
        traj = integrate(Z, (0.25, -0.05), t_max=5.0, box=1.0)
        notes = [e.note for e in traj.events]
        assert "crossing_at_fold_of_other_field" in notes
        assert traj.terminal.kind is EventKind.BOX_EXIT

    def test_near_tangent_arrival_slides_briefly(self):
        # arrival just inside the sliding arc: SlidingEntry then exit at fold
        Z = fold_family(0.3)
        traj = integrate(Z, (0.2, 0.00499), t_max=5.0, box=1.0)
        kinds = event_kinds(traj)
        assert "SlidingEntry" in kinds and "SlidingExit" in kinds
        i_in = kinds.index("SlidingEntry")
        assert traj.events[i_in].point[0] == pytest.approx(0.29553, abs=1e-3)

    def test_time_limit(self):
        Z = make_system(1.0, 1.0, 1.0, 2.0)
        traj = integrate(Z, (0.5, -0.3), t_max=0.05, box=4.0)
        assert traj.terminal.kind is EventKind.TIME_LIMIT
        assert traj.samples[-1].t == pytest.approx(0.05, abs=1e-12)

    def test_monotone_time_and_residuals(self):
        Z = c32_normal()
        traj = integrate(Z, (0.05, 0.05), t_max=2.0, box=0.5)
        ts = [s.t for s in traj.samples]
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        for e in traj.events:
            if e.kind in (EventKind.BRANCH_CROSS, EventKind.SLIDING_ENTRY):
                assert abs(e.point[0] * e.point[1]) <= 1e-10

    def test_each_event_has_the_sample_of_its_point(self):
        # the event's t is the run's time at the point, as its sample records
        trajs = phase_portrait(normal_form(CLASS_PH, {"a": 1, "b": -1, "c": 1}),
                               box=0.8, t_max=1.0)
        kinds = set()
        for traj in trajs:
            recorded = {(s.t, s.x1, s.x2) for s in traj.samples}
            for e in traj.events:
                assert (e.t, *e.point) in recorded, (traj.seed, e)
                kinds.add(e.kind)
        assert kinds >= {EventKind.BRANCH_CROSS, EventKind.SLIDING_ENTRY,
                         EventKind.SLIDING_EXIT, EventKind.GRAZE, EventKind.BOX_EXIT,
                         EventKind.TIME_LIMIT}

    def test_sample_is_a_read_only_record(self):
        s = Sample(0.5, 0.25, -0.0, Mode.SLIDING2)
        assert Sample._fields == ("t", "x1", "x2", "mode")
        assert tuple(s) == (0.5, 0.25, -0.0, Mode.SLIDING2)
        assert (s.t, s.x1, s.x2, s.mode) == (0.5, 0.25, -0.0, Mode.SLIDING2)
        with pytest.raises(AttributeError):
            s.x1 = 1.0


# ---------------------------------------------------------------------------
# origin rules
# ---------------------------------------------------------------------------

class TestOriginRules:
    def test_passthrough_both_crossing(self):
        # [DERIVED] X = Y = (1, 1): straight diagonal orbit passes the origin
        Z = make_system(1.0, 1.0, 1.0, 1.0)
        traj = integrate(Z, (-0.5, -0.5), t_max=5.0, box=1.0)
        notes = [e.note for e in traj.events]
        assert any(n.startswith("passthrough") for n in notes)
        assert traj.terminal.kind is EventKind.BOX_EXIT
        fx, fy = traj.final_point()
        assert fx == pytest.approx(1.0, abs=1e-9)
        assert fy == pytest.approx(1.0, abs=1e-9)

    def test_stationary_origin_both_negative(self):
        # [DERIVED] X=(2,-1), Y=(-1,1): xi1, xi2 < 0; orbit from QIII slides
        # on Sigma1- into the origin and stops
        Z = make_system(2.0, -1.0, -1.0, 1.0)
        traj = integrate(Z, (-0.1, -0.1), t_max=5.0, box=1.0)
        kinds = event_kinds(traj)
        assert kinds[0] == "SlidingEntry"
        assert traj.terminal is not None
        assert traj.terminal.kind is EventKind.ORIGIN_STOP
        assert traj.terminal.note == "stationary_origin"
        # an arrival keeps its landing sample beside the stationary one
        assert [s.mode for s in traj.samples[-2:]] == [Mode.SLIDING1,
                                                       Mode.STATIONARY_ORIGIN]
        assert traj.samples[-2][:3] == traj.samples[-1][:3]
        fx, fy = traj.final_point()
        assert abs(fx) <= 1e-10 and abs(fy) <= 1e-10

    def test_origin_seed_stationary(self):
        # the seed's one sample is the stop's: one sample, one CSV row
        Z = make_system(2.0, -1.0, -1.0, 1.0)
        traj = integrate(Z, (0.0, 0.0), t_max=1.0)
        assert traj.terminal.kind is EventKind.ORIGIN_STOP
        assert traj.terminal.note == "stationary_origin"
        assert traj.samples == [Sample(0.0, 0.0, 0.0, Mode.STATIONARY_ORIGIN)]
        assert trajectory_csv([traj]).splitlines()[1:] == [
            "0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,StationaryOrigin"]

    def test_slide_through_origin(self):
        # [DERIVED] X=(2,1), Y=(-1,2): xi1 = -2 < 0 < 2 = xi2, det(0) = 5,
        # so Sigma1- slides upward (N/D = 5/3) into the origin and the motion
        # continues onto the escaping half Sigma1+ (non-unique selection)
        Z = make_system(2.0, 1.0, -1.0, 2.0)
        traj = integrate(Z, (0.0, -0.4), t_max=5.0, box=1.0)
        notes = [e.note for e in traj.events]
        assert any("slide_through_sigma1" in n for n in notes)
        assert traj.nonunique
        assert traj.terminal.kind is EventKind.BOX_EXIT
        fx, fy = traj.final_point()
        assert fx == pytest.approx(0.0, abs=1e-10)
        assert fy == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_origin_stops(self):
        # xi1 = 0 exactly (X1(0) = 0): degenerate data at the origin
        Z = make_system({(1, 0): 1.0, (0, 0): 0.0}, -1.0, -1.0, 1.0)
        traj = integrate(Z, (0.0, 0.0), t_max=1.0)
        assert traj.terminal.kind is EventKind.ORIGIN_STOP
        assert traj.terminal.note == "degenerate_origin_data"
        # a seed has no arrival sample: the stop records the stationary one
        assert traj.samples == [Sample(0.0, 0.0, 0.0, Mode.STATIONARY_ORIGIN)]

    def test_origin_seed_passing_through_starts_moving(self):
        # X = Y = (1, 1) passes the origin: the seed's first sample is the
        # entry sample of the smooth run, and no sample is stationary
        traj = integrate(make_system(1.0, 1.0, 1.0, 1.0), (0.0, 0.0), t_max=0.01)
        assert traj.samples[0] == Sample(0.0, 0.0, 0.0, Mode.SMOOTH_X)
        assert Mode.STATIONARY_ORIGIN not in {s.mode for s in traj.samples}

    def test_origin_seed_sliding_through_starts_sliding(self):
        # Stable_C32 at a = b = c = 1 slides through the origin on Sigma2:
        # the CSV opens with the sliding run's entry row
        Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
        traj = integrate(Z, (0.0, 0.0), t_max=0.01)
        rows = trajectory_csv([traj]).splitlines()
        assert rows[1] == ("0.000000000000e+00,0.000000000000e+00,"
                           "0.000000000000e+00,Sliding2")
        assert Mode.STATIONARY_ORIGIN not in {s.mode for s in traj.samples}

    @given(*(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1.0, -1.0])
             for _ in range(4)))
    @example(1e-6, 1.0, 1e-6, -1.0)     # X1 Y1 = 1e-12: Stable_C31, no stop
    @example(1.0, -1e-6, -1.0, -1e-6)   # the same on Sigma2
    @settings(max_examples=150, deadline=None)
    def test_degenerate_stop_iff_classify_finds_vanishing_component(self, x1, x2, y1, y2):
        # the flow and the classifier decide "X_i(0) or Y_i(0) vanishes" alike
        Z = make_system(x1, x2, y1, y2)
        traj = integrate(Z, (0.0, 0.0), t_max=0.01)
        stopped = any(e.note == "degenerate_origin_data" for e in traj.events)
        assert stopped == ("vanishing_components" in classify(Z).witnesses)


# ---------------------------------------------------------------------------
# escaping seeds, backward time, tangency stops
# ---------------------------------------------------------------------------

class TestSpecialSeeds:
    def test_escaping_seed_departs_flagged(self):
        # Sigma2- of the C32 normal form is escaping: departure uses Y
        Z = c32_normal()
        traj = integrate(Z, (-0.2, 0.0), t_max=1.0, box=1.0)
        assert traj.events[0].kind is EventKind.GRAZE
        assert "escaping_seed" in traj.events[0].note
        assert traj.nonunique

    def test_sliding_seed(self):
        # Sigma2+ of the C32 normal form is sliding, field N/D = 1.5 outward
        Z = c32_normal()
        traj = integrate(Z, (0.2, 0.0), t_max=1.0, box=0.5)
        assert traj.events[0].kind is EventKind.SLIDING_ENTRY
        assert traj.terminal.kind is EventKind.BOX_EXIT
        assert traj.terminal.t == pytest.approx(0.2, abs=1e-6)  # 0.3 / 1.5

    def test_backward_swaps_roles(self):
        # backward from the sliding arc: escaping for the negated system,
        # so the departure is flagged nonunique
        Z = c32_normal()
        traj = integrate(Z, (0.2, 0.0), t_max=1.0, box=0.5, backward=True)
        assert traj.direction == -1
        assert traj.events[0].kind is EventKind.GRAZE

    def test_integer_seed_written_as_floats(self):
        # an int seed on the sliding arc Sigma1+: the SlidingEntry event
        # point is the seed itself, and canonical JSON writes it as %.12e
        Z = make_system(-1.0, 1.0, 1.0, 1.0)
        traj = integrate(Z, (0, 1), t_max=0.002)
        text = canonical_json(events_report(Z, traj))
        assert '"point":[0.000000000000e+00,1.000000000000e+00]' in text
        assert traj.seed == (0.0, 1.0) and type(traj.seed[1]) is float

    @pytest.mark.parametrize("seed", [(math.nan, 0.0), (0.0, math.nan),
                                      (0.1, math.nan), (math.inf, 0.0),
                                      (0.0, -math.inf)])
    def test_non_finite_seed_rejected_before_any_step(self, seed):
        # a NaN seed passed the box test and gave 5,001 NaN samples
        with pytest.raises(SeedOutsideBox, match="is not a point of the box"):
            integrate(c32_normal(), seed, 5.0)

    def test_double_tangency_stop(self):
        # both normal components vanish at (0.5, 0)
        Z = make_system(1.0, {(0, 0): -0.5, (1, 0): 1.0},
                        1.0, {(0, 0): 0.5, (1, 0): -1.0})
        traj = integrate(Z, (0.5, 0.0), t_max=1.0)
        assert traj.terminal.kind is EventKind.TANGENCY_STOP
        assert traj.samples[-1].mode is Mode.STATIONARY_TANGENCY


# ---------------------------------------------------------------------------
# junction rules at folds, tangency stops and the step limit
# ---------------------------------------------------------------------------

#: X = (1, x1 - 0.3): a fold of X on Sigma2+ at x1 = 0.3, visible from QI.
FOLD_X = {(0, 0): -0.3, (1, 0): 1.0}


def event_log(traj: Trajectory) -> list[tuple[str, str, int | None]]:
    return [(e.kind.value, e.note, e.branch) for e in traj.events]


class TestJunctionRules:
    def test_tangency_seed_continues_with_the_tangent_field(self):
        # RF unfolding at delta = 0.2: X2 = x1 - 0.2 vanishes at the seed
        # (0.2, 0) and Y2 does not, so the orbit leaves with X
        Z = unfolding(CLASS_RF, {"a": -1, "b": 1}, 0.2)
        traj = integrate(Z, (0.2, 0.0), t_max=5.0)
        assert event_log(traj) == [("Graze", "tangency_seed_X", 2), ("BoxExit", "", None)]
        assert traj.samples[0].mode is Mode.SMOOTH_X
        assert traj.terminal.kind is EventKind.BOX_EXIT

    def test_fold_of_arriving_field_grazes_on(self):
        # [DERIVED] the X orbit x2 = (x1 - 0.3)^2 / 2 touches Sigma2+ at its
        # fold (0.3, 0), where Y2 = 1 does not vanish: graze, stay on X
        Z = make_system(1.0, FOLD_X, -1.0, 1.0)
        traj = integrate(Z, (0.2, 0.005), t_max=5.0)
        assert event_log(traj) == [("Graze", "fold_of_arriving_field", 2),
                                   ("BoxExit", "", None)]
        assert traj.events[0].point[0] == pytest.approx(0.3, abs=1e-9)
        assert traj.events[0].t == pytest.approx(0.1, abs=1e-9)
        assert {s.mode for s in traj.samples} == {Mode.SMOOTH_X}
        assert traj.terminal.kind is EventKind.BOX_EXIT

    def test_both_fields_tangent_at_a_junction_stops(self):
        # the same orbit with Y = X: both normal components vanish at the fold
        Z = make_system(1.0, FOLD_X, 1.0, FOLD_X)
        traj = integrate(Z, (0.2, 0.005), t_max=5.0)
        assert event_log(traj) == [("TangencyStop", "both_fields_tangent", 2)]
        assert traj.terminal is traj.events[-1]
        assert traj.terminal.point[0] == pytest.approx(0.3, abs=1e-9)
        assert traj.samples[-1].mode is Mode.STATIONARY_TANGENCY
        assert traj.samples[-2].mode is Mode.SMOOTH_X

    def test_both_fields_tangent_at_a_sliding_cut_stops(self):
        # X2 = x1 - 0.3 and Y2 = 0.6 - 2 x1 both vanish at x1 = 0.3, the one
        # tangency cut of Sigma2+; the orbit slides from the seed into it
        Z = make_system(1.0, FOLD_X, -1.0, {(0, 0): 0.6, (1, 0): -2.0})
        traj = integrate(Z, (0.15, 0.0), t_max=5.0)
        assert event_log(traj) == [("SlidingEntry", "seed_on_sliding_arc", 2),
                                   ("TangencyStop", "both_fields_tangent", 2)]
        assert traj.terminal.point[0] == pytest.approx(0.3, abs=1e-9)
        assert traj.samples[-1].mode is Mode.STATIONARY_TANGENCY
        assert traj.samples[-2].mode is Mode.SLIDING2

    def test_sliding_field_vanishing_at_the_origin_stops(self):
        # xi1 < 0 < xi2, so the origin slides through Sigma1; det Z's constant
        # term, 8e-16, falls under CANON_EPS, so the sliding field is 0 there
        Z = make_system(2e-8, 2e-8, -2e-8, 2e-8)
        traj = integrate(Z, (0.0, 0.0), t_max=1.0)
        assert event_log(traj) == [
            ("OriginStop", "slide_through_sigma1_nonunique", 1),
            ("OriginStop", "sliding_field_vanishes_at_origin", 1)]
        assert traj.terminal is traj.events[-1]
        assert traj.samples == [Sample(0.0, 0.0, 0.0, Mode.STATIONARY_ORIGIN)]

    def test_grazing_arrival_on_an_escaping_arc_keeps_the_field(self):
        # [DERIVED] RK4 is exact on x2 = (x1 - 0.3)^2 / 2 for X = (1, x1 - 0.3):
        # the step ending at x1 = 0.300001 comes within SNAP of Sigma2+ without
        # crossing it, and lands just past X's fold, where X2 > 0 and Y2 = -1
        # make the arc escaping; the orbit grazes on with X
        Z = make_system(1.0, FOLD_X, 1.0, -1.0)
        traj = integrate(Z, (0.200001, 0.099999 ** 2 / 2), t_max=1.0)
        assert event_log(traj) == [
            ("Graze", "grazing_arrival_on_escaping_arc_same_field", 2),
            ("TimeLimit", "", None)]
        assert traj.events[0].point == pytest.approx((0.300001, 0.0), abs=1e-12)
        assert traj.nonunique
        assert {s.mode for s in traj.samples} == {Mode.SMOOTH_X}

    @pytest.mark.parametrize("seed", [(0.5, -0.15), (0.2, 0.0)],
                             ids=["smooth", "sliding"])
    def test_overflowing_step_raises(self, seed):
        # a NaN step passed the box test and the run recorded NaN samples
        # up to its time limit
        with pytest.raises(NonFiniteValue, match="non-finite coordinates"):
            integrate(overflowing_system(), seed, t_max=1.0)

    def test_overflow_to_nan_inside_a_small_box_raises(self):
        # max(abs(q[0]), abs(q[1])) is 0.5 for q = (0.5, nan): 1,000 NaN
        # samples and a TimeLimit at (nan, nan)
        Z = make_system({(0, 0): 1, (2, 0): 1e300}, {(0, 0): 1, (0, 2): -1e300},
                        {(0, 0): 1, (2, 0): 1e300}, {(0, 0): -1, (1, 1): 1e300})
        with pytest.raises(NonFiniteValue):
            integrate(Z, (0.1, 0.1), 1.0, box=0.8)

    @pytest.mark.parametrize("seed", [(0.5, -0.15), (0.2, 0.0)],
                             ids=["smooth", "sliding"])
    def test_step_limit(self, monkeypatch, seed):
        monkeypatch.setattr(flow, "MAX_STEPS", 10)
        with pytest.raises(StepLimit, match="exceeded 10 RK4 steps"):
            integrate(c32_normal(), seed, t_max=1.0)

    @pytest.mark.parametrize("Z, seed, t_max, steps, kinds", [
        # [DERIVED] Y = (1, 1) reaches Sigma2 at t = 0.1 in 100 steps, then
        # the orbit slides at speed 1 until t_max = 0.2, 100 steps more
        (fold_family(0.3), (0.05, -0.1), 0.2, 200, ["SlidingEntry", "TimeLimit"]),
        # [DERIVED] Y = (1, 2) crosses Sigma2 at t = 0.15, step 150; X = (1, 1)
        # then leaves the box |x| <= 1 at t = 0.5, step 500
        (make_system(1.0, 1.0, 1.0, 2.0), (0.5, -0.3), 5.0, 500, ["BranchCross", "BoxExit"]),
    ], ids=["sliding", "junction"])
    def test_step_limit_counts_the_steps_of_every_handler(self, monkeypatch, Z, seed,
                                                          t_max, steps, kinds):
        # the budget runs out in the run's second handler only if the step
        # count of the first one carries over to it
        monkeypatch.setattr(flow, "MAX_STEPS", steps)
        assert event_kinds(integrate(Z, seed, t_max=t_max, box=1.0)) == kinds
        monkeypatch.setattr(flow, "MAX_STEPS", steps - 1)
        with pytest.raises(StepLimit, match=f"^exceeded {steps - 1} RK4 steps$"):
            integrate(Z, seed, t_max=t_max, box=1.0)

    def test_portrait_drops_step_limited_trajectories(self, monkeypatch):
        # at 200 steps of h = 1e-3, only the runs that stop before t = 0.2 stay
        kw = dict(box=0.5, seeds_per_quadrant=1, seeds_per_branch=1, t_max=1.0)
        full = phase_portrait(c32_normal(), **kw)
        assert len(full) == 16
        monkeypatch.setattr(flow, "MAX_STEPS", 200)
        kept = phase_portrait(c32_normal(), **kw)
        want = [t for t in full if t.terminal.t < 0.2]
        assert 0 < len(want) < len(full)
        assert [(t.seed, t.direction) for t in kept] == [(t.seed, t.direction) for t in want]
        assert [t.samples for t in kept] == [t.samples for t in want]


# ---------------------------------------------------------------------------
# sliding cuts
# ---------------------------------------------------------------------------

def cuts_rule(cuts: list[float], s: float, s_new: float) -> list[float]:
    """The stop rule of a sliding step over every cut, with no window."""
    lo, hi = (s, s_new) if s < s_new else (s_new, s)
    return [c for c in cuts if lo < c < hi or (abs(s_new - c) <= SNAP and c != s)]


@st.composite
def step_among_cuts(draw):
    """(cuts ascending, s, s_new): points a few SNAP and a few ulps apart
    around one base point of magnitude up to a box of 4, with a few cuts
    drawn anywhere in that box and steps of up to twice STEP_H."""
    base = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))

    def near(x: float) -> float:
        x += draw(st.integers(-6, 6)) * (SNAP / 2)
        for _ in range(draw(st.integers(0, 3))):
            x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
        return x

    cuts = [near(base) for _ in range(draw(st.integers(0, 4)))]
    cuts += draw(st.lists(st.floats(-4.0, 4.0), max_size=3))
    s = near(base)
    s_new = near(base) if draw(st.booleans()) else near(s + draw(st.floats(-2e-3, 2e-3)))
    return sorted(cuts + [0.0]), s, s_new


class TestSlidingCuts:
    @given(step_among_cuts())
    @example(([0.0, 0.3], 0.3 - 1e-3, 0.3 + SNAP))      # just past a cut
    @example(([0.0, 0.3], 0.3 + 2 * SNAP, 0.3 + SNAP))  # back to a cut
    @example(([-1e-12, 0.0, 1e-12], 0.0, 5e-13))        # from the origin
    @settings(max_examples=400, deadline=None)
    def test_window_keeps_every_stop_of_the_rule(self, step):
        cuts, s, s_new = step
        assert _cuts_reached(cuts, s, s_new) == cuts_rule(cuts, s, s_new)

    def test_a_step_past_two_cuts_stops_at_the_nearer(self):
        # [DERIVED] X = (10, -(x1 - 0.3)(x1 - 0.305)), Y = (10, 1): Sigma2 is
        # sliding below x1 = 0.3 at speed 10, and X has folds at 0.3 and
        # 0.305; one step of length 0.01 from 0.2995 passes both
        X2 = {(0, 0): -0.3 * 0.305, (1, 0): 0.605, (2, 0): -1.0}
        Z = make_system(10.0, X2, 10.0, 1.0)
        cuts = sorted(t.s for t in find_tangencies(Z, 2, -2.0, 2.0))
        assert cuts == pytest.approx([0.3, 0.305], abs=1e-9)
        assert _cuts_reached(cuts, 0.2995, 0.3095) == cuts
        traj = integrate(Z, (0.2995, 0.0), t_max=1.0)
        assert event_log(traj)[:2] == [("SlidingEntry", "seed_on_sliding_arc", 2),
                                       ("SlidingExit", "exit_at_fold_of_X", 2)]
        assert traj.events[1].point == (cuts[0], 0.0)
        assert traj.events[1].t == pytest.approx(5e-5, abs=1e-12)


# ---------------------------------------------------------------------------
# portraits and cycles
# ---------------------------------------------------------------------------

class TestPortraitAndCycles:
    @pytest.mark.parametrize("name, signs, csv_digest, bits_digest", [
        # crossings and sliding entries
        (CLASS_C32, {"a": 1, "b": 1, "c": 1},
         "6406820528229000fe109f3dd92f3f6cf850380aa9f6de724c764780459ea271",
         "836d0ee2e87d395158227a2c4d8b7306a4d6b04e341504c6895c961fe6b63f67"),
        # sliding segments with exits at tangency cuts, and grazes
        (CLASS_PH, {"a": 1, "b": -1, "c": 1},
         "8515179f1b42e03d540a59e7c25bcfb2a7835626cd3844f1aed137d2882b9d09",
         "1dd3d198b25bb336ab2fb840cc5f242f086f5c018cbcaa9b232096c952a54eb2"),
    ], ids=["C32", "PseudoHopf"])
    def test_portrait_bytes_are_pinned(self, name, signs, csv_digest, bits_digest):
        # the CSV, as the benchmark checks it, to 13 digits; and every bit of
        # every sample, so that a step whose float operations differ in kind
        # or order fails here
        trajs = phase_portrait(normal_form(name, signs), box=0.8, t_max=3)
        csv = trajectory_csv(trajs, with_id=True)
        assert hashlib.sha256(csv.encode()).hexdigest() == csv_digest
        bits = "".join(f"{k},{s.t.hex()},{s.x1.hex()},{s.x2.hex()},{s.mode.value}\n"
                       for k, traj in enumerate(trajs) for s in traj.samples)
        assert hashlib.sha256(bits.encode()).hexdigest() == bits_digest

    def test_portrait_seed_count(self):
        Z = make_system(1.0, 1.0, 1.0, 2.0)
        trajs = phase_portrait(Z, box=0.5, seeds_per_quadrant=2,
                               seeds_per_branch=1, t_max=0.5)
        # 4 quadrants * 2 + 4 half-branches * 1 = 12 seeds, 2 directions
        assert len(trajs) == 24
        assert all(isinstance(t, Trajectory) for t in trajs)
        assert {t.direction for t in trajs} == {1, -1}

    def test_detect_pseudo_cycle(self):
        # a crossing cycle is a nontrivial fixed point of the full turn on
        # Sigma2-, scanned on (-radius, -radius * 1e-6)
        Z = make_system(1.0, -1.001, 1.0,
                        {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0})
        cycles = fixed_points(Z, -0.2, -2e-7, cells=96)
        assert len(cycles) == 1
        c = cycles[0]
        assert isinstance(c, FixedPoint)
        assert c.x < 0.0 < c.conjugate
        assert c.stable is False

    def test_portrait_compiles_each_evaluator_once(self, monkeypatch):
        # the evaluators belong to the system: one per field and one per
        # sliding branch, in each time direction, however many runs use them
        calls = Counter()

        def counting(name, source, **env):
            calls[name, env.get("branch")] += 1
            return compile_function(name, source, **env)

        # every binding of the function, so a module that imports it by
        # name is counted too
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("crosswitch")
                    and getattr(mod, "compile_function", None) is compile_function):
                monkeypatch.setattr(mod, "compile_function", counting)
        Z = normal_form(CLASS_C2, {"a": 1, "b": 1, "c": 1})
        trajs = phase_portrait(Z, box=0.8, t_max=3.0)
        assert {s.mode for t in trajs for s in t.samples} >= {Mode.SLIDING1,
                                                              Mode.SLIDING2}
        assert calls == {("field", None): 4, ("value", 1): 2, ("value", 2): 2}

    def test_no_cycle_when_none(self):
        assert fixed_points(c32_normal(), -0.1, -1e-7, cells=64) == []
