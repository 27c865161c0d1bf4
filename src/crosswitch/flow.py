"""Event-driven integration of the piecewise flow.

Fixed-step RK4 (h = STEP_H = 1e-3).  Every event is located inside its final
substep by one rule, `_event_time`: `numerics.bisect_root` on the event
function g(tau) of the RK4(tau) image over [0, h] (the branch coordinate at
a junction, the sup norm minus the box at a box exit, the running coordinate
minus the cut on a sliding branch), stopping at |g| <= SNAP or at width
1e-16 * h; a junction point is then snapped onto its branch.

`_Integrator` runs a chain of handlers.  Each returns the next one, a
`functools.partial` of `run_smooth(p, name)` or `run_sliding(branch, s)`
(which record their own entry sample), or None after the terminal event.
Junction handling follows the convex (Filippov) convention:

- crossing arc: switch to the field active on the entered quadrant;
- sliding (or escaping) arc: move along the branch with the scalar field
  N(s)/D(s) (sliding motion on escaping arcs is an admissible, non-unique
  selection and is flagged);
- tangency of the arriving field: grazing — continue with the same field;
- tangency of the other field: cross, then continue with that (tangent) field;
- origin: stop as `degenerate_origin_data` when some component X_i(0),
  Y_i(0) vanishes (`switching.vanishing_components`, the classifier's own
  test), else pass through (both branches crossing), slide through (one
  branch crossing), or stop (no branch crossing); see `handle_origin` for
  the samples recorded there.

Backward time integrates the negated system forward; all sliding/escaping
roles then swap consistently because every decision is made on the
integrated system.

`integrate` records a `Sample` (t, x1, x2, mode), a named tuple, at the
seed, after every RK4 step and at every event point; on a sliding branch the
off-branch coordinate is recorded as 0.0.

`half_crossing`, the orbit leg of the return map, returns only what that map
reads: the landing point and whether it lies off a crossing arc.

The RK4 steps call generated straight-line evaluators that the system
builds once, `FieldSpec.compiled_eval` off the branches and
`PiecewiseSystem.sliding_field(branch).value` on them; every step still
goes through `numerics.rk4_step_2d` or `rk4_step_1d`.  A run holds only its
own state (time, step count, samples and events); its step loops keep time
and step count in locals, written back at every exit, raises included, and
a sliding step scans the tangency cuts only when one bisection finds a cut
within 2 SNAP of it (`_cuts_reached`).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from functools import partial
from numbers import Integral
from typing import NamedTuple, Sequence

from .errors import (
    LeftDomain,
    NonFiniteValue,
    NotTransverse,
    ParseError,
    SeedOutsideBox,
    StepLimit,
    require_positive,
)
from .fields import FIELD_SIGN, PiecewiseSystem, Point, active_field, branch_point
from .numerics import bisect_root, rk4_step_1d, rk4_step_2d
from .switching import (
    ArcKind,
    branch_point_class,
    component_tolerance,
    find_tangencies,
    vanishing_components,
)

#: Fixed RK4 step of every flow run: `integrate` and `half_crossing`.
STEP_H = 1e-3

#: Hard cap on RK4 steps per integration call.
MAX_STEPS = 1_000_000

#: Branch-coordinate magnitude treated as exactly on the branch after landing.
SNAP = 1e-12

#: Event watchers arm only once the coordinate magnitude exceeds this.
ARM = 1e-10


class Mode(str, Enum):
    SMOOTH_X = "SmoothX"
    SMOOTH_Y = "SmoothY"
    SLIDING1 = "Sliding1"
    SLIDING2 = "Sliding2"
    STATIONARY_ORIGIN = "StationaryOrigin"
    STATIONARY_TANGENCY = "StationarySingularTangency"


class EventKind(str, Enum):
    BRANCH_CROSS = "BranchCross"
    SLIDING_ENTRY = "SlidingEntry"
    SLIDING_EXIT = "SlidingExit"
    GRAZE = "Graze"
    TANGENCY_STOP = "TangencyStop"
    ORIGIN_STOP = "OriginStop"
    TIME_LIMIT = "TimeLimit"
    BOX_EXIT = "BoxExit"


class Event(NamedTuple):
    kind: EventKind
    t: float
    point: Point
    branch: int | None = None
    note: str = ""


class Sample(NamedTuple):
    t: float
    x1: float
    x2: float
    mode: Mode


class Trajectory(NamedTuple):
    """Piecewise-smooth orbit with its event log."""

    seed: Point
    direction: int                      # +1 forward, -1 backward
    samples: Sequence[Sample] = ()      # `integrate` passes its lists
    events: Sequence[Event] = ()
    terminal: Event | None = None

    @property
    def nonunique(self) -> bool:
        return any("nonunique" in e.note or "escaping" in e.note for e in self.events)

    def final_point(self) -> Point:
        s = self.samples[-1]
        return (s.x1, s.x2)


# ---------------------------------------------------------------------------
# half-branch crossing primitive (orbit geometry, used by the return map)
# ---------------------------------------------------------------------------

class HalfCrossingResult(NamedTuple):
    point: Point                  # landing point on the other branch
    off_crossing: bool            # landing point is not on a crossing arc


#: Box |x1|, |x2| <= LEG_BOX of the orbit legs of `half_crossing`.
LEG_BOX = 4.0


def _event_time(g, h: float, g0: float, gh: float) -> float:
    """The time tau in [0, h] at which the event function g of a step of
    length h, with g(0) = g0 and g(h) = gh, meets 0: the one event-location
    policy of the flow (|g| <= SNAP, or a bracket no wider than 1e-16 * h)."""
    return bisect_root(g, 0.0, h, g0, gh, 1e-16 * h, ftol=SNAP)


def _require_finite(q: tuple[float, ...]) -> tuple[float, ...]:
    """q, unless the field overflowed to a coordinate that is not finite."""
    if not all(map(math.isfinite, q)):
        raise NonFiniteValue(f"a step of the flow ended at non-finite coordinates {q}")
    return q


def _land_on_axis(F, p: Point, q: Point, h: float, axis: int) -> tuple[float, Point]:
    """(tau, point) where the RK4 step of F from p, whose full step h ends at
    q, meets the axis {x[axis] = 0}, the point snapped onto the axis."""
    tau = _event_time(lambda u: rk4_step_2d(F, p, u)[axis], h, p[axis], q[axis])
    land = rk4_step_2d(F, p, tau)
    return tau, ((0.0, land[1]) if axis == 0 else (land[0], 0.0))


def _cuts_reached(cuts: list[float], s: float, s_new: float) -> list[float]:
    """The cuts, ascending, strictly inside a sliding step from s to s_new, or
    within SNAP of s_new but not at s: each lies within 2 SNAP of the step."""
    lo, hi = (s, s_new) if s < s_new else (s_new, s)
    k = bisect_left(cuts, lo - 2.0 * SNAP)
    if k == len(cuts) or not cuts[k] <= hi + 2.0 * SNAP:
        return []
    return [c for c in cuts if lo < c < hi or (abs(s_new - c) <= SNAP and c != s)]


def half_crossing(Z: PiecewiseSystem, field_name: str,
                  start: Point) -> HalfCrossingResult:
    """Follow the orbit of one field from a branch point to the other branch,
    in RK4 steps of STEP_H, inside the box LEG_BOX, for at most MAX_STEPS
    steps.

    The time direction is chosen so the leg immediately enters the field's
    own active region: forward when FIELD_SIGN * s0 * W_i > 0, with s0 the
    running coordinate of the start, and backward otherwise.  Returns the
    landing point, snapped onto the other branch, and whether it lies off a
    crossing arc.  A leg that lands within ARM of the origin raises
    LeftDomain, as no leg starts there.  The start point is taken as Python
    floats.
    """
    x1, x2 = float(start[0]), float(start[1])
    if abs(x2) <= ARM and abs(x1) > ARM:
        i, s0, p = 2, x1, (x1, 0.0)
    elif abs(x1) <= ARM and abs(x2) > ARM:
        i, s0, p = 1, x2, (0.0, x2)
    else:
        raise ValueError(f"start {start} must lie on exactly one open half-branch")
    fld = Z.field(field_name)
    ni = fld.component(i).eval_point(p)
    if abs(ni) <= component_tolerance(Z, p):
        raise NotTransverse(
            f"{field_name}{i} vanishes at the start point {p}: leg is tangent")
    forward = FIELD_SIGN[field_name] * s0 * ni > 0.0
    F = (Z if forward else Z.negate()).field(field_name).compiled_eval

    watch = (3 - i) - 1           # coordinate index of the target branch
    home = i - 1                  # coordinate index of the starting branch
    home_armed = False
    for _ in range(MAX_STEPS):
        q = rk4_step_2d(F, p, STEP_H)
        if not (abs(q[0]) <= LEG_BOX and abs(q[1]) <= LEG_BOX):  # NaN fails too
            _require_finite(q)
            raise LeftDomain(f"orbit leg left the box |x| <= {LEG_BOX}")
        if not home_armed:
            if abs(q[home]) > ARM:
                home_armed = True
        elif (q[home] < 0.0) != (p[home] < 0.0):
            raise LeftDomain("orbit leg returned to its starting branch")
        if (q[watch] < 0.0) != (p[watch] < 0.0) or abs(q[watch]) <= SNAP:
            _, land = _land_on_axis(F, p, q, STEP_H, watch)
            s_land = land[i - 1]
            if abs(s_land) <= ARM:
                raise LeftDomain("orbit leg reached the origin")
            kind = branch_point_class(Z, 3 - i, s_land)
            return HalfCrossingResult(land, kind is not ArcKind.CROSSING)
        p = q
    raise StepLimit(f"no branch reached within {MAX_STEPS} steps")


# ---------------------------------------------------------------------------
# full event-driven integration
# ---------------------------------------------------------------------------

class _Integrator:
    def __init__(self, Z: PiecewiseSystem, t_max: float, box: float):
        self.Z = Z
        self.t_max = t_max
        self.box = box
        self.t = 0.0
        self.steps = 0
        self.samples: list[Sample] = []
        self.events: list[Event] = []
        self.terminal: Event | None = None

    # -- bookkeeping -------------------------------------------------------
    def emit(self, kind: EventKind, p: Point, branch: int | None,
             note: str = "") -> None:
        self.events.append(Event(kind, self.t, p, branch, note))

    def stop(self, kind: EventKind, p: Point, branch: int | None = None,
             note: str = "") -> None:
        """Emit the terminal event; returns None, the end of the chain."""
        self.emit(kind, p, branch, note)
        self.terminal = self.events[-1]

    def record(self, p: Point, mode: Mode) -> None:
        self.samples.append(Sample(self.t, p[0], p[1], mode))

    # -- main loop ---------------------------------------------------------
    def run(self, seed: Point) -> None:
        handler = self.start_state(seed)
        while handler is not None:
            handler = handler()

    # -- seeding -----------------------------------------------------------
    def start_state(self, seed: Point):
        x1, x2 = seed
        on1 = abs(x1) <= ARM
        on2 = abs(x2) <= ARM
        if not (abs(x1) <= self.box and abs(x2) <= self.box):  # NaN fails too
            raise SeedOutsideBox(f"seed {seed} is not a point of the box "
                                 f"|x| <= {self.box}")
        if on1 and on2:
            return self.handle_origin(arriving_field=None)
        if not on1 and not on2:
            return partial(self.run_smooth, seed, active_field(x1, x2))
        branch = 1 if on1 else 2
        p = (0.0, x2) if on1 else (x1, 0.0)
        s = x2 if on1 else x1
        kind = branch_point_class(self.Z, branch, s)
        if kind is ArcKind.CROSSING:
            return self.enter_crossing_side(p, branch, s)
        if kind is ArcKind.SLIDING:
            self.emit(EventKind.SLIDING_ENTRY, p, branch, note="seed_on_sliding_arc")
            return partial(self.run_sliding, branch, s)
        if kind is ArcKind.ESCAPING:
            # forward continuations are non-unique; depart with the
            # return-composition orientation: Y from Sigma2, X from Sigma1
            name = "X" if branch == 1 else "Y"
            self.emit(EventKind.GRAZE, p, branch,
                      note=f"escaping_seed_departs_with_{name}_nonunique")
            return partial(self.run_smooth, p, name)
        # tangency seed: continue with the tangent field's grazing arc
        name = self.tangent_field_at(p, branch)
        if name is None:
            return self.stop_both_tangent(p, branch)
        self.emit(EventKind.GRAZE, p, branch, note=f"tangency_seed_{name}")
        return partial(self.run_smooth, p, name)

    # -- helpers for junctions ----------------------------------------------
    def tangent_field_at(self, p: Point, branch: int) -> str | None:
        """Which field is tangent at a tangency-classified point; None if both."""
        tol = component_tolerance(self.Z, p)
        xn = self.Z.X.component(branch).eval_point(p)
        yn = self.Z.Y.component(branch).eval_point(p)
        xt, yt = abs(xn) <= tol, abs(yn) <= tol
        if xt and yt:
            return None
        return "X" if xt else "Y"

    def stop_both_tangent(self, p: Point, branch: int) -> None:
        """Stop at a branch point where both fields are tangent."""
        self.record(p, Mode.STATIONARY_TANGENCY)
        self.stop(EventKind.TANGENCY_STOP, p, branch, note="both_fields_tangent")

    def enter_crossing_side(self, p: Point, branch: int, s: float):
        """Continue past a crossing point with the field of the entered side:
        the normal coordinate takes the sign of X's normal component there."""
        nu = self.Z.X.component(branch).eval_point(p)
        return partial(self.run_smooth, p, active_field(nu, s))

    # -- origin ------------------------------------------------------------
    def handle_origin(self, arriving_field: str | None):
        """Continue or stop at the origin, reached or seeded there.

        A stop records a `StationaryOrigin` sample at a stationary origin,
        and on degenerate origin data only for a seed, as an arrival has
        recorded its landing sample.  A pass or slide through records
        nothing here: the handler it enters records its entry sample.  A
        slide's field is nonzero there: |det Z(0)| = |X1 Y2| + |X2 Y1|."""
        Z = self.Z
        origin = (0.0, 0.0)
        if vanishing_components(Z):
            if not self.samples:
                self.record(origin, Mode.STATIONARY_ORIGIN)
            return self.stop(EventKind.ORIGIN_STOP, origin,
                             note="degenerate_origin_data")
        # no component vanishes: signs decide, as a product can underflow
        x1, x2, y1, y2 = Z.origin_components()
        cross1, cross2 = (x1 > 0.0) == (y1 > 0.0), (x2 > 0.0) == (y2 > 0.0)
        if cross1 and cross2:
            name = arriving_field or "X"
            self.emit(EventKind.ORIGIN_STOP, origin, None,
                      note=f"passthrough_{name}_nonunique_selection")
            return partial(self.run_smooth, origin, name)
        if not cross1 and not cross2:
            self.record(origin, Mode.STATIONARY_ORIGIN)
            return self.stop(EventKind.ORIGIN_STOP, origin, note="stationary_origin")
        branch = 2 if cross1 else 1
        self.emit(EventKind.ORIGIN_STOP, origin, branch,
                  note=f"slide_through_sigma{branch}_nonunique")
        return partial(self.run_sliding, branch, 0.0)

    # -- smooth mode ---------------------------------------------------------
    def run_smooth(self, p: Point, name: str):
        """Step the field `name` from p, recorded here, to the next event.
        A coordinate's crossing watch arms once it leaves the ARM band."""
        mode = Mode.SMOOTH_X if name == "X" else Mode.SMOOTH_Y
        self.record(p, mode)
        armed1, armed2 = abs(p[0]) > ARM, abs(p[1]) > ARM
        F = self.Z.field(name).compiled_eval
        t, n, t_max, box, max_steps = self.t, self.steps, self.t_max, self.box, MAX_STEPS
        append = self.samples.append
        hit = None
        try:
            while t < t_max:
                n += 1
                if n > max_steps:
                    raise StepLimit(f"exceeded {max_steps} RK4 steps")
                step = t_max - t if t_max - t < STEP_H else STEP_H
                q = rk4_step_2d(F, p, step)
                x1, x2 = q
                if not (abs(x1) <= box and abs(x2) <= box):  # NaN fails too
                    _require_finite(q)
                    tau = _event_time(lambda u: max(map(abs, rk4_step_2d(F, p, u))) - box,
                                      step, max(map(abs, p)) - box, max(map(abs, q)) - box)
                    hit = (tau, _require_finite(rk4_step_2d(F, p, tau)), None)
                else:
                    if armed1 and ((x1 < 0.0) != (p[0] < 0.0) or abs(x1) <= SNAP):
                        hit = (*_land_on_axis(F, p, q, step, 0), 0)
                    if armed2 and ((x2 < 0.0) != (p[1] < 0.0) or abs(x2) <= SNAP):
                        hit2 = (*_land_on_axis(F, p, q, step, 1), 1)
                        if hit is None or hit2[0] < hit[0]:
                            hit = hit2
                    armed1, armed2 = armed1 or abs(x1) > ARM, armed2 or abs(x2) > ARM
                if hit is not None:
                    t += hit[0]
                    break
                p = q
                t += step
                append(Sample(t, x1, x2, mode))
        finally:
            self.t, self.steps = t, n
        if hit is None:
            return self.stop(EventKind.TIME_LIMIT, p)
        _, land, axis = hit
        self.record(land, mode)
        if axis is None:  # the box edge
            return self.stop(EventKind.BOX_EXIT, land)
        other = land[1 - axis]
        if abs(other) <= ARM:
            return self.handle_origin(arriving_field=name)
        return self.handle_junction(land, axis + 1, other, name)

    def handle_junction(self, p: Point, branch: int, s: float, arriving: str):
        kind = branch_point_class(self.Z, branch, s)
        if kind is ArcKind.CROSSING:
            self.emit(EventKind.BRANCH_CROSS, p, branch)
            return self.enter_crossing_side(p, branch, s)
        if kind is ArcKind.SLIDING:
            self.emit(EventKind.SLIDING_ENTRY, p, branch)
            return partial(self.run_sliding, branch, s)
        if kind is ArcKind.ESCAPING:
            self.emit(EventKind.GRAZE, p, branch,
                      note="grazing_arrival_on_escaping_arc_same_field")
            return partial(self.run_smooth, p, arriving)
        tangent = self.tangent_field_at(p, branch)
        if tangent is None:
            return self.stop_both_tangent(p, branch)
        if tangent == arriving:
            self.emit(EventKind.GRAZE, p, branch, note="fold_of_arriving_field")
            return partial(self.run_smooth, p, arriving)
        self.emit(EventKind.BRANCH_CROSS, p, branch,
                  note="crossing_at_fold_of_other_field")
        return partial(self.run_smooth, p, tangent)

    # -- sliding mode --------------------------------------------------------
    def run_sliding(self, branch: int, s: float):
        """Slide on Sigma_branch from s, recorded here, to the next stop."""
        mode = Mode.SLIDING1 if branch == 1 else Mode.SLIDING2
        self.record(branch_point(branch, s), mode)
        f = self.Z.sliding_field(branch).value
        t, n, t_max, box, max_steps = self.t, self.steps, self.t_max, self.box, MAX_STEPS
        append = self.samples.append
        # the tangency cuts within the box and the origin, which cannot
        # match while s == 0.0, as a stop differs from s
        cuts = sorted([c.s for c in find_tangencies(self.Z, branch, -box, box)] + [0.0])
        target = None
        try:
            while t < t_max:
                n += 1
                if n > max_steps:
                    raise StepLimit(f"exceeded {max_steps} RK4 steps")
                step = t_max - t if t_max - t < STEP_H else STEP_H
                s_new = rk4_step_1d(f, s, step)
                stops = _cuts_reached(cuts, s, s_new)
                if not abs(s_new) <= box:
                    _require_finite((s_new,))
                    stops.append(box if s_new > 0 else -box)
                if stops:
                    target = min(stops, key=lambda c: abs(c - s))
                    t += _event_time(lambda u: rk4_step_1d(f, s, u) - target, step,
                                     s - target, s_new - target)
                    break
                s = s_new
                t += step
                append(Sample(t, 0.0, s, mode) if branch == 1 else Sample(t, s, 0.0, mode))
        finally:
            self.t, self.steps = t, n
        if target is None:
            return self.stop(EventKind.TIME_LIMIT, branch_point(branch, s), branch)
        p = branch_point(branch, target)
        self.record(p, mode)
        if abs(target) >= box:
            return self.stop(EventKind.BOX_EXIT, p, branch)
        if target == 0.0:
            return self.handle_origin(arriving_field=None)
        # tangency cut: leave the branch with the tangent field
        tangent = self.tangent_field_at(p, branch)
        if tangent is None:
            return self.stop_both_tangent(p, branch)
        self.emit(EventKind.SLIDING_EXIT, p, branch, note=f"exit_at_fold_of_{tangent}")
        return partial(self.run_smooth, p, tangent)


def integrate(Z: PiecewiseSystem, seed: Point, t_max: float,
              box: float = 2.0, backward: bool = False) -> Trajectory:
    """Integrate the piecewise flow from a seed for orbit time t_max, in RK4
    steps of STEP_H.

    Backward trajectories integrate the negated system forward (sample times
    remain non-negative; the direction is recorded on the trajectory).
    The seed's coordinates are taken as floats, ints included.  Raises
    ParseError unless t_max and box are positive and finite, and
    NonFiniteValue when a step overflows to NaN or infinity.
    """
    require_positive("t_max", t_max)
    require_positive("box", box)
    seed = (float(seed[0]), float(seed[1]))
    W = Z.negate() if backward else Z
    eng = _Integrator(W, t_max, box)
    eng.run(seed)
    return Trajectory(seed=seed, direction=-1 if backward else 1,
                      samples=eng.samples, events=eng.events,
                      terminal=eng.terminal)


# ---------------------------------------------------------------------------
# portraits
# ---------------------------------------------------------------------------

def phase_portrait(Z: PiecewiseSystem, box: float = 1.0,
                   seeds_per_quadrant: int = 3, seeds_per_branch: int = 2,
                   t_max: float = 5.0) -> list[Trajectory]:
    """Trajectories from a deterministic seed lattice: points along each
    quadrant diagonal and along each half-branch, each integrated in both
    time directions.  Raises ParseError, before any seed is built, unless box
    and t_max are positive and finite and both seed counts are integers >= 0."""
    require_positive("box", box)
    require_positive("t_max", t_max)
    if not all(isinstance(n, Integral) and n >= 0
               for n in (seeds_per_quadrant, seeds_per_branch)):
        raise ParseError(f"seed counts must be >= 0, got {seeds_per_quadrant!r} "
                         f"and {seeds_per_branch!r} (integers only)")
    seeds: list[Point] = []
    inv_sqrt2 = 2.0 ** -0.5
    for s1, s2 in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        for k in range(1, seeds_per_quadrant + 1):
            r = box * k / (seeds_per_quadrant + 1)
            seeds.append((s1 * r * inv_sqrt2, s2 * r * inv_sqrt2))
    for branch in (1, 2):
        for half in (1, -1):
            for k in range(1, seeds_per_branch + 1):
                s = half * box * k / (seeds_per_branch + 1)
                seeds.append(branch_point(branch, s))
    out: list[Trajectory] = []
    for seed in seeds:
        for backward in (False, True):
            try:
                out.append(integrate(Z, seed, t_max, box=box, backward=backward))
            except StepLimit:
                continue
    return out
