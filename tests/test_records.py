"""The contract of the 18 record types that carry the paper's objects.

Each record is built from two sets of field values that differ in every
field.  Checked for each type: field names and order, defaults, equality
(equal fields compare equal, one changed field compares unequal), the
`Name(field=value, ...)` repr, that assigning to a field (or to any other
attribute) raises AttributeError, and that equal hashable records hash equal.

Oracle notes:
  [TRIVIAL] hand-written field tables and values.
"""
from __future__ import annotations

import inspect

import pytest

from crosswitch.classify import Classification, UnfoldingVerification, VerifyCheck
from crosswitch.fields import FieldSpec, PiecewiseSystem, Poly1, Poly2, SlidingField
from crosswitch.flow import Event, EventKind, HalfCrossingResult, Mode, Sample, Trajectory
from crosswitch.report import SweepRecord
from crosswitch.returnmap import FixedPoint, HalfMapCoeffs, NumericReturn, ReturnMapModel
from crosswitch.switching import (
    Arc,
    ArcKind,
    PseudoEquilibrium,
    SigmaDecomposition,
    TangencyPoint,
    Visibility,
)

_X = FieldSpec(Poly2([(0, 0, 1.0)]), Poly2([(1, 0, 2.0)]))
_Y = FieldSpec(Poly2([(0, 0, -1.0)]), Poly2([(0, 1, 0.5)]))
_CHECK = VerifyCheck("fold_location", True, "ok")
_VERIFIED = UnfoldingVerification("F", {"a": 1}, 0.1, "P", "P", (_CHECK,))
_EVENT = Event(EventKind.BRANCH_CROSS, 0.5, (0.0, 1.0), 1, "n")
_HX = HalfMapCoeffs("X", 1.0, 2.0, 3.0, "jet", None)
_HY = HalfMapCoeffs("Y", -1.0, 0.5, 0.25, "numeric", 1e-9)
_ARC = Arc(1, 1, 0.0, 1.0, ArcKind.CROSSING)
_FOLD = TangencyPoint("X", 2, 0.2, (0.2, 0.0), 1.0, Visibility.VISIBLE)

#: (type, field names in order, two value tuples that differ in every field)
RECORDS = [
    (Classification, ("class_name", "signs", "witnesses", "reasons", "codimension"),
     ("Stable_C1", {"a": 1}, {"w": 0.5}, ("r",), 0),
     ("Stable_C2", {"a": -1}, {"w": 1.5}, ("s",), 1)),
    (VerifyCheck, ("name", "ok", "detail"),
     ("fold_location", True, "ok"), ("alpha_formula", False, "off")),
    (UnfoldingVerification,
     ("family", "signs", "delta", "predicted_class", "observed_class", "checks"),
     ("F", {"a": 1}, 0.1, "P", "O", (_CHECK,)),
     ("G", {"a": -1}, -0.1, "Q", "R", ())),
    (FieldSpec, ("f1", "f2"),
     (Poly2([(0, 0, 1.0)]), Poly2([(1, 0, 2.0)])),
     (Poly2([(0, 0, 3.0)]), Poly2([(0, 1, 4.0)]))),
    (SlidingField, ("branch", "numerator", "denominator"),
     (1, Poly1([1.0, 2.0]), Poly1([3.0])), (2, Poly1([4.0]), Poly1([5.0, 1.0]))),
    (PiecewiseSystem, ("X", "Y"), (_X, _Y), (_Y, _X)),
    (Event, ("kind", "t", "point", "branch", "note"),
     (EventKind.BRANCH_CROSS, 0.5, (0.0, 1.0), 1, "n"),
     (EventKind.GRAZE, 1.5, (1.0, 0.0), 2, "m")),
    (Trajectory, ("seed", "direction", "samples", "events", "terminal"),
     ((0.1, 0.2), 1, [Sample(0.0, 0.1, 0.2, Mode.SMOOTH_X)], [_EVENT], _EVENT),
     ((0.3, 0.4), -1, [Sample(0.0, 0.3, 0.4, Mode.SMOOTH_Y)], [], None)),
    (HalfCrossingResult, ("point", "off_crossing"), ((0.0, 1.0), False), ((1.0, 0.0), True)),
    (SweepRecord, ("delta", "verification"),
     (0.1, _VERIFIED), (0.2, UnfoldingVerification("G", {}, 0.2, "Q", "R", ()))),
    (HalfMapCoeffs, ("field", "a", "b", "c", "source", "error_estimate"),
     ("X", 1.0, 2.0, 3.0, "jet", None), ("Y", -1.0, 0.5, 0.25, "numeric", 1e-9)),
    (ReturnMapModel,
     ("alpha", "gamma", "beta", "c3", "eta", "half_x", "half_y", "psi", "phi"),
     (-1.0, 2.0, 0.5, 0.25, -0.5, _HX, _HY, (1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
     (0.5, 1.0, 0.1, 0.2, None, _HY, _HX, (1.0, 0.0, 0.0), (1.0, 1.0, 0.0))),
    (NumericReturn, ("value", "hit_sliding", "legs"),
     (0.5, False, ((0.5, 0.0), (0.0, 0.4))), (0.25, True, ((0.25, 0.0),))),
    (FixedPoint, ("x", "conjugate", "multiplier", "stable", "hit_sliding"),
     (-0.1, 0.1, 0.9, True, False), (-0.2, 0.2, 1.1, None, True)),
    (TangencyPoint, ("field", "branch", "s", "point", "lie", "visibility"),
     ("X", 2, 0.2, (0.2, 0.0), 1.0, Visibility.VISIBLE),
     ("Y", 1, -0.3, (0.0, -0.3), -2.0, Visibility.INVISIBLE)),
    (Arc, ("branch", "half", "inner", "outer", "kind"),
     (1, 1, 0.0, 1.0, ArcKind.CROSSING), (2, -1, -0.5, -1.0, ArcKind.SLIDING)),
    (SigmaDecomposition, ("radius", "arcs", "tangencies"),
     (1.0, (_ARC,), (_FOLD,)), (2.0, (), ())),
    (PseudoEquilibrium,
     ("branch", "s", "point", "region_kind", "derivative", "hyperbolic", "stability"),
     (1, 0.1, (0.0, 0.1), ArcKind.SLIDING, -1.0, True, "attracting"),
     (2, -0.2, (-0.2, 0.0), ArcKind.ESCAPING, 1.0, False, None)),
]

_IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_type_is_listed():
    assert len(set(_IDS)) == len(RECORDS) == 18


@pytest.mark.parametrize("cls, names, values, _other", RECORDS, ids=_IDS)
def test_field_names_and_order(cls, names, values, _other):
    assert tuple(inspect.signature(cls).parameters) == names
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(rec, name) is value


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=_IDS)
def test_equality(cls, names, values, other):
    rec = cls(*values)
    assert rec == cls(*values)
    assert not rec != cls(*values)
    for k in range(len(names)):
        changed = list(values)
        changed[k] = other[k]
        assert rec != cls(*changed), names[k]


@pytest.mark.parametrize("cls, names, values, _other", RECORDS, ids=_IDS)
def test_repr(cls, names, values, _other):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned(cls, names, values, other):
    rec = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    with pytest.raises(AttributeError):
        rec.extra = 1     # nor any other attribute
    assert rec == cls(*values)


@pytest.mark.parametrize("cls, names, values, _other", RECORDS, ids=_IDS)
def test_equal_hashable_records_hash_equal(cls, names, values, _other):
    try:
        hash(tuple(values))
    except TypeError:
        # a field value is unhashable, so the record is too
        with pytest.raises(TypeError):
            hash(cls(*values))
        return
    assert hash(cls(*values)) == hash(cls(*values))


def test_defaults():
    assert Classification("C", {}, {}) == Classification("C", {}, {}, (), 0)
    assert Event(EventKind.GRAZE, 0.0, (0.0, 0.0)) == Event(
        EventKind.GRAZE, 0.0, (0.0, 0.0), None, "")
    first, second = Trajectory((0.0, 1.0), 1), Trajectory((1.0, 0.0), -1)
    assert (len(first.samples), len(first.events), first.terminal) == (0, 0, None)
    # no mutable default is shared between two trajectories
    for a, b in ((first.samples, second.samples), (first.events, second.events)):
        assert a is not b or not isinstance(a, list)
