"""Exception hierarchy for the crosswitch package, and `require_positive`,
the one check of a parameter that must be positive and finite."""
from __future__ import annotations

import math


class CrosswitchError(Exception):
    """Base class for all crosswitch-specific errors."""


class ParseError(CrosswitchError, ValueError):
    """Malformed or invalid input: a system description (bad JSON, bad
    schema, degree cap exceeded, wrong monomial records), an option value
    (a path that cannot be read or written included), or a library
    parameter outside its domain (`require_positive`, seed counts, a scan's
    cells and bounds, a delta that is not finite)."""


def require_positive(name: str, value: float) -> None:
    """Raise ParseError unless value is positive and finite (NaN is not)."""
    if not 0.0 < value < math.inf:
        raise ParseError(f"{name} must be positive and finite, got {value!r}")


class NonFiniteCoefficients(CrosswitchError):
    """A polynomial or half-map jet coefficient is NaN or infinite."""


class DegenerateInput(ParseError):
    """Structurally invalid input (e.g. polynomial degree above the cap)."""


class NotTransverse(CrosswitchError):
    """An operation that needs the fields transverse to both branches at the
    origin was called on a system with a vanishing component there."""


class NotTransient(CrosswitchError):
    """An operation that needs a transient system (orbits crossing both
    branches near the origin) was called on a non-transient one."""


class EvaluationOutsideDomain(CrosswitchError):
    """A sliding field was evaluated where its denominator vanishes."""


class TooManyTangencies(CrosswitchError):
    """An object of the decomposition fills a whole arc: a normal component
    vanishes identically on its branch, or det Z does on a branch with a
    sliding or escaping arc."""


class LeftDomain(CrosswitchError):
    """A crossing leg of the numeric return map left the working box,
    returned to its starting branch, or landed within `flow.ARM` of the
    origin, where no leg can start."""


class StepLimit(CrosswitchError):
    """The integrator exceeded its step budget."""


class RouteMismatch(CrosswitchError):
    """The lane route of a fixed-point scan and the scalar orbit legs of
    `numeric_return_map` gave full-turn values further apart than
    `lanes.LANE_CHECK_TOL` * (1 + |x|): a numerical fault, not unusable
    input."""


class SeedOutsideBox(CrosswitchError, ValueError):
    """An integration seed lies outside the integration box or is not
    finite."""


class NonFiniteValue(CrosswitchError, ValueError):
    """A computed value bound for a canonical output, or a flow step, is NaN
    or infinite (e.g. field magnitudes whose products overflow)."""


class InvalidSigns(CrosswitchError):
    """A normal-form/unfolding generator received a sign dictionary with
    missing keys or values outside {-1, +1}."""


class PredictionMismatch(CrosswitchError):
    """An unfolding verification found behaviour that contradicts the
    analytic predictions for the family."""
