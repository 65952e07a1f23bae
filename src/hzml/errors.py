"""Exception vocabulary shared across the package.

Two families: validation errors (bad inputs, caller mistakes) derive from
ValueError; numerical alarms (the computation ran but its own diagnostics
tripped) derive from NumericalAlarm so the CLI can map them to a distinct
exit code.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Argument outside the supported domain (strip, height cap, order cap)."""


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole for the requested accuracy."""


class NumericalAlarm(RuntimeError):
    """Base class for self-diagnosed numerical failures."""


class BranchError(NumericalAlarm):
    """A quantity that must be real came back with a large imaginary part,
    indicating a broken branch of chi^(-1/2)."""


class ImaginaryLeakError(NumericalAlarm):
    """A conjugate-closed root sum failed to cancel its imaginary part."""


class ConvergenceError(NumericalAlarm):
    """An iterative solver did not reach its target residual."""


class CompletenessAlarm(NumericalAlarm):
    """A zero scan disagrees with the expected count even after rescans."""


class QuadratureError(NumericalAlarm):
    """Adaptive quadrature could not meet its error target."""
