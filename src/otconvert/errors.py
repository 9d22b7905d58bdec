"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: validation-type errors exit 2,
numerical failures exit 3, training divergence exits 4.
"""

import math
from dataclasses import fields


class ValidationError(ValueError):
    """Bad arguments: malformed marginals, mismatched dims, unknown keys."""


class SettingError(ValidationError):
    """A settings dataclass field holds a bad value: "<field> <problem>"."""

    def __init__(self, field, problem):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


class ShapeError(ValidationError):
    """Array shape disagrees with a model or operation contract."""


class DomainError(ValidationError):
    """Input outside the mathematical domain (non-PSD matrix, zero-norm row)."""


class CapacityError(ValidationError):
    """Problem size or shape outside a documented solver limit."""


class NumericalError(RuntimeError):
    """Non-finite values or loss of precision during a computation."""


class ConvergenceWarning(UserWarning):
    """A solver stopped at its iteration budget, short of its tolerance."""


class DivergenceError(RuntimeError):
    """A training loop blew past the divergence guard."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def reject_non_finite(config):
    """Reject nan and inf in a settings dataclass's float fields, naming the field.

    Range checks alone let nan through: every comparison with it is False.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise SettingError(f.name, f"must be finite, got {value}")
