"""Exception types shared across the package, and the integer checks of
its settings and sizes."""

import numbers


class RomcastError(Exception):
    """Base class for all package errors."""


class InvalidConfig(RomcastError):
    """A configuration value is out of its legal range."""


class StabilityViolation(InvalidConfig):
    """Time step violates the explicit-scheme CFL bounds."""


class ShapeMismatch(RomcastError):
    """Array dimensions do not line up."""


class EmptyInput(RomcastError):
    """An operation received no data."""


class NonFiniteInput(RomcastError):
    """Input contains NaN or Inf."""


class DegenerateData(RomcastError):
    """Data has no variance; a basis/truncation is undefined."""


class NumericalFailure(RomcastError):
    """A numerical routine failed to converge."""


class TapeMismatch(RomcastError):
    """Backward called with a tape that does not match the forward pass."""


class LabelOutOfRange(RomcastError):
    """Binary label is neither 0 nor 1."""


class TooFewSteps(RomcastError):
    """Sequence too short to build even one training window."""


class NonFiniteLoss(RomcastError):
    """Training loss became NaN/Inf (diverged)."""


class StartOutOfRange(RomcastError):
    """Rollout start point leaves no room for window or horizon."""


class MissingArtifact(RomcastError):
    """A pipeline artifact file does not exist."""


class HashMismatch(RomcastError):
    """A pipeline artifact changed after a downstream artifact was built."""


def is_integer(value):
    """Whether ``value`` is an integer, a Python or numpy one, and not a
    bool: the test that every integer setting and size passes."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_size(name, value, least):
    """Raise InvalidConfig naming ``name`` unless ``value`` is an integer
    (``is_integer``) of at least ``least``."""
    if not is_integer(value) or value < least:
        raise InvalidConfig(f"{name} must be an integer >= {least}, got "
                            f"{value!r}")
