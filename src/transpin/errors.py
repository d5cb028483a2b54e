"""Exception types shared across the package.

All of these derive from :class:`ValueError` so that generic callers can
catch one base class, while the CLI and tests can distinguish the cause.
"""

from __future__ import annotations

__all__ = [
    "InvalidModeError",
    "DomainError",
    "ResolutionError",
    "ConfigurationError",
    "RepresentationError",
    "UnsupportedModeError",
]


class InvalidModeError(ValueError):
    """Mode indices outside the allowed family range (e.g. TM with m = 0)."""


class DomainError(ValueError):
    """Evaluation point outside the geometric domain of the field."""


class ResolutionError(ValueError):
    """A quadrature that is not built: guided mode indices past the
    transverse grid's bound."""


class ConfigurationError(ValueError):
    """Invalid run configuration (bad key, bad value, missing field)."""


class RepresentationError(ValueError):
    """A six-spinor was supplied in the wrong representation."""


class UnsupportedModeError(ValueError):
    """The requested derivation does not exist for this mode family."""
