"""Exception types shared across the package."""

from __future__ import annotations


class QphelmError(Exception):
    """Base class for all package-specific errors."""


class SeriesTruncationError(QphelmError):
    """An entire-series evaluation could not meet its target tolerance."""


class ResonanceError(QphelmError):
    """The wavenumber sits on (or too close to) the lattice spectrum."""


class NearLatticePointError(QphelmError):
    """Green-function evaluation requested too close to a source lattice point."""


class ContainmentError(QphelmError):
    """A rescaled hole does not fit inside the periodicity cell."""


class IllConditionedError(QphelmError):
    """A dense solve was refused because the estimated condition number is too large."""


class NewtonDivergenceError(QphelmError):
    """Damped Newton iteration failed to converge."""


class ConfigError(QphelmError):
    """A run configuration file is malformed or inconsistent."""
