"""Exception hierarchy for the repro package.

All exceptions raised by this package derive from :class:`ReproError`
so callers can catch everything with one clause while still being able
to distinguish configuration problems from runtime problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent arguments."""


class ProfileError(ReproError):
    """A profile table is missing an entry or was built inconsistently."""


class PowerCapError(ReproError):
    """A power cap outside the machine's feasible range was requested."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid internal state."""
