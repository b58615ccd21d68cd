"""Exception hierarchy shared by every torsob module.

Two failure families matter to callers (and to the command-line front end,
which maps them to process exit codes):

* :class:`DomainError` -- the request itself is outside the mathematical
  domain of the operation (bad branch, inadmissible exponent pair,
  malformed input file).  CLI exit code 2.
* :class:`ToleranceUnreachableError` -- the request is legal but the
  configured resource limits cannot certify the requested accuracy.
  CLI exit code 3.
"""

from __future__ import annotations

__all__ = [
    "TorsobError",
    "DomainError",
    "InputFormatError",
    "ToleranceUnreachableError",
    "ResourceLimitError",
]


class TorsobError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DomainError(TorsobError, ValueError):
    """Argument outside the mathematical domain of the operation."""

    exit_code = 2


class InputFormatError(DomainError):
    """Malformed user-supplied data (Fourier input files, config files)."""


class ToleranceUnreachableError(TorsobError, RuntimeError):
    """Requested accuracy cannot be certified within configured limits."""

    exit_code = 3


class ResourceLimitError(ToleranceUnreachableError):
    """A hard cap (lattice radius, point count) would be exceeded."""
