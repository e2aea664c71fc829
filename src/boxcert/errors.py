"""Error types shared across the package.

Every failure that callers are expected to handle derives from
:class:`BoxcertError`, and there are three kinds:

- :class:`ParseError`: an input file or literal could not be parsed.
- :class:`ValidationError`: an argument is malformed or out of range (a
  dimension or shape mismatch, a color outside ``0..k-1``, a nonpositive
  radius, margin or fuel).  It is also a :class:`ValueError`.
- :class:`IncoherentRace`: both sides of a race committed at one fuel.
"""

from __future__ import annotations

__all__ = ["BoxcertError", "IncoherentRace", "ParseError", "ValidationError"]


class BoxcertError(Exception):
    """Base class for all errors raised by this package."""


class IncoherentRace(BoxcertError):
    """Both sides of a race committed at the same fuel.

    The two sides of a race must semi-decide disjoint conditions, so a
    double commitment means a caller violated that precondition.  It is
    surfaced, never silently resolved.
    """


class ParseError(BoxcertError):
    """An input file or literal could not be parsed."""


class ValidationError(BoxcertError, ValueError):
    """An argument is malformed or out of range."""
