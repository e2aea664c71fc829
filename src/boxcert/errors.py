"""Error types shared across the package.

Every failure that callers are expected to handle derives from
:class:`BoxcertError`.
"""

from __future__ import annotations


class BoxcertError(Exception):
    """Base class for all errors raised by this package."""


class IncoherentRace(BoxcertError):
    """Both sides of a race committed at the same fuel.

    The two sides of a race must semi-decide disjoint conditions, so a
    double commitment means a caller violated that precondition.  It is
    surfaced, never silently resolved.
    """


class DimensionMismatch(BoxcertError):
    """Operands disagree on the ambient dimension."""


class ZeroNormal(BoxcertError):
    """A hyperplane needs at least one nonzero weight."""


class ShapeMismatch(BoxcertError):
    """Layer shapes of a network do not chain."""


class ColorOutOfRange(BoxcertError):
    """A color index fell outside 0..k-1."""


class NonpositiveRadius(BoxcertError):
    """A ball radius that must be positive was not."""


class AugmentationCapExceeded(BoxcertError):
    """A requested augmentation length exceeds the configured cap."""


class ParseError(BoxcertError):
    """An input file or literal could not be parsed."""


class ValidationError(BoxcertError):
    """A parsed input failed semantic validation."""
