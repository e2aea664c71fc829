"""Truth values and combinators for fuel-indexed semi-decision.

A semi-decider is a pure function of one natural number, the fuel.  More
fuel may turn ``UNKNOWN`` into a commitment; a committed answer must never
change again.  That monotonicity is the one invariant everything else in
this package leans on, so the combinators here stay deliberately tiny.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import IncoherentRace, ValidationError

Fuel = int

__all__ = [
    "Fuel",
    "Verdict",
    "TwoBot",
    "KBot",
    "Outcome",
    "SemiDecider",
    "any_of",
    "race",
]


class Verdict(enum.Enum):
    """Answer of a semi-decider: a commitment or silence at this fuel."""

    CONFIRMED = "confirmed"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        return self is Verdict.CONFIRMED

    @property
    def committed(self) -> bool:
        return self is Verdict.CONFIRMED


class TwoBot(enum.Enum):
    """A bit that may also be undetermined at the current fuel."""

    ZERO = "0"
    ONE = "1"
    BOT = "bot"

    @property
    def committed(self) -> bool:
        return self is not TwoBot.BOT


@dataclass(frozen=True)
class KBot:
    """A color out of 0..k-1, or bottom when no color is determined."""

    color: int | None

    @staticmethod
    def bot() -> "KBot":
        return KBot(None)

    @property
    def is_bot(self) -> bool:
        return self.color is None

    @property
    def committed(self) -> bool:
        return self.color is not None


@dataclass(frozen=True)
class Outcome:
    """An answer at one fuel together with its certificate.

    ``verdict`` is a :class:`Verdict` for semi-decisions and a
    :class:`TwoBot` for races.  ``color`` names the committed color of an
    affirmative answer that has one, ``base`` the prediction a robustness
    question is asked about, and ``witnesses`` the replayable points or
    augmentations backing the answer.
    """

    verdict: Verdict | TwoBot
    color: int | None = None
    base: KBot | None = None
    witnesses: tuple[Any, ...] = ()


SemiDecider = Callable[[Fuel], Verdict]


def check_fuel(fuel: Fuel) -> None:
    """Reject anything that is not a natural number."""
    if not isinstance(fuel, int) or isinstance(fuel, bool) or fuel < 0:
        raise ValidationError(f"fuel must be a nonnegative integer, got {fuel!r}")


def any_of(deciders: Iterable[SemiDecider], fuel: Fuel) -> Verdict:
    """Finite join: confirmed iff some decider confirms at this fuel.

    The empty join is UNKNOWN.  Monotone whenever every input is.
    """
    check_fuel(fuel)
    for decide in deciders:
        if decide(fuel) is Verdict.CONFIRMED:
            return Verdict.CONFIRMED
    return Verdict.UNKNOWN


def race(yes_side: SemiDecider, no_side: SemiDecider, fuel: Fuel) -> TwoBot:
    """Run two semi-deciders for mutually exclusive conditions.

    Both sides are evaluated at the same fuel, so the outcome needs no
    tie-break and is deterministic.  A double commitment violates the
    exclusivity precondition and raises :class:`IncoherentRace`.
    """
    check_fuel(fuel)
    yes = yes_side(fuel) is Verdict.CONFIRMED
    no = no_side(fuel) is Verdict.CONFIRMED
    if yes and no:
        raise IncoherentRace("both sides of a race confirmed at the same fuel")
    if yes:
        return TwoBot.ONE
    if no:
        return TwoBot.ZERO
    return TwoBot.BOT
