"""Truth values and combinators for fuel-indexed semi-decision.

A semi-decider is a pure function of one natural number, the fuel.  More
fuel may turn ``UNKNOWN`` into a commitment; a committed answer must never
change again.  That monotonicity is the one invariant everything else in
this package leans on, so the combinators here stay deliberately tiny.

The query context lives here too, so that ``verify`` and ``learners``
share it: ``boxcert verify`` opens one per query, and the searches save
under their arguments what a call at more fuel can walk on from.  Results
stay pure functions of the arguments, and nothing outlives the query.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .errors import IncoherentRace, ValidationError

if TYPE_CHECKING:
    from .classifiers import ColorEnvelope, IntervalClassifier
    from .numerics import Box

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


@dataclass
class _Query:
    """What one query's searches share until it ends: each walk's frontier,
    ``does_deviate``'s finished stage and tried candidates, and each
    ``_per_query`` result, keyed by arguments, and box envelopes."""

    frontiers: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    envelopes: dict = field(default_factory=dict)

    def resume(self, key, fuel: Fuel, root):
        """The frontier the walk ``key`` left at no more fuel, else ``root``."""
        at, frontier = self.frontiers.get(key, (fuel, root))
        return frontier if at <= fuel else root

    def envelope(self, f: IntervalClassifier) -> Callable[[Box], ColorEnvelope]:
        """``f.eval_box`` once per box, keyed on its raw integers with no
        ``gcd``: walks that bisect one bounding box alike reach equal keys."""
        memo = self.envelopes.setdefault(f, {})

        def envelope(box: Box) -> ColorEnvelope:
            key = box.lo, box.hi, box.den
            return memo.get(key) or memo.setdefault(key, f.eval_box(box))

        return envelope


_QUERY = contextvars.ContextVar("boxcert_query", default=None)


def _query() -> _Query:
    """The current query context; outside one, a fresh throwaway one."""
    return _QUERY.get() or _Query()


@contextlib.contextmanager
def _query_scope() -> Iterator[None]:
    """Keep the current query context, else open a fresh one for the block."""
    token = None if _QUERY.get() else _QUERY.set(_Query())
    try:
        yield
    finally:
        if token is not None:
            _QUERY.reset(token)


def _per_query(fn):
    """``fn``, computed once per arguments in the current query context."""

    @functools.wraps(fn)
    def cached(*args):
        try:
            return (results := _query().results)[fn, args]
        except KeyError:
            return results.setdefault((fn, args), fn(*args))

    return cached


def _fuel_loop(step: Callable[[Fuel], Any], done: Callable[[Any], bool], max_fuel: Fuel) -> list:
    """Every result of ``step`` at fuel 0, 1, ... in one query context, up to
    the first that ``done`` accepts or through ``max_fuel``."""
    check_fuel(max_fuel)
    with _query_scope():
        results = [step(0)]
        while not done(results[-1]) and len(results) <= max_fuel:
            results.append(step(len(results)))
    return results
