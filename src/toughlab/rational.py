"""Exact toughness values: reduced nonnegative fractions plus infinity.

Toughness of a complete graph is infinite and toughness of a disconnected
graph is zero; everything else is a positive rational. Range tests are
plain comparisons: a Fraction compares by integer cross-multiplication and
INFINITY orders above every fraction, so no float ever enters a decision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class ToughnessInfinity:
    """Toughness of complete graphs; compares strictly above every fraction.

    The one instance is INFINITY: pickle and copy return it by name, so
    equality and hashing by identity are exact.
    """

    def __reduce__(self):
        return "INFINITY"

    def __repr__(self):
        return "INFINITY"

    def __lt__(self, other):
        return False


INFINITY = ToughnessInfinity()

ToughnessValue = Fraction | ToughnessInfinity


def is_finite(value: ToughnessValue) -> bool:
    return isinstance(value, Fraction)


def exceeds_half(value: ToughnessValue) -> bool:
    """value > 1/2, exact."""
    return value > Fraction(1, 2)


def format_toughness(value: ToughnessValue) -> str:
    """"inf" for complete graphs, "0" for disconnected ones, else "num/den"."""
    if value is INFINITY:
        return "inf"
    if value == 0:
        return "0"
    return f"{value.numerator}/{value.denominator}"
