"""Seeded input draws with balanced short-run proportions."""

from __future__ import annotations

import math
import random
from typing import Callable, List, Sequence


class Deck:
    """Draws from shuffled rounds of ``cards``.

    Every round deals each card once, so any stretch of draws holds the
    cards in nearly their long-run proportions.  Independent draws would
    let one seed's phase get many more expensive inputs than another's,
    which moves the latency of a loaded server far more than the code
    does.
    """

    def __init__(self, rng: random.Random,
                 cards: Callable[[], Sequence]) -> None:
        self._rng = rng
        self._cards = cards
        self._hand: List = []

    def draw(self):
        if not self._hand:
            self._hand = list(self._cards())
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def strata(rng: random.Random, count: int,
           inverse_cdf: Callable[[float], float]) -> List[float]:
    """One value from each of ``count`` equal-probability strata."""
    return [inverse_cdf((i + rng.random()) / count) for i in range(count)]


def uniform_ints(rng: random.Random, low: int, high: int, count: int,
                 step: int = 1) -> Deck:
    """A deck over ``low..high`` (inclusive, on ``step``), stratified."""
    span = (high - low) // step + 1
    return Deck(rng, lambda: [
        low + step * min(span - 1, int(u * span))
        for u in strata(rng, count, lambda p: p)])


def exponential(rng: random.Random, mean: float, count: int = 64) -> Deck:
    """A deck of exponential gaps with the given mean, stratified."""
    return Deck(rng, lambda: strata(
        rng, count, lambda p: -mean * math.log(1.0 - p)))


def mix(rng: random.Random, weights: Sequence) -> Deck:
    """A deck dealing each name ``weight`` times per round."""
    return Deck(rng, lambda: [name for name, weight in weights
                              for _ in range(weight)])
