"""Small-sample statistics shared by the runner, the server and compare.py."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class Percentile(NamedTuple):
    """A percentile as reported: its value, the share used, the sample size."""

    value: float
    share: float
    samples: int


def supported_share(wanted: float, samples: int) -> float:
    """Highest share ``<= wanted`` with ``MIN_SAMPLES_BEYOND`` samples beyond it.

    Below twenty samples not even the median has ten samples on each
    side; the median is then the only honest summary, so it is returned
    whatever was asked for.
    """
    if samples < 2 * MIN_SAMPLES_BEYOND:
        return 0.5
    return max(0.5, min(wanted, 1.0 - MIN_SAMPLES_BEYOND / samples))


def percentile(values: Sequence[float], wanted: float) -> Percentile:
    """``wanted`` share of ``values``, lowered until the sample supports it."""
    if not values:
        return Percentile(math.nan, wanted, 0)
    ordered = sorted(values)
    share = supported_share(wanted, len(ordered))
    # Nearest-rank on the sorted sample: the value at or above which
    # ``1 - share`` of the samples lie.
    rank = min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))
    return Percentile(float(ordered[rank]), share, len(ordered))


class Spread(NamedTuple):
    """Median and quartiles of repeated runs of one metric."""

    median: float
    q1: float
    q3: float
    runs: int

    @property
    def relative(self) -> float:
        """Inter-quartile distance as a share of the median."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else math.inf
        return (self.q3 - self.q1) / abs(self.median)


def spread(values: Sequence[float]) -> Spread:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else math.nan
        return Spread(only, only, only, len(values))
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Spread(median, q1, q3, len(values))
