"""Seasonal decomposition of time series.

The paper's black-box multi-tuple operator ``stl`` decomposes a series
into trend, seasonal and remainder components; ``stl_T`` extracts the
trend (tgd (4)).  Two from-scratch procedures are provided:

* :func:`classical_decompose` — the textbook moving-average method
  (Brockwell & Davis, the paper's reference [7]).
* :func:`stl_decompose` — an STL-style iterative procedure: alternating
  loess smoothing of the deseasonalized series (trend) and of the
  cycle-subseries (seasonal), as in Cleveland et al.'s STL.

Both return a :class:`Decomposition` with ``trend + seasonal +
remainder == series`` (additive model) guaranteed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from ..errors import StatsError
from .smoothing import centered_moving_average, loess

if TYPE_CHECKING:
    # annotations only: imported where an array is built (see ``smoothing``)
    import numpy as np

__all__ = [
    "Decomposition",
    "classical_decompose",
    "stl_decompose",
    "stl_trend",
    "stl_seasonal",
    "stl_remainder",
]


@dataclass
class Decomposition:
    """Additive decomposition: series = trend + seasonal + remainder."""

    trend: List[float]
    seasonal: List[float]
    remainder: List[float]

    def reconstruct(self) -> List[float]:
        return [t + s + r for t, s, r in zip(self.trend, self.seasonal, self.remainder)]


def _validate(values: Sequence[float], period: int) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if period < 2:
        raise StatsError(f"period must be >= 2, got {period}")
    if len(arr) < 2 * period:
        raise StatsError(
            f"series too short for decomposition: {len(arr)} points, "
            f"need at least {2 * period} (two full periods)"
        )
    return arr


def _seasonal_means(detrended: np.ndarray, period: int) -> np.ndarray:
    """Per-phase means of the detrended series, centred to sum to zero."""
    import numpy as np

    phases = np.empty(period)
    for p in range(period):
        phases[p] = detrended[p::period].mean()
    phases -= phases.mean()
    return phases


def classical_decompose(values: Sequence[float], period: int) -> Decomposition:
    """Classical additive decomposition via centered moving average."""
    import numpy as np

    arr = _validate(values, period)
    trend = np.asarray(centered_moving_average(arr, period))
    detrended = arr - trend
    phases = _seasonal_means(detrended, period)
    seasonal = np.resize(phases, len(arr))
    remainder = arr - trend - seasonal
    return Decomposition(trend.tolist(), seasonal.tolist(), remainder.tolist())


def stl_decompose(
    values: Sequence[float],
    period: int,
    iterations: int = 2,
    trend_frac: float = None,
    seasonal_frac: float = 0.75,
) -> Decomposition:
    """STL-style decomposition by iterated loess.

    Each iteration (i) removes the current seasonal, (ii) smooths the
    deseasonalized series with loess to update the trend, (iii) smooths
    each cycle-subseries of the detrended series with loess to update
    the seasonal, re-centred per cycle position so seasonals sum to ~0.

    Args:
        values: the series.
        period: observations per seasonal cycle (e.g. 4 for quarterly).
        iterations: outer loop count; 2 is usually enough.
        trend_frac: loess span for the trend; defaults to a span of
            about 1.5 periods, mirroring STL's default trend window.
        seasonal_frac: loess span for cycle-subseries smoothing; the
            STL-with-``"periodic"`` behaviour of the paper's R listing
            corresponds to averaging the subseries, which a wide span
            approximates.
    """
    import numpy as np

    arr = _validate(values, period)
    n = len(arr)
    if trend_frac is None:
        trend_frac = min(1.0, (1.5 * period + 1) / n)
    seasonal = np.zeros(n)
    trend = np.zeros(n)
    for _ in range(max(1, iterations)):
        deseasonalized = arr - seasonal
        trend = np.asarray(loess(deseasonalized, frac=trend_frac, degree=1))
        detrended = arr - trend
        for p in range(period):
            subseries = detrended[p::period]
            if len(subseries) >= 2:
                smoothed = np.asarray(loess(subseries, frac=seasonal_frac, degree=0))
            else:
                smoothed = subseries.copy()
            seasonal[p::period] = smoothed
        # centre so the seasonal sums to approximately zero over a cycle
        seasonal -= seasonal.mean()
    remainder = arr - trend - seasonal
    return Decomposition(trend.tolist(), seasonal.tolist(), remainder.tolist())


def stl_trend(values: Sequence[float], period: int) -> List[float]:
    """The trend component — the paper's ``stl_T`` operator."""
    return stl_decompose(values, period).trend


def stl_seasonal(values: Sequence[float], period: int) -> List[float]:
    """The seasonal component (``stl_S``)."""
    return stl_decompose(values, period).seasonal


def stl_remainder(values: Sequence[float], period: int) -> List[float]:
    """The remainder component (``stl_R``)."""
    return stl_decompose(values, period).remainder
