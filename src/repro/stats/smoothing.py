"""Smoothers for time series: moving averages and loess.

The seasonal decomposition operator (``stl``) of the paper is built on
these.  ``loess`` is a from-scratch implementation of locally weighted
linear regression with tricube weights — the smoother at the core of
Cleveland's STL procedure — so the reproduction does not depend on R.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from ..errors import StatsError

if TYPE_CHECKING:
    # for the annotations; at run time numpy is imported by the
    # functions that build an array — ``exl show`` and ``exl compile``
    # load this module (through ``exl.operators``) for the operator
    # table alone
    import numpy as np

__all__ = ["moving_average", "centered_moving_average", "loess"]


def moving_average(values: Sequence[float], window: int) -> List[float]:
    """Trailing moving average; the first ``window - 1`` outputs average
    whatever prefix is available (expanding window).
    """
    import numpy as np

    if window < 1:
        raise StatsError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=float)
    out: List[float] = []
    running = 0.0
    for i, v in enumerate(arr):
        running += v
        if i >= window:
            running -= arr[i - window]
        out.append(running / min(i + 1, window))
    return out


def centered_moving_average(values: Sequence[float], window: int) -> List[float]:
    """Centered moving average as used in classical decomposition.

    For an even window a 2×MA is used (the standard trick: a window+1
    span with half weights at the ends), so the result stays centered.
    Endpoints where the full window does not fit shrink symmetrically.
    """
    import numpy as np

    if window < 1:
        raise StatsError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=float)
    n = len(arr)
    out = np.empty(n)
    if window % 2 == 1:
        half = window // 2
        weights = np.ones(window) / window
    else:
        half = window // 2
        weights = np.ones(window + 1)
        weights[0] = weights[-1] = 0.5
        weights /= window
    span = len(weights)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        w = weights[(lo - (i - half)):(span - ((i + half + 1) - hi))]
        chunk = arr[lo:hi]
        out[i] = float(np.dot(chunk, w) / w.sum())
    return out.tolist()


def _tricube(u: np.ndarray) -> np.ndarray:
    clipped = abs(u).clip(0.0, 1.0)
    return (1.0 - clipped**3) ** 3


def loess(
    values: Sequence[float],
    frac: float = 0.5,
    degree: int = 1,
    x: Sequence[float] = None,
) -> List[float]:
    """Locally weighted polynomial regression (loess) smoother.

    For each point, fits a weighted polynomial of the given ``degree``
    to the nearest ``ceil(frac * n)`` neighbours using tricube weights
    and evaluates it at the point.

    Args:
        values: the series to smooth.
        frac: fraction of the series used in each local fit (0 < frac <= 1).
        degree: 0 (local constant), 1 (local linear) or 2 (local quadratic).
        x: optional abscissae; defaults to 0..n-1.

    Returns:
        The smoothed series, same length as ``values``.
    """
    import numpy as np

    if not 0.0 < frac <= 1.0:
        raise StatsError(f"frac must be in (0, 1], got {frac}")
    if degree not in (0, 1, 2):
        raise StatsError(f"degree must be 0, 1 or 2, got {degree}")
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n == 0:
        return []
    xs = np.arange(n, dtype=float) if x is None else np.asarray(x, dtype=float)
    if len(xs) != n:
        raise StatsError("x and values must have the same length")
    k = max(degree + 1, int(np.ceil(frac * n)))
    k = min(k, n)
    out = np.empty(n)
    for i in range(n):
        distances = np.abs(xs - xs[i])
        # the k nearest neighbours define the local window
        idx = np.argpartition(distances, k - 1)[:k]
        local_x = xs[idx]
        local_y = y[idx]
        span = distances[idx].max()
        if span == 0:
            out[i] = local_y.mean()
            continue
        w = _tricube(distances[idx] / span)
        if w.sum() == 0:
            w = np.ones_like(w)
        if degree == 0:
            out[i] = float(np.average(local_y, weights=w))
        else:
            # weighted polynomial fit via the normal equations
            design = np.vander(local_x - xs[i], degree + 1, increasing=True)
            wd = design * w[:, None]
            coeffs, *_ = np.linalg.lstsq(wd.T @ design, wd.T @ local_y, rcond=None)
            out[i] = float(coeffs[0])  # polynomial evaluated at the centre
    return out.tolist()
