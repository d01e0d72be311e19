"""Linear regression, one of EXL's complex statistical operators.

Ordinary least squares implemented via numpy's least-squares solver.
EXL exposes three whole-cube operators on time series built on this:
``linreg_fit`` (fitted values), ``linreg_resid`` (residuals) and
``detrend`` (alias of residuals against time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import StatsError

# numpy is imported where an array is built (see ``smoothing``)

__all__ = ["LinearFit", "ols", "fitted_line", "residuals"]


@dataclass
class LinearFit:
    """Result of a univariate OLS fit ``y ≈ intercept + slope * x``."""

    intercept: float
    slope: float
    r_squared: float

    def predict(self, x: Sequence[float]) -> List[float]:
        import numpy as np

        return [self.intercept + self.slope * xi for xi in np.asarray(x, dtype=float)]


def ols(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Fit ``y ≈ a + b x`` by ordinary least squares."""
    import numpy as np

    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if len(xs) != len(ys):
        raise StatsError("x and y must have the same length")
    if len(xs) < 2:
        raise StatsError("need at least 2 points for a linear fit")
    design = np.column_stack([np.ones(len(xs)), xs])
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    intercept, slope = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(intercept, slope, r_squared)


def fitted_line(values: Sequence[float]) -> List[float]:
    """OLS fitted values of a series regressed on its time index."""
    fit = ols(range(len(values)), values)
    return fit.predict(range(len(values)))


def residuals(values: Sequence[float]) -> List[float]:
    """OLS residuals of a series regressed on its time index."""
    fitted = fitted_line(values)
    return [v - f for v, f in zip(values, fitted)]
