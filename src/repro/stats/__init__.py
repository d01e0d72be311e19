"""Statistical operator implementations shared by every executor.

This package replaces the statistical capabilities the paper borrows
from R and Matlab (seasonal decomposition, regression, smoothing,
aggregations), per the substitution rule in DESIGN.md §7.
"""

from .._lazy import lazy_surface

#: public name -> defining submodule
_EXPORTS = {
    "AGGREGATES": "aggregates",
    "get_aggregate": "aggregates",
    "aggregate_names": "aggregates",
    "Decomposition": "decomposition",
    "classical_decompose": "decomposition",
    "stl_decompose": "decomposition",
    "stl_trend": "decomposition",
    "stl_seasonal": "decomposition",
    "stl_remainder": "decomposition",
    "LinearFit": "regression",
    "ols": "regression",
    "fitted_line": "regression",
    "residuals": "regression",
    "cumsum": "series_ops",
    "standardize": "series_ops",
    "first_difference": "series_ops",
    "interpolate_gaps": "series_ops",
    "index_to_base": "series_ops",
    "moving_average": "smoothing",
    "centered_moving_average": "smoothing",
    "loess": "smoothing",
}

__getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)
