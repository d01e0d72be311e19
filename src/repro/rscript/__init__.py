"""An interpreter for the R subset the R backend emits.

The R backend renders each tgd as an R script; this package parses and
executes those scripts on the frame engine, so what the ``r`` backend
runs is the generated text itself.
"""

from .interp import (
    RInterpreter,
    RInterpreterError,
    StlResult,
    TsVector,
    run_r_script,
)
from .rparser import RSyntaxError, parse_r

__all__ = [
    "parse_r",
    "RSyntaxError",
    "RInterpreter",
    "RInterpreterError",
    "run_r_script",
    "TsVector",
    "StlResult",
]
