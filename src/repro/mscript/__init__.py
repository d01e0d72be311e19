"""An interpreter for the Matlab subset the Matlab backend emits.

Symmetric to :mod:`repro.rscript`: parses and executes the rendered
Matlab text directly on the matrix engine (the ``matlab`` backend).
"""

from .minterp import MInterpreter, MInterpreterError, run_m_script
from .mparser import MSyntaxError, parse_m

__all__ = [
    "parse_m",
    "MSyntaxError",
    "MInterpreter",
    "MInterpreterError",
    "run_m_script",
]
