"""The EXL operator registry.

Section 3 classifies operators as *tuple-level* (scalar and vectorial:
a result value depends on at most one tuple per operand) and
*multi-tuple* (aggregations and whole-cube black boxes: a result value
depends on a set of tuples).  This registry is the single source of
truth for every stage of the pipeline:

* the semantic checker uses signatures to type expressions;
* the mapping generator uses the classification to pick a tgd shape;
* the chase and each backend use the registered implementations;
* the determination engine uses ``targets`` (technical metadata) to
  decide which target systems support a cube's operators natively.

Backend names used in ``targets``: ``sql``, ``r``, ``matlab``, ``etl``,
``chase`` (the chase reference executor supports everything).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import OperatorError
from ..model.time import Frequency, TimePoint, convert
from ..stats import aggregates as _agg
from ..stats import regression as _reg
from ..stats import series_ops as _ser
from ..stats import smoothing as _smooth
from ..stats import decomposition as _dec

__all__ = [
    "OpKind",
    "OperatorSpec",
    "OperatorRegistry",
    "default_registry",
    "ALL_TARGETS",
    "OUTER_DEFAULTS",
    "period_for_frequency",
]

ALL_TARGETS = frozenset({"sql", "r", "matlab", "etl", "chase"})

#: built-in defaults of the outer vectorial operators (Section 3's
#: "default value for the missing tuples"); overridable per call.
OUTER_DEFAULTS = {"osum": 0.0, "odiff": 0.0, "oprod": 1.0}


class OpKind(enum.Enum):
    """Operator classes, following Section 3."""

    SCALAR = "scalar"  # tuple-level, one cube operand + scalar params
    SHIFT = "shift"  # tuple-level, transforms a (time) dimension
    OUTER_VECTORIAL = "outer_vectorial"  # tuple-level, default for missing tuples
    AGGREGATION = "aggregation"  # multi-tuple, group-by roll-up
    TABLE_FUNCTION = "table_function"  # multi-tuple black box, cube -> cube
    DIM_FUNCTION = "dim_function"  # scalar function on dimension values


# A table function receives the operand's rows — ``(point, value)`` pairs
# sorted by time — plus resolved parameters, and returns result rows.
SeriesRows = List[Tuple[TimePoint, float]]
TableFunc = Callable[[SeriesRows, Dict[str, Any]], SeriesRows]


@dataclass(frozen=True)
class OperatorSpec:
    """Registry record for one named operator."""

    name: str
    kind: OpKind
    impl: Callable
    # scalar params accepted after the cube operand(s): (name, required)
    params: Tuple[Tuple[str, bool], ...] = ()
    targets: FrozenSet[str] = ALL_TARGETS
    doc: str = ""

    @property
    def required_params(self) -> int:
        return sum(1 for _, required in self.params if required)

    def validate_param_count(self, given: int) -> None:
        if given < self.required_params or given > len(self.params):
            raise OperatorError(
                f"operator {self.name} takes {self.required_params}"
                f"..{len(self.params)} parameters, got {given}"
            )


class OperatorRegistry:
    """Name-indexed collection of operator specs, extensible by users."""

    def __init__(self):
        self._specs: Dict[str, OperatorSpec] = {}

    def register(self, spec: OperatorSpec) -> None:
        key = spec.name.lower()
        if key in self._specs:
            raise OperatorError(f"operator {spec.name} already registered")
        self._specs[key] = spec

    def get(self, name: str) -> OperatorSpec:
        try:
            return self._specs[name.lower()]
        except KeyError:
            raise OperatorError(f"unknown operator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._specs

    def names(self, kind: Optional[OpKind] = None) -> List[str]:
        if kind is None:
            return sorted(self._specs)
        return sorted(n for n, s in self._specs.items() if s.kind is kind)

    def copy(self) -> "OperatorRegistry":
        clone = OperatorRegistry()
        clone._specs = dict(self._specs)
        return clone

    def describe_markdown(self) -> str:
        """A markdown reference of every registered operator.

        Grouped by class, listing parameters and the target systems
        that support each operator natively (the technical metadata
        the determination engine partitions by).
        """
        titles = {
            OpKind.SCALAR: "Tuple-level scalar operators",
            OpKind.SHIFT: "Tuple-level dimension transforms",
            OpKind.OUTER_VECTORIAL: "Vectorial operators with defaults",
            OpKind.AGGREGATION: "Multi-tuple aggregations (use with `group by`)",
            OpKind.TABLE_FUNCTION: "Multi-tuple whole-cube operators",
            OpKind.DIM_FUNCTION: "Dimension functions (usable in `group by`)",
        }
        lines = ["# EXL operator reference", ""]
        for kind, title in titles.items():
            names = self.names(kind)
            if not names:
                continue
            lines.append(f"## {title}")
            lines.append("")
            lines.append("| operator | parameters | native targets | description |")
            lines.append("|---|---|---|---|")
            for name in names:
                spec = self.get(name)
                params = ", ".join(
                    f"{p}" + ("" if required else "?")
                    for p, required in spec.params
                ) or "—"
                targets = ", ".join(sorted(spec.targets - {"chase"}))
                lines.append(
                    f"| `{spec.name}` | {params} | {targets} | {spec.doc or ''} |"
                )
            lines.append("")
        lines.append(_OLAP_EPILOGUE)
        return "\n".join(lines)


# closes the generated operator reference (docs/OPERATORS.md): the
# dimension functions feed straight into the OLAP layer's hierarchies,
# so the worked query example lives next to their table
_OLAP_EPILOGUE = """\
## Dimension hierarchies and cross-tabs (`exl query`)

The dimension functions above induce the query-side hierarchies of the
OLAP layer (DESIGN.md §11): a `TIME(MONTH)` dimension can be rolled up
to `quarter`, `year`, or `all` without re-running anything, because
every lattice node is materialized when the program runs. A worked
example — quarterly sales for two regions:

```text
G := sum(S, group by quarter(m) as q, r)
```

with `S` holding monthly values for `north`/`south` over 2020. After
`exl run project.json --out out/`, a sub-totaled cross-tab (Gray's
data cube: the `total` row and column are the ALL cells, maintained
aggregates rather than sums of the printed cells):

```console
$ exl query project.json G --out out/ --crosstab q,r
q       north  south  total
------  -----  -----  -----
2020Q1    330    363    693
2020Q2    420    462    882
2020Q3    510    561   1071
2020Q4    600    660   1260
 total   1860   2046   3906
```

Rolling up the time axis instead, with the region axis collapsed:

```console
$ exl query project.json G --out out/ --levels q=year,r=all
q:year  sum
------  ----
2020    3906
```

(the monthly values here are `north = 100, 110, …, 210` and
`south = 1.1 × north`, so e.g. `2020Q1/north = 100 + 110 + 120 = 330`)

A declared grouping adds a level to a flat dimension — in the project
file, `"groupings": {"G": {"r": {"zone": {"north": "cold", "south":
"warm"}}}}` — after which `--levels r=zone` aggregates by zone, and
`--dice r=cold` keeps only the cold rows. `--point "q=2020Q1,r=north"`
prints the single base cell, and `--drilldown q` steps one level finer
from wherever `--levels` put the time axis. Each call loads
`out/baseline/G.csv` and no other cube, and reduces only the lattice
node the query names.
"""


# ---------------------------------------------------------------------------
# default operator implementations
# ---------------------------------------------------------------------------

def period_for_frequency(freq: Frequency) -> Optional[int]:
    """Natural seasonal period of a frequency (quarterly -> 4 etc.)."""
    return {
        Frequency.QUARTER: 4,
        Frequency.MONTH: 12,
        Frequency.WEEK: 52,
        Frequency.DAY: 7,
    }.get(freq)


def _safe_div(a: float, b: float) -> float:
    if b == 0:
        raise OperatorError("division by zero")
    return a / b


def _scalar_log(value: float, base: float = math.e) -> float:
    if value <= 0:
        raise OperatorError(f"log of non-positive value {value}")
    if base <= 0 or base == 1:
        raise OperatorError(f"invalid log base {base}")
    return math.log(value, base)


def _series_transform(fn: Callable[[Sequence[float]], Sequence[float]]) -> TableFunc:
    """Lift a values->values transform (same length) into a table function."""

    def wrapper(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
        points = [p for p, _ in rows]
        values = fn([v for _, v in rows])
        return list(zip(points, values))

    return wrapper


def _tf_stl_component(component: str) -> TableFunc:
    def wrapper(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
        period = int(params["period"])
        points = [p for p, _ in rows]
        values = [v for _, v in rows]
        decomposition = _dec.stl_decompose(values, period)
        out = getattr(decomposition, component)
        return list(zip(points, out))

    return wrapper


def _tf_classical_component(component: str) -> TableFunc:
    def wrapper(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
        period = int(params["period"])
        points = [p for p, _ in rows]
        values = [v for _, v in rows]
        decomposition = _dec.classical_decompose(values, period)
        out = getattr(decomposition, component)
        return list(zip(points, out))

    return wrapper


def _tf_moving_average(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
    window = int(params["window"])
    points = [p for p, _ in rows]
    values = _smooth.moving_average([v for _, v in rows], window)
    return list(zip(points, values))


def _tf_loess(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
    frac = float(params.get("frac", 0.5))
    points = [p for p, _ in rows]
    values = _smooth.loess([v for _, v in rows], frac=frac)
    return list(zip(points, values))


def _tf_diff(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
    # first difference: defined from the second point on
    values = [v for _, v in rows]
    diffed = _ser.first_difference(values)
    return list(zip([p for p, _ in rows][1:], diffed))


def _tf_rebase(rows: SeriesRows, params: Dict[str, Any]) -> SeriesRows:
    points = [p for p, _ in rows]
    values = _ser.index_to_base([v for _, v in rows], int(params.get("position", 0)))
    return list(zip(points, values))


def default_registry() -> OperatorRegistry:
    """The standard EXL operator set described in Section 3."""
    registry = OperatorRegistry()

    # -- tuple-level scalar functions (measure -> measure) ---------------
    scalar_specs = [
        ("ln", lambda v: _scalar_log(v), (), "natural logarithm"),
        ("log", _scalar_log, (("base", False),), "logarithm; log(C, base)"),
        ("exp", math.exp, (), "exponential"),
        ("abs", abs, (), "absolute value"),
        ("sqrt", lambda v: math.sqrt(v), (), "square root"),
        ("sin", math.sin, (), "sine"),
        ("cos", math.cos, (), "cosine"),
        ("round", lambda v, nd=0.0: round(v, int(nd)), (("digits", False),), "round"),
        ("pow", lambda v, e: v**e, (("exponent", True),), "power with scalar exponent"),
    ]
    for name, impl, params, doc in scalar_specs:
        registry.register(
            OperatorSpec(name, OpKind.SCALAR, impl, params, ALL_TARGETS, doc)
        )

    # -- tuple-level vectorial operators with default values --------------
    # Section 3 notes versions of vectorial operators "assuming a default
    # value for the 'missing' tuples (example, in the sum operator, we
    # could have zero as the default value)": the result is defined on
    # the UNION of the operands' dimension tuples, a missing side
    # contributing the default.  The arithmetic symbol is the impl here.
    outer_specs = [
        ("osum", "+", 0.0, "outer sum: missing tuples count as the default (0)"),
        ("odiff", "-", 0.0, "outer difference with default 0"),
        ("oprod", "*", 1.0, "outer product with default 1"),
    ]
    for name, symbol, default, doc in outer_specs:
        registry.register(
            OperatorSpec(
                name,
                OpKind.OUTER_VECTORIAL,
                symbol,  # the arithmetic symbol; executors combine with it
                (("default", False),),
                ALL_TARGETS,
                doc,
            )
        )

    # -- tuple-level dimension transform ---------------------------------
    registry.register(
        OperatorSpec(
            "shift",
            OpKind.SHIFT,
            lambda point, s: point.shift(int(s)),
            (("periods", True), ("dimension", False)),
            ALL_TARGETS,
            "shift(C, s [, dim]): C's value at t appears at t + s",
        )
    )

    # -- multi-tuple aggregations -----------------------------------------
    for agg_name, agg_impl in _agg.AGGREGATES.items():
        registry.register(
            OperatorSpec(
                agg_name,
                OpKind.AGGREGATION,
                agg_impl,
                (),
                ALL_TARGETS,
                f"{agg_name} aggregation with group by",
            )
        )

    # -- dimension functions (usable in group by and shift targets) --------
    dim_funcs = [
        ("quarter", Frequency.QUARTER),
        ("month", Frequency.MONTH),
        ("year", Frequency.YEAR),
        ("week", Frequency.WEEK),
    ]
    for fname, freq in dim_funcs:
        registry.register(
            OperatorSpec(
                fname,
                OpKind.DIM_FUNCTION,
                (lambda f: (lambda tp: convert(tp, f)))(freq),
                (),
                ALL_TARGETS,
                f"time value down-sampled to {freq.name}",
            )
        )

    # -- multi-tuple black boxes (whole-cube table functions) ---------------
    # The paper's stl operators are flagged as unsupported on the plain
    # ETL calculator (they need a user-defined step) and as natively
    # available in r/matlab/sql-with-tabular-functions; our engines
    # support all of them, but the *technical metadata* below mirrors
    # the paper's discussion that not all operators are native everywhere.
    stat_targets = frozenset({"sql", "r", "matlab", "etl", "chase"})
    table_specs = [
        ("stl_t", _tf_stl_component("trend"), (("period", False),), "STL trend"),
        ("stl_s", _tf_stl_component("seasonal"), (("period", False),), "STL seasonal"),
        ("stl_r", _tf_stl_component("remainder"), (("period", False),), "STL remainder"),
        (
            "decomp_t",
            _tf_classical_component("trend"),
            (("period", False),),
            "classical decomposition trend",
        ),
        (
            "decomp_s",
            _tf_classical_component("seasonal"),
            (("period", False),),
            "classical decomposition seasonal",
        ),
        ("ma", _tf_moving_average, (("window", True),), "trailing moving average"),
        ("loess", _tf_loess, (("frac", False),), "loess smoother"),
        ("cumsum", _series_transform(_ser.cumsum), (), "running sum"),
        ("standardize", _series_transform(_ser.standardize), (), "z-scores"),
        ("fitted", _series_transform(_reg.fitted_line), (), "OLS fitted line"),
        ("detrend", _series_transform(_reg.residuals), (), "OLS residuals"),
        ("diff", _tf_diff, (), "first difference"),
        ("rebase", _tf_rebase, (("position", False),), "index to base 100"),
    ]
    for name, impl, params, doc in table_specs:
        registry.register(
            OperatorSpec(name, OpKind.TABLE_FUNCTION, impl, params, stat_targets, doc)
        )

    return registry
