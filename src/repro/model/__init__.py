"""The Matrix data model: cubes, time points, schemas, metadata catalog.

This package reproduces the data model of Section 3 of the paper —
statistical functions (*cubes*) over typed dimensions, with time series
as the 1-dimensional time-indexed special case — plus the metadata
catalog with historicity described in Section 6.
"""

from .._lazy import lazy_surface

#: public name -> defining submodule (``exl query`` never builds a
#: ``Schema``, so it never loads that module)
_EXPORTS = {
    "Cube": "cube",
    "CubeSchema": "cube",
    "Dimension": "cube",
    "Schema": "schema",
    "Frequency": "time",
    "TimePoint": "time",
    "convert": "time",
    "day": "time",
    "week": "time",
    "month": "time",
    "quarter": "time",
    "year": "time",
    "parse_timepoint": "time",
    "DimKind": "types",
    "DimType": "types",
    "TIME": "types",
    "STRING": "types",
    "INTEGER": "types",
    "validate_value": "types",
    "MetadataCatalog": "catalog",
    "VersionedStore": "catalog",
    "CubeEntry": "catalog",
}

__getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)
