"""repro — a reproduction of *EXLEngine: executable schema mappings for
statistical data processing* (Atzeni, Bellomarini, Bugiotti; EDBT 2013).

The package implements the full pipeline of the paper:

* :mod:`repro.model` — the Matrix data model (cubes, time points,
  metadata catalog with historicity);
* :mod:`repro.exl` — the EXL specification language (parser, semantic
  analysis, single-operator normalization);
* :mod:`repro.mappings` — generation of extended schema mappings from
  EXL programs, and their simplification into complex tgds;
* :mod:`repro.chase` — the stratified chase solving the induced data
  exchange problem (the reference executor);
* :mod:`repro.backends` — executable translations: SQL (on
  :mod:`repro.sqlengine`), R (on :mod:`repro.frames`), Matlab (on
  :mod:`repro.matrixengine`), ETL (on :mod:`repro.etl`);
* :mod:`repro.engine` — the EXLEngine architecture: determination,
  translation, dispatch, historicity;
* :mod:`repro.workloads` — synthetic data and canned programs,
  including the paper's GDP example.

Quickstart::

    from repro import EXLEngine
    from repro.workloads import gdp_example

    w = gdp_example()
    engine = EXLEngine()
    for name in w.schema.names:
        engine.declare_elementary(w.schema[name])
    engine.add_program(w.source)
    for cube in w.data.values():
        engine.load(cube)
    engine.run()
    print(engine.data("PCHNG").to_rows())
"""

from ._lazy import lazy_surface

__version__ = "1.0.0"

#: public name -> defining subpackage.  Nothing here is imported until
#: it is read off the package: each ``exl`` subcommand, and each library
#: user, loads the layers it runs
_EXPORTS = {
    "ReproError": "errors",
    "Cube": "model",
    "CubeSchema": "model",
    "Dimension": "model",
    "Schema": "model",
    "Frequency": "model",
    "TimePoint": "model",
    "day": "model",
    "week": "model",
    "month": "model",
    "quarter": "model",
    "year": "model",
    "MetadataCatalog": "model",
    "Program": "exl",
    "parse_program": "exl",
    "normalize_program": "exl",
    "default_registry": "exl",
    "SchemaMapping": "mappings",
    "generate_mapping": "mappings",
    "simplify_mapping": "mappings",
    "StratifiedChase": "chase",
    "instance_from_cubes": "chase",
    "cubes_from_instance": "chase",
    "SqlBackend": "backends",
    "RBackend": "backends",
    "MatlabBackend": "backends",
    "EtlBackend": "backends",
    "ChaseBackend": "backends",
    "all_backends": "backends",
    "EXLEngine": "engine",
}

__getattr__, __dir__, _lazy_names = lazy_surface(__name__, _EXPORTS)

__all__ = ["__version__", *_lazy_names]
