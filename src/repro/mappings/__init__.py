"""Extended schema mappings generated from EXL programs (Section 4).

The pipeline is::

    Program --normalize--> single-operator Program (+ its temporaries)
            --MappingGenerator--> SchemaMapping (one tgd per statement)
            --simplify_mapping--> SchemaMapping (complex tgds, temps gone)

The composed mapping is built once per program and is what every
target executes: the chase (Section 4.2) and every backend translation
(Section 5) run slices of it (:meth:`SchemaMapping.subset`).
``exl show`` prints the normalized one.
"""

from .._lazy import lazy_surface

#: public name -> defining submodule
_EXPORTS = {
    "Term": "terms",
    "Var": "terms",
    "Const": "terms",
    "FuncApp": "terms",
    "AggTerm": "terms",
    "evaluate": "terms",
    "substitute": "terms",
    "term_vars": "terms",
    "Atom": "dependencies",
    "Tgd": "dependencies",
    "TgdKind": "dependencies",
    "Egd": "dependencies",
    "SchemaMapping": "mapping",
    "MappingGenerator": "generator",
    "generate_mapping": "generator",
    "simplify_mapping": "simplify",
    "render_tgd": "pretty",
    "render_egd": "pretty",
    "render_mapping": "pretty",
}

__getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)
