"""Data exchange by the stratified chase (Section 4.2).

The chase is the reference executor: it applies the generated
dependencies directly and is the yardstick every backend is tested
against (the paper's equivalence theorem).  ``StratifiedChase`` is the
one executor: it walks the tgds in statement order, and given
``shards`` it also chases them in forked shard workers — the same
solution either way.  The shard module holds the
partition plan and the workers, groupreduce the one collect / reduce
every aggregate and every OLAP roll-up goes through.  The columnar
module holds the tgd kernels: every tgd kind has one, and a tgd no
kernel covers is a ``ChaseError``.
The tuple-at-a-time chase and the Section 4.2 model checker live under
``tests/oracle/``, as the bit-exact reference of the equivalence suites.
"""

from .._lazy import lazy_surface

#: public name -> defining submodule
_EXPORTS = {
    "ColumnarRelation": "columnar",
    "EncodedColumn": "columnar",
    "FallbackUnsupported": "columnar",
    "RelationalInstance": "instance",
    "instance_from_cubes": "instance",
    "cubes_from_instance": "instance",
    "StratifiedChase": "engine",
    "ShardPlan": "shard",
    "resolve_shards": "shard",
    "shard_of": "shard",
    "ChaseResult": "engine",
    "ChaseStats": "engine",
}

__getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)
