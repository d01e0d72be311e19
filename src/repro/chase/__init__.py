"""Data exchange by the stratified chase (Section 4.2).

The chase is the reference executor: it applies the generated
dependencies directly and is the yardstick every backend is tested
against (the paper's equivalence theorem).  ``StratifiedChase`` is the
one executor: statement order by default, thread waves given ``jobs``,
forked shard workers given ``shards`` — the same solution every way.
The scheduler module holds the wave schedule, the shard module the
partition plan and the workers, groupreduce the one collect / reduce / rereduce every
aggregate goes through.  The columnar module holds the vectorized tgd
kernels (``vectorized=True``, the default); ``vectorized=False`` keeps
the tuple-at-a-time path as the bit-exact ablation baseline.
"""

from .._lazy import lazy_surface

#: public name -> defining submodule
_EXPORTS = {
    "ColumnarRelation": "columnar",
    "EncodedColumn": "columnar",
    "FallbackUnsupported": "columnar",
    "DEFAULT_VECTORIZED": "engine",
    "RelationalInstance": "instance",
    "instance_from_cubes": "instance",
    "cubes_from_instance": "instance",
    "StratifiedChase": "engine",
    "ShardPlan": "shard",
    "resolve_shards": "shard",
    "shard_of": "shard",
    "ChaseResult": "engine",
    "ChaseStats": "engine",
    "schedule_waves": "scheduler",
    "stratum_dag": "scheduler",
    "check_egds": "verify",
    "check_tgd": "verify",
    "is_solution": "verify",
    "violations": "verify",
}

__getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)
