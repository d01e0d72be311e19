"""The chase as a backend.

Wrapping the stratified chase in the :class:`Backend` interface lets
equivalence tests and benchmarks treat the reference executor uniformly
with the translated targets — the paper's claim is precisely that every
translation computes the same solution the chase does.  Its arguments
say how many shard workers run the chase; none chooses its kernels or
its storage.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

from ..chase.engine import StratifiedChase
from ..chase.instance import RelationalInstance, store_for_cube
from ..errors import BackendError
from ..mappings.dependencies import Tgd
from ..mappings.mapping import SchemaMapping
from ..model.cube import Cube
from .base import Backend, CompiledTgd

__all__ = ["ChaseBackend"]


class ChaseBackend(Backend):
    """Reference executor: every mapping run is one
    :class:`StratifiedChase` run.

    The chase walks its tgds in statement order; ``shards`` also runs
    them on forked workers.  No solution outlives its run: an update
    recomputes its subgraphs with :meth:`run_mapping`, like every
    target, and the dispatcher compares the outputs with the stored
    versions.  ``compile_tgd`` gives each tgd's text for ``exl compile
    --target chase``; its runner is never called.
    """

    name = "chase"

    def __init__(
        self,
        tracer=None,
        metrics=None,
        shards: int = 1,
    ):
        #: worker-process count for whole-mapping runs (0 = one per
        #: core, 1 = no sharding); see chase.shard
        self.shards = shards
        #: observability sinks threaded into every chase this backend
        #: constructs (``None`` = untraced / per-chase registry)
        self.tracer = tracer
        self.metrics = metrics
        self.reset_counts()
        # the dispatcher's fault plan for the in-flight subgraph, so
        # shard workers can honor `--inject-faults`
        self._fault_context = None

    def reset_counts(self) -> None:
        """Zero the counters the engine copies into each run's record."""
        # sharded-run accounting across every chase this backend runs
        self.shard_runs = 0
        self.shard_tuples: List[int] = []
        self.shard_merge_s = 0.0

    # -- fault-injection plumbing ---------------------------------------------
    @contextmanager
    def fault_scope(self, plan, target: str, cubes):
        """Expose the dispatcher's fault plan to sharded chase runs.

        The dispatcher wraps each backend run in this scope; a
        sharded run then draws one deterministic fault decision per
        shard (cube label ``shard:<i>`` appended, so shards fail
        independently but reproducibly).
        """
        self._fault_context = (plan, target, tuple(cubes))
        try:
            yield
        finally:
            self._fault_context = None

    def run_mapping(
        self,
        mapping: SchemaMapping,
        inputs: Dict[str, Cube],
        wanted: Optional[Iterable[str]] = None,
        check: Optional[Callable[[], None]] = None,
        units: Optional[List[CompiledTgd]] = None,
    ) -> Dict[str, Cube]:
        """One :class:`StratifiedChase` run over ``inputs``; ``check``
        is called before each of its waves, ``units`` is unused."""
        source = RelationalInstance()
        for tgd in mapping.st_tgds:
            name = tgd.lhs[0].relation
            if name not in inputs:
                raise BackendError(f"missing input cube {name!r}")
            source.ensure(name)
            # the cube's cached columnar store when it has one (warm
            # runs: zero re-encode of unchanged inputs)
            source.adopt(name, store_for_cube(inputs[name]))
        chase = StratifiedChase(
            mapping,
            shards=self.shards,
            tracer=self.tracer,
            metrics=self.metrics,
            fault_context=self._fault_context,
        )
        result = chase.run(source, check=check)
        if result.stats.shards:
            self.shard_runs += 1
            self.shard_merge_s += result.stats.shard_merge_s
            for i, count in enumerate(result.stats.shard_tuples):
                if i >= len(self.shard_tuples):
                    self.shard_tuples.append(0)
                self.shard_tuples[i] += count
        if wanted is None:
            wanted = mapping.outputs
        outputs: Dict[str, Cube] = {}
        for name in wanted:
            schema = mapping.target[name]
            store = result.instance.export_store(name)
            cube = None
            if store is not None:
                # validated per distinct value, not per cell
                cube = Cube.from_columns(
                    schema, store.dicts, store.codes, store.measures,
                    keys_distinct=store.dims_distinct,
                )
            if cube is None:
                cube = Cube.from_rows(schema, result.instance.facts(name))
            if store is not None and store.n_rows == len(cube):
                # every row was accepted, so the dimension tuples are
                # distinct; carry the encoded columns on the cube for
                # the next run to adopt
                store.dims_distinct = True
                cube._colstore = store
            outputs[name] = cube
        return outputs

    # benchmarks/pipeline/traced_op.py:128 looks this name up in
    # ``ChaseBackend.__dict__`` to time it; nothing in src/ calls it
    run_mapping_delta = run_mapping

    def compile_tgd(self, tgd: Tgd, mapping: SchemaMapping) -> CompiledTgd:
        return CompiledTgd(tgd.label, str(tgd), None)
