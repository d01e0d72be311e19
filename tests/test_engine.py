"""Tests for the EXLEngine architecture: determination, translation,
dispatch, historicity, and the facade."""

import pytest

from repro.engine import (
    DependencyGraph,
    Dispatcher,
    EXLEngine,
    Subgraph,
    TranslationEngine,
)
from repro.errors import EngineError
from repro.model import (
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    MetadataCatalog,
    quarter,
)
from repro.model.io import canonical_text


def _series(name):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


@pytest.fixture
def catalog():
    c = MetadataCatalog()
    c.declare_elementary(_series("E1"))
    c.declare_elementary(_series("E2"))
    c.declare_derived(_series("A"), "A := E1 + E2")
    c.declare_derived(_series("B"), "B := A * 2")
    c.declare_derived(_series("C"), "C := stl_t(E2)")
    c.declare_derived(_series("D"), "D := B + C")
    return c


@pytest.fixture
def graph(catalog):
    return DependencyGraph(catalog)


class TestDependencyGraph:
    def test_operands_and_consumers(self, graph):
        assert graph.operands["A"] == ["E1", "E2"]
        assert "A" in graph.consumers["E1"]
        assert set(graph.consumers["A"]) == {"B"}

    def test_topological_order(self, graph):
        order = graph.topological_order()
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("C") < order.index("D")

    def test_affected_by_single_source(self, graph):
        assert graph.affected_by(["E1"]) == ["A", "B", "D"]

    def test_affected_by_other_source(self, graph):
        affected = graph.affected_by(["E2"])
        assert set(affected) == {"A", "B", "C", "D"}

    def test_affected_by_derived_change(self, graph):
        assert graph.affected_by(["B"]) == ["D"]

    def test_affected_by_leaf(self, graph):
        assert graph.affected_by(["D"]) == []

    def test_cycle_detected(self):
        catalog = MetadataCatalog()
        catalog.declare_derived(_series("X"), "X := Y")
        catalog.declare_derived(_series("Y"), "Y := X")
        with pytest.raises(EngineError, match="cycle"):
            DependencyGraph(catalog)

    def test_undeclared_reference_rejected(self):
        catalog = MetadataCatalog()
        catalog.declare_derived(_series("X"), "X := MISSING * 2")
        with pytest.raises(EngineError, match="undeclared"):
            DependencyGraph(catalog)

    def test_statement_must_define_its_cube(self):
        catalog = MetadataCatalog()
        catalog.declare_elementary(_series("E"))
        catalog.declare_derived(_series("X"), "Y := E")
        with pytest.raises(EngineError):
            DependencyGraph(catalog)


class TestTargetSelection:
    def test_default_priority_picks_sql(self, graph):
        assert graph.target_of("A") == "sql"

    def test_operator_support_computed(self, graph):
        assert "sql" in graph.supported_targets("C")  # stl_t everywhere here

    def test_preferred_target_respected(self, catalog):
        catalog.entry("B").preferred_target = "matlab"
        graph = DependencyGraph(catalog)
        assert graph.target_of("B") == "matlab"

    def test_priority_order_matters(self, graph):
        assert graph.target_of("A", priority=("etl", "sql")) == "etl"

    def test_no_supporting_target_raises(self, catalog):
        from repro.exl import OperatorSpec, OpKind, default_registry

        registry = default_registry()
        registry.register(
            OperatorSpec(
                "exotic",
                OpKind.TABLE_FUNCTION,
                lambda rows, params: rows,
                (),
                frozenset({"chase"}),
            )
        )
        catalog.declare_derived(_series("Z"), "Z := exotic(E1)")
        graph = DependencyGraph(catalog, registry)
        with pytest.raises(EngineError, match="no target"):
            graph.target_of("Z")

    def test_partition_contiguous(self, graph):
        order = graph.topological_order()
        subgraphs = graph.partition(order)
        # same default target for everything -> a single subgraph
        assert len(subgraphs) == 1
        assert subgraphs[0].target == "sql"

    def test_partition_splits_on_target_change(self, catalog):
        catalog.entry("B").preferred_target = "r"
        graph = DependencyGraph(catalog)
        subgraphs = graph.partition(graph.topological_order())
        assert len(subgraphs) >= 3
        targets = [s.target for s in subgraphs]
        assert "r" in targets


class TestTranslationEngine:
    def test_translation_collects_inputs(self, catalog, graph):
        translator = TranslationEngine(catalog, graph)
        translated = translator.translate(Subgraph(("A", "B"), "sql"))
        assert set(translated.inputs) == {"E1", "E2"}
        assert len(translated.units) >= 2

    def test_translation_cached(self, catalog, graph):
        translator = TranslationEngine(catalog, graph)
        subgraph = Subgraph(("A",), "sql")
        first = translator.translate(subgraph)
        second = translator.translate(Subgraph(("A",), "sql"))
        assert first is second
        assert translator.cache_size() == 1

    def test_unknown_backend_rejected(self, catalog, graph):
        translator = TranslationEngine(catalog, graph)
        with pytest.raises(EngineError):
            translator.translate(Subgraph(("A",), "cobol"))

    def test_script_is_target_language(self, catalog, graph):
        translator = TranslationEngine(catalog, graph)
        translated = translator.translate(Subgraph(("A",), "sql"))
        assert "INSERT INTO A" in translated.script


class TestDispatcherWaves:
    def test_waves_respect_dependencies(self, catalog, graph):
        translator = TranslationEngine(catalog, graph)
        subgraphs = [
            Subgraph(("A",), "sql"),
            Subgraph(("C",), "r"),
            Subgraph(("B",), "sql"),
            Subgraph(("D",), "sql"),
        ]
        translated = [translator.translate(s) for s in subgraphs]
        dispatcher = Dispatcher(EXLEngine())
        waves = dispatcher.waves(translated)
        # A and C are independent -> first wave; B next; D last
        assert len(waves[0]) == 2
        flat = [t.subgraph.cubes[0] for wave in waves for t in wave]
        assert flat.index("B") > flat.index("A")
        assert flat.index("D") > flat.index("B")


def _build_engine(jobs=1):
    engine = EXLEngine(jobs=jobs)
    engine.declare_elementary(_series("E1"))
    engine.declare_elementary(_series("E2"))
    engine.add_program("A := E1 + E2\nB := A * 2\nC := stl_t(E2)\nD := B + C")
    e1 = Cube.from_series(_series("E1"), quarter(2018, 1), [float(i) for i in range(12)])
    e2 = Cube.from_series(
        _series("E2"), quarter(2018, 1), [10.0 + (i % 4) for i in range(12)]
    )
    engine.load(e1)
    engine.load(e2)
    return engine


class TestEXLEngineFacade:
    def test_each_subgraph_is_compiled_once(self, monkeypatch):
        # the translation's units ride through the dispatcher: the
        # backend does not compile the mapping again to run it, on the
        # first run or on a later one of the same engine
        from repro.backends.base import Backend

        compiled = []
        real = Backend.compile_mapping
        monkeypatch.setattr(
            Backend, "compile_mapping",
            lambda self, mapping: compiled.append(self.name) or real(self, mapping),
        )
        engine = EXLEngine()
        engine.declare_elementary(_series("E1"))
        engine.add_program(
            "A := E1 * 2\nB := A + 1\nC := B - E1", {"A": "sql", "B": "r", "C": "etl"}
        )
        engine.load(
            Cube.from_series(_series("E1"), quarter(2018, 1), [1.0] * 12)
        )
        record = engine.run()
        assert len(record.subgraphs) == 3
        assert compiled == ["sql", "r", "etl"]
        engine.load(
            Cube.from_series(_series("E1"), quarter(2018, 1), [2.0] * 12)
        )
        assert len(engine.run().subgraphs) == 3
        assert compiled == ["sql", "r", "etl"]

    def test_full_run(self):
        engine = _build_engine()
        record = engine.run()
        assert set(record.affected) == {"A", "B", "C", "D"}
        assert engine.data("D") is not None
        assert record.duration_s > 0

    def test_duration_covers_determination_and_translation(self, monkeypatch):
        # the record opens before determination, so "N s total" in the
        # summary is the whole run; a slow translation shows it
        import time

        from repro.engine import FaultPlan, FaultRule

        real = TranslationEngine.translate_all

        def slow(self, subgraphs):
            time.sleep(0.1)
            return real(self, subgraphs)

        monkeypatch.setattr(TranslationEngine, "translate_all", slow)
        engine = _build_engine()
        records = [engine.run()]
        engine.load(
            Cube.from_series(_series("E1"), quarter(2018, 1), [5.0] * 12)
        )
        records.append(engine.update())
        engine.load(
            Cube.from_series(_series("E1"), quarter(2018, 1), [6.0] * 12)
        )
        failed = engine.run(
            on_error="continue",
            fault_plan=FaultPlan([FaultRule(kind="permanent", cubes=("D",))]),
        )
        assert failed.failed
        records += [failed, engine.resume()]
        for record in records:
            assert record.translation_s >= 0.1
            assert (
                record.duration_s
                >= record.determination_s + record.translation_s
            ), record.summary()

    def test_derived_values_correct(self):
        engine = _build_engine()
        engine.run()
        a = engine.data("A")
        assert a[(quarter(2018, 1),)] == pytest.approx(10.0)
        b = engine.data("B")
        assert b[(quarter(2018, 1),)] == pytest.approx(20.0)

    def test_incremental_rerun_limits_scope(self):
        engine = _build_engine()
        engine.run()
        new_e1 = Cube.from_series(
            _series("E1"), quarter(2018, 1), [float(i * 2) for i in range(12)]
        )
        engine.load(new_e1)
        record = engine.run()
        # E1 only feeds A -> B -> D; C untouched
        assert set(record.affected) == {"A", "B", "D"}

    def test_historicity_versions(self):
        engine = _build_engine()
        engine.run()
        first_d = engine.data("D")
        first_version = engine.catalog.store.latest_version("D")
        new_e1 = Cube.from_series(
            _series("E1"), quarter(2018, 1), [float(i * 3) for i in range(12)]
        )
        engine.load(new_e1)
        engine.run()
        assert not engine.data("D").approx_equals(first_d)
        assert engine.data("D", first_version).approx_equals(first_d)

    def test_run_without_data_raises(self):
        engine = EXLEngine()
        engine.declare_elementary(_series("E1"))
        engine.add_program("A := E1 * 2")
        with pytest.raises(EngineError):
            engine.run()

    @pytest.mark.parametrize("counts", [{"jobs": 0}, {"jobs": -2}, {"shards": -1}])
    def test_worker_counts_out_of_range_rejected(self, counts):
        with pytest.raises(EngineError, match=f"{next(iter(counts))} must be"):
            EXLEngine(**counts)
        assert EXLEngine(shards=0).shards == 0  # 0 is "one per core"

    def test_load_derived_rejected(self):
        engine = _build_engine()
        with pytest.raises(EngineError):
            engine.load(Cube.from_series(_series("A"), quarter(2018, 1), [1.0]))

    def test_plan_without_running(self):
        engine = _build_engine()
        plan = engine.plan()
        assert all(isinstance(s, Subgraph) for s in plan)
        assert engine.runs.last() is None

    def test_scripts_exposed(self):
        engine = _build_engine()
        scripts = engine.scripts()
        assert any("INSERT INTO" in s for s in scripts.values())

    def test_parallel_run_matches_sequential(self):
        sequential = _build_engine()
        parallel = _build_engine(jobs=4)
        # force a split so at least one wave has two subgraphs
        for engine in (sequential, parallel):
            engine.catalog.entry("C").preferred_target = "r"
            engine._invalidate()
        sequential.run()
        parallel.run()
        assert sequential.data("D").approx_equals(parallel.data("D"))

    def test_run_summary_mentions_targets(self):
        engine = _build_engine()
        record = engine.run()
        assert "[sql]" in record.summary()

    def test_add_program_validates(self):
        engine = EXLEngine()
        engine.declare_elementary(_series("E1"))
        with pytest.raises(Exception):
            engine.add_program("A := MISSING + 1")

    def test_gdp_end_to_end_matches_direct_backends(self, gdp_workload, backends):
        engine = EXLEngine()
        for name in gdp_workload.schema.names:
            engine.declare_elementary(gdp_workload.schema[name])
        engine.add_program(gdp_workload.source)
        for cube in gdp_workload.data.values():
            engine.load(cube)
        engine.run()
        from repro.exl import Program
        from repro.mappings import generate_mapping

        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        mapping = generate_mapping(program)
        reference = backends["chase"].run_mapping(mapping, gdp_workload.data)
        assert engine.data("PCHNG").approx_equals(reference["PCHNG"], rel_tol=1e-8)


class TestScriptBackendsAsTargets:
    def test_pin_cubes_to_interpreting_backends(self):
        """``r`` and ``matlab`` interpret their generated scripts; both
        are determination targets, a table function included."""
        engine = EXLEngine()
        engine.declare_elementary(_series("E1"))
        engine.add_program(
            "A := E1 * 2\nB := stl_t(E1)\nC := A + B",
            preferred_targets={"B": "r", "C": "matlab"},
        )
        e1 = Cube.from_series(
            _series("E1"),
            quarter(2016, 1),
            [100.0 + 0.5 * i + 4 * ((i % 4) - 1.5) for i in range(16)],
        )
        engine.load(e1)
        record = engine.run()
        targets = {s.target for s in record.subgraphs}
        assert {"r", "matlab"} <= targets
        assert len(engine.data("C")) == 16

    def test_interpreting_targets_match_default_run(self):
        def build(preferred):
            engine = EXLEngine()
            engine.declare_elementary(_series("E1"))
            engine.add_program("A := E1 * 2\nB := shift(A, 1)", preferred)
            engine.load(
                Cube.from_series(_series("E1"), quarter(2020, 1), [1.0, 2.0, 3.0])
            )
            engine.run()
            return engine.data("B")

        default = canonical_text(build(None))
        assert canonical_text(build({"A": "r", "B": "r"})) == default
        assert canonical_text(build({"A": "matlab", "B": "matlab"})) == default

    @pytest.mark.parametrize("name", ["rscript", "mscript"])
    def test_no_second_name_per_script_language(self, name):
        engine = EXLEngine()
        engine.declare_elementary(_series("E1"))
        engine.add_program("A := E1 * 2", {"A": name})
        engine.load(Cube.from_series(_series("E1"), quarter(2020, 1), [1.0]))
        with pytest.raises(EngineError, match=f"preferred target '{name}'"):
            engine.run()
