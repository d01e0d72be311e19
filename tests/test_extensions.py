"""Tests for the extension features: vintage replay (as_of runs) and
paper-style rendering."""

from repro.engine import EXLEngine
from repro.exl import Program
from repro.mappings import generate_mapping, render_egd, render_mapping, render_tgd
from repro.model import Cube, CubeSchema, Dimension, Frequency, Schema, TIME, quarter


def _series(name="E"):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


class TestVintageReplay:
    def _engine(self):
        engine = EXLEngine()
        engine.declare_elementary(_series())
        engine.add_program("A := E * 2\nB := cumsum(A)")
        return engine

    def test_replay_reproduces_first_release(self):
        engine = self._engine()
        v1 = engine.load(Cube.from_series(_series(), quarter(2020, 1), [1.0, 2.0]))
        engine.run()
        first_b = engine.data("B")
        engine.load(Cube.from_series(_series(), quarter(2020, 1), [10.0, 20.0]))
        engine.run()
        assert not engine.data("B").approx_equals(first_b)
        engine.run(changed=["E"], as_of=v1)
        assert engine.data("B").approx_equals(first_b)

    def test_replay_is_itself_versioned(self):
        engine = self._engine()
        v1 = engine.load(Cube.from_series(_series(), quarter(2020, 1), [1.0]))
        engine.run()
        engine.load(Cube.from_series(_series(), quarter(2020, 1), [9.0]))
        engine.run()
        versions_before = len(engine.catalog.store.versions("A"))
        engine.run(changed=["E"], as_of=v1)
        assert len(engine.catalog.store.versions("A")) == versions_before + 1

    def test_replay_uses_current_intermediates(self):
        # derived cubes computed within the replay feed downstream steps
        engine = self._engine()
        v1 = engine.load(Cube.from_series(_series(), quarter(2020, 1), [1.0, 1.0]))
        engine.run()
        engine.load(Cube.from_series(_series(), quarter(2020, 1), [5.0, 5.0]))
        engine.run()
        engine.run(changed=["E"], as_of=v1)
        points, values = engine.data("B").to_series()
        assert values == [2.0, 4.0]  # cumsum of the v1 vintage's A


class TestPaperRendering:
    def test_unicode_tgds(self, gdp_simplified):
        rendered = render_mapping(gdp_simplified)
        assert "∧" in rendered and "→" in rendered
        assert "(2) PQR(q, r, p) ∧ RGDPPC(q, r, g) → RGDP(q, r, p * g)" in rendered

    def test_ascii_mode(self, gdp_simplified):
        rendered = render_mapping(gdp_simplified, unicode=False)
        assert "∧" not in rendered and "AND" in rendered

    def test_table_function_rendering(self, gdp_mapping):
        rendered = render_tgd(gdp_mapping.tgd_for("GDPT"))
        assert rendered == "GDP → GDPT(stl_t(GDP, period=4))"

    def test_egd_rendering(self, gdp_mapping):
        rendered = render_egd(gdp_mapping.egd_for("GDP"))
        assert rendered == "GDP(x1, y1) ∧ GDP(x1, y2) → (y1 = y2)"

    def test_outer_annotation(self):
        schema = Schema([_series("A"), _series("B").renamed("B")])
        mapping = generate_mapping(Program.compile("C := osum(A, B)", schema))
        assert "[outer +" in render_tgd(mapping.tgd_for("C"))
