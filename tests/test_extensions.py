"""Tests for the extension features: vintage replay (as_of runs),
paper-style rendering, and the SQL engine's UPDATE / IN / BETWEEN /
derived-table support."""

import pytest

from repro.engine import EXLEngine
from repro.errors import SqlExecutionError, SqlSyntaxError
from repro.exl import Program
from repro.mappings import generate_mapping, render_egd, render_mapping, render_tgd
from repro.model import Cube, CubeSchema, Dimension, Frequency, Schema, TIME, quarter
from repro.sqlengine import Database


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


class TestSqlExtensions:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
        db.execute(
            "INSERT INTO t VALUES (1, 10.0, 'x'), (2, 20.0, 'y'), (3, 30.0, 'x')"
        )
        return db

    def test_update_with_where(self, db):
        assert db.execute("UPDATE t SET b = b + 1 WHERE c = 'x'") == 2
        assert db.query("SELECT SUM(b) FROM t").rows[0][0] == 62.0

    def test_update_all_rows(self, db):
        assert db.execute("UPDATE t SET b = 0") == 3

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE t SET b = 1.5, c = 'z' WHERE a = 1")
        assert db.query("SELECT b, c FROM t WHERE a = 1").rows == [(1.5, "z")]

    def test_update_type_checked(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("UPDATE t SET a = 'nope'")

    def test_in_list(self, db):
        rows = db.query("SELECT a FROM t WHERE a IN (1, 3) ORDER BY a").rows
        assert rows == [(1,), (3,)]

    def test_not_in(self, db):
        assert db.query("SELECT a FROM t WHERE a NOT IN (1, 3)").rows == [(2,)]

    def test_in_strings(self, db):
        assert len(db.query("SELECT a FROM t WHERE c IN ('x')").rows) == 2

    def test_between(self, db):
        rows = db.query("SELECT a FROM t WHERE b BETWEEN 15 AND 25").rows
        assert rows == [(2,)]

    def test_not_between(self, db):
        rows = db.query("SELECT a FROM t WHERE b NOT BETWEEN 15 AND 25 ORDER BY a").rows
        assert rows == [(1,), (3,)]

    def test_in_with_null_operand_is_unknown(self, db):
        db.execute("INSERT INTO t(a) VALUES (9)")
        assert db.query("SELECT a FROM t WHERE b IN (10.0)").rows == [(1,)]

    def test_derived_table(self, db):
        rows = db.query(
            "SELECT s.total FROM (SELECT c, SUM(b) AS total FROM t GROUP BY c) s "
            "WHERE s.c = 'x'"
        ).rows
        assert rows == [(40.0,)]

    def test_derived_table_join(self, db):
        rows = db.query(
            "SELECT t.a FROM t, (SELECT MAX(b) AS m FROM t) s WHERE t.b = s.m"
        ).rows
        assert rows == [(3,)]

    def test_derived_table_needs_alias(self, db):
        with pytest.raises(SqlSyntaxError, match="alias"):
            db.query("SELECT * FROM (SELECT a FROM t)")
