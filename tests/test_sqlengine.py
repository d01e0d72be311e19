"""Tests for the mini relational engine (lexer, parser, executor)."""

import pytest

from repro.errors import SqlExecutionError, SqlSyntaxError
from repro.model import quarter
from repro.sqlengine import (
    Database,
    Table,
    parse_sql,
    parse_sql_script,
    sql_repr,
)
from repro.sqlengine.lexer import tokenize_sql
from repro.sqlengine.sqlast import Binary, Insert, Literal, Select


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
    database.execute(
        "INSERT INTO t VALUES (1, 10.0, 'x'), (2, 20.0, 'y'), (3, 30.0, 'x')"
    )
    return database


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize_sql("select From WHERE")
        assert [t.value for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]

    def test_string_escape(self):
        tokens = tokenize_sql("'it''s'")
        assert tokens[0].value == "it's"

    def test_qualified_name_not_a_float(self):
        tokens = tokenize_sql("t1.x")
        assert [t.type for t in tokens[:3]] == ["IDENT", "PUNCT", "IDENT"]

    def test_numbers(self):
        tokens = tokenize_sql("1 2.5 3e2")
        assert [t.value for t in tokens[:3]] == [1, 2.5, 300.0]

    def test_comments_skipped(self):
        tokens = tokenize_sql("SELECT -- comment\n1")
        assert tokens[1].value == 1

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize_sql("'oops")

    def test_quoted_identifier(self):
        tokens = tokenize_sql('"weird name"')
        assert tokens[0].type == "IDENT" and tokens[0].value == "weird name"


class TestParser:
    def test_select_structure(self):
        statement = parse_sql("SELECT a, b AS bb FROM t WHERE a = 1 ORDER BY a DESC LIMIT 5")
        assert isinstance(statement, Select)
        assert statement.items[1].alias == "bb"
        assert statement.order_by[0].descending
        assert statement.limit == 5

    def test_implicit_alias(self):
        statement = parse_sql("SELECT a x FROM t y")
        assert statement.items[0].alias == "x"
        assert statement.sources[0].alias == "y"

    def test_join_on(self):
        statement = parse_sql("SELECT * FROM a JOIN b ON a.x = b.x")
        assert len(statement.joins) == 1

    def test_insert_values(self):
        statement = parse_sql("INSERT INTO t(a, b) VALUES (1, 2), (3, 4)")
        assert isinstance(statement, Insert)
        assert len(statement.values) == 2

    def test_insert_select(self):
        statement = parse_sql("INSERT INTO t SELECT a FROM s")
        assert statement.select is not None

    def test_time_literal(self):
        statement = parse_sql("SELECT TIME '2020Q1' FROM t")
        assert statement.items[0].expr == Literal(quarter(2020, 1))

    def test_tabular_function_in_from(self):
        statement = parse_sql("SELECT * FROM STL_T(GDP, 4) F")
        source = statement.sources[0]
        assert source.name == "STL_T" and source.alias == "F"
        assert source.args == ("GDP", Literal(4))

    def test_script_parsing(self):
        statements = parse_sql_script("SELECT 1 FROM t; SELECT 2 FROM t;")
        assert len(statements) == 2

    def test_operator_precedence(self):
        statement = parse_sql("SELECT a + b * 2 FROM t")
        expr = statement.items[0].expr
        assert isinstance(expr, Binary) and expr.op == "+"

    def test_bad_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("FROB the table")

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t extra nonsense here")

    def test_create_if_not_exists(self):
        statement = parse_sql("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
        assert statement.if_not_exists


class TestDdlDml:
    def test_create_insert_select(self, db):
        result = db.query("SELECT a, b FROM t ORDER BY a")
        assert result.rows == [(1, 10.0), (2, 20.0), (3, 30.0)]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("CREATE TABLE t (x INTEGER)")

    def test_if_not_exists_is_silent(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)")

    def test_insert_type_checked(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("INSERT INTO t VALUES ('no', 1.0, 'x')")

    def test_insert_wrong_arity(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("INSERT INTO t(a) VALUES (1, 2)")

    def test_insert_partial_columns_fills_null(self, db):
        db.execute("INSERT INTO t(a) VALUES (9)")
        row = db.query("SELECT a, b FROM t WHERE a = 9").rows[0]
        assert row == (9, None)

    def test_delete_where(self, db):
        assert db.execute("DELETE FROM t WHERE c = 'x'") == 2
        assert db.query("SELECT COUNT(*) n FROM t").rows[0][0] == 1

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM t") == 3

    def test_drop_table(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(SqlExecutionError):
            db.query("SELECT * FROM t")

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS nonexistent")

    def test_integer_coerces_whole_float(self, db):
        db.execute("INSERT INTO t VALUES (4.0, 1.0, 'z')")
        assert db.query("SELECT a FROM t WHERE c = 'z'").rows[0][0] == 4

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 4.5])
    def test_integer_refuses_what_is_not_whole_naming_the_column(self, db, value):
        # NaN and ±inf have no int(): they are refused like 4.5 is, by
        # the engine's own error and with the column named
        table = db.table("t")
        with pytest.raises(SqlExecutionError) as caught:
            table.insert((value, 1.0, "z"))
        assert str(caught.value) == f"{value!r} is not INTEGER in t.a"
        with pytest.raises(SqlExecutionError, match=r"is not INTEGER in t\.a$"):
            table.insert_columns([[1, value], [1.0, 2.0], ["y", "z"]])
        with pytest.raises(SqlExecutionError, match=r"^inf is not INTEGER in t\.A$"):
            db.execute("UPDATE t SET A = b * 1e308 WHERE a = 1")
        assert len(table) == 3

    def test_insert_columns_is_insert_many_by_column(self, db):
        table = db.table("t")
        rows = [(7, 1.5, "p"), (8.0, 2, "q")]
        assert table.insert_columns([list(c) for c in zip(*rows)]) == 2
        assert table.rows[-2:] == [(7, 1.5, "p"), (8, 2.0, "q")]
        with pytest.raises(SqlExecutionError, match="3 columns, 2 columns given"):
            table.insert_columns([[1], [1.0]])
        with pytest.raises(SqlExecutionError, match="differ in length"):
            table.insert_columns([[1], [1.0, 2.0], ["x"]])


class TestSelect:
    def test_star_expansion(self, db):
        result = db.query("SELECT * FROM t ORDER BY a LIMIT 1")
        assert result.columns == ["a", "b", "c"]

    def test_where_filtering(self, db):
        assert len(db.query("SELECT a FROM t WHERE b > 15").rows) == 2

    def test_arithmetic_and_alias(self, db):
        result = db.query("SELECT a * 10 + 1 AS v FROM t WHERE a = 2")
        assert result.rows == [(21,)]

    def test_distinct(self, db):
        assert len(db.query("SELECT DISTINCT c FROM t").rows) == 2

    def test_order_desc(self, db):
        values = [r[0] for r in db.query("SELECT a FROM t ORDER BY a DESC").rows]
        assert values == [3, 2, 1]

    def test_order_by_expression(self, db):
        values = [r[0] for r in db.query("SELECT a FROM t ORDER BY 0 - a").rows]
        assert values == [3, 2, 1]

    def test_limit(self, db):
        assert len(db.query("SELECT a FROM t ORDER BY a LIMIT 2").rows) == 2

    def test_comma_join_hash_path(self, db):
        db.execute("CREATE TABLE u (a INTEGER, d TEXT)")
        db.execute("INSERT INTO u VALUES (1, 'one'), (3, 'three')")
        result = db.query(
            "SELECT t.a, u.d FROM t, u WHERE t.a = u.a ORDER BY t.a"
        )
        assert result.rows == [(1, "one"), (3, "three")]

    def test_explicit_join_on(self, db):
        db.execute("CREATE TABLE u (a INTEGER, d TEXT)")
        db.execute("INSERT INTO u VALUES (2, 'two')")
        result = db.query("SELECT u.d FROM t JOIN u ON t.a = u.a")
        assert result.rows == [("two",)]

    def test_self_join_with_shift_condition(self, db):
        result = db.query(
            "SELECT x.a, y.a FROM t x, t y WHERE y.a = x.a - 1 ORDER BY x.a"
        )
        assert result.rows == [(2, 1), (3, 2)]

    def test_cartesian_when_no_condition(self, db):
        assert len(db.query("SELECT x.a FROM t x, t y").rows) == 9

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SqlExecutionError, match="ambiguous"):
            db.query("SELECT a FROM t x, t y WHERE x.a = y.a")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.query("SELECT zzz FROM t")

    def test_case_expression(self, db):
        result = db.query(
            "SELECT a, CASE WHEN b > 15 THEN 'hi' ELSE 'lo' END AS lvl "
            "FROM t ORDER BY a"
        )
        assert [r[1] for r in result.rows] == ["lo", "hi", "hi"]

    def test_scalar_functions(self, db):
        result = db.query("SELECT ABS(0 - a), SQRT(b) FROM t WHERE a = 1")
        assert result.rows[0] == (1, pytest.approx(3.1622776))

    def test_division_by_zero(self, db):
        with pytest.raises(SqlExecutionError, match="division"):
            db.query("SELECT a / 0 FROM t")


class TestAggregation:
    def test_group_by(self, db):
        result = db.query(
            "SELECT c, SUM(b) AS s FROM t GROUP BY c ORDER BY c"
        )
        assert result.rows == [("x", 40.0), ("y", 20.0)]

    def test_global_aggregate(self, db):
        assert db.query("SELECT AVG(b) FROM t").rows == [(20.0,)]

    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM t").rows[0][0] == 3.0

    def test_having(self, db):
        result = db.query(
            "SELECT c, COUNT(*) n FROM t GROUP BY c HAVING COUNT(*) > 1"
        )
        assert result.rows == [("x", 2.0)]

    def test_median_aggregate(self, db):
        assert db.query("SELECT MEDIAN(b) FROM t").rows == [(20.0,)]

    def test_aggregate_of_expression(self, db):
        assert db.query("SELECT SUM(a * b) FROM t").rows == [(140.0,)]

    def test_group_by_expression(self, db):
        result = db.query("SELECT a % 2 AS parity, COUNT(*) FROM t GROUP BY a % 2")
        assert sorted(result.rows) == [(0, 1.0), (1, 2.0)]

    def test_aggregate_outside_group_context(self, db):
        with pytest.raises(SqlExecutionError):
            db.query("SELECT a FROM t WHERE SUM(b) > 1")

    def test_global_aggregate_empty_table(self, db):
        db.execute("DELETE FROM t")
        assert db.query("SELECT SUM(b) FROM t").rows == [(None,)]


class TestNulls:
    def test_null_arithmetic_propagates(self, db):
        db.execute("INSERT INTO t(a) VALUES (7)")
        assert db.query("SELECT b + 1 FROM t WHERE a = 7").rows == [(None,)]

    def test_null_comparison_filters_out(self, db):
        db.execute("INSERT INTO t(a) VALUES (7)")
        assert len(db.query("SELECT a FROM t WHERE b > 0").rows) == 3

    def test_is_null(self, db):
        db.execute("INSERT INTO t(a) VALUES (7)")
        assert db.query("SELECT a FROM t WHERE b IS NULL").rows == [(7,)]

    def test_is_not_null(self, db):
        db.execute("INSERT INTO t(a) VALUES (7)")
        assert len(db.query("SELECT a FROM t WHERE b IS NOT NULL").rows) == 3

    def test_aggregates_skip_nulls(self, db):
        db.execute("INSERT INTO t(a) VALUES (7)")
        assert db.query("SELECT COUNT(b) FROM t").rows[0][0] == 3.0

    def test_coalesce(self, db):
        db.execute("INSERT INTO t(a) VALUES (7)")
        assert db.query("SELECT COALESCE(b, -1) FROM t WHERE a = 7").rows == [(-1,)]


class TestTimeSupport:
    def test_time_column_and_shift(self):
        db = Database()
        db.execute("CREATE TABLE s (q TIME, v REAL)")
        db.execute("INSERT INTO s VALUES (TIME '2020Q1', 1.0), (TIME '2020Q2', 2.0)")
        result = db.query("SELECT q + 1, v FROM s ORDER BY q")
        assert result.rows[0][0] == quarter(2020, 2)

    def test_quarter_function(self):
        db = Database()
        db.execute("CREATE TABLE s (d TIME, v REAL)")
        db.execute("INSERT INTO s VALUES (TIME '2020-05-04', 1.0)")
        assert db.query("SELECT QUARTER(d) FROM s").rows == [(quarter(2020, 2),)]

    def test_time_type_enforced(self):
        db = Database()
        db.execute("CREATE TABLE s (q TIME, v REAL)")
        with pytest.raises(SqlExecutionError):
            db.execute("INSERT INTO s VALUES ('2020Q1', 1.0)")


class TestViewsAndTabular:
    def test_view_materializes(self, db):
        db.execute("CREATE VIEW vx AS SELECT a, b FROM t WHERE c = 'x'")
        assert len(db.query("SELECT * FROM vx").rows) == 2

    def test_view_reflects_base_changes(self, db):
        db.execute("CREATE VIEW vx AS SELECT a FROM t WHERE c = 'x'")
        db.execute("INSERT INTO t VALUES (8, 1.0, 'x')")
        assert len(db.query("SELECT * FROM vx").rows) == 3

    def test_drop_view(self, db):
        db.execute("CREATE VIEW vx AS SELECT a FROM t")
        db.execute("DROP VIEW vx")
        with pytest.raises(SqlExecutionError):
            db.query("SELECT * FROM vx")

    def test_view_name_clash(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("CREATE VIEW t AS SELECT a FROM t")

    def test_tabular_function(self, db):
        def double(table):
            out = Table("out", table.columns)
            for row in table.rows:
                out.insert(row[:1] + (row[1] * 2,) + row[2:])
            return out

        db.functions.register_tabular("DOUBLE", double)
        result = db.query("SELECT b FROM DOUBLE(t) d WHERE d.a = 1")
        assert result.rows == [(20.0,)]

    def test_unknown_tabular_function(self, db):
        with pytest.raises(SqlExecutionError):
            db.query("SELECT * FROM NOPE(t) n")


class TestMisc:
    def test_sql_repr(self):
        assert sql_repr(None) == "NULL"
        assert sql_repr("o'clock") == "'o''clock'"
        assert sql_repr(quarter(2020, 1)) == "TIME '2020Q1'"
        assert sql_repr(3.0) == "3"
        assert sql_repr(2.5) == "2.5"

    def test_query_result_column(self, db):
        result = db.query("SELECT a, b FROM t ORDER BY a")
        assert result.column("b") == [10.0, 20.0, 30.0]

    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO t VALUES (5, 50.0, 'z'); SELECT COUNT(*) FROM t;"
        )
        assert results[0] == 1
        assert results[1].rows[0][0] == 4.0

    def test_query_requires_select(self, db):
        with pytest.raises(SqlExecutionError):
            db.query("DELETE FROM t")
