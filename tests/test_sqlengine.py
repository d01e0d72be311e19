"""Tests for the mini relational engine (lexer, parser, executor), on
the dialect the SQL backend prints; tables are made with
``Database.create_table`` and filled with ``Table.insert_many``."""

import pytest

from repro.errors import SqlExecutionError, SqlSyntaxError
from repro.model import quarter
from repro.model import day, quarter
from repro.sqlengine import (
    Column,
    Database,
    SqlType,
    Table,
    parse_sql,
    parse_sql_script,
    sql_repr,
)
from repro.sqlengine.lexer import tokenize_sql
from repro.sqlengine.sqlast import Binary, Insert, Literal, Select

T_COLUMNS = [
    Column("a", SqlType.INTEGER),
    Column("b", SqlType.REAL),
    Column("c", SqlType.TEXT),
]


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", T_COLUMNS)
    database.table("t").insert_many([(1, 10.0, "x"), (2, 20.0, "y"), (3, 30.0, "x")])
    return database


def _with_null_row(db):
    """``t`` plus the row ``(7, NULL, NULL)``."""
    db.table("t").insert((7, None, None))
    return db


def _series(db, name, freq_column, points):
    """A table ``name(freq_column TIME, v REAL)`` holding ``points``."""
    table = db.create_table(
        name, [Column(freq_column, SqlType.TIME), Column("v", SqlType.REAL)]
    )
    table.insert_many((p, float(i + 1)) for i, p in enumerate(points))
    return table


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
        statement = parse_sql("SELECT a, b AS bb FROM t WHERE a = 1 GROUP BY a, b")
        assert isinstance(statement, Select)
        assert statement.items[1].alias == "bb"
        assert statement.where == Binary("=", statement.items[0].expr, Literal(1))
        assert len(statement.group_by) == 2

    def test_implicit_alias(self):
        statement = parse_sql("SELECT a x FROM t y")
        assert statement.items[0].alias == "x"
        assert statement.sources[0].alias == "y"

    def test_join_on(self):
        statement = parse_sql("SELECT * FROM a LEFT JOIN b ON a.x = b.x AND a.y = b.y")
        assert len(statement.joins) == 1
        assert statement.joins[0].condition.op == "AND"

    def test_insert_select(self):
        statement = parse_sql("INSERT INTO t(a) SELECT a FROM s")
        assert isinstance(statement, Insert)
        assert statement.columns == ("a",)
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


class TestDdlDml:
    def test_create_insert_select(self, db):
        db.create_table("u", T_COLUMNS[:2])
        assert db.execute("INSERT INTO u(a, b) SELECT a, b FROM t") == 3
        assert sorted(db.query("SELECT a, b FROM u").rows) == [
            (1, 10.0), (2, 20.0), (3, 30.0)
        ]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SqlExecutionError, match="already exists"):
            db.create_table("T", [Column("x", SqlType.INTEGER)])

    def test_insert_type_checked(self, db):
        with pytest.raises(SqlExecutionError, match="'no' is not INTEGER in t.a"):
            db.table("t").insert_many([("no", 1.0, "x")])
        with pytest.raises(SqlExecutionError, match="'x' is not REAL in t.b"):
            db.execute("INSERT INTO t(a, b) SELECT a, c FROM t")

    def test_insert_wrong_arity(self, db):
        with pytest.raises(SqlExecutionError, match="2 values for 1 columns"):
            db.execute("INSERT INTO t(a) SELECT a, b FROM t")
        with pytest.raises(SqlExecutionError, match="3 columns, row has 2"):
            db.table("t").insert_many([(1, 2.0)])
        with pytest.raises(SqlExecutionError, match="duplicate columns in INSERT"):
            db.execute("INSERT INTO t(a, A) SELECT a, a FROM t")
        assert len(db.table("t")) == 3

    def test_insert_partial_columns_fills_null(self, db):
        db.create_table("u", T_COLUMNS)
        db.execute("INSERT INTO u(a) SELECT a FROM t WHERE a = 2")
        assert db.table("u").rows == [(2, None, None)]

    def test_integer_coerces_whole_float(self, db):
        db.table("t").insert_many([(4.0, 1.0, "z")])
        assert db.query("SELECT a FROM t WHERE c = 'z'").rows == [(4,)]
        assert db.execute("INSERT INTO t(a, b, c) SELECT b, b, c FROM t WHERE a = 4") == 1
        assert db.query("SELECT a FROM t WHERE c = 'z'").rows == [(4,), (1,)]

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
        with pytest.raises(SqlExecutionError, match=r"^inf is not INTEGER in t\.a$"):
            db.execute("INSERT INTO t(A, b, c) SELECT b * 1e308, b, c FROM t WHERE a = 1")
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
        result = db.query("SELECT * FROM t WHERE a = 1")
        assert result.columns == ["a", "b", "c"]
        assert result.rows == [(1, 10.0, "x")]

    def test_where_filtering(self, db):
        assert db.query("SELECT a FROM t WHERE c = 'x' AND b = 30").rows == [(3,)]

    def test_arithmetic_and_alias(self, db):
        result = db.query("SELECT a * 10 + 1 AS v FROM t WHERE a = 2")
        assert result.rows == [(21,)]

    def test_comma_join_hash_path(self, db):
        u = db.create_table("u", [Column("a", SqlType.INTEGER), Column("d", SqlType.TEXT)])
        u.insert_many([(1, "one"), (3, "three")])
        result = db.query("SELECT t.a, u.d FROM t, u WHERE t.a = u.a")
        assert sorted(result.rows) == [(1, "one"), (3, "three")]

    def test_explicit_join_on(self, db):
        u = db.create_table("u", [Column("a", SqlType.INTEGER), Column("d", SqlType.TEXT)])
        u.insert_many([(2, "two")])
        result = db.query("SELECT u.d FROM t LEFT JOIN u ON t.a = u.a")
        assert result.rows == [(None,), ("two",), (None,)]

    def test_self_join_with_shift_condition(self, db):
        result = db.query("SELECT x.a, y.a FROM t x, t y WHERE y.a = x.a - 1")
        assert sorted(result.rows) == [(2, 1), (3, 2)]

    def test_cartesian_when_no_condition(self, db):
        assert len(db.query("SELECT x.a FROM t x, t y").rows) == 9

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SqlExecutionError, match="ambiguous"):
            db.query("SELECT a FROM t x, t y WHERE x.a = y.a")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SqlExecutionError):
            db.query("SELECT zzz FROM t")

    def test_scalar_functions(self, db):
        result = db.query("SELECT ABS(0 - a), SQRT(b) FROM t WHERE a = 1")
        assert result.rows[0] == (1, pytest.approx(3.1622776))

    def test_division_by_zero(self, db):
        with pytest.raises(SqlExecutionError, match="division"):
            db.query("SELECT a / 0 FROM t")


class TestAggregation:
    def test_group_by(self, db):
        result = db.query("SELECT c, SUM(b) AS s FROM t GROUP BY c")
        assert sorted(result.rows) == [("x", 40.0), ("y", 20.0)]

    def test_global_aggregate(self, db):
        assert db.query("SELECT AVG(b) FROM t").rows == [(20.0,)]

    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM t").rows[0][0] == 3.0

    def test_median_aggregate(self, db):
        assert db.query("SELECT MEDIAN(b) FROM t").rows == [(20.0,)]

    def test_aggregate_of_expression(self, db):
        assert db.query("SELECT SUM(a * b) FROM t").rows == [(140.0,)]

    def test_group_by_expression(self, db):
        _series(db, "s", "d", [day(2020, 1, 31), day(2020, 2, 1), day(2020, 4, 1)])
        result = db.query("SELECT QUARTER(d) AS q, COUNT(*) FROM s GROUP BY QUARTER(d)")
        assert sorted(result.rows) == [(quarter(2020, 1), 2.0), (quarter(2020, 2), 1.0)]

    def test_aggregate_outside_group_context(self, db):
        with pytest.raises(SqlExecutionError, match="outside GROUP BY"):
            db.query("SELECT a FROM t WHERE SUM(b) = 1")

    def test_global_aggregate_empty_table(self, db):
        db.create_table("empty", T_COLUMNS)
        assert db.query("SELECT SUM(b) FROM empty").rows == [(None,)]


class TestNulls:
    def test_null_arithmetic_propagates(self, db):
        _with_null_row(db)
        assert db.query("SELECT b + 1 FROM t WHERE a = 7").rows == [(None,)]

    def test_null_comparison_filters_out(self, db):
        _with_null_row(db)
        assert len(db.query("SELECT a FROM t WHERE b = b").rows) == 3

    def test_is_null(self, db):
        _with_null_row(db)
        assert db.query("SELECT a FROM t WHERE b IS NULL").rows == [(7,)]

    def test_is_not_null(self, db):
        _with_null_row(db)
        assert len(db.query("SELECT a FROM t WHERE b IS NOT NULL").rows) == 3

    def test_aggregates_skip_nulls(self, db):
        _with_null_row(db)
        assert db.query("SELECT COUNT(b) FROM t").rows[0][0] == 3.0


class TestTimeSupport:
    def test_time_column_and_shift(self):
        db = Database()
        _series(db, "s", "q", [quarter(2020, 1), quarter(2020, 2)])
        result = db.query("SELECT q + 1, v FROM s WHERE v = 1")
        assert result.rows == [(quarter(2020, 2), 1.0)]
        assert db.query("SELECT y.v FROM s x, s y WHERE y.q = x.q + 1").rows == [(2.0,)]

    def test_quarter_function(self):
        db = Database()
        _series(db, "s", "d", [day(2020, 5, 4)])
        assert db.query("SELECT QUARTER(d) FROM s").rows == [(quarter(2020, 2),)]

    def test_time_type_enforced(self):
        db = Database()
        table = _series(db, "s", "q", [])
        with pytest.raises(SqlExecutionError, match="'2020Q1' is not TIME in s.q"):
            table.insert_many([("2020Q1", 1.0)])


class TestViewsAndTabular:
    def test_view_materializes(self, db):
        db.execute("CREATE VIEW vx AS SELECT a, b FROM t WHERE c = 'x'")
        assert len(db.query("SELECT * FROM vx").rows) == 2

    def test_view_reflects_base_changes(self, db):
        db.execute("CREATE VIEW vx AS SELECT a FROM t WHERE c = 'x'")
        db.table("t").insert_many([(8, 1.0, "x")])
        assert len(db.query("SELECT * FROM vx").rows) == 3

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
        result = db.query("SELECT a, b FROM t")
        assert result.column("B") == [10.0, 20.0, 30.0]

    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO t(a, b, c) SELECT a + 4, b, c FROM t WHERE a = 1;"
            "\n-- the printed script's comments are skipped\n"
            "SELECT COUNT(*) FROM t;"
        )
        assert results[0] == 1
        assert results[1].rows[0][0] == 4.0

    def test_query_requires_select(self, db):
        with pytest.raises(SqlExecutionError, match="expects a SELECT"):
            db.query("CREATE VIEW vx AS SELECT a FROM t")


class TestRefusedDialect:
    """SQL outside the printed dialect fails in the parser, naming what
    it used."""

    @pytest.mark.parametrize(
        "sql, feature",
        [
            ("UPDATE t SET b = 0", "UPDATE"),
            ("DELETE FROM t WHERE a = 1", "DELETE"),
            ("DROP TABLE t", "DROP"),
            ("DROP VIEW vx", "DROP"),
            ("SELECT a FROM t ORDER BY a", "ORDER BY"),
            ("INSERT INTO t(a) VALUES (1)", "INSERT … VALUES"),
            ("CREATE TABLE u (a INTEGER)", "CREATE TABLE"),
            ("SELECT DISTINCT c FROM t", "DISTINCT"),
            ("SELECT a FROM t LIMIT 1", "LIMIT"),
            ("SELECT c FROM t GROUP BY c HAVING COUNT(*) = 2", "HAVING"),
            ("SELECT CASE WHEN a = 1 THEN b END FROM t", "CASE"),
            ("SELECT a FROM t WHERE a IN (1, 3)", "IN"),
            ("SELECT a FROM t WHERE b BETWEEN 15 AND 25", "BETWEEN"),
            ("SELECT a FROM t WHERE a = 1 OR a = 2", "OR"),
            ("SELECT a FROM t WHERE b > 15", "the comparison >"),
            ("SELECT a FROM t WHERE b <> 15", "the comparison <>"),
            ("SELECT a % 2 FROM t", "%"),
            ("SELECT s.a FROM (SELECT a FROM t) s", "a derived table"),
            ("SELECT u.a FROM t JOIN t u ON t.a = u.a", "INNER JOIN"),
            ("SELECT u.a FROM t INNER JOIN t u ON t.a = u.a", "INNER JOIN"),
        ],
    )
    def test_error_names_the_feature(self, db, sql, feature):
        with pytest.raises(SqlSyntaxError) as caught:
            db.execute(sql)
        assert f"the SQL target does not support {feature}" in str(caught.value)
        assert len(db.table("t")) == 3
