"""A cube stays encoded from the CSV reader to the bytes under ``<out>``.

The reader encodes as it parses, a cube's canonical bytes are made and
hashed once, an adopted input is held once by the chase, and every file
under ``<out>`` is UTF-8 whatever the locale.  Memory is pinned per row
with ``tracemalloc`` on a generated 34 560-row cube (36 months x 80
regions x 12 products).
"""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from repro.chase.colstore import ColumnStore
from repro.cli import main
from repro.errors import ModelError
from repro.model import STRING, TIME, CubeSchema, Dimension, Frequency
from repro.model import io as model_io
from repro.model.io import (
    canonical_bytes,
    cube_from_csv_text,
    cube_to_csv_text,
    read_cube_csv,
)

MONTHS, REGIONS, PRODUCTS = 36, 80, 12


@pytest.fixture(scope="module")
def big_schema():
    return CubeSchema(
        "E",
        [
            Dimension("m", TIME(Frequency.MONTH)),
            Dimension("r", STRING),
            Dimension("p", STRING),
        ],
        "v",
    )


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    """34 560 rows in file order (month-major), measures with three
    decimals drawn from a fixed sequence."""
    path = tmp_path_factory.mktemp("big") / "e.csv"
    lines = ["m,r,p,v"]
    i = 0
    for month in range(MONTHS):
        m = f"{2010 + month // 12}M{month % 12 + 1:02d}"
        for r in range(REGIONS):
            for p in range(PRODUCTS):
                i += 1
                lines.append(f"{m},r{r:03d},p{p:02d},{(i * 7919) % 500000 / 1000:.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _traced_peak(call):
    """``(result, bytes allocated at the peak of call() above its entry)``."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - entry


class TestMemoryPerRow:
    def test_reader_peaks_at_most_300_bytes_per_row(self, big_schema, big_csv):
        read_cube_csv(big_schema, big_csv)  # warm the parse caches
        cube, peak = _traced_peak(lambda: read_cube_csv(big_schema, big_csv))
        assert len(cube) == MONTHS * REGIONS * PRODUCTS
        assert cube._columns is not None and cube._dict is None
        assert peak / len(cube) <= 300

    def test_canonical_bytes_are_made_in_at_most_four_times_their_size(
        self, big_schema, big_csv
    ):
        import numpy  # noqa: F401  (the writer's sort loads it: not in the peak)

        cube = read_cube_csv(big_schema, big_csv)
        (data, digest), peak = _traced_peak(lambda: canonical_bytes(cube))
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak <= 4 * len(data)

    def test_adopted_input_is_held_once_after_a_run(
        self, big_schema, big_csv, tmp_path, monkeypatch
    ):
        from repro.backends import chasebackend

        adopted = []
        real = chasebackend.store_for_cube

        def spy(cube):
            adopted.append(cube)
            return real(cube)

        monkeypatch.setattr(chasebackend, "store_for_cube", spy)
        project = {
            "elementary": [
                {"name": "E", "dimensions": [["m", "time:M"], ["r", "string"],
                                             ["p", "string"]],
                 "measure": "v", "csv": str(big_csv)},
            ],
            "program": "A := E * 2\nB := sum(E, group by m)",
            "preferred_targets": {"A": "chase", "B": "chase"},
        }
        path = tmp_path / "project.json"
        path.write_text(json.dumps(project), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert adopted
        for cube in adopted:
            assert isinstance(cube._colstore, ColumnStore)
            assert cube._columns is None


class TestChunkedReader:
    """Chunk boundaries are invisible: a reader taking two rows at a
    time accepts and refuses what one taking them all does, and names
    the same line."""

    @pytest.fixture(autouse=True)
    def tiny_chunks(self, monkeypatch):
        monkeypatch.setattr(model_io, "CHUNK_ROWS", 2)

    @pytest.fixture
    def schema(self):
        return CubeSchema("X", [Dimension("r", STRING)], "v")

    def test_rows_across_chunks_are_one_cube(self, schema):
        cube = cube_from_csv_text(schema, "r,v\na,1\nb,2\na2,3\nc,4\nd,5\n")
        assert cube._columns is not None
        assert cube[("d",)] == 5.0 and len(cube) == 5

    def test_a_bad_row_in_a_later_chunk_names_its_line(self, schema):
        with pytest.raises(ModelError, match="line 6"):
            cube_from_csv_text(schema, "r,v\na,1\nb,2\nc,3\nd,4\ne,x\n")
        with pytest.raises(ModelError, match="line 5: 1 fields for 2"):
            cube_from_csv_text(schema, "r,v\na,1\nb,2\nc,3\nd\n")

    def test_blank_rows_and_repeated_rows_go_row_by_row(self, schema):
        cube = cube_from_csv_text(schema, "r,v\na,1\nb,2\n\nc,3\na,1\n")
        assert sorted(cube.items()) == [(("a",), 1.0), (("b",), 2.0), (("c",), 3.0)]
        with pytest.raises(ModelError, match="functional violation"):
            cube_from_csv_text(schema, "r,v\na,1\nb,2\nc,3\na,9\n")

    def test_bytes_parse_like_text(self, schema):
        text = 'r,v\r\nZürich,2.0\r\n"x,y",1.5\r\n'
        from_text = cube_from_csv_text(schema, text)
        from_bytes = cube_from_csv_text(schema, text.encode("utf-8"))
        assert from_bytes == from_text
        assert cube_to_csv_text(from_bytes) == text


def _cube_digest_calls(monkeypatch):
    """Count ``hashlib.sha256`` calls, except the journal's hashes of
    its own record headers."""
    calls = []
    real = hashlib.sha256

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code.co_name != "_record_sha256":
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    return calls


class TestOneDigestPerCube:
    """Each cube's bytes are hashed once per process; the only other
    digest is the program text's."""

    def _write_t(self, directory, revised):
        values = {k: k + (0.5 if revised and k == 5 else 0) for k in range(1, 13)}
        (directory / "t.csv").write_text(
            "m,v\n" + "".join(f"2020M{k:02d},{v}\n" for k, v in values.items()),
            encoding="utf-8",
        )

    def _project(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "m,c,v\n" + "".join(
                f"2020M{k:02d},{c},{k * 1.5}\n" for k in range(1, 13) for c in "xyz"
            ),
            encoding="utf-8",
        )
        self._write_t(tmp_path, revised=False)
        project = {
            "elementary": [
                {"name": "S", "dimensions": [["m", "time:M"], ["c", "string"]],
                 "measure": "v", "csv": "s.csv"},
                {"name": "T", "dimensions": [["m", "time:M"]], "measure": "v",
                 "csv": "t.csv"},
            ],
            "program": "A := S * 2\nB := sum(A, group by m)\nC := B + T\nD := C * 3",
            "preferred_targets": {"A": "chase", "B": "sql", "C": "r", "D": "etl"},
        }
        path = tmp_path / "project.json"
        path.write_text(json.dumps(project), encoding="utf-8")
        return str(path), 6

    def test_run_and_update_hash_each_cube_once(self, tmp_path, monkeypatch, capsys):
        project, cubes = self._project(tmp_path)
        out = str(tmp_path / "out")
        calls = _cube_digest_calls(monkeypatch)
        assert main(["run", project, "--out", out]) == 0
        assert len(calls) == cubes + 1
        calls.clear()
        self._write_t(tmp_path, revised=True)
        assert main(["update", project, "--out", out]) == 0
        # S and T, checked against the baseline; B, read back as C's
        # operand; the recomputed C and D; and the program text.  A is
        # neither recomputed nor read, so nothing hashes it
        assert len(calls) == (cubes - 1) + 1
        assert "unusable" not in capsys.readouterr().err


class TestUtf8WhateverTheLocale:
    def _project(self, directory):
        directory.mkdir()
        (directory / "s.csv").write_text(
            "m,c,v\n2020M01,Zürich,10\n2020M02,Zürich,12\n"
            "2020M01,Genève,11\n2020M02,Lyon,15\n",
            encoding="utf-8",
        )
        (directory / "t.csv").write_text(
            "m,c,v\n2020M01,Zürich,1\n2020M02,Zürich,2\n"
            "2020M01,Genève,3\n2020M02,Lyon,4\n",
            encoding="utf-8",
        )
        project = {
            "elementary": [
                {"name": "S", "dimensions": [["m", "time:M"], ["c", "string"]],
                 "measure": "v", "csv": "s.csv"},
                {"name": "T", "dimensions": [["m", "time:M"], ["c", "string"]],
                 "measure": "v", "csv": "t.csv"},
            ],
            "program": "A := S * 2\nB := A + T",
            "groupings": {"S": {"c": {"country": {
                "Zürich": "Schweiz", "Genève": "Schweiz", "Lyon": "France",
            }}}},
            "preferred_targets": {"A": "chase", "B": "sql"},
        }
        (directory / "project.json").write_text(
            json.dumps(project, ensure_ascii=False), encoding="utf-8"
        )

    def _session(self, directory, child_env, locale):
        env = {**child_env, "LC_ALL": locale, "PYTHONUTF8": "0"}
        project, out = str(directory / "project.json"), str(directory / "out")

        def exl(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env,
                capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
            return done

        exl("run", project, "--out", out)
        answers = [
            exl("query", project, "S", "--out", out, "--levels", "c=country").stdout,
            exl("query", project, "A", "--out", out, "--levels", "m=quarter").stdout,
        ]
        with open(directory / "t.csv", "a", encoding="utf-8") as handle:
            handle.write("2020M02,Genève,5\n")
        update = exl("update", project, "--out", out)
        files = {
            str(path.relative_to(directory / "out")): path.read_bytes()
            for path in sorted((directory / "out").rglob("*"))
            if path.is_file() and path.suffix != ".json"
        }
        return files, answers, update.stderr

    def test_run_update_and_query_write_the_same_bytes(self, tmp_path, child_env):
        sessions = {}
        for locale in ("C", "C.UTF-8"):
            self._project(tmp_path / locale)
            sessions[locale] = self._session(tmp_path / locale, child_env, locale)
        files, answers, stderr = sessions["C"]
        assert "Zürich".encode("utf-8") in files["baseline/A.csv"]
        assert b"Z\xc3\xbcrich" in answers[1]
        assert (files, answers) == sessions["C.UTF-8"][:2]
        assert b"unusable" not in stderr
