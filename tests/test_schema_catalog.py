"""Tests for Schema, MetadataCatalog and the versioned store."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.model import (
    STRING,
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    MetadataCatalog,
    Schema,
    quarter,
)
from repro.model.catalog import VersionedStore


def _series(name="S"):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


class TestSchema:
    def test_add_and_lookup(self):
        schema = Schema([_series("A"), _series("B")])
        assert "A" in schema and schema["B"].name == "B"
        assert schema.names == ["A", "B"]

    def test_duplicate_rejected(self):
        schema = Schema([_series("A")])
        with pytest.raises(SchemaError):
            schema.add(_series("A"))

    def test_replace_overwrites(self):
        schema = Schema([_series("A")])
        replacement = CubeSchema("A", [Dimension("r", STRING)], "w")
        schema.replace(replacement)
        assert schema["A"].measure == "w"

    def test_missing_lookup_raises(self):
        with pytest.raises(SchemaError):
            _ = Schema([])["nope"]

    def test_copy_is_shallow_independent(self):
        schema = Schema([_series("A")])
        clone = schema.copy()
        clone.add(_series("B"))
        assert "B" not in schema

    def test_merged_rejects_clash(self):
        with pytest.raises(SchemaError):
            Schema([_series("A")]).merged(Schema([_series("A")]))

    def test_merged_combines(self):
        merged = Schema([_series("A")]).merged(Schema([_series("B")]))
        assert set(merged.names) == {"A", "B"}


class TestVersionedStore:
    def test_put_returns_increasing_versions(self):
        store = VersionedStore()
        cube = Cube.from_series(_series(), quarter(2020, 1), [1.0])
        v1 = store.put(cube)
        v2 = store.put(cube)
        assert v2 > v1

    def test_get_latest(self):
        store = VersionedStore()
        a = Cube.from_series(_series(), quarter(2020, 1), [1.0])
        b = Cube.from_series(_series(), quarter(2020, 1), [2.0])
        store.put(a)
        store.put(b)
        assert store.get("S")[(quarter(2020, 1),)] == 2.0

    def test_get_historical_version(self):
        store = VersionedStore()
        a = Cube.from_series(_series(), quarter(2020, 1), [1.0])
        b = Cube.from_series(_series(), quarter(2020, 1), [2.0])
        v1 = store.put(a)
        store.put(b)
        assert store.get("S", v1)[(quarter(2020, 1),)] == 1.0

    def test_version_at_or_before(self):
        store = VersionedStore()
        v1 = store.put(Cube.from_series(_series(), quarter(2020, 1), [1.0]))
        # version v1 + 5 doesn't exist; the query should fall back to v1
        assert store.get("S", v1 + 5)[(quarter(2020, 1),)] == 1.0

    def test_too_early_version_raises(self):
        store = VersionedStore()
        store.put(Cube.from_series(_series("OTHER"), quarter(2020, 1), [9.0]))
        v = store.put(Cube.from_series(_series(), quarter(2020, 1), [1.0]))
        with pytest.raises(CatalogError):
            store.get("S", v - 1)

    def test_missing_cube_raises(self):
        with pytest.raises(CatalogError):
            VersionedStore().get("missing")

    def test_put_stores_a_copy(self):
        store = VersionedStore()
        cube = Cube.from_series(_series(), quarter(2020, 1), [1.0])
        store.put(cube)
        cube.set((quarter(2020, 2),), 5.0)
        assert len(store.get("S")) == 1


class TestDeferredVersions:
    """A version admitted by digest has a number and counts as data,
    but its loader runs only when — and only the first time — it is
    read."""

    def _deferred(self, store, values=(1.0,)):
        loads = []

        def load():
            loads.append(1)
            return Cube.from_series(_series(), quarter(2020, 1), list(values))

        return store.defer("S", "abc", load), loads

    def test_deferred_version_is_data_without_loading(self):
        store = VersionedStore()
        version, loads = self._deferred(store)
        assert store.has("S") and store.names() == ["S"]
        assert store.latest_version("S") == version
        assert store.versions("S") == [version]
        assert store.digest("S") == "abc"
        assert loads == []

    def test_first_read_loads_once(self):
        store = VersionedStore()
        _, loads = self._deferred(store)
        assert store.get("S")[(quarter(2020, 1),)] == 1.0
        assert store.get("S") is store.get("S")
        assert loads == [1]
        assert store.digest("S") is None  # tuples now, not a digest

    def test_fulfil_replaces_the_load(self):
        store = VersionedStore()
        version, loads = self._deferred(store)
        store.fulfil(Cube.from_series(_series(), quarter(2020, 1), [1.0]))
        assert store.latest_version("S") == version
        assert store.get("S")[(quarter(2020, 1),)] == 1.0
        assert loads == [] and store.digest("S") is None

    def test_put_supersedes_a_deferred_version(self):
        store = VersionedStore()
        first, loads = self._deferred(store)
        store.put(Cube.from_series(_series(), quarter(2020, 1), [2.0]))
        assert store.digest("S") is None
        assert store.get("S")[(quarter(2020, 1),)] == 2.0
        assert loads == []
        # the historical read is what loads the superseded version
        assert store.get("S", first)[(quarter(2020, 1),)] == 1.0
        assert loads == [1]

    def test_failed_load_stays_deferred(self):
        store = VersionedStore()

        def load():
            raise CatalogError("unreadable")

        store.defer("S", "abc", load)
        with pytest.raises(CatalogError):
            store.get("S")
        assert store.digest("S") == "abc"


class TestMetadataCatalog:
    def test_declare_and_classify(self):
        catalog = MetadataCatalog()
        catalog.declare_elementary(_series("E"))
        catalog.declare_derived(_series("D"), "D := E * 2")
        assert catalog.is_elementary("E")
        assert catalog.is_derived("D")
        assert catalog.elementary_names == ["E"]
        assert catalog.derived_names == ["D"]

    def test_duplicate_declaration_rejected(self):
        catalog = MetadataCatalog()
        catalog.declare_elementary(_series("E"))
        with pytest.raises(CatalogError):
            catalog.declare_derived(_series("E"), "E := E")

    def test_unknown_cube_raises(self):
        with pytest.raises(CatalogError):
            MetadataCatalog().entry("X")

    def test_load_requires_declaration(self):
        catalog = MetadataCatalog()
        with pytest.raises(CatalogError):
            catalog.load(Cube.from_series(_series("X"), quarter(2020, 1), [1.0]))

    def test_load_and_data(self):
        catalog = MetadataCatalog()
        catalog.declare_elementary(_series("E"))
        cube = Cube.from_series(_series("E"), quarter(2020, 1), [1.0])
        catalog.load(cube)
        assert catalog.has_data("E")
        assert catalog.data("E").approx_equals(cube)

    def test_as_schema(self):
        catalog = MetadataCatalog()
        catalog.declare_elementary(_series("E"))
        catalog.declare_derived(_series("D"), "D := E * 2")
        assert set(catalog.as_schema().names) == {"E", "D"}

    def test_preferred_target_recorded(self):
        catalog = MetadataCatalog()
        catalog.declare_derived(_series("D"), "D := E", preferred_target="r")
        assert catalog.entry("D").preferred_target == "r"
