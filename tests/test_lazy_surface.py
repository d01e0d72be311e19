"""The lazy package surfaces offer what the eager inits offered.

Every package whose ``__init__`` is built by
:func:`repro._lazy.lazy_surface` is checked the same way: each public
name resolves to the object its defining submodule holds, ``dir()``
lists it, unknown names fail like on any module, and star-imports and
the examples work in a fresh interpreter.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAZY_PACKAGES = [
    "repro",
    "repro.backends",
    "repro.chase",
    "repro.engine",
    "repro.mappings",
    "repro.model",
    "repro.stats",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazySurface:
    def test_every_public_name_is_its_submodules_object(self, package):
        module = importlib.import_module(package)
        assert set(module._EXPORTS) <= set(module.__all__)
        for name, submodule in module._EXPORTS.items():
            defining = importlib.import_module(f"{package}.{submodule}")
            assert getattr(module, name) is getattr(defining, name), name
        for name in module.__all__:
            getattr(module, name)  # the names defined in the init itself

    def test_dir_lists_the_public_names(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_attribute_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


class TestFreshInterpreter:
    def test_package_import_loads_no_layer(self, fresh_python):
        done = fresh_python(
            "-c",
            "import repro, sys; print(sorted(m for m in sys.modules "
            "if m.startswith('repro')))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['repro', 'repro._lazy']"

    def test_an_aggregate_costs_one_pure_python_module(self, fresh_python):
        done = fresh_python(
            "-c",
            "from repro.stats.aggregates import get_aggregate; import sys; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.stats')), "
            "'numpy' in sys.modules)",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == (
            "['repro.stats', 'repro.stats.aggregates'] False"
        )

    def test_model_io_does_not_run_the_sql_engine(self, fresh_python):
        done = fresh_python(
            "-c",
            "import repro.model.io, sys; "
            "print(any(m.startswith('repro.sqlengine') for m in sys.modules))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("package", ["repro", "repro.backends", "repro.stats"])
    def test_star_import(self, fresh_python, package):
        done = fresh_python(
            "-c",
            f"from {package} import *\n"
            f"import {package} as pkg\n"
            "missing = [n for n in pkg.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "print(len(pkg.__all__))",
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 10

    @pytest.mark.parametrize(
        "example", sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    )
    def test_example_runs_unchanged(self, fresh_python, example):
        done = fresh_python(str(ROOT / "examples" / example))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()


class TestLazyBackends:
    """The engine's default backend mapping builds a target on first
    lookup; names alone answer membership, ``sorted`` and ``len``."""

    def test_names_answer_without_building(self, fresh_python):
        done = fresh_python(
            "-c",
            "import sys\n"
            "from repro.backends import LazyBackends\n"
            "backends = LazyBackends()\n"
            "assert 'sql' in backends and 'cobol' not in backends\n"
            "assert sorted(backends) == ['chase', 'etl', 'matlab', 'r', 'sql'] "
            "and len(backends) == 5\n"
            "assert backends.get('cobol') is None\n"
            "built = lambda: sorted(m for m in sys.modules "
            "if m.startswith('repro.backends.'))\n"
            "assert built() == [], built()\n"
            "backends['sql']\n"
            "assert built() == ['repro.backends.base', 'repro.backends.sql']\n",
        )
        assert done.returncode == 0, done.stderr

    def test_lookup_builds_one_instance_per_target(self):
        from repro.backends import ChaseBackend, LazyBackends, all_backends

        backends = LazyBackends()
        assert isinstance(backends.get("chase"), ChaseBackend)
        assert backends["chase"] is backends["chase"]
        with pytest.raises(KeyError):
            backends["cobol"]
        eager = all_backends()
        assert list(eager) == list(backends)
        assert {n: type(b) for n, b in eager.items()} == {
            n: type(b) for n, b in backends.items()
        }
