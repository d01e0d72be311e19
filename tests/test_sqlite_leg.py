"""The SQL target's printed statements, judged by sqlite3
(:mod:`tests.oracle.sqlite`): every non-table-function composed tgd of
the corpus below runs on the stdlib's sqlite3 and must yield
``sqlengine``'s cube and the chase's, up to the oracle's written rules
(``RULES``).

Run alone, it prints its count line::

    PYTHONPATH=src python -m tests.test_sqlite_leg
"""

import sqlite3

import pytest

from repro.exl import Program
from repro.mappings import generate_mapping, simplify_mapping
from repro.workloads import (
    employment_example,
    gdp_example,
    price_index_example,
    random_workload,
    scenario_corpus,
)

from .oracle.sqlite import judge
from .test_equivalence import _composed_shapes

#: family -> the workloads whose composed mappings the leg judges
FAMILIES = {
    "paper": lambda: [gdp_example(), employment_example(), price_index_example()],
    "scenarios": lambda: scenario_corpus(0),
    "randprog": lambda: [random_workload(seed) for seed in range(50)],
    "shapes": _composed_shapes,
}

CASES = [(family, w) for family, make in FAMILIES.items() for w in make()]


def _judge(workload):
    program = Program.compile(workload.source, workload.schema)
    return judge(simplify_mapping(generate_mapping(program)), workload.data)


@pytest.mark.parametrize(
    "workload", [w for _f, w in CASES], ids=[f"{f}-{w.name}" for f, w in CASES]
)
def test_printed_sql_runs_on_sqlite(workload):
    verdict = _judge(workload)
    assert verdict.judged or verdict.materialised


def main() -> None:
    judged = materialised = 0
    for _family, workload in CASES:
        verdict = _judge(workload)
        judged += verdict.judged
        materialised += verdict.materialised
    print(
        f"sqlite leg: {len(CASES)} programs, {judged} tgds judged on sqlite3 "
        f"{sqlite3.sqlite_version}, {materialised} table-function tgds materialised"
    )


if __name__ == "__main__":
    main()
