"""Shared benchmark fixtures: configurations, view trees, and a sweep cache.

Each benchmark regenerates one of the paper's tables or figures.  Timings
inside the experiments are *simulated* milliseconds from the deterministic
cost model (see DESIGN.md); pytest-benchmark's wall-clock numbers only
measure the harness itself.

Every experiment's output is printed and also written to
``benchmarks/results/<name>.txt`` so `bench_output.txt` plus the results
directory capture the full reproduction.
"""

import pathlib

import pytest

from repro.bench.queries import QUERY_1, QUERY_2, load_view
from repro.bench.sweep import _sweep_partitions
from repro.core.sqlgen import PlanStyle
from repro.tpch.configs import CONFIG_A, CONFIG_B, build_configuration

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def report_writer(results_dir):
    def write(name, text):
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(f"===== {name} =====")
        print(text)

    return write


@pytest.fixture(scope="session")
def config_a():
    db, conn, est = build_configuration(CONFIG_A)
    return CONFIG_A, db, conn, est


@pytest.fixture(scope="session")
def config_b():
    db, conn, est = build_configuration(CONFIG_B)
    return CONFIG_B, db, conn, est


@pytest.fixture(scope="session")
def trees_a(config_a):
    _, db, _, _ = config_a
    return {
        "Q1": load_view(QUERY_1, db.schema),
        "Q2": load_view(QUERY_2, db.schema),
    }


@pytest.fixture(scope="session")
def trees_b(config_b):
    _, db, _, _ = config_b
    return {
        "Q1": load_view(QUERY_1, db.schema),
        "Q2": load_view(QUERY_2, db.schema),
    }


class SweepCache:
    """Memoizes full 512-plan sweeps so Figs. 13/14 and the headline-claims
    bench share one execution per (query, reduce) combination."""

    def __init__(self, config, db, conn, trees):
        self.config = config
        self.db = db
        self.conn = conn
        self.trees = trees
        self._cache = {}

    def sweep(self, query, reduce, style=PlanStyle.OUTER_JOIN):
        key = (query, reduce, style)
        if key not in self._cache:
            tree = self.trees[query]
            self._cache[key] = _sweep_partitions(
                tree,
                self.db.schema,
                self.conn,
                style=style,
                reduce=reduce,
                budget_ms=self.config.subquery_budget_ms,
            )
        return self._cache[key]


@pytest.fixture(scope="session")
def sweeps_a(config_a, trees_a):
    config, db, conn, _ = config_a
    return SweepCache(config, db, conn, trees_a)
