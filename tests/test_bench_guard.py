"""Tests for the CI regression guard over BENCH files
(``benchmarks/bench_guard.py``)."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_guard.py"
_SPEC = importlib.util.spec_from_file_location("bench_guard", _PATH)
bench_guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_guard)


def warnings_in(lines):
    return [line for line in lines if line.startswith("::warning")]


class TestGuard:
    def test_higher_is_better_warns_past_threshold_only(self):
        lines = bench_guard.guard(
            {"speedup": 7.9, "engine_speedup": 9.0},
            {"speedup": 10.0, "engine_speedup": 10.0},
            higher=[("speedup", "Sweep speedup regression"),
                    ("engine_speedup", "Sweep speedup regression")],
        )
        assert warnings_in(lines) == [
            "::warning title=Sweep speedup regression::"
            "speedup: baseline 10.0, fresh 7.9 (-21% change)"
        ]
        assert len(lines) == 2

    def test_lower_is_better_reaches_nested_keys(self):
        lines = bench_guard.guard(
            {"qps": 80.0, "latency_ms": {"p99": 130.0}},
            {"qps": 57.0, "latency_ms": {"p99": 100.0}},
            higher=[("qps", "Serving QPS regression")],
            lower=[("latency_ms.p99", "Serving p99 regression")],
        )
        assert [line.split("::")[1] for line in warnings_in(lines)] == [
            "warning title=Serving p99 regression"
        ]

    def test_require_checks_flags_even_without_baseline(self):
        lines = bench_guard.guard(
            {"zero_diffs": False}, None,
            lower=[("recover_ms.mean", "Recovery time regression")],
            require=[("zero_diffs", "Recovery identity broken",
                      "recovered server diverged from the oracle")],
        )
        assert lines == [
            "::warning title=Recovery identity broken::"
            "recovered server diverged from the oracle"
        ]

    def test_absent_or_zero_baselines_are_skipped(self):
        assert bench_guard.guard(
            {"speedup": 1.0}, {"speedup": 0},
            higher=[("speedup", "t"), ("missing", "t")],
        ) == []

    def test_missing_file_warns_and_never_fails(self, tmp_path, capsys):
        code = bench_guard.main([
            str(tmp_path / "BENCH_none.json"),
            "--missing", "SQLite cross-engine identity", "bench died",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "::warning title=SQLite cross-engine identity::bench died"
        )


@pytest.mark.parametrize("value, expected", [
    ({"a": {"b": 2}}, 2),
    ({"a": 1}, None),
    ({}, None),
])
def test_lookup(value, expected):
    assert bench_guard.lookup(value, "a.b") == expected
