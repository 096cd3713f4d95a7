"""The benchmark's own tests: measurement rules, open-loop accounting,
ratio bases and the metric declarations.  Run from the repository root
with ``python3 -m pytest perfbench/tests -q``; nothing here builds a
database or starts a server."""

import json
import math
import pathlib
import re

import pytest

from perfbench import metrics, stats
from perfbench.run import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / "benchmarks" / "results"


# -- the tail rule -----------------------------------------------------------

@pytest.mark.parametrize("n, pct, beyond", [
    (300, 95.0, 15),     # serve-rw reads at the intended length
    (200, 95.0, 10),     # the smallest sample where p95 qualifies
    (199, 90.0, 19),     # one fewer: p95 has 9 beyond, so p90 is taken
    (1024, 99.0, 10),    # one sweep iteration's plans
    (10000, 99.9, 10),
])
def test_tail_takes_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = list(range(1, n + 1))
    got_pct, value, got_beyond = stats.tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(v > value for v in values) == beyond


def test_tail_with_too_few_samples_reports_the_maximum():
    assert stats.tail([5.0, 1.0, 3.0, 2.0]) == (100.0, 5.0, 0)
    assert stats.tail([]) == (100.0, 0.0, 0)


def test_tail_is_order_independent():
    values = [float((i * 7919) % 503) for i in range(503)]
    assert stats.tail(values) == stats.tail(sorted(values))


def test_percentile_is_nearest_rank():
    assert stats.percentile([10, 20, 30, 40], 50) == 20
    assert stats.percentile([10, 20, 30, 40], 95) == 40
    assert stats.percentile([], 95) == 0.0


# -- open-loop due times and lag -----------------------------------------------

def _block(index, rng):
    reads = [("read", index)] * 3
    rng.shuffle(reads)
    return [("write", index)] + reads


def test_schedule_is_seeded_and_sized_by_rate():
    a = stats.open_loop_schedule(1, 8.0, 30.0, _block)
    assert a == stats.open_loop_schedule(1, 8.0, 30.0, _block)
    assert a != stats.open_loop_schedule(2, 8.0, 30.0, _block)
    assert len(a) == 240
    dues = [due for due, _ in a]
    assert dues == sorted(dues)
    # One send time inside each 1/rate slot: no clumps, no gaps.
    assert all(slot / 8.0 <= due < (slot + 1) / 8.0 for slot, due in enumerate(dues))


def test_schedule_sends_blocks_in_order():
    schedule = stats.open_loop_schedule(3, 4.0, 10.0, _block)
    bodies = [body for _, body in schedule]
    assert len(bodies) == 40
    for start in range(0, len(bodies), 4):
        assert bodies[start:start + 4] == [("write", start // 4)] + [("read", start // 4)] * 3


def test_serve_mix_has_the_stated_shares():
    pytest.importorskip("repro")
    import random

    from perfbench.serve_rw import WRITE_TABLES, block

    rng = random.Random(0)
    bodies = [body for index in range(4) for body in block(index, rng)]
    writes = [b for b in bodies if b["op"] == "mutate"]
    reads = [b for b in bodies if b["op"] == "query"]
    assert len(bodies) == 80 and len(writes) == 4                  # 5% writes
    assert sorted(w["table"] for w in writes) == sorted(WRITE_TABLES)
    assert sum(r["partition"] is None for r in reads) == 56        # 70% greedy
    assert sum(r["query"] == "q1" for r in reads) == 38            # q1/q2 even


def test_latency_counts_from_due_time_and_lag_is_late_sending():
    latency, lag = stats.open_loop_latency(due=10.0, sent=10.2, done=10.5)
    assert latency == pytest.approx(500.0)
    assert lag == pytest.approx(200.0)
    latency, lag = stats.open_loop_latency(due=10.0, sent=9.99, done=10.01)
    assert latency == pytest.approx(10.0)
    assert lag == 0.0


def test_busy_seconds_is_the_union_of_in_flight_intervals():
    assert stats.busy_seconds([]) == 0.0
    assert stats.busy_seconds([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert stats.busy_seconds([(3, 4), (0, 1), (1, 1.5)]) == pytest.approx(2.5)


# -- ratio bases ------------------------------------------------------------------

def test_ratios_with_an_empty_base_are_zero():
    assert stats.ratio(0, 0) == 0.0
    assert stats.ratio(3, 4) == 0.75
    assert stats.hit_ratio({}) == 0.0
    assert stats.hit_ratio({"hits": 3, "misses": 1}) == 0.75


def test_layer_ratios_use_their_stated_bases():
    watch = stats.Stopwatch()
    watch.add("xmlgen.tag", 2.0)
    caches = {"plan_cache": {"hits": 9, "misses": 1}, "node_cache": {"hits": 1, "misses": 3},
              "document_cache": {"hits": 1, "misses": 4}, "splice_cache": {"hits": 0, "misses": 0}}
    values = metrics.layer_metrics(
        watch, {"xmlgen.instances": 1000}, caches, serve={"remat_share": 0.2},
        coverage_pct=97.0, overhead_pct=1.5)
    assert values["plan_cache.hit_ratio"] == 0.9          # hits / lookups
    assert values["node_cache.hit_ratio"] == 0.25
    assert values["document_cache.hit_ratio"] == 0.2
    assert values["splice_cache.hit_ratio"] == 0.0        # no lookups at all
    assert values["xmlgen.instances_per_s"] == 500.0      # per tag second
    assert values["xmlgen.tag_ms"] == 2000.0
    assert values["serve.remat_share"] == 0.2
    assert values["greedy.plan_ms"] == 0.0                # an idle layer reads 0


# -- metric declarations ------------------------------------------------------------

def test_metric_names_are_well_formed():
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("key, declared", [
    ("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)])
def test_printed_metrics_are_exactly_the_declared_ones(key, declared):
    listed = {entry["name"]: (entry["unit"], entry["better"]) for entry in BENCHMARK[key]}
    assert listed == declared


def test_layer_map_covers_every_per_layer_metric_once():
    meta = json.loads((ROOT / "perfbench" / "meta.json").read_text())
    mapped = [name for entry in meta["layer_map"] for name in entry["metrics"]]
    assert sorted(mapped) == sorted(metrics.PER_LAYER)


def test_workloads_are_exactly_the_declared_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_end_to_end_bounds_and_setup_metric_follow_the_contract():
    bounds = {entry["name"]: entry["bound"] for entry in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert metrics.END_TO_END["setup_s"] == ("s", "lower")


@pytest.mark.parametrize("trace, declared", [
    (False, metrics.END_TO_END), (True, metrics.PER_LAYER)])
def test_result_line_prints_every_declared_metric_with_its_unit(trace, declared):
    line = metrics.result_line({name: 1.5 for name in declared}, trace, True, 4, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: unit for name, (unit, _) in declared.items()}


def test_result_line_rejects_missing_extra_and_non_finite_metrics():
    values = {name: 1.0 for name in metrics.END_TO_END}
    with pytest.raises(ValueError, match="missing"):
        metrics.result_line({k: v for k, v in values.items() if k != "setup_s"},
                            False, True, 1, 0)
    with pytest.raises(ValueError, match="undeclared"):
        metrics.result_line(dict(values, extra_ms=1.0), False, True, 1, 0)
    with pytest.raises(ValueError, match="finite"):
        metrics.result_line(dict(values, setup_s=math.nan), False, True, 1, 0)


# -- correctness constants against the committed figures ----------------------------

def _committed(name):
    path = RESULTS / name
    if not path.is_file():
        pytest.skip(f"{path} not present")
    return path.read_text()


def test_sweep_expectations_match_committed_figures():
    pytest.importorskip("repro")
    from perfbench.sweep_plans import EXPECTED

    for query, name in (("q1", "fig13a_q1_query_nonreduced.txt"),
                        ("q2", "fig14a_q2_query_nonreduced.txt")):
        text = _committed(name)
        optimal = min(int(m) for m in re.findall(r"^\s+\d+\s+\d+\s+(\d+)", text, re.M))
        timed_out = re.search(r"timed out: (\d+)", text)
        assert EXPECTED[query]["fastest_ms"] == optimal
        assert EXPECTED[query]["timed_out"] == int(timed_out.group(1))


def test_export_expectations_match_committed_figures():
    pytest.importorskip("repro")
    from perfbench.export_cold import EXPECTED_SIM_MS

    for query in ("q1", "q2"):
        text = _committed(f"fig15_{query}_config_b.txt")
        totals = {int(m) for m in re.findall(r"^\s*(?:greedy #\d+ \(\d+ streams\)|"
                                             r"fully partitioned)\s+\d+\s+(\d+)", text, re.M)}
        for doc in (f"{query}-greedy", f"{query}-fully-partitioned"):
            assert math.floor(EXPECTED_SIM_MS[doc] + 0.5) in totals
