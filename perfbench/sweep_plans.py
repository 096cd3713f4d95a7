"""``sweep-plans``: the paper's own experiment (Figs. 13/14).  Each
iteration opens a fresh Configuration-A session and sweeps all 512
non-reduced plans of Query 1, then all 512 of Query 2, under the paper's
300,000 simulated-ms per-subquery budget.  The session's plan cache is
shared by both sweeps, so cross-plan result sharing is what is measured;
no XML is decoded or tagged.

The operation timed is one such iteration of 1024 plans: single plans
range from cache replays of well under a millisecond to first executions
of tens of ms, and the tail percentile of that mixture falls between plan
classes, so it jumps from run to run.  ``ops_per_s`` counts plans.
"""

import gc
import time

from repro.bench.queries import QUERY_1, QUERY_2
from repro.core.partition import enumerate_partitions
from repro.core.sqlgen import PlanStyle, SqlGenerator
from repro.relational.connection import Connection
from repro.relational.dispatch import execute_specs
from repro.session import Session
from repro.tpch.configs import CONFIG_A, build_database

from perfbench import stats
from perfbench.metrics import layer_metrics

QUERIES = (("q1", QUERY_1), ("q2", QUERY_2))
BUDGET_MS = CONFIG_A.subquery_budget_ms
#: Committed sweep figures (``benchmarks/results/fig13a_q1_query_nonreduced.txt``,
#: ``fig14a_q2_query_nonreduced.txt``): timed-out plans and the fastest
#: plan's simulated query ms, rounded as printed there.
EXPECTED = {"q1": {"timed_out": 112, "fastest_ms": 962},
            "q2": {"timed_out": 0, "fastest_ms": 940}}
PLANS_PER_QUERY = 512
SETUP_REPEATS = 15


def setup():
    """Build the Configuration-A database and define both views in a fresh
    session; returns ``(database, [seconds, ...])`` of ``SETUP_REPEATS``
    timed set-ups (each is tens of ms, so the median of many is reported)."""

    def build():
        database = build_database(CONFIG_A)
        session = fresh_session(database)
        for _, query in QUERIES:
            session.view(query)
        return database

    return stats.repeat_timed(build, SETUP_REPEATS)


def fresh_session(database):
    return Session(Connection(database, CONFIG_A.cost_model, CONFIG_A.transfer_model))


def check(name, timed_out, fastest_ms):
    expected = EXPECTED[name]
    failures = []
    if timed_out != expected["timed_out"]:
        failures.append(f"{name}: {timed_out} plans timed out, expected {expected['timed_out']}")
    if round(fastest_ms) != expected["fastest_ms"]:
        failures.append(f"{name}: fastest plan {fastest_ms:.1f} ms, "
                        f"expected {expected['fastest_ms']}")
    return failures


def sweep_iteration(database):
    """One fresh-session sweep of both queries through ``Session.sweep``;
    returns ``(wall_s, failures, plan_cache_stats)``."""
    failures = []
    start = time.perf_counter()
    session = fresh_session(database)
    for name, query in QUERIES:
        sweep = session.sweep(query, budget_ms=BUDGET_MS, workers=1).sweep
        if len(sweep.timings) != PLANS_PER_QUERY:
            failures.append(f"{name}: swept {len(sweep.timings)} plans")
        failures.extend(check(name, len(sweep.timed_out()), sweep.fastest()[0].query_ms))
    return time.perf_counter() - start, failures, session.silkroute.cache.stats()


def sweep_traced(database, watch, counts):
    """One fresh-session sweep of both queries driven through
    ``SqlGenerator.streams_for_partition`` and ``execute_specs`` (what
    ``Session.sweep`` runs per plan), each call timed; returns
    ``(wall_s, failures, cache stats by name)``."""
    failures = []
    start = time.perf_counter()
    session = fresh_session(database)
    connection = session.connection
    for name, query in QUERIES:
        view = watch.time("rxl.define", session.view, query)
        generator = SqlGenerator(view.tree, session.silkroute.schema,
                                 style=PlanStyle.OUTER_JOIN, reduce=False)
        timed_out, fastest = 0, None
        for partition in enumerate_partitions(view.tree):
            specs = watch.time("sqlgen", generator.streams_for_partition, partition)
            result = watch.time("engine", execute_specs, connection, specs,
                                budget_ms=BUDGET_MS)
            counts["sqlgen.streams"] = counts.get("sqlgen.streams", 0) + len(specs)
            counts["engine.rows"] = counts.get("engine.rows", 0) + sum(
                len(stream) for stream in result.streams)
            query_ms = sum(stream.server_ms for stream in result.streams)
            counts["engine.sim_query_ms"] = counts.get("engine.sim_query_ms", 0.0) + query_ms
            counts["transfer.sim_ms"] = counts.get("transfer.sim_ms", 0.0) + sum(
                stream.transfer_ms for stream in result.streams)
            if result.timeout is not None:
                timed_out += 1
            elif fastest is None or query_ms < fastest:
                fastest = query_ms
        failures.extend(check(name, timed_out, fastest))
    wall = time.perf_counter() - start
    plan_cache = session.silkroute.cache.stats()
    counts["plan_cache.bytes"] = plan_cache.current_bytes
    return wall, failures, {"plan_cache": plan_cache.as_dict(),
                            "node_cache": connection.engine.node_cache.stats().as_dict()}


def run(seed, seconds, trace):
    # The workload has no random input: every iteration sweeps the same
    # 1024 plans, so the seed changes nothing the program sees.
    del seed
    database, setup_times = setup()
    walls, failures = [], []
    began = time.perf_counter()
    cache_stats = None
    while not walls or time.perf_counter() - began + walls[-1] <= seconds:
        gc.collect()
        wall, iteration_failures, cache_stats = sweep_iteration(database)
        walls.append(wall)
        failures.extend(iteration_failures)
    plans = len(walls) * 2 * PLANS_PER_QUERY
    iteration_ms = [wall * 1000.0 for wall in walls]
    pct, tail_ms, beyond = stats.tail(iteration_ms)
    result = {
        "attempted": plans,
        "failures": failures,
        "detail": {
            "iterations": len(walls), "plans": plans,
            "sweep_plans_s": plans / sum(walls),
            "iteration_s": [round(w, 3) for w in walls],
            "tail_percentile": pct, "tail_beyond": beyond,
            "plan_cache_hit_ratio": cache_stats.hit_rate,
            "plan_cache_mb": cache_stats.current_bytes / 1e6,
        },
        "end_to_end": {
            "setup_s": stats.median(setup_times),
            "op_p50_ms": stats.median(iteration_ms),
            "op_tail_ms": tail_ms,
            "ops_per_s": plans / sum(walls),
            "peak_rss_mb": stats.peak_rss_mb(),
        },
    }
    if trace:
        watch, counts = stats.Stopwatch(), {}
        gc.collect()
        traced_wall, traced_failures, caches = sweep_traced(database, watch, counts)
        failures.extend(f"traced {message}" for message in traced_failures)
        result["attempted"] += 2 * PLANS_PER_QUERY
        untraced_ms = walls[0] * 1000.0
        layer_sum = sum(watch.ms.values())
        result["detail"]["layer_ms"] = {k: round(v, 1) for k, v in watch.ms.items()}
        result["detail"]["engine_share_of_layers"] = stats.ratio(
            watch.ms.get("engine", 0.0), layer_sum)
        result["detail"]["uncovered"] = ("session construction, partition enumeration, "
                                         "per-plan timing records, garbage collection")
        result["per_layer"] = layer_metrics(
            watch, counts, caches,
            coverage_pct=100.0 * stats.ratio(layer_sum, untraced_ms),
            overhead_pct=100.0 * stats.ratio(traced_wall * 1000.0 - untraced_ms, untraced_ms),
        )
    return result
