"""Every metric the benchmark prints, with its unit and direction — the
single declaration ``BENCHMARK.json`` must match (checked by the
benchmark's own tests) — and the checks applied before printing."""

from perfbench import stats

#: name -> (unit, better).  The operation ("op") is the workload's unit of
#: work: one document (export-cold), one 1024-plan sweep iteration
#: (sweep-plans; ``ops_per_s`` counts plans), one default-plan read for the
#: median and any read for the tail (serve-rw; ``ops_per_s`` counts reads
#: and writes per second with one in flight).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better) of the traced run's per-layer metrics.
PER_LAYER = {
    "rxl.define_ms": ("ms", "lower"),
    "greedy.plan_ms": ("ms", "lower"),
    "greedy.oracle_requests": ("count", "lower"),
    "sqlgen.ms": ("ms", "lower"),
    "sqlgen.streams": ("count", "lower"),
    "engine.ms": ("ms", "lower"),
    "engine.rows": ("count", "lower"),
    "engine.sim_query_ms": ("sim_ms", "lower"),
    "transfer.sim_ms": ("sim_ms", "lower"),
    "plan_cache.hit_ratio": ("ratio", "higher"),
    "plan_cache.bytes": ("bytes", "lower"),
    "node_cache.hit_ratio": ("ratio", "higher"),
    "xmlgen.decode_ms": ("ms", "lower"),
    "xmlgen.instances": ("count", "lower"),
    "xmlgen.merge_ms": ("ms", "lower"),
    "xmlgen.tag_ms": ("ms", "lower"),
    "xmlgen.elements": ("count", "lower"),
    "xmlgen.bytes": ("bytes", "lower"),
    "xmlgen.instances_per_s": ("1/s", "higher"),
    "document_cache.hit_ratio": ("ratio", "higher"),
    "splice_cache.hit_ratio": ("ratio", "higher"),
    "serve.remat_share": ("ratio", "lower"),
    "serve.server_p50_ms": ("ms", "lower"),
    "serve.server_p95_ms": ("ms", "lower"),
    "serve.coalesced_ratio": ("ratio", "higher"),
    "wire.p50_ms": ("ms", "lower"),
    "database.mutate_ms": ("ms", "lower"),
    "loadgen.lag_p95_ms": ("ms", "lower"),
    "layers.coverage_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(watch, counts, caches=None, serve=None, coverage_pct=0.0, overhead_pct=0.0):
    """The per-layer metric dict from a :class:`~perfbench.stats.Stopwatch`,
    summed ``counts``, ``caches`` (cache name -> dict with ``hits`` and
    ``misses``) and serving figures (``serve``); a layer the workload never
    calls reads 0."""
    ms = watch.ms
    caches = caches or {}
    serve = serve or {}
    tag_ms = ms.get("xmlgen.tag", 0.0)
    return {
        "rxl.define_ms": ms.get("rxl.define", 0.0),
        "greedy.plan_ms": ms.get("greedy.plan", 0.0),
        "greedy.oracle_requests": counts.get("greedy.oracle_requests", 0),
        "sqlgen.ms": ms.get("sqlgen", 0.0),
        "sqlgen.streams": counts.get("sqlgen.streams", 0),
        "engine.ms": ms.get("engine", 0.0),
        "engine.rows": counts.get("engine.rows", 0),
        "engine.sim_query_ms": counts.get("engine.sim_query_ms", 0.0),
        "transfer.sim_ms": counts.get("transfer.sim_ms", 0.0),
        "plan_cache.hit_ratio": stats.hit_ratio(caches.get("plan_cache", {})),
        "plan_cache.bytes": counts.get("plan_cache.bytes", 0.0),
        "node_cache.hit_ratio": stats.hit_ratio(caches.get("node_cache", {})),
        "xmlgen.decode_ms": ms.get("xmlgen.decode", 0.0),
        "xmlgen.instances": counts.get("xmlgen.instances", 0),
        "xmlgen.merge_ms": ms.get("xmlgen.merge", 0.0),
        "xmlgen.tag_ms": tag_ms,
        "xmlgen.elements": counts.get("xmlgen.elements", 0),
        "xmlgen.bytes": counts.get("xmlgen.bytes", 0),
        "xmlgen.instances_per_s": stats.ratio(counts.get("xmlgen.instances", 0), tag_ms / 1000.0),
        "document_cache.hit_ratio": stats.hit_ratio(caches.get("document_cache", {})),
        "splice_cache.hit_ratio": stats.hit_ratio(caches.get("splice_cache", {})),
        "serve.remat_share": serve.get("remat_share", 0.0),
        "serve.server_p50_ms": serve.get("server_p50_ms", 0.0),
        "serve.server_p95_ms": serve.get("server_p95_ms", 0.0),
        "serve.coalesced_ratio": serve.get("coalesced_ratio", 0.0),
        "wire.p50_ms": serve.get("wire_p50_ms", 0.0),
        "database.mutate_ms": serve.get("mutate_ms", 0.0),
        "loadgen.lag_p95_ms": serve.get("lag_p95_ms", 0.0),
        "layers.coverage_pct": coverage_pct,
        "trace.overhead_pct": overhead_pct,
    }


def sum_cache_stats(dicts):
    """Hits and misses summed over several cache-stats dicts."""
    total = {"hits": 0, "misses": 0}
    for d in dicts:
        for key in total:
            total[key] += d.get(key, 0)
    return total


def result_line(values, trace, correct, attempted, failed):
    """The final JSON object: exactly the declared metrics of the run's
    kind, each with its unit.  A missing, extra or non-finite metric is a
    benchmark bug and raises."""
    declared = PER_LAYER if trace else END_TO_END
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    metrics = {}
    for name, value in values.items():
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": declared[name][0]}
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}
