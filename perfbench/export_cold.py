"""``export-cold``: four full Configuration-B documents per iteration, each
from a fresh session over one prebuilt database, so every plan, node,
splice and document cache is cold — what a user exporting a view pays.

The four documents cover both entry points (``materialize`` on batch
``TupleStream`` results, ``materialize_to`` on iterator ``TupleCursor``
pipelines) and plans of 2-3 and 10 streams, so the k-way merge runs.
"""

import gc
import hashlib
import io
import random
import time

from repro.bench.queries import QUERY_1, QUERY_2
from repro.core.options import ExecutionOptions
from repro.core.sqlgen import SqlGenerator
from repro.relational.connection import Connection
from repro.relational.dispatch import execute_specs
from repro.session import Session
from repro.tpch.configs import CONFIG_B, build_database
from repro.xmlgen.serializer import XmlWriter
from repro.xmlgen.streams import ComparatorLayout, decode_stream, merge_streams
from repro.xmlgen.tagger import XmlTagger

from perfbench import stats
from perfbench.metrics import layer_metrics, sum_cache_stats

#: (name, query, partition, entry point).  ``None`` runs the greedy plan.
DOCUMENTS = (
    ("q1-greedy", "q1", None, "materialize"),
    ("q2-greedy", "q2", None, "materialize_to"),
    ("q1-fully-partitioned", "q1", "fully-partitioned", "materialize_to"),
    ("q2-fully-partitioned", "q2", "fully-partitioned", "materialize"),
)
QUERIES = {"q1": QUERY_1, "q2": QUERY_2}

#: Committed Configuration-B figures (``benchmarks/results/fig15_q*_config_b.txt``,
#: EXPERIMENTS.md Sec. 2 table): simulated total ms of each document's plan.
EXPECTED_SIM_MS = {
    "q1-greedy": 12430.5,
    "q2-greedy": 24168.6,
    "q1-fully-partitioned": 32909.7,
    "q2-fully-partitioned": 31080.9,
}
#: SHA-256 prefixes and lengths of the two Configuration-B documents; every
#: plan and both entry points must produce exactly these bytes.
EXPECTED_DOCUMENT = {
    "q1": ("8d039e3d9535", 1084432),
    "q2": ("19487e6a3dce", 1084432),
}
SETUP_REPEATS = 4


class HashingSink:
    """A ``write``-able that hashes and counts what it is given."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self.chars = 0

    def write(self, text):
        self._sha.update(text.encode())
        self.chars += len(text)

    def hexdigest(self):
        return self._sha.hexdigest()


def setup():
    """Build the Configuration-B database; returns ``(database, [seconds,
    ...])`` of ``SETUP_REPEATS`` timed builds."""
    return stats.repeat_timed(lambda: build_database(CONFIG_B), SETUP_REPEATS)


def fresh_session(database):
    return Session(Connection(database, CONFIG_B.cost_model, CONFIG_B.transfer_model))


def export(database, name, query, partition, entry):
    """One untimed-by-layer document export; returns its record."""
    start = time.perf_counter()
    session = fresh_session(database)
    if entry == "materialize":
        result = session.materialize(QUERIES[query], partition=partition)
        data = result.xml.encode()
        digest, chars = hashlib.sha256(data).hexdigest(), len(result.xml)
    else:
        sink = HashingSink()
        result = session.materialize_to(QUERIES[query], sink, partition=partition)
        digest, chars = sink.hexdigest(), sink.chars
    wall = time.perf_counter() - start
    return {
        "doc": name, "query": query, "wall_s": wall, "chars": chars,
        "sha256": digest, "sim_ms": result.report.elapsed_total_ms,
        "stats": result.stats,
    }


def export_traced(database, name, query, partition, entry):
    """The same document driven layer by layer through the public
    functions, each call timed from outside; returns ``(record, watch,
    counts)``."""
    watch = stats.Stopwatch()
    counts = {}
    start = time.perf_counter()
    session = fresh_session(database)
    view = watch.time("rxl.define", session.silkroute.define_view, QUERIES[query])
    opts = ExecutionOptions()
    if partition is None:
        plan = watch.time("greedy.plan", view.greedy_plan)
        chosen = plan.recommended()
        counts["greedy.oracle_requests"] = plan.oracle_requests
    else:
        chosen = view.fully_partitioned()
    generator = SqlGenerator(view.tree, session.silkroute.schema, style=opts.style,
                             reduce=opts.reduce, keep=opts.keep)
    specs = watch.time("sqlgen", generator.streams_for_partition, chosen)
    counts["sqlgen.streams"] = len(specs)
    connection = session.connection
    if entry == "materialize":
        result = watch.time("engine", execute_specs, connection, specs)
        sources = result.streams
        counts["engine.rows"] = sum(len(stream) for stream in sources)
        sim_query = sum(stream.server_ms for stream in sources)
        sim_transfer = sum(stream.transfer_ms for stream in sources)
    else:
        cursors = [
            watch.time("engine", connection.execute_iter, spec.plan,
                       compact_rows=spec.compact, sql=spec.sql, label=spec.label)
            for spec in specs
        ]
        sources = [stats.TimedIterator(cursor, watch, "engine") for cursor in cursors]
    layout = ComparatorLayout(view.tree)
    decoded = []
    for spec, rows in zip(specs, sources):
        engine_before = watch.ms.get("engine", 0.0)
        began = time.perf_counter()
        decoded.append(list(decode_stream(spec, rows, layout)))
        inside_engine = watch.ms.get("engine", 0.0) - engine_before
        watch.add("xmlgen.decode", time.perf_counter() - began - inside_engine / 1000.0)
    counts["xmlgen.instances"] = sum(len(instances) for instances in decoded)
    if entry != "materialize":
        counts["engine.rows"] = sum(cursor.rows_read for cursor in cursors)
        sim_query = sum(cursor.server_ms for cursor in cursors)
        sim_transfer = sum(cursor.transfer_ms for cursor in cursors)
    merged = watch.time("xmlgen.merge", lambda: list(merge_streams(decoded)))
    sink = io.StringIO() if entry == "materialize" else HashingSink()
    tagger = XmlTagger(view.tree, XmlWriter(sink=sink), root_tag="view")
    watch.time("xmlgen.tag", tagger.run, merged)
    wall = time.perf_counter() - start
    if entry == "materialize":
        text = sink.getvalue()
        digest, chars = hashlib.sha256(text.encode()).hexdigest(), len(text)
    else:
        digest, chars = sink.hexdigest(), sink.chars
    counts["xmlgen.elements"] = tagger.elements_written
    counts["xmlgen.bytes"] = chars
    counts["engine.sim_query_ms"] = sim_query
    counts["transfer.sim_ms"] = sim_transfer
    plan_cache = session.silkroute.cache.stats()
    counts["plan_cache.bytes"] = plan_cache.current_bytes
    record = {"doc": name, "query": query, "wall_s": wall, "chars": chars,
              "sha256": digest, "sim_ms": sim_query + sim_transfer,
              "stats": {"plan_cache": plan_cache.as_dict(),
                        "node_cache": connection.engine.node_cache.stats().as_dict()}}
    return record, watch, counts


def check(records):
    """Correctness of a set of document records; returns failure messages."""
    failures = []
    for record in records:
        prefix, length = EXPECTED_DOCUMENT[record["query"]]
        if not record["sha256"].startswith(prefix) or record["chars"] != length:
            failures.append(f"{record['doc']}: document sha256 {record['sha256'][:12]} "
                            f"/ {record['chars']} chars, expected {prefix} / {length}")
        expected = EXPECTED_SIM_MS[record["doc"]]
        if round(record["sim_ms"], 1) != expected:
            failures.append(f"{record['doc']}: simulated {record['sim_ms']:.1f} ms, "
                            f"expected {expected}")
    return failures


def iterations(seed, seconds, run_one):
    """Whole iterations of the four documents in a seeded order, while the
    next one is predicted to end inside ``seconds`` (always at least one),
    so every run measures the same document mix."""
    rng = random.Random(seed)
    records = []
    began = time.perf_counter()
    last = 0.0
    while not records or time.perf_counter() - began + last <= seconds:
        order = list(DOCUMENTS)
        rng.shuffle(order)
        iteration_start = time.perf_counter()
        for document in order:
            gc.collect()
            records.append(run_one(*document))
        last = time.perf_counter() - iteration_start
    return records


def run(seed, seconds, trace):
    database, setup_times = setup()
    untraced = iterations(seed, seconds, lambda *doc: export(database, *doc))
    failures = check(untraced)
    walls = [r["wall_s"] * 1000.0 for r in untraced]
    total_wall = sum(r["wall_s"] for r in untraced)
    total_chars = sum(r["chars"] for r in untraced)
    pct, tail_ms, beyond = stats.tail(walls)
    detail = {
        "documents": len(untraced),
        "export_mb_s": total_chars / 1e6 / total_wall,
        "export_doc_s": stats.median(walls) / 1000.0,
        "tail_percentile": pct, "tail_beyond": beyond,
        "plan_sim_ms": sum(r["sim_ms"] for r in untraced[:len(DOCUMENTS)]),
        "per_document_s": {r["doc"]: round(r["wall_s"], 3) for r in untraced},
    }
    result = {
        "attempted": len(untraced),
        "failures": failures,
        "detail": detail,
        "end_to_end": {
            "setup_s": stats.median(setup_times),
            "op_p50_ms": stats.median(walls),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(untraced) / total_wall,
            "peak_rss_mb": stats.peak_rss_mb(),
        },
    }
    if trace:
        result["per_layer"] = traced_layers(database, untraced, failures, detail)
        result["attempted"] += len(DOCUMENTS)
    return result


def traced_layers(database, untraced, failures, detail):
    """One traced pass over the first untraced iteration's documents, in
    the same order; per-layer times and counts summed over the pass."""
    first = untraced[:len(DOCUMENTS)]
    by_name = {document[0]: document for document in DOCUMENTS}
    watch = stats.Stopwatch()
    counts = {}
    records = []
    for base in first:
        gc.collect()
        record, doc_watch, doc_counts = export_traced(database, *by_name[base["doc"]])
        records.append(record)
        for layer, ms in doc_watch.ms.items():
            watch.add(layer, ms / 1000.0)
        for key, value in doc_counts.items():
            counts[key] = counts.get(key, 0) + value
    failures.extend(f"traced {message}" for message in check(records))
    untraced_ms = sum(r["wall_s"] for r in first) * 1000.0
    traced_ms = sum(r["wall_s"] for r in records) * 1000.0
    layer_sum = sum(watch.ms.values())
    xmlgen_ms = sum(watch.ms.get(k, 0.0) for k in ("xmlgen.decode", "xmlgen.merge", "xmlgen.tag"))
    detail["layer_ms"] = {k: round(v, 1) for k, v in watch.ms.items()}
    detail["xmlgen_share_of_layers"] = stats.ratio(xmlgen_ms, layer_sum)
    detail["uncovered"] = ("session construction, cache stores and glue inside "
                           "materialize, interpreter garbage collection")
    # Plan and node caches as the traced pass drove them; the document and
    # splice caches only exist inside materialize, so from the untraced pass.
    caches = {name: sum_cache_stats(r["stats"][name] for r in records)
              for name in ("plan_cache", "node_cache")}
    caches.update({name: sum_cache_stats(r["stats"].get(name, {}) for r in first)
                   for name in ("document_cache", "splice_cache")})
    return layer_metrics(
        watch, counts, caches,
        coverage_pct=100.0 * stats.ratio(layer_sum, untraced_ms),
        overhead_pct=100.0 * stats.ratio(traced_ms - untraced_ms, untraced_ms),
    )

