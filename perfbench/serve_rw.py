"""``serve-rw``: reads and writes against a served Configuration-A
``repro`` server in its own process, driven as an open loop over two
connections from one process.

Requests are sent at a fixed offered rate of 8 per second (about a quarter
of the capacity measured on a 2-core box) on a seeded jittered grid: 70%
greedy-plan reads, 25% fully-partitioned reads, 5% ``update`` mutations of
2 rows of Supplier, Customer, Orders or PartSupp (see :func:`block`).
Each write makes the next read of each query re-materialize, so about one
read in nine does: the median read sits in the document-cache-hit mode and
the 95th percentile in the re-materialization mode, away from the
boundary between them.  Latency is timed from each request's due time; how
late the generator sent is reported as lag.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

from repro.serve.client import ServeClient

from perfbench import stats
from perfbench.metrics import layer_metrics

ROOT = pathlib.Path(__file__).resolve().parent.parent
OFFERED_RPS = 8.0
CONNECTIONS = 2
SETUP_REPEATS = 3
WRITE_TABLES = ("Supplier", "Customer", "Orders", "PartSupp")
WARMUP = (("q1", None), ("q2", None), ("q1", "fully-partitioned"), ("q2", "fully-partitioned"))
REPORT_FIELDS = ("n_streams", "query_ms", "transfer_ms", "elapsed_query_ms", "elapsed_total_ms")
CHILD_TIMEOUT_S = 120


def block(index, rng):
    """Block ``index`` of the mix, 20 requests in sending order.

    One write (the table cycles through ``WRITE_TABLES`` block by block),
    then three greedy-plan reads of one query and three of the other, then
    13 reads alternating between the two, every third one on the
    fully-partitioned plan; odd blocks swap the queries.  Over two blocks
    that is exactly 5% writes, 70% greedy and 25% fully-partitioned reads,
    half of each on ``q1``.  The first read of each query after a write
    re-materializes it; reading one query three times before the other
    keeps the two re-materializations from running at once, so their
    latency is set by the program rather than by how two overlapped.  The
    seed draws the send times and the update values."""
    first, second = ("q1", "q2") if index % 2 == 0 else ("q2", "q1")

    def read(query, partition=None):
        return {"op": "query", "query": query, "partition": partition}

    reads = [read(first)] * 3 + [read(second)] * 3
    reads += [read((first, second)[i % 2], "fully-partitioned" if i % 3 == 0 else None)
              for i in range(13)]
    write = {"op": "mutate", "table": WRITE_TABLES[index % len(WRITE_TABLES)],
             "seed": rng.randrange(10**6)}
    return [write] + reads


class ServerProcess:
    """The server child: started, commanded over stdin, always reaped."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_child"], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.process.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            self.close()
            raise RuntimeError(f"server process did not start: {ready!r}")
        self.port = int(ready[1])

    def command(self, line):
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def finish(self):
        """Ask for the window's counters and the replay; returns them."""
        self.command("finish")
        line = self.process.stdout.readline()
        self.close()
        return json.loads(line)

    def close(self):
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def warm_up(port, records):
    with ServeClient("127.0.0.1", port, timeout=CHILD_TIMEOUT_S) as client:
        for i, (query, partition) in enumerate(WARMUP):
            request_id = f"warm-{i}"
            response = client.query(query, request_id=request_id, partition=partition)
            records[request_id] = {"op": "query", "response": response}


def start_server():
    """Start, and warm up, a server ``SETUP_REPEATS`` times, keeping the
    last; returns ``(server, setup_seconds, warm-up records)``."""
    times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.command("quit")
            server.close()
        records = {}
        start = time.perf_counter()
        server = ServerProcess()
        try:
            warm_up(server.port, records)
        except BaseException:
            server.close()
            raise
        times.append(time.perf_counter() - start)
    return server, times, records


def drive(port, schedule, prefix):
    """Send ``schedule`` open-loop over ``CONNECTIONS`` connections;
    returns ``(records, errors)``, one record per request id
    (``<prefix>-<index>``) with its due, send and completion times."""
    lock = threading.Lock()
    position = [0]
    records, errors = {}, []
    began = time.perf_counter() + 0.05

    def connection():
        with ServeClient("127.0.0.1", port, timeout=CHILD_TIMEOUT_S) as client:
            while True:
                with lock:
                    index = position[0]
                    position[0] += 1
                if index >= len(schedule):
                    return
                offset, body = schedule[index]
                due = began + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                request_id = f"{prefix}-{index}"
                sent = time.perf_counter()
                try:
                    if body["op"] == "query":
                        response = client.query(body["query"], request_id=request_id,
                                                partition=body["partition"])
                    else:
                        response = client.mutate(body["table"], op="update", rows=2,
                                                 seed=body["seed"], request_id=request_id)
                except Exception as exc:  # a failed request is counted, not fatal
                    response = None
                    with lock:
                        errors.append(f"{request_id}: {type(exc).__name__}: {exc}")
                done = time.perf_counter()
                with lock:
                    records[request_id] = {"op": body["op"], "response": response,
                                           "partition": body.get("partition"),
                                           "due": due, "sent": sent, "done": done}

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, errors


def check(records, replay):
    """Every live response against the serial replay on a fresh database:
    byte-identical documents, identical simulated timings and row counts."""
    failures = []
    for request_id, record in records.items():
        response = record["response"]
        if response is None:
            continue
        expected = replay.get(request_id)
        if expected is None:
            failures.append(f"{request_id}: missing from the execution log")
        elif record["op"] == "query":
            digest = hashlib.sha256(response["xml"].encode()).hexdigest()
            if digest != expected["sha256"]:
                failures.append(f"{request_id}: document differs from the replay")
            for field in REPORT_FIELDS:
                if response["report"][field] != expected["report"][field]:
                    failures.append(f"{request_id}: {field} {response['report'][field]} "
                                    f"!= replay {expected['report'][field]}")
        elif response["mutated"] != expected["mutated"]:
            failures.append(f"{request_id}: mutated {response['mutated']} "
                            f"!= replay {expected['mutated']}")
    return failures


def latencies(records, op, greedy_only=False):
    """Latencies from due time (ms) of the completed ``op`` requests (of
    the default-plan reads only, with ``greedy_only``)."""
    return [stats.open_loop_latency(r["due"], r["sent"], r["done"])[0]
            for r in records.values()
            if r["op"] == op and r["response"] is not None
            and not (greedy_only and r["partition"] is not None)]


def run(seed, seconds, trace):
    schedule = stats.open_loop_schedule(seed, OFFERED_RPS, seconds, block)
    server, setup_times, warm_records = start_server()
    traced_records = {}
    try:
        server.command("mark")
        records, errors = drive(server.port, schedule, "req")
        if trace:
            # The traced phase replays the same schedule against the same
            # server with the timers installed; only its counters are kept.
            server.command("trace")
            server.command("mark")
            traced_records, traced_errors = drive(server.port, schedule, "traced")
            errors += traced_errors
        child = server.finish()
    finally:
        server.close()
    everything = dict(warm_records, **records, **traced_records)
    failures = errors + check(everything, child["replay"])
    read_ms = latencies(records, "query")
    # The median is taken over default-plan reads: their cache hits form
    # one mode, while fully-partitioned hits run a few ms slower, and with
    # a quarter of the reads in that second mode the all-reads median sits
    # on the boundary between the two and jumps from run to run.
    greedy_read_ms = latencies(records, "query", greedy_only=True)
    completed = [r for r in records.values() if r["response"] is not None]
    busy = stats.busy_seconds([(r["sent"], r["done"]) for r in completed])
    lag_ms = [stats.open_loop_latency(r["due"], r["sent"], r["done"])[1]
              for r in records.values()]
    pct, tail_ms, beyond = stats.tail(read_ms)
    window = child["window"]
    detail = {
        "offered_rps": OFFERED_RPS, "requests": len(records), "reads": len(read_ms),
        "read_p50_ms": stats.median(read_ms), "greedy_read_p50_ms": stats.median(greedy_read_ms),
        "greedy_reads": len(greedy_read_ms), "read_tail_ms": tail_ms,
        "tail_percentile": pct, "tail_beyond": beyond,
        "write_p50_ms": stats.median(latencies(records, "mutate")),
        "busy_share": stats.ratio(busy, seconds),
        "lag_p95_ms": stats.percentile(lag_ms, 95.0),
        "remat_share": remat_share(window),
        "server_errors": window["errors"],
    }
    result = {
        "attempted": len(records) + len(traced_records),
        "failures": failures,
        "detail": detail,
        "end_to_end": {
            "setup_s": stats.median(setup_times),
            "op_p50_ms": detail["greedy_read_p50_ms"],
            "op_tail_ms": tail_ms,
            "ops_per_s": stats.ratio(len(completed), busy),
            "peak_rss_mb": child["peak_rss_mb"],
        },
    }
    if trace:
        result["per_layer"] = traced_layers(child, records, traced_records, detail)
    return result


def remat_share(window):
    """Reads that re-materialized: document-cache misses over lookups."""
    cache = window["document_cache"]
    return stats.ratio(cache["misses"], cache["hits"] + cache["misses"])


def traced_layers(child, untraced, traced, detail):
    """Per-layer figures of the traced phase; coverage is execution plus
    wire time over the client round trips, overhead the traced phase's
    summed read latency against the untraced phase's."""
    samples = child["trace"]
    window = child["window"]
    server_read_ms = list(samples["query"].values())
    wire_ms, round_trip_ms = [], 0.0
    for kind in ("query", "mutate"):
        for request_id, server_ms in samples[kind].items():
            record = traced.get(request_id)
            if record is not None and record["response"] is not None:
                rtt = (record["done"] - record["sent"]) * 1000.0
                wire_ms.append(rtt - server_ms)
                round_trip_ms += rtt
    execution_ms = sum(samples["materialize"]) + sum(samples["session_mutate"])
    untraced_ms = sum(latencies(untraced, "query"))
    traced_ms = sum(latencies(traced, "query"))
    counts = {
        "engine.sim_query_ms": child["sim"]["query_ms"],
        "transfer.sim_ms": child["sim"]["transfer_ms"],
        "plan_cache.bytes": child["plan_cache_bytes"],
    }
    detail["uncovered"] = ("server-side queueing outside Session: read/write lock, "
                           "coalescing waits, GIL contention between connections")
    return layer_metrics(
        stats.Stopwatch(), counts,
        {name: window[name] for name in ("plan_cache", "node_cache", "document_cache",
                                         "splice_cache")},
        serve={
            "remat_share": remat_share(window),
            "server_p50_ms": stats.median(server_read_ms),
            "server_p95_ms": stats.percentile(server_read_ms, 95.0),
            "coalesced_ratio": stats.ratio(window["coalesced"], window["requests"]),
            "wire_p50_ms": stats.median(wire_ms),
            "mutate_ms": stats.median(samples["session_mutate"]),
            "lag_p95_ms": stats.percentile(
                [stats.open_loop_latency(r["due"], r["sent"], r["done"])[1]
                 for r in traced.values()], 95.0),
        },
        coverage_pct=100.0 * stats.ratio(execution_ms + sum(wire_ms), round_trip_ms),
        overhead_pct=100.0 * stats.ratio(traced_ms - untraced_ms, untraced_ms),
    )
