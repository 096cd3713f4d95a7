"""The server process of ``serve-rw``: a Configuration-A
:class:`~repro.serve.server.Server` with ``q1``/``q2`` registered, on its
own interpreter so the load generator never shares its GIL.

It prints ``READY <port>`` once listening, then obeys one command per
stdin line:

* ``mark`` — snapshot the cache and serving counters (the timed window
  starts here, after warm-up) and drop any trace samples so far;
* ``trace`` — from now on, time ``Server.query``/``Server.mutate`` and the
  shared ``Session.materialize``/``Session.mutate`` from outside;
* ``finish`` — stop listening, replay the execution log serially on a
  fresh database, print one JSON line (counter deltas, trace samples, the
  replayed documents' hashes and timings, peak RSS) and exit;
* ``quit`` or end of input — exit.

Run as ``python3 -m perfbench.serve_child`` from the repository root with
``src`` on ``PYTHONPATH``.
"""

import hashlib
import json
import sys
import threading
import time

from repro.bench.queries import QUERY_1, QUERY_2
from repro.serve.protocol import report_to_wire
from repro.serve.server import Server
from repro.session import Session

from perfbench import stats
from perfbench.metrics import sum_cache_stats

QUERIES = {"q1": QUERY_1, "q2": QUERY_2}


def counters(server):
    """The cumulative counters whose deltas over the window are reported."""
    session = server.session
    served = server.stats()
    views = [session.view(rxl) for rxl in QUERIES.values()]
    return {
        "requests": served["requests"],
        "coalesced": served["coalesced"],
        "errors": served["errors"] + served["shed"],
        "plan_cache": session.silkroute.cache.stats().as_dict(),
        "node_cache": session.connection.engine.node_cache.stats().as_dict(),
        "document_cache": sum_cache_stats(view.document_cache.stats() for view in views),
        "splice_cache": sum_cache_stats(view.instance_cache.stats() for view in views),
    }


def delta(after, before):
    if isinstance(after, dict):
        return {key: delta(after[key], before[key]) for key in after
                if isinstance(after[key], (int, float, dict)) and key in before}
    return after - before


class Tracer:
    """Outside-in timers around the four serving entry points."""

    def __init__(self):
        self.lock = threading.Lock()
        self.samples = {"query": {}, "mutate": {}, "materialize": [], "session_mutate": []}
        self.sim = {"query_ms": 0.0, "transfer_ms": 0.0}

    def reset(self):
        with self.lock:
            for value in self.samples.values():
                value.clear()
            self.sim = {"query_ms": 0.0, "transfer_ms": 0.0}

    def install(self, server):
        session = server.session
        server.query = self._keyed(server.query, "query")
        server.mutate = self._keyed(server.mutate, "mutate")
        session.materialize = self._listed(session.materialize, "materialize")
        session.mutate = self._listed(session.mutate, "session_mutate")

    def _keyed(self, method, kind):
        def timed(*args, request_id=None, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, request_id=request_id, **kwargs)
            finally:
                elapsed = (time.perf_counter() - start) * 1000.0
                with self.lock:
                    self.samples[kind][request_id] = elapsed
        return timed

    def _listed(self, method, kind):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = method(*args, **kwargs)
            elapsed = (time.perf_counter() - start) * 1000.0
            with self.lock:
                self.samples[kind].append(elapsed)
                if result.report is not None:
                    self.sim["query_ms"] += result.report.query_ms
                    self.sim["transfer_ms"] += result.report.transfer_ms
            return result
        return timed


def replayed(server):
    """request id -> what the serial replay on a fresh database produced."""
    outcome = {}
    log = server.execution_log()
    for entry, result in zip(log, server.replay(session=Session())):
        if entry["kind"] == "query":
            outcome[entry["request_id"]] = {
                "sha256": hashlib.sha256(result.xml.encode()).hexdigest(),
                "report": report_to_wire(result.report),
            }
        else:
            outcome[entry["request_id"]] = {"mutated": result.mutated}
    return outcome


def main():
    server = Server(queries=dict(QUERIES))
    _, port = server.start()
    tracer = Tracer()
    baseline = counters(server)
    print(f"READY {port}", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            baseline = counters(server)
            tracer.reset()
        elif command == "trace":
            tracer.install(server)
        elif command == "finish":
            server.shutdown()
            rss = stats.peak_rss_mb()
            window = delta(counters(server), baseline)
            replay = replayed(server)
            print(json.dumps({
                "peak_rss_mb": rss, "window": window, "trace": tracer.samples,
                "plan_cache_bytes": server.session.silkroute.cache.stats().current_bytes,
                "sim": tracer.sim, "replay": replay,
            }), flush=True)
            return
        else:
            break
    server.shutdown()


if __name__ == "__main__":
    main()
