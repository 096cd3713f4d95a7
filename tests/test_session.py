"""The :class:`repro.Session` facade and its :class:`QueryResult`.

The contract under test: every Session method is a thin veneer over the
existing machinery — byte-identical XML and identical simulated timings
to calling :class:`~repro.core.silkroute.XmlView` directly — with one
result type across materialize/explain/sweep/mutate; the old
module-level entry points keep working behind ``DeprecationWarning``.
"""

import io

import pytest

from repro import (
    QueryResult,
    Session,
    apply_delta,
    fully_partitioned,
    unified_partition,
)
from repro.bench.queries import QUERY_1
from repro.bench.sweep import _sweep_partitions, run_single_partition
from repro.common.errors import OverloadError
from repro.core.options import ExecutionOptions
from repro.core.silkroute import SilkRoute
from repro.core.sqlgen import PlanStyle
from repro.relational.replicas import AdmissionPolicy
from repro.tpch.generator import TpchGenerator, TpchScale

TINY = TpchScale(suppliers=8, parts=16, customers=10, orders=40)


def fresh_db(seed=42):
    """A private mutable database (the session-scoped fixtures are
    shared, so mutation tests build their own)."""
    return TpchGenerator(scale=TINY, seed=seed).generate()


@pytest.fixture()
def session(tiny_conn, tiny_estimator):
    return Session(tiny_conn, estimator=tiny_estimator)


class TestConstruction:
    def test_wraps_a_connection(self, tiny_conn, session):
        assert session.connection is tiny_conn
        assert session.database is tiny_conn.database

    def test_wraps_a_bare_database(self):
        db = fresh_db()
        session = Session(db)
        assert session.database is db
        assert session.materialize(QUERY_1).xml

    def test_wraps_an_existing_silkroute(self, tiny_conn, tiny_estimator):
        silk = SilkRoute(tiny_conn, estimator=tiny_estimator)
        session = Session(silk)
        assert session.silkroute is silk

    def test_view_is_cached_per_rxl_text(self, session):
        assert session.view(QUERY_1) is session.view(QUERY_1)

    def test_document_cache_byte_budget_is_wired(self, tiny_conn,
                                                 tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator,
                          document_cache_bytes=123)
        assert session.view(QUERY_1).document_cache.max_bytes == 123


class TestMaterialize:
    def test_matches_direct_xmlview(self, tiny_conn, tiny_estimator, session):
        direct = SilkRoute(tiny_conn, estimator=tiny_estimator) \
            .define_view(QUERY_1) \
            .materialize("unified", root_tag="suppliers", indent=2)
        result = session.materialize(QUERY_1, "unified",
                                     root_tag="suppliers", indent=2)
        assert isinstance(result, QueryResult)
        assert result.xml == direct.xml
        assert result.report.query_ms == direct.report.query_ms
        assert result.report.transfer_ms == direct.report.transfer_ms

    def test_result_carries_report_and_stats(self, session):
        result = session.materialize(QUERY_1, "fully-partitioned")
        assert result.report.n_streams > 1
        assert result.query_ms == result.report.query_ms
        assert result.transfer_ms == result.report.transfer_ms
        assert "plan_cache" in result.stats
        assert "document_cache" in result.stats
        assert "splice_cache" in result.stats

    def test_keyword_overrides_win_over_session_options(self, tiny_conn,
                                                        tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator,
                          options=ExecutionOptions(workers=1))
        result = session.materialize(QUERY_1, "fully-partitioned", workers=3)
        assert result.report.workers == 3

    def test_session_options_are_the_default(self, tiny_conn, tiny_estimator):
        session = Session(tiny_conn, estimator=tiny_estimator,
                          options=ExecutionOptions(workers=2))
        result = session.materialize(QUERY_1, "fully-partitioned")
        assert result.report.workers == 2

    def test_materialize_to_streams_the_same_bytes(self, session):
        whole = session.materialize(QUERY_1, "unified", indent=2)
        sink = io.StringIO()
        streamed = session.materialize_to(QUERY_1, sink, "unified", indent=2)
        assert streamed.xml is None
        assert sink.getvalue() == whole.xml
        assert streamed.report.query_ms == whole.report.query_ms


class TestExplain:
    def test_sql_matches_direct_explain(self, session):
        view = session.view(QUERY_1)
        result = session.explain(QUERY_1, "unified")
        assert result.sql == tuple(view.explain("unified"))
        assert len(result.sql) == 1
        assert result.xml is None and result.report is None


class TestSweep:
    def test_sweep_returns_the_sweep_result(self, session):
        view = session.view(QUERY_1)
        partitions = [unified_partition(view.tree),
                      fully_partitioned(view.tree)]
        result = session.sweep(QUERY_1, partitions=partitions)
        assert len(result.sweep.timings) == 2
        assert "sweep_cache" in result.stats

    def test_session_sweep_matches_the_sweep_engine(
            self, session, q1_tree, schema, tiny_conn):
        partitions = [unified_partition(q1_tree)]
        old = _sweep_partitions(q1_tree, schema, tiny_conn,
                                partitions=partitions)
        new = session.sweep(QUERY_1, partitions=[
            unified_partition(session.view(QUERY_1).tree)])
        assert [t.query_ms for t in old.timings] == \
               [t.query_ms for t in new.sweep.timings]


class TestMutate:
    def test_mutate_bumps_generation_and_reports_rows(self):
        session = Session(fresh_db())
        before = session.database.table("Nation").version
        result = session.mutate("Nation", op="insert", rows=2, seed=3)
        assert result.mutated == 2
        assert result.table == "Nation"
        assert result.stats["generation"] > before

    def test_incremental_matches_cold_oracle(self):
        session = Session(fresh_db())
        session.materialize(QUERY_1, "unified")
        session.mutate("Supplier", op="update", rows=2, seed=1)
        incremental = session.materialize(QUERY_1, "unified")

        cold = Session(fresh_db(), cache=False)
        apply_delta(cold.database, "Supplier", op="update", rows=2, seed=1)
        oracle = cold.materialize(QUERY_1, "unified")
        assert incremental.xml == oracle.xml
        assert incremental.report.query_ms == oracle.report.query_ms

    def test_apply_delta_roundtrip(self):
        db = fresh_db()
        n = len(db.table("Nation"))
        assert apply_delta(db, "Nation", op="insert", rows=2, seed=0) == 2
        assert len(db.table("Nation")) == n + 2
        assert apply_delta(db, "Nation", op="delete", rows=2, seed=0) == 2
        assert len(db.table("Nation")) == n
        assert apply_delta(db, "Nation", op="update", rows=1, seed=0) == 1

    def test_apply_delta_refuses_unknown_op(self):
        with pytest.raises(ValueError, match="unknown mutation op"):
            apply_delta(fresh_db(), "Nation", op="upsert")

    def test_cli_private_alias_still_importable(self):
        from repro.cli import _apply_delta

        assert _apply_delta is apply_delta


class TestShedPartialReports:
    """Every shed path surfaces a partial PlanReport on the error."""

    def test_streaming_queue_shed_attaches_partial_report(self, session):
        policy = AdmissionPolicy(max_concurrent_streams=1,
                                 max_queued_streams=0)
        with pytest.raises(OverloadError) as info:
            session.materialize_to(QUERY_1, io.StringIO(),
                                   "fully-partitioned",
                                   max_concurrent=policy)
        exc = info.value
        assert exc.reason == "queue"
        assert exc.report is not None
        assert exc.report.n_streams > 1
        assert tuple(exc.report.shed_streams) == tuple(exc.shed)
        assert exc.report.streams == []


def _report_key(report):
    """Everything deterministic in a report: per-stream SQL, rows and
    simulated timings (``attempts`` varies with the plan cache)."""
    return (
        report.query_ms, report.transfer_ms, report.workers,
        report.elapsed_total_ms,
        tuple((s.label, s.sql, s.rows, s.server_ms, s.transfer_ms)
              for s in report.streams),
    )


def _sweep_key(sweep):
    return (sweep.style, sweep.reduced,
            tuple((t.partition, t.query_ms, t.transfer_ms, t.timed_out)
                  for t in sweep.timings))


def _greedy_plan(session, **kw):
    plan = session.view(QUERY_1).greedy_plan(**kw)
    return plan.mandatory, plan.optional


def _explain(session, **kw):
    return session.view(QUERY_1).explain("unified", **kw)


def _execute_partition(session, **kw):
    view = session.view(QUERY_1)
    specs, _, report = view.execute_partition(
        unified_partition(view.tree), **kw
    )
    return [spec.sql for spec in specs], _report_key(report)


def _materialize(session, **kw):
    result = session.view(QUERY_1).materialize(**kw)
    return result.xml, _report_key(result.report)


def _materialize_to(session, **kw):
    sink = io.StringIO()
    result = session.view(QUERY_1).materialize_to(sink, **kw)
    return sink.getvalue(), _report_key(result.report)


def _partitions(view):
    return [fully_partitioned(view.tree), unified_partition(view.tree)]


def _sweep_engine(session, **kw):
    view = session.view(QUERY_1)
    return _sweep_key(_sweep_partitions(
        view.tree, session.silkroute.schema, session.connection,
        partitions=_partitions(view), **kw,
    ))


def _run_single(session, **kw):
    view = session.view(QUERY_1)
    return run_single_partition(
        view.tree, session.silkroute.schema, session.connection,
        unified_partition(view.tree), **kw,
    )


def _session_materialize(session, **kw):
    result = session.materialize(QUERY_1, "unified", **kw)
    return result.xml, _report_key(result.report)


def _session_sweep(session, **kw):
    view = session.view(QUERY_1)
    return _sweep_key(
        session.sweep(QUERY_1, partitions=_partitions(view), **kw).sweep
    )


class TestOneKeywordPath:
    """Every entry point takes knobs as ``options=`` plus keywords naming
    its fields, with one result either way."""

    # An options object replaces the per-method defaults wholesale, so
    # the methods defaulting to reduce=False are driven on ``reduce``.
    ENTRY_POINTS = [
        (_greedy_plan, "reduce", False),
        (_explain, "reduce", True),
        (_execute_partition, "reduce", True),
        (_materialize, "style", PlanStyle.OUTER_UNION),
        (_materialize_to, "reduce", False),
        (_sweep_engine, "reduce", True),
        (_run_single, "reduce", True),
        (_session_materialize, "workers", 2),
        (_session_sweep, "reduce", True),
    ]

    @pytest.mark.parametrize(
        "call,field,value", ENTRY_POINTS,
        ids=[call.__name__.strip("_") for call, _, _ in ENTRY_POINTS],
    )
    def test_keyword_equals_options_field(self, session, call, field,
                                          value):
        as_keyword = call(session, **{field: value})
        as_option = call(
            session, options=ExecutionOptions(**{field: value})
        )
        assert as_keyword == as_option
        assert as_keyword != call(session)  # the knob took effect

    @pytest.mark.parametrize(
        "call", [call for call, _, _ in ENTRY_POINTS],
        ids=[call.__name__.strip("_") for call, _, _ in ENTRY_POINTS],
    )
    def test_unknown_keyword_raises(self, session, call):
        with pytest.raises(TypeError, match="unknown execution option"):
            call(session, retention_bytes=1e6)

    def test_positional_knob_fails_loudly(self, session):
        view = session.view(QUERY_1)
        with pytest.raises(TypeError):
            view.materialize(None, PlanStyle.OUTER_UNION)
        with pytest.raises(TypeError):
            view.execute_partition(
                fully_partitioned(view.tree), PlanStyle.OUTER_UNION
            )
