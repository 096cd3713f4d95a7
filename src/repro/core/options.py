"""One options object for the whole execution surface.

Every execution entry point — ``XmlView.materialize``, ``materialize_to``,
``execute_partition``, ``explain``, ``greedy_plan``, the sweep, and the
matching :class:`~repro.session.Session` methods — takes its knobs one
way: ``options=`` (a frozen :class:`ExecutionOptions`, shareable across
calls and threads) plus ``**overrides`` naming its fields.  None of them
declares a field as a parameter of its own; :func:`resolve_options`
merges the two, and an override always wins over the options field::

    opts = ExecutionOptions(budget_ms=300_000, workers=4,
                            retry=RetryPolicy(max_attempts=3))
    view.materialize(options=opts)                   # uses everything
    view.materialize(options=opts, workers=1)        # one-off override

A name that is not a field raises :class:`TypeError`.  Methods keep their
per-method defaults (``explain``, ``execute_partition`` and the sweep
default ``reduce=False``; the materializers ``reduce=True``) — those apply
only when the caller passes no ``options`` object.
"""

from dataclasses import dataclass, fields

from repro.core.sqlgen import PlanStyle


@dataclass(frozen=True)
class RequestContext:
    """Identity of one client request flowing through the service.

    The serving layer (:mod:`repro.serve`) attaches one of these to the
    :class:`ExecutionOptions` it executes under (``request=``) so that
    errors raised deep inside dispatch worker threads —
    :class:`~repro.common.errors.OverloadError`,
    :class:`~repro.common.errors.StaleGenerationError`,
    :class:`~repro.common.errors.TimeoutExceeded` — surface carrying the
    originating ``tenant`` and ``request_id`` (see
    :func:`~repro.common.errors.tag_request`).  Frozen and hashable, like
    everything else in the options bundle.
    """

    tenant: str = None
    request_id: str = None


@dataclass(frozen=True)
class ExecutionOptions:
    """Frozen bundle of execution knobs.

    ``style``/``reduce``/``keep`` select and reduce the SQL generation,
    ``budget_ms`` is the per-subquery simulated timeout, ``workers``
    dispatches subqueries (or sweep partitions) concurrently,
    ``retry``/``faults`` are the resilience policies
    (:class:`~repro.relational.faults.RetryPolicy` /
    :class:`~repro.relational.faults.FaultPolicy`), and ``obs`` is an
    optional :class:`~repro.obs.ObsOptions` observability session
    (tracing/metrics; None — the default — keeps the no-op fast path).

    The replica serving layer adds three knobs, normalized by
    :func:`~repro.relational.replicas.resolve_pool` /
    :func:`~repro.relational.replicas.resolve_admission`: ``replicas``
    (an integer replica count, a
    :class:`~repro.relational.replicas.ReplicaSet`, or a
    :class:`~repro.relational.replicas.ReplicaPool`), ``hedge_ms`` (the
    simulated latency past which a backup request is hedged on a second
    replica), and ``max_concurrent`` (an integer stream cap, an
    :class:`~repro.relational.replicas.AdmissionPolicy`, or an
    :class:`~repro.relational.replicas.AdmissionController`).

    The execution-engine knobs are pure performance switches — results,
    simulated timings, and cache entries are identical either way:
    ``engine`` selects row-at-a-time (``"tuple"``) or vectorized columnar
    (``"batch"``) plan evaluation, and ``batch_size`` the chunk size of
    the batch kernels.  ``None`` (the default) defers to the connection's
    :class:`~repro.relational.engine.QueryEngine` defaults.  ``backend``
    selects where the generated SQL is *also* executed for real
    (:mod:`repro.relational.backends`) — cross-validated against the
    simulated oracle, wall-clock recorded separately, results and
    simulated timings untouched.

    Fields a path cannot use are ignored there: ``materialize_to`` has no
    dispatch layer, so ``workers``, ``retry`` and ``hedge_ms`` do nothing
    on it.  Durability is not an execution knob — pass ``wal=`` /
    ``checkpoint_every=`` to :class:`~repro.session.Session`.

    Hashable as long as its fields are, so it can key plan caches
    (``ObsOptions`` hashes by identity).
    """

    style: PlanStyle = PlanStyle.OUTER_JOIN
    reduce: bool = True
    keep: tuple = ()
    budget_ms: float = None
    workers: int = None
    retry: object = None
    faults: object = None
    obs: object = None
    replicas: object = None
    hedge_ms: float = None
    max_concurrent: object = None
    engine: str = None
    batch_size: int = None
    #: Where generated SQL is executed: None defers to the connection's
    #: backend (usually pure simulation), ``"sqlite"``/``"simulated"`` or a
    #: :class:`~repro.relational.backends.Backend` instance select one for
    #: this execution.  A real backend never changes results, simulated
    #: timings, or cache keys — it adds measured ``backend_wall_ms`` to the
    #: reports (see :mod:`repro.relational.backends`).  Backend instances
    #: hash by identity, keeping the options bundle hashable.
    backend: object = None
    #: Optional :class:`RequestContext` naming the client request this
    #: execution serves; errors raised anywhere under the dispatch carry
    #: its tenant/request id.  Purely diagnostic — never affects results,
    #: timings, or cache keys.
    request: object = None

    def __post_init__(self):
        object.__setattr__(self, "keep", tuple(self.keep))

    def replace(self, **overrides):
        """A copy with the given fields replaced."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return ExecutionOptions(**values)


_FIELDS = frozenset(f.name for f in fields(ExecutionOptions))


def resolve_options(options=None, defaults=None, **overrides):
    """Merge keyword ``overrides`` over ``options`` over per-method
    ``defaults``; returns a resolved :class:`ExecutionOptions`.

    Precedence is override > ``options`` field > ``defaults`` entry >
    :class:`ExecutionOptions` field default.  An ``options`` object is
    taken at face value — a frozen dataclass cannot tell a field left at
    its default from one set explicitly — so ``defaults`` apply only when
    ``options`` is None.  An override that names no field raises
    :class:`TypeError`.
    """
    if options is None:
        options = ExecutionOptions(**(defaults or {}))
    unknown = set(overrides) - _FIELDS
    if unknown:
        raise TypeError(f"unknown execution option(s): {sorted(unknown)}")
    if overrides:
        options = options.replace(**overrides)
    return options
