"""Decoding tuple streams into node instances and merging them.

A partitioned relation's tuple encodes a path from its subtree's root to a
terminal node instance (Sec. 3.2): the ``L`` columns spell the terminal
node's Skolem-function index, and the Skolem-term variable columns carry the
argument values of every node on the path.  :func:`decode_stream` expands
each tuple into one :class:`Instance` per path node (and, for reduced
units, per original member node), deduplicating consecutive repeats so the
per-stream instance sequence is nondecreasing in global document order.

The global order (:class:`ComparatorLayout`) interleaves ``L`` tags and
Skolem-term variables level by level — using only variables that are *key*
arguments of some node, because display values of an internal node are
absent from its descendants' tuples and must not influence relative order.
NULLs sort first, which places every parent instance before its children.
"""

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import PlanError
from repro.common.ordering import sort_key


@dataclass(frozen=True)
class Instance:
    """One occurrence of a view-tree node in the output document."""

    key: tuple     # global comparator key (NoneFirst-wrapped)
    node: object   # ViewTreeNode
    values: dict   # stv name -> value (the node's Skolem-term arguments)

    def identity(self):
        """The full Skolem-term identity (all arguments) — what fuses or
        distinguishes element instances."""
        return tuple(self.values.get(s.name) for s in self.node.args)

    def key_identity(self):
        """Identity restricted to the key arguments — the part of the term
        a descendant tuple can always reconstruct."""
        return tuple(self.values.get(s.name) for s in self.node.key_args)


class ComparatorLayout:
    """The interleaved global sort layout for a view tree."""

    def __init__(self, tree):
        self.tree = tree
        key_stvs = set()
        for node in tree.nodes:
            key_stvs.update(node.key_args)
        self.entries = []
        for level in range(1, tree.max_depth() + 1):
            self.entries.append(("L", level))
            for stv in tree.stvs_at_level(level):
                if stv in key_stvs:
                    self.entries.append(("stv", stv))

    def instance_key(self, node, values):
        raw = []
        for kind, what in self.entries:
            if kind == "L":
                level = what
                raw.append(node.index[level - 1] if level <= node.level else None)
            else:
                raw.append(values.get(what.name))
        return sort_key(raw)


def decode_stream(spec, rows, layout):
    """Yield the :class:`Instance` sequence of one stream, in order.

    ``spec`` is a :class:`repro.core.sqlgen.StreamSpec`; ``rows`` its
    executed, sorted tuples.  Memory is bounded by the view-tree size (one
    last-identity memo per member node plus at most one deferred instance
    per member).

    A reduced unit can carry a member *deeper* than some of the unit's
    children (e.g. a ``1``-labeled sibling merged in next to a ``*``
    branch).  That member's instance, reconstructed from a pass-through
    tuple, sorts *after* the tuple's terminal instance — and after child
    instances still to come — so it is deferred until the stream reaches
    its position (its group closes), keeping the emitted sequence
    nondecreasing.
    """
    positions = {name: i for i, name in enumerate(spec.column_names)}
    l_positions = [(level, positions[f"L{level}"]) for level in spec.l_levels]
    memo = {}
    pending = []  # deferred instances, kept sorted by key
    for row in rows:
        l_values = [(level, row[pos]) for level, pos in l_positions]
        depth = 0
        for level, value in l_values:
            if value is None:
                break
            depth = level
        if depth == 0:
            raise PlanError("tuple with no L tag cannot be decoded")
        terminal_index = tuple(value for _, value in l_values[:depth])
        path = spec.unit_paths.get(terminal_index)
        if path is None:
            raise PlanError(
                f"no unit with index {terminal_index} in stream {spec.label}"
            )
        decoded = []
        for unit in path:
            for member in unit.members:
                values = {
                    stv.name: row[positions[stv.name]]
                    for stv in member.args
                    if stv.name in positions
                }
                identity = tuple(values.get(s.name) for s in member.args)
                if memo.get(member.index) == identity:
                    continue
                memo[member.index] = identity
                decoded.append(
                    Instance(
                        key=layout.instance_key(member, values),
                        node=member,
                        values=values,
                    )
                )
        # The row pins everything up to its own sort position — the
        # terminal unit's *representative* (whose index is the row's L
        # prefix).  Merged members deeper than the representative sort
        # after rows still to come (e.g. a sibling subtree with a smaller
        # ordinal kept as its own unit), so they wait in ``pending``.
        representative = path[-1].representative
        rep_values = {
            stv.name: row[positions[stv.name]]
            for stv in representative.args
            if stv.name in positions
        }
        threshold = layout.instance_key(representative, rep_values)

        ready = [i for i in decoded if i.key <= threshold]
        pending.extend(i for i in decoded if i.key > threshold)
        pending.sort(key=lambda inst: inst.key)
        while pending and pending[0].key <= threshold:
            ready.append(pending.pop(0))
        ready.sort(key=lambda inst: inst.key)
        yield from ready
    pending.sort(key=lambda inst: inst.key)
    yield from pending


def merge_streams(instance_iterables):
    """K-way merge of per-stream instance sequences into document order."""
    return heapq.merge(*instance_iterables, key=lambda inst: inst.key)


class CountingIterator:
    """Wrap an iterator and count the items that pass through.

    The observability layer's per-stream-free way to report how many
    merged instances the tagger consumed: wrapping costs one integer
    increment per instance and is only installed when tracing or metrics
    are enabled, keeping the default path untouched.
    """

    __slots__ = ("_it", "count")

    def __init__(self, iterable):
        self._it = iter(iterable)
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.count += 1
        return item


class StreamInstanceCache:
    """LRU cache of decoded per-stream :class:`Instance` lists.

    The splice layer of incremental view maintenance: re-materializing a
    view after a mutation re-executes only the streams whose base tables
    changed, while every untouched stream's decoded instance sequence is
    replayed from here — the document-order merge then *splices* fresh and
    cached sequences back together, byte-identical to a cold run (the
    cached instances are exactly what decoding the identical rows would
    produce).  Callers key entries by (stream label, plan style, plan
    fingerprint, dependency generations), so a write moves the key of
    affected streams only.
    """

    def __init__(self, max_entries=512):
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0

    @staticmethod
    def _size(value):
        """Bytes one entry counts towards ``stats()["bytes"]``; the base
        class is bounded by entry count only and counts none."""
        return 0

    def _over_budget(self):
        return len(self._entries) > self.max_entries

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        """The cached instance list for ``key``, or None."""
        with self._lock:
            instances = self._entries.get(key)
            if instances is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return instances

    def store(self, key, instances):
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= self._size(previous)
            self._entries[key] = instances
            self._bytes += self._size(instances)
            while self._entries and self._over_budget():
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= self._size(evicted)
                self.evictions += 1

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self):
        """Counters as a plain dict (for reports and metrics gauges)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }


class XmlDocumentCache(StreamInstanceCache):
    """LRU cache of fully tagged ``(xml, tagger)`` documents.

    The top layer of incremental maintenance: every partition of a view
    materializes the *identical* document (the system's central
    invariant), so the key carries no partition — only the serialization
    options and the dependency generations of every table the view reads,
    e.g. ``(root_tag, indent, database.dependency_key(view_tables))``.
    After a write, the first re-materialization re-tags (splicing
    unchanged streams via :class:`StreamInstanceCache`) and re-fills the
    moved key; every other plan of the same view then serves the document
    directly while its streams still execute live — simulated timings
    stay per-plan faithful, only the decode→merge→tag replay is skipped.
    Callers must bypass the cache for non-canonical output (degraded or
    shed streams).

    ``max_bytes`` additionally bounds the cache by total document size
    (the serving layer's process-wide budget): storing past the budget
    evicts least-recently-served documents first.
    """

    def __init__(self, max_entries=64, max_bytes=None):
        super().__init__(max_entries=max_entries)
        self.max_bytes = max_bytes

    @staticmethod
    def _size(value):
        xml, _tagger = value
        return len(xml)

    def _over_budget(self):
        return super()._over_budget() or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        )


def iter_instances(tree, specs, row_sources, layout=None,
                   instance_cache=None, instance_keys=None):
    """The merged document-order instance iterator of a set of streams.

    ``row_sources`` may be materialized
    :class:`~repro.relational.connection.TupleStream` results or lazy
    :class:`~repro.relational.connection.TupleCursor` iterators — decoding
    pulls rows on demand either way, so with cursors the whole
    decode→merge pipeline runs in bounded memory (the heap holds one
    pending instance per stream).

    With a :class:`StreamInstanceCache` and per-spec ``instance_keys``
    (None entries opt a stream out), each stream's decoded instance list
    is served from the cache when its key matches and decoded-then-stored
    otherwise; the merge splices cached and fresh sequences
    transparently.  Cached streams are materialized lists — only the
    uncached path keeps the bounded-memory property.
    """
    if layout is None:
        layout = ComparatorLayout(tree)
    if instance_cache is None or instance_keys is None:
        return merge_streams(
            [decode_stream(spec, rows, layout)
             for spec, rows in zip(specs, row_sources)]
        )
    sources = []
    for spec, rows, key in zip(specs, row_sources, instance_keys):
        if key is None:
            sources.append(decode_stream(spec, rows, layout))
            continue
        cached = instance_cache.get(key)
        if cached is None:
            cached = list(decode_stream(spec, rows, layout))
            instance_cache.store(key, cached)
        sources.append(cached)
    return merge_streams(sources)
