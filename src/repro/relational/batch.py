"""Columnar batches and compiled row codecs for the batch engine.

The tuple engine (the streaming interpreter in
:mod:`repro.relational.engine`) moves Python tuples one at a time through
a chain of generators.  The batch engine (:mod:`repro.relational.vector_ops`)
instead passes :class:`Batch` objects between operators: a batch carries
the *same* rows, but holds them in whichever representation the producing
kernel built cheaply — row-major (a list of tuples, what scans, filters,
joins, and sorts produce) or column-major (a list of per-column value
lists, what projections and unions produce) — and converts lazily, at most
once, through a :class:`RowCodec` compiled per schema arity.

The codec is where the representation changes hands, and it is compiled so
the transpose runs entirely in C: ``decode`` is a generated
``zip(columns[0], columns[1], ...)`` specialized to the arity, ``encode``
is the inverse ``zip(*rows)``.  Conversions honour the engine's
``batch_size``: a decode of a large batch proceeds in ``batch_size``-row
chunks (bounding the transient working set) without changing a single
output value.

Batches are value-immutable by contract, exactly like the rows in the
tuple engine's sub-plan memo: they are shared through the engine's common-subexpression
memo and the plan-result cache, so neither the row list nor the column
lists may be mutated after construction.
"""

#: Default number of rows a kernel processes per chunk.  Large enough that
#: per-chunk overhead vanishes, small enough to bound transient copies.
DEFAULT_BATCH_SIZE = 4096


class RowCodec:
    """Compiled converter between row-major and column-major for one arity.

    ``decode(columns)`` returns the list of row tuples; ``encode(rows)``
    returns the list of column lists.  Codecs are stateless and cached per
    arity (:func:`codec_for`); the generated source references only the
    ``columns`` parameter and the whitelisted ``list``/``zip`` builtins.
    """

    __slots__ = ("arity", "decode", "encode")

    def __init__(self, arity):
        self.arity = arity
        if arity == 0:
            # Zero-width rows: the column representation is empty and the
            # row count is external, so decode is handled by the batch.
            self.decode = lambda columns: []
            self.encode = lambda rows: []
            return
        cols = ", ".join(f"columns[{i}]" for i in range(arity))
        self.decode = eval(  # noqa: S307 - arity-generated source only
            f"lambda columns: list(zip({cols}))",
            {"__builtins__": {"list": list, "zip": zip}},
        )

        def encode(rows, _arity=arity):
            if not rows:
                return [[] for _ in range(_arity)]
            return [list(column) for column in zip(*rows)]

        self.encode = encode


_CODECS = {}


def codec_for(arity):
    """The (cached) :class:`RowCodec` for one schema arity."""
    codec = _CODECS.get(arity)
    if codec is None:
        codec = RowCodec(arity)
        _CODECS[arity] = codec
    return codec


class Batch:
    """One operator's output: ``length`` rows of ``arity`` columns.

    Either representation may be present; the other is derived on first
    use and cached.  ``col(i)`` extracts a single column without forcing a
    full transpose of a row-major batch (the common case for join keys and
    sort keys).
    """

    __slots__ = ("length", "arity", "codec", "_rows", "_columns")

    def __init__(self, length, arity, rows=None, columns=None):
        self.length = length
        self.arity = arity
        self.codec = codec_for(arity)
        self._rows = rows
        self._columns = columns

    @classmethod
    def from_rows(cls, rows, arity):
        """Wrap a list of row tuples (not copied; treat as immutable)."""
        return cls(len(rows), arity, rows=rows)

    @classmethod
    def from_columns(cls, columns, length):
        """Wrap a list of column lists (not copied; treat as immutable).
        ``length`` is explicit so zero-arity batches keep their row
        count."""
        return cls(length, len(columns), columns=columns)

    def rows(self, batch_size=None):
        """The row-major view, decoding (chunked) on first use."""
        rows = self._rows
        if rows is None:
            rows = self._decode(batch_size)
            self._rows = rows
        return rows

    def columns(self):
        """The column-major view, transposing on first use."""
        columns = self._columns
        if columns is None:
            columns = self.codec.encode(self._rows)
            self._columns = columns
        return columns

    def col(self, index):
        """One column's values, without forcing a full transpose."""
        if self._columns is not None:
            return self._columns[index]
        return [row[index] for row in self._rows]

    def _decode(self, batch_size):
        if self.arity == 0:
            return [()] * self.length
        columns = self._columns
        decode = self.codec.decode
        if not batch_size or self.length <= batch_size:
            return decode(columns)
        out = []
        extend = out.extend
        for start in range(0, self.length, batch_size):
            stop = start + batch_size
            extend(decode([column[start:stop] for column in columns]))
        return out

    def __len__(self):
        return self.length

    def __repr__(self):
        held = "rows" if self._rows is not None else "columns"
        return f"Batch({self.length}x{self.arity}, {held})"
