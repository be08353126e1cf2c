"""Columnar relation operators: dict-of-columns caches, batch kernels.

An operator library, not an engine backend: nothing under ``src/`` imports
this module (the engine, the executors, the generated kernels and both
``serve()`` transports construct :class:`~repro.data.relation.Relation`
only).  Its one consumer is ``bench/run.py``'s ``data.columnar.*``
per-layer rows; the file and ``tests/test_columnar.py`` leave with the
``[benchmark]`` change that drops those rows (the ROADMAP's write-path
instrument).

:class:`ColumnarRelation` is a :class:`~repro.data.relation.Relation`
whose operators run as *batch* kernels over lazily materialized column
data instead of per-row Python loops with per-row counter bumps.  The
tuple :class:`set` remains the ground truth (so equality, iteration,
pickling, and every base-class fallback behave identically); the row list
and the per-variable columns are derived caches, rebuilt after any
mutation and never pickled.

NumPy is used when importable — integer key columns get an
``np.isin``-vectorized semijoin membership kernel — but is **not** a
dependency: every kernel has a pure-Python column path built on ``zip``
transposes, which already beats the row-at-a-time base operators by
hoisting position lookups and counter accounting out of the loop.

Counter accounting is preserved *in total*: a kernel that scans ``n``
rows charges ``scans += n`` in one update where the base operator charged
``1`` per row, so a comparison of intrinsic operation counts against the
base operators sees the same work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.relation import Relation, SchemaError
from repro.util.counters import Counters, global_counters

try:  # pragma: no cover - exercised implicitly on numpy-equipped hosts
    import numpy as _np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - numpy-less container
    _np = None
    HAVE_NUMPY = False

Tuple_ = Tuple[object, ...]

#: marker for "this column cannot be vectorized" in the int-array cache
_NO_ARRAY = object()

#: below this row count the numpy membership kernel loses to plain dict
#: probes (array construction + ``np.isin`` fixed overhead dominate), so
#: small relations — e.g. per-probe T-views — take the hash-index path
_MIN_VECTOR_ROWS = 128


class ColumnarRelation(Relation):
    """A relation whose operators run as column-batch kernels.

    Storage contract: ``self.tuples`` (the inherited set) is authoritative;
    ``_rows`` (a stable row list) and ``_columns`` (variable -> column
    tuple) are derived lazily and dropped on mutation or unpickling.  All
    operators return :class:`ColumnarRelation` (the base class constructs
    results through ``type(self)``, so mixed pipelines stay columnar), and
    all inherit the base class's schemas, counters, and mutation contract.
    """

    __slots__ = ("_rows", "_columns", "_int_cols")

    # ------------------------------------------------------------------
    # derived column state
    # ------------------------------------------------------------------
    def _reset_derived(self) -> None:
        super()._reset_derived()
        self._rows: Optional[List[Tuple_]] = None
        self._columns: Optional[Dict[str, tuple]] = None
        self._int_cols: Dict[str, object] = {}

    def _row_data(self) -> List[Tuple_]:
        """The tuple set as a stable list (lazily materialized)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(self.tuples)
        return rows

    def _column_data(self) -> Dict[str, tuple]:
        """Variable -> column tuple, one entry per schema variable."""
        cols = self._columns
        if cols is None:
            rows = self._row_data()
            if rows and self.schema:
                cols = dict(zip(self.schema, zip(*rows)))
            else:
                cols = {v: () for v in self.schema}
            self._columns = cols
        return cols

    def _int_array(self, var: str):
        """The column as an ``int64`` array, or None if not vectorizable.

        Only columns whose every value is a plain ``int`` (or ``bool``,
        which hashes and compares as its integer value) qualify: numeric
        *conversion* (1.5 -> 1) would silently change membership
        semantics, so anything else falls back to the hash-index path.
        """
        if not HAVE_NUMPY:
            return None
        cached = self._int_cols.get(var)
        if cached is not None:
            return None if cached is _NO_ARRAY else cached
        col = self._column_data()[var]
        if all(type(v) is int or type(v) is bool for v in col):
            try:
                arr = _np.fromiter(col, dtype=_np.int64, count=len(col))
            except (OverflowError, ValueError):
                arr = None
        else:
            arr = None
        self._int_cols[var] = _NO_ARRAY if arr is None else arr
        return arr

    # ------------------------------------------------------------------
    # batch kernels (same outputs and counter totals as the base loops)
    # ------------------------------------------------------------------
    def index_on(self, key: Sequence[str]) -> Dict[Tuple_, list]:
        key = tuple(key)
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        self.positions(key)  # schema validation, same errors as the base
        rows = self._row_data()
        index: Dict[Tuple_, list] = {}
        if not key:
            if rows:
                index[()] = list(rows)
        else:
            setdefault = index.setdefault
            cols = self._column_data()
            if len(key) == 1:
                for row, v in zip(rows, cols[key[0]]):
                    setdefault((v,), []).append(row)
            else:
                for row, k in zip(rows, zip(*(cols[v] for v in key))):
                    setdefault(k, []).append(row)
        self._indexes[key] = index
        return index

    def project(self, onto: Sequence[str], name: Optional[str] = None,
                counters: Optional[Counters] = None) -> "ColumnarRelation":
        """Batch projection: one transpose, one bulk scan charge."""
        ctr = counters or global_counters
        onto = tuple(onto)
        self.positions(onto)
        n = len(self.tuples)
        ctr.scans += n
        if not onto:
            out = {()} if n else set()
        elif not n:
            out = set()
        else:
            cols = self._column_data()
            if len(onto) == 1:
                col = cols[onto[0]]
                out = {(v,) for v in set(col)}
            else:
                out = set(zip(*(cols[v] for v in onto)))
        return type(self)._wrap(name or f"pi_{self.name}", onto, out)

    def semijoin(self, other: Relation,
                 counters: Optional[Counters] = None,
                 name: Optional[str] = None) -> "ColumnarRelation":
        """Batch semijoin: column-key zip against ``other``'s hash index.

        Single-variable integer keys additionally get the vectorized
        ``np.isin`` membership mask when numpy is importable and both
        sides' key columns are plain ints.  Shared variables that cover
        ``other``'s schema probe its row set (``membership_on``).
        """
        ctr = counters or global_counters
        # in ``other``'s column order: a key covering its schema is a row
        shared = tuple(v for v in other.schema if v in self._variables)
        if not shared:
            if len(other) == 0:
                return type(self)._wrap(name or self.name, self.schema,
                                        set())
            return self.copy(name)
        n = len(self.tuples)
        ctr.scans += n
        ctr.probes += n
        rows = self._row_data()
        out: Optional[set] = None
        if len(shared) == 1 and n >= _MIN_VECTOR_ROWS:
            var = shared[0]
            arr = self._int_array(var)
            if arr is not None and isinstance(other, ColumnarRelation) \
                    and var in other.variables:
                other_arr = other._int_array(var)
                if other_arr is not None:
                    mask = _np.isin(arr, other_arr)
                    out = {row for row, keep in zip(rows, mask) if keep}
        if out is None:
            other_index = other.membership_on(shared)
            cols = self._column_data()
            if len(shared) == 1:
                col = cols[shared[0]]
                out = {row for row, v in zip(rows, col)
                       if (v,) in other_index}
            else:
                keys = zip(*(cols[v] for v in shared))
                out = {row for row, k in zip(rows, keys)
                       if k in other_index}
        return type(self)._wrap(name or self.name, self.schema, out)

    def join(self, other: Relation, name: Optional[str] = None,
             counters: Optional[Counters] = None) -> "ColumnarRelation":
        """Natural hash join with hoisted positions and bulk counters."""
        ctr = counters or global_counters
        shared = tuple(v for v in self.schema if v in other.variables)
        extra = tuple(v for v in other.schema if v not in self.variables)
        if not extra:
            # ``other`` adds no column: the base class's semijoin path
            return super().join(other, name=name, counters=counters)
        out_schema = self.schema + extra
        index = other.index_on(shared)
        pos_self = self.positions(shared)
        pos_extra = other.positions(extra)
        rows = self._row_data()
        ctr.scans += len(rows)
        ctr.probes += len(rows)
        out: set = set()
        emitted = 0
        get = index.get
        for row in rows:
            matches = get(tuple(row[p] for p in pos_self))
            if matches:
                emitted += len(matches)
                for match in matches:
                    out.add(row + tuple(match[p] for p in pos_extra))
        ctr.joins_emitted += emitted
        return type(self)._wrap(name or f"{self.name}_x_{other.name}",
                                out_schema, out)
