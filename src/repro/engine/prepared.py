"""Plan-once / probe-many serving (§2.1 access requests, §6.4 batching).

``prepare(cqap, db, budget)`` pays the expensive phase exactly once: PMTD
enumeration, 2PP planning per disjunctive rule, S-target materialization
under the space budget, hash-index warm-up, and T-phase compilation.  The
returned :class:`PreparedQuery` then serves access-pattern probes against
that frozen state:

* :meth:`PreparedQuery.probe` — one binding through the compiled online
  plan (or straight out of the LRU answer cache);
* :meth:`PreparedQuery.probe_many` — a batch of bindings, deduplicated and
  grouped into a *single* access relation so one online phase serves the
  whole batch (the paper's §6.4 observation, turned into an API).

The warm path never re-plans and never re-materializes S-targets; the
planner/executor lifecycle counters (``plan_calls``, ``preprocess_runs``,
``compile_runs``) make that verifiable from tests and benchmarks.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, Iterable, List, Optional

from repro.core.index import CQAPIndex
from repro.core.replica import split_by_binding
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.cache import AnswerCache, Binding, Resolved
from repro.obs import metrics_section
from repro.query.cq import CQAP, normalize_access_binding
from repro.util.counters import Counters


def prepare(cqap: CQAP, db: Database, space_budget: float,
            cache_size: int = 256,
            counters: Optional[Counters] = None,
            **index_kwargs) -> "PreparedQuery":
    """Run the one-time preprocessing phase and return a serving handle.

    ``space_budget`` drives both phases of planning: the 2PP planner's
    S-vs-T decisions *and* (for large PMTD sets, or explicitly with
    ``rule_selection="budget"``) the budgeted rule selection that decides
    which rules are worth planning at all.  The chosen rules and their
    estimated space/time land in :meth:`PreparedQuery.stats` under
    ``"selection"``.

    ``index_kwargs`` are forwarded to :class:`~repro.core.index.CQAPIndex`
    (``pmtds``, ``budget_slack``, ``measure_degrees``, ``threshold_scale``,
    ``rule_selection``, ``auto_select_threshold``, ...).
    """
    ctr = counters or Counters()
    start = time.perf_counter()
    index = CQAPIndex(cqap, db, space_budget, **index_kwargs)
    index.preprocess(counters=ctr)
    elapsed = time.perf_counter() - start
    return PreparedQuery(index, cache_size=cache_size,
                         prepare_seconds=elapsed,
                         prepare_counters=ctr)


class PreparedQuery:
    """A preprocessed CQAP instance that answers probes without re-planning.

    Construct via :func:`prepare`.  All mutable planning state is settled by
    the time this object exists; probes only execute the compiled T-phase
    and the per-PMTD Online Yannakakis passes.
    """

    def __init__(self, index: CQAPIndex, cache_size: int = 256,
                 prepare_seconds: float = 0.0,
                 prepare_counters: Optional[Counters] = None) -> None:
        if not index._ready:
            raise ValueError("PreparedQuery needs a preprocessed CQAPIndex; "
                             "use repro.engine.prepare()")
        self._index = index
        self.cqap = index.cqap
        self.cache = AnswerCache(cache_size)
        self.prepare_seconds = prepare_seconds
        self.prepare_counters = (prepare_counters or Counters()).copy()
        # lifecycle snapshot: probes must leave these untouched
        self.plan_calls_at_prepare = index.planner.plan_calls
        self.preprocess_runs_at_prepare = index.executor.preprocess_runs
        index.register_delta_listener(self)

    # ------------------------------------------------------------------
    # probing: AnswerCache.serve in front of one online phase per call
    # ------------------------------------------------------------------
    def _normalize_binding(self, binding) -> Binding:
        """One probe binding as a tuple matching the access pattern arity."""
        return normalize_access_binding(self.cqap.access, binding)

    def _resolve(self, counters: Optional[Counters],
                 missing: List[Binding], _trace_ctx) -> List[Resolved]:
        """The misses as a single access relation ``Q_A``: one online phase.

        Split scans, view assembly and the Yannakakis passes are paid
        once for the whole batch instead of once per binding (§6.4).
        """
        ctr = Counters()
        batched = self._index.answer(missing, counters=ctr)
        if counters is not None:
            counters += ctr
        split = split_by_binding(batched, tuple(self.cqap.access), missing)
        return [(split, ctr.online_work, None, None)]

    def probe(self, binding, counters: Optional[Counters] = None) -> Relation:
        """Answer one access binding; cached answers cost one dict lookup.

        The relation is shared with the answer cache: read-only.
        """
        keys, results = self.cache.serve(
            [binding], self._normalize_binding,
            partial(self._resolve, counters), "engine.probe")
        return results[keys[0]]

    def probe_boolean(self, binding,
                      counters: Optional[Counters] = None) -> bool:
        """True iff the probe has at least one answer."""
        return len(self.probe(binding, counters=counters)) > 0

    def probe_many(self, bindings: Iterable,
                   counters: Optional[Counters] = None,
                   ) -> Dict[Binding, Relation]:
        """Answer many bindings in one online phase (§6.4).

        Returns a dict keyed by the normalized binding; results, stats
        and observations are identical to per-binding :meth:`probe`
        calls except that the misses of the whole batch share one online
        phase (see :meth:`AnswerCache.serve
        <repro.engine.cache.AnswerCache.serve>` for the contract).
        """
        return self.cache.serve(
            bindings, self._normalize_binding,
            partial(self._resolve, counters), "engine.probe_many")[1]

    # ------------------------------------------------------------------
    # incremental updates (repro.updates delta events)
    # ------------------------------------------------------------------
    def on_index_delta(self, event) -> None:
        """Keep the answer cache coherent after an index delta.

        A drift-triggered re-selection re-runs the planner and the
        executor's preprocess; re-snapshotting the lifecycle counters
        here keeps the :attr:`replanned` invariant meaningful — it still
        flags *probe-triggered* planning, not sanctioned update-path
        replans (those are counted in the ``updates`` stats section).
        """
        self.cache.on_index_delta(event)
        if event.changed and event.reselected:
            self.plan_calls_at_prepare = self._index.planner.plan_calls
            self.preprocess_runs_at_prepare = (
                self._index.executor.preprocess_runs)

    # ------------------------------------------------------------------
    # differential self-check
    # ------------------------------------------------------------------
    def verify_against_oracle(self, bindings: Iterable):
        """Check served answers against the brute-force oracle.

        Probes every binding through :meth:`probe` (cache included — a
        poisoned cache entry is exactly the kind of bug this catches) and
        diffs the answers against ``repro.oracle``'s naive evaluation.
        Returns the :class:`~repro.oracle.diff.EquivalenceReport` on
        agreement and raises
        :class:`~repro.oracle.diff.OracleMismatch` otherwise.
        """
        from repro.oracle import (
            answer_rows,
            assert_equivalent,
            oracle_probe_many,
        )

        keys = [self._normalize_binding(b) for b in bindings]
        expected = oracle_probe_many(self.cqap, self._index.db, keys)
        head = tuple(self.cqap.head)
        actual = {key: answer_rows(self.probe(key), head)
                  for key in dict.fromkeys(keys)}
        return assert_equivalent(
            expected, actual, path="engine_probe",
            context={"query": repr(self.cqap)},
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def index(self) -> CQAPIndex:
        """The underlying preprocessed index (what ``serve()`` shards)."""
        return self._index

    @property
    def stored_tuples(self) -> int:
        """Space held by the prepared S-targets."""
        return self._index.stored_tuples

    @property
    def predicted_log_time(self) -> float:
        """The planner's OBJ(S) — the T of the space-time tradeoff."""
        return self._index.predicted_log_time

    @property
    def selection(self):
        """The rule-selection result frozen at prepare time
        (:class:`~repro.tradeoff.selection.SelectionResult`)."""
        return self._index.selection

    @property
    def replanned(self) -> bool:
        """True if any probe triggered planning work (must stay False)."""
        return (self._index.planner.plan_calls != self.plan_calls_at_prepare
                or self._index.executor.preprocess_runs
                != self.preprocess_runs_at_prepare)

    def describe(self) -> str:
        """Human-readable dump of the frozen plans."""
        return self._index.describe()

    def engine_section(self) -> Dict:
        """The stats envelope's ``engine`` section for this prepared query.

        Counter contract: ``probes_served`` is the number of incoming
        probe bindings (every :meth:`probe` call, plus every binding —
        duplicates included — passed to :meth:`probe_many`);
        ``online_phases`` is how many uncached online executions those
        required; ``batch_calls`` counts :meth:`probe_many` invocations.
        Cache hits and batch dedupe therefore show up as the gap between
        ``probes_served`` and ``online_phases``.
        """
        return {
            "prepare_seconds": self.prepare_seconds,
            "prepare_counters": self.prepare_counters.snapshot(),
            "stored_tuples": self.stored_tuples,
            "predicted_log_time": self.predicted_log_time,
            "selection": self._index.selection.snapshot(),
            # catalog statistics (degree keys, join samples, LP-bound
            # usage) plus estimated-vs-actual S-target sizes, both frozen
            # at prepare time
            "statistics": self._index.stats.statistics,
            "estimate_error": self._index.stats.estimate_error,
            "plan_calls": self._index.planner.plan_calls,
            "preprocess_runs": self._index.executor.preprocess_runs,
            "compile_runs": self._index.executor.compile_runs,
            "probes_served": self.cache.probes_in,
            "batch_calls": self.cache.calls["engine.probe_many"],
            "online_phases": self.cache.phases,
            "replanned": self.replanned,
            "cache": self.cache.snapshot(),
        }

    def updates_section(self) -> Dict:
        """The stats envelope's ``updates`` section for this layer.

        Index-level delta accounting plus this layer's cache-coherence
        counters (events observed, cache keys surgically dropped).
        """
        return {
            **self._index.updates_section(),
            "events_seen": self.cache.deltas,
            "keys_invalidated": self.cache.invalidations,
        }

    def stats(self) -> Dict:
        """Serving statistics in the versioned stats envelope.

        Same shape as every other serving-stack layer
        (:mod:`repro.serving.stats`): the prepared-engine numbers live
        under ``"engine"``; ``scheduler``/``server``/``shards`` are empty
        at this layer.
        """
        from repro.serving.stats import stats_envelope

        return stats_envelope(query=self.cqap.name,
                              engine=self.engine_section(),
                              updates=self.updates_section(),
                              metrics=metrics_section())
