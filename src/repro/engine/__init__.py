"""Serving engine: prepare a CQAP instance once, probe it many times.

The north-star serving surface of the repo::

    from repro import catalog, path_database
    from repro.engine import prepare

    cqap = catalog.k_path_cqap(3)
    db = path_database(k=3, n_edges=2000, domain=200, seed=7)
    pq = prepare(cqap, db, space_budget=int(db.size ** 1.2))

    pq.probe_boolean((4, 17))                 # one probe
    pq.probe_many([(4, 17), (8, 2), (4, 17)]) # batched, deduplicated
    pq.stats()                                # cache + lifecycle counters,
                                              # incl. the "selection" block
                                              # (chosen rules, est. space/time)

The ``space_budget`` threads all the way down: it bounds the S-targets the
2PP planner materializes *and* drives the budgeted rule selection
(``repro.tradeoff.selection``) that decides which rules get planned when
the PMTD set is large.
"""

from repro.engine.cache import AnswerCache
from repro.engine.prepared import PreparedQuery, prepare

__all__ = [
    "AnswerCache",
    "PreparedQuery",
    "prepare",
]
