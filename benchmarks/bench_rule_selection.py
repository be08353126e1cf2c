"""Budgeted rule selection: planning scalability + the budget knob's effect.

Three experiments around ``repro.tradeoff.selection``:

* **planning scalability** — rule-generation time vs PMTD count on growing
  prefixes of the 21-PMTD fuzz path4 query (the ROADMAP hang).  The old
  eager cartesian product is timed wherever its product size is tractable
  and skipped (``None``) beyond that; the streamed frontier sweep runs the
  whole range and must stay under the 2-second regression bound uncapped;
* **probe latency vs budget** — the full engine (``prepare`` + probes) on
  3-reachability at tight/linear/rich space budgets with
  ``rule_selection="budget"``: more budget must never store fewer tuples,
  and the rich point must do less online work per probe than the tight
  point (probes/s is printed, the assertion is on the exact ``Counters``);
* **estimator accuracy** — estimated vs actually-stored S-target sizes
  across several queries at a rich budget, priced twice: by the old
  single-variable-degree baseline and by the upgraded model
  (multi-variable degree keys + sampled join sizes).  The upgraded median
  relative error must be no worse than the baseline's.

The repo benchmark that tracks end-to-end numbers across PRs is
``python bench/run.py`` (``bench/README.md``); this file regenerates and
shape-checks the three experiments above.
"""

import math
import random
import sys
import time
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import print_table

from repro.core import CQAPIndex
from repro.data import path_database, square_database, triangle_database
from repro.decomposition.enumeration import enumerate_pmtds
from repro.engine import prepare
from repro.query.catalog import k_path_cqap, square_cqap, triangle_cqap
from repro.query.hypergraph import varset
from repro.tradeoff.cost import CatalogStatistics, CostModel
from repro.tradeoff.rules import _rules_from_pmtds_eager, rules_from_pmtds
from repro.util.counters import Counters
from repro.workloads.queries import random_cqap

#: the fuzz seed whose path4 query enumerates 21 PMTDs (ROADMAP hang)
HANG_SEED = 75
#: eager generation is skipped once the raw product exceeds this
EAGER_PRODUCT_CAP = 300_000
PMTD_COUNTS = (2, 4, 6, 8, 10, 14, 21)

BUDGET_POINTS = ("tight", "linear", "rich")
N_EDGES = 1500
DOMAIN = 150
N_PROBES = 300


@lru_cache(maxsize=1)
def hang_pmtds():
    cqap = random_cqap(random.Random(HANG_SEED), shape="path",
                      name=f"fuzz_path_{HANG_SEED}")
    return cqap, enumerate_pmtds(cqap, max_bags=3)


@lru_cache(maxsize=1)
def planning_experiment():
    """Streamed vs eager rule-generation time on PMTD prefixes."""
    _, pmtds = hang_pmtds()
    rows = []
    for count in PMTD_COUNTS:
        subset = pmtds[:count]
        product = math.prod(len(p.views) for p in subset)
        start = time.perf_counter()
        streamed = rules_from_pmtds(subset)
        streamed_seconds = time.perf_counter() - start
        eager_seconds = None
        eager_rules = None
        if product <= EAGER_PRODUCT_CAP:
            start = time.perf_counter()
            eager_rules = _rules_from_pmtds_eager(subset)
            eager_seconds = time.perf_counter() - start
        rows.append({
            "pmtds": count,
            "raw_product": product,
            "rules": len(streamed),
            "streamed_seconds": streamed_seconds,
            "eager_seconds": eager_seconds,
            "eager_matches": (
                None if eager_rules is None else
                {(r.s_targets, r.t_targets) for r in streamed}
                == {(r.s_targets, r.t_targets) for r in eager_rules}
            ),
        })
    return rows


@lru_cache(maxsize=1)
def budget_experiment():
    """Probe latency and stored space across the budget sweep."""
    cqap = k_path_cqap(3)
    db = path_database(3, N_EDGES, DOMAIN, seed=13, skew_hubs=3)
    budgets = {
        "tight": 2,
        "linear": db.size,
        # above the worst-case S14 bound (D^2), so the planner actually
        # cashes in the S-routes the selection picked
        "rich": db.size ** 2 + 1,
    }
    rng = random.Random(99)
    probes = [(rng.randrange(DOMAIN), rng.randrange(DOMAIN))
              for _ in range(N_PROBES)]
    rows = []
    for point in BUDGET_POINTS:
        budget = budgets[point]
        pq = prepare(cqap, db, space_budget=budget, cache_size=0,
                     rule_selection="budget")
        ctr = Counters()
        start = time.perf_counter()
        for probe in probes:
            pq.probe_boolean(probe, counters=ctr)
        seconds = time.perf_counter() - start
        snap = pq.stats()["engine"]["selection"]
        rows.append({
            "budget_point": point,
            "space_budget": budget,
            "stored_tuples": pq.stored_tuples,
            "prepare_seconds": pq.prepare_seconds,
            "probes_per_sec": N_PROBES / max(seconds, 1e-9),
            "ops_per_probe": ctr.online_work / N_PROBES,
            "selected_pmtds": snap["selected_pmtds"],
            "selected_rules": snap["selected_rules"],
            "estimated_space": snap["estimated_space"],
            "estimated_time": snap["estimated_time"],
        })
    return rows


def _accuracy_workloads():
    """(name, cqap, db, rich budget) rows the accuracy experiment prices."""
    return [
        ("path3", k_path_cqap(3),
         path_database(3, N_EDGES, DOMAIN, seed=13, skew_hubs=3)),
        ("square", square_cqap(),
         square_database(800, 90, seed=5, skew_hubs=3)),
        ("triangle", triangle_cqap(),
         triangle_database(800, 90, seed=7)),
    ]


@lru_cache(maxsize=1)
def estimator_experiment():
    """Estimated vs actual stored tuples, single-variable baseline vs new.

    Every materialized S-target at a rich budget is priced twice from the
    *same* measured catalog: once with the multi-variable degree keys and
    sampled join sizes disabled (the pre-upgrade estimator) and once with
    the full model.  The actuals come from what preprocessing stored.
    """
    rows = []
    for name, cqap, db in _accuracy_workloads():
        stats = CatalogStatistics.from_database(cqap, db)
        baseline = CostModel(cqap, stats, use_multivar_degrees=False,
                             use_join_samples=False)
        upgraded = CostModel(cqap, stats)
        index = CQAPIndex(cqap, db, db.size ** 2 + 1,
                          rule_selection="budget",
                          statistics=stats).preprocess()
        for key, actual in sorted(index.stats.s_view_tuples.items()):
            target = varset(key.split("|"))
            est_baseline = baseline.s_space(target)
            est_upgraded = upgraded.s_space(target)
            rows.append({
                "query": name,
                "target": key,
                "actual": actual,
                "estimated_baseline": est_baseline,
                "estimated_upgraded": est_upgraded,
                "rel_error_baseline":
                    abs(est_baseline - actual) / max(1, actual),
                "rel_error_upgraded":
                    abs(est_upgraded - actual) / max(1, actual),
            })

    def median(values):
        values = sorted(values)
        return values[len(values) // 2] if values else None

    return {
        "targets": rows,
        "median_rel_error_baseline":
            median([r["rel_error_baseline"] for r in rows]),
        "median_rel_error_upgraded":
            median([r["rel_error_upgraded"] for r in rows]),
    }


def experiment():
    """All three experiments' rows, as :func:`report` prints them."""
    return {
        "planning": planning_experiment(),
        "budget_sweep": budget_experiment(),
        "estimator_accuracy": estimator_experiment(),
    }


def report():
    results = experiment()
    print_table(
        "rule generation: streamed frontier sweep vs eager product "
        f"(fuzz path4 seed {HANG_SEED})",
        ["pmtds", "raw product", "rules", "streamed s", "eager s"],
        [[r["pmtds"], r["raw_product"], r["rules"],
          f"{r['streamed_seconds']:.4f}",
          "skipped" if r["eager_seconds"] is None
          else f"{r['eager_seconds']:.4f}"]
         for r in results["planning"]],
    )
    print_table(
        "engine probe latency vs space budget (path3, budget selection)",
        ["budget", "tuples", "stored", "rules", "ops/probe", "probes/s",
         "prepare s"],
        [[r["budget_point"], r["space_budget"], r["stored_tuples"],
          r["selected_rules"], f"{r['ops_per_probe']:.1f}",
          f"{r['probes_per_sec']:.0f}", f"{r['prepare_seconds']:.3f}"]
         for r in results["budget_sweep"]],
    )
    accuracy = results["estimator_accuracy"]
    print_table(
        "estimator accuracy: estimated vs stored S-target tuples "
        "(baseline = single-variable degrees only)",
        ["query", "target", "actual", "est base", "est new",
         "err base", "err new"],
        [[r["query"], r["target"], r["actual"],
          f"{r['estimated_baseline']:.0f}", f"{r['estimated_upgraded']:.0f}",
          f"{r['rel_error_baseline']:.2f}", f"{r['rel_error_upgraded']:.2f}"]
         for r in accuracy["targets"]]
        + [["median", "", "", "", "",
            f"{accuracy['median_rel_error_baseline']:.2f}",
            f"{accuracy['median_rel_error_upgraded']:.2f}"]],
    )
    return results


# ----------------------------------------------------------------------
# shape assertions (collected by the benchmark smoke job)
# ----------------------------------------------------------------------
def test_streamed_planning_stays_interactive_uncapped():
    rows = planning_experiment()
    full = rows[-1]
    assert full["pmtds"] == 21
    assert full["streamed_seconds"] < 2.0, full
    # the hang: eager is not even attempted at this size
    assert full["eager_seconds"] is None


def test_streamed_matches_eager_wherever_eager_is_feasible():
    for row in planning_experiment():
        if row["eager_matches"] is not None:
            assert row["eager_matches"], row


def test_uncapped_rules_recover_truncated_tradeoffs():
    rows = planning_experiment()
    by_count = {r["pmtds"]: r["rules"] for r in rows}
    assert by_count[21] > by_count[10]


def test_estimator_accuracy_no_worse_than_baseline():
    accuracy = estimator_experiment()
    assert accuracy["targets"], "no S-targets materialized to score"
    # the acceptance bar: multi-variable degrees + sampled join sizes must
    # not regress the median relative error of the single-variable model
    assert accuracy["median_rel_error_upgraded"] <= \
        accuracy["median_rel_error_baseline"] + 1e-9, accuracy


def test_budget_grows_space_not_latency():
    rows = {r["budget_point"]: r for r in budget_experiment()}
    # the tradeoff: the rich point buys S-view space...
    assert rows["rich"]["stored_tuples"] > rows["tight"]["stored_tuples"]
    # ...and spends it on online work, in the estimate and in the exact
    # per-probe Counters (probes/s is printed, never asserted)
    assert rows["rich"]["estimated_time"] <= \
        rows["tight"]["estimated_time"] + 1e-9
    assert rows["rich"]["ops_per_probe"] < rows["tight"]["ops_per_probe"]


if __name__ == "__main__":
    report()
