"""The upgraded cost model: multi-variable degrees, join samples, KeyError.

Pins the estimation-stack upgrade down at the statistics layer:

* unknown variables now *raise* from ``distinct_count`` / ``degree_of``
  instead of silently answering 1 / the full cardinality (which used to
  under-cap ``log_size`` for malformed targets);
* multi-variable degree keys tighten ``log_size`` when a probe pins
  several of an atom's variables at once;
* reservoir-sampled join sizes cap skewed projections below what the
  max-degree greedy cover can see;
* the measured catalog converts losslessly into planner degree
  constraints (``constraints_from_statistics``).
"""

import dataclasses
import math

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.catalog import k_path_cqap
from repro.query.constraints import constraints_from_statistics
from repro.query.cq import Atom, CQAP
from repro.query.hypergraph import varset
from repro.tradeoff.cost import AtomStatistics, CatalogStatistics, CostModel


def two_atom_cqap():
    """R(a, b, c) ⋈ S(c, d) with access pattern (a, b)."""
    atoms = [Atom("R", ("a", "b", "c")), Atom("S", ("c", "d"))]
    return CQAP(("a", "b", "c", "d"), ("a", "b"), atoms, name="two_atom")


def single_variable(stats):
    """``stats`` without either refinement: no variable-set degrees and no
    join samples, which prices every target as the single-variable model
    the refinements upgrade."""
    atoms = [dataclasses.replace(atom, set_degrees=())
             for atom in stats.atoms]
    return dataclasses.replace(stats, atoms=atoms, join_samples=[])


def multivar_database():
    """R where deg(a)=deg(b)=4 but deg({a,b})=1 (a,b jointly determine c)."""
    r_rows = [(i, j, 10 * i + j) for i in range(4) for j in range(4)]
    s_rows = [(10 * i + j, 0) for i in range(4) for j in range(4)]
    return Database([
        Relation("R", ("a", "b", "c"), r_rows),
        Relation("S", ("c", "d"), s_rows),
    ])


class TestUnknownVariablePaths:
    def setup_method(self):
        self.cqap = two_atom_cqap()
        self.stats = CatalogStatistics.from_database(
            self.cqap, multivar_database())

    def test_distinct_count_known_variable(self):
        assert self.stats.distinct_count("a") == 4

    def test_distinct_count_unknown_variable_raises(self):
        with pytest.raises(KeyError, match="no atom mentions"):
            self.stats.distinct_count("zz")

    def test_degree_of_known_variable(self):
        atom = self.stats.atoms[0]
        assert atom.degree_of("a") == 4

    def test_degree_of_unknown_variable_raises(self):
        atom = self.stats.atoms[0]
        with pytest.raises(KeyError, match="no measured degree"):
            atom.degree_of("d")  # S's variable, not R's

    def test_log_size_with_malformed_target_raises(self):
        model = CostModel(self.cqap, self.stats)
        with pytest.raises(KeyError):
            model.log_size(varset(("a", "zz")))


class TestMultiVariableDegrees:
    def setup_method(self):
        self.cqap = two_atom_cqap()
        self.db = multivar_database()
        self.stats = CatalogStatistics.from_database(self.cqap, self.db)

    def test_set_degree_measured_for_access_prefix(self):
        atom = self.stats.atoms[0]
        keys = {key for key, _ in atom.set_degrees}
        # all 2-subsets of (a, b, c); the access prefix {a, b} is one
        assert frozenset(("a", "b")) in keys

    def test_degree_for_uses_the_tightest_matching_key(self):
        atom = self.stats.atoms[0]
        assert atom.degree_for(("a",)) == 4
        # pinning a and b together determines c: joint degree 1 beats
        # either single-variable degree
        assert atom.degree_for(("a", "b")) == 1
        assert min(atom.degree_of(v) for v in ("a", "b")) == 4

    def test_bound_probe_estimate_tightens(self):
        upgraded = CostModel(self.cqap, self.stats)
        baseline = CostModel(self.cqap, single_variable(self.stats))
        target = varset(("a", "b", "c"))
        bound = ("a", "b")
        assert upgraded.log_size(target, bound=bound) < \
            baseline.log_size(target, bound=bound) - 1.0


class TestJoinSamples:
    def make_skewed(self):
        """R(a,b) ⋈ S(b,c): a 50-wide hub in R, but S is one-to-one.

        The greedy cover must price R at its *max* b-degree (50) once b is
        pinned, yet every R-row matches exactly one S-row, so the true
        join is |R| — a 25x gap only the sampled estimate can see.
        """
        r_rows = [(i, 0) for i in range(50)] + \
                 [(50 + b, b) for b in range(1, 51)]
        s_rows = [(b, b) for b in range(51)]
        atoms = [Atom("R", ("a", "b")), Atom("S", ("b", "c"))]
        cqap = CQAP(("a", "b", "c"), (), atoms, name="skewed")
        db = Database([
            Relation("R", ("a", "b"), r_rows),
            Relation("S", ("b", "c"), s_rows),
        ])
        return cqap, db

    def test_samples_are_measured_and_deterministic(self):
        cqap, db = self.make_skewed()
        first = CatalogStatistics.from_database(cqap, db, seed=7)
        again = CatalogStatistics.from_database(cqap, db, seed=7)
        assert first.join_samples and \
            first.join_samples[0].estimated_size == \
            again.join_samples[0].estimated_size
        sample = first.join_samples[0]
        assert sample.shared == ("b",)
        assert sample.variables == varset(("a", "b", "c"))

    def test_join_sample_caps_skewed_projection(self):
        cqap, db = self.make_skewed()
        stats = CatalogStatistics.from_database(cqap, db)
        upgraded = CostModel(cqap, stats)
        baseline = CostModel(cqap, single_variable(stats))
        target = varset(("a", "b", "c"))
        # greedy cover prices S at its max degree (the 50-wide hub); the
        # sampled join averages over the data and lands far lower
        assert upgraded.log_size(target) < baseline.log_size(target) - 0.5
        # and the sampled cap still upper-bounds the true join size
        true_join = sum(
            1 for a, b in db["R"].tuples for b2, c in db["S"].tuples
            if b == b2
        )
        assert 2 ** upgraded.log_size(target) >= true_join * 0.2

    def test_sample_size_zero_disables_sampling(self):
        cqap, db = self.make_skewed()
        stats = CatalogStatistics.from_database(cqap, db, sample_size=0)
        assert stats.join_samples == []


class TestStatisticsSnapshot:
    def test_snapshot_keys_and_counts(self):
        cqap = k_path_cqap(3)
        from repro.data import path_database

        db = path_database(3, 100, 30, seed=1)
        stats = CatalogStatistics.from_database(cqap, db)
        snap = stats.snapshot()
        assert snap["atoms"] == 3
        assert snap["single_degree_keys"] == 6
        # binary atoms have no proper 2-subsets: no multi-variable keys
        assert snap["multi_degree_keys"] == 0
        assert snap["join_samples"] == 2  # (R1,R2) and (R2,R3) share vars
        assert snap["join_sample_size"] > 0

    def test_ternary_atoms_grow_multi_keys(self):
        cqap = two_atom_cqap()
        stats = CatalogStatistics.from_database(cqap, multivar_database())
        assert stats.snapshot()["multi_degree_keys"] == 3  # ab, ac, bc


class TestConstraintsFromStatistics:
    def test_catalog_converts_to_degree_constraints(self):
        cqap = two_atom_cqap()
        stats = CatalogStatistics.from_database(cqap, multivar_database())
        dc = constraints_from_statistics(stats)
        # cardinality constraint per atom
        assert dc.bound((), ("a", "b", "c")) == 16
        # single-variable measured degree
        assert dc.bound(("a",), ("a", "b", "c")) == 4
        # multi-variable key: (a, b) determines the R-tuple
        assert dc.bound(("a", "b"), ("a", "b", "c")) == 1

    def test_constraints_are_guarded_by_the_instance(self):
        cqap = two_atom_cqap()
        db = multivar_database()
        stats = CatalogStatistics.from_database(cqap, db)
        dc = constraints_from_statistics(stats)
        assert dc.guarded_by([db["R"], db["S"]])


class TestWorstCaseStaysCardinalityOnly:
    def test_worst_case_ignores_degree_and_sample_refinements(self):
        cqap = two_atom_cqap()
        stats = CatalogStatistics.from_database(cqap, multivar_database())
        model = CostModel(cqap, stats)
        target = varset(("a", "b", "c", "d"))
        # worst case: |R| * |S| on the cover, no caps
        assert model.log_size_worst(target) == \
            pytest.approx(math.log2(16) + math.log2(16))
        assert model.log_size(target) <= model.log_size_worst(target)
