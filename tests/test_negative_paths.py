"""Negative paths: malformed CQAP inputs fail fast with documented errors.

Construction-time validation in ``query/`` and ``engine/`` must reject bad
inputs at the API boundary — not let them wander into planning and die in
an LP or a hash join with an inscrutable traceback.
"""

import pytest

from repro.core.index import CQAPIndex
from repro.data import Database, Relation
from repro.data.relation import SchemaError
from repro.engine import PreparedQuery, prepare
from repro.query import Atom, CQAP, ConjunctiveQuery
from repro.serving import serve


def tiny_db():
    return Database([
        Relation("R1", ("a", "b"), [(1, 2)]),
        Relation("R2", ("a", "b"), [(2, 3)]),
    ])


def tiny_cqap():
    return CQAP(("x1", "x3"), ("x1",),
                [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3"))])


class TestQueryConstruction:
    def test_access_variable_outside_head_rejected(self):
        with pytest.raises(ValueError, match="must be contained in head"):
            CQAP(("x1",), ("x9",), [Atom("R1", ("x1", "x2"))])

    def test_head_variable_outside_body_rejected(self):
        with pytest.raises(ValueError, match="not in any atom"):
            ConjunctiveQuery(("zz",), [Atom("R1", ("x1", "x2"))])

    def test_repeated_atom_variables_rejected(self):
        with pytest.raises(ValueError, match="repeated variables"):
            Atom("R1", ("x1", "x1"))

    def test_query_without_atoms_rejected(self):
        with pytest.raises(ValueError, match="at least one atom"):
            ConjunctiveQuery(("x1",), [])

    def test_duplicate_schema_vars_rejected(self):
        with pytest.raises(SchemaError, match="duplicate variables"):
            Relation("R", ("a", "a"), [])

    def test_atom_arity_mismatch_fails_at_evaluation_boundary(self):
        db = Database([Relation("R1", ("a", "b", "c"), [(1, 2, 3)])])
        cq = ConjunctiveQuery(("x1",), [Atom("R1", ("x1", "x2"))])
        with pytest.raises(ValueError, match="does not match stored"):
            cq.evaluate(db)


class TestPlanningBoundary:
    def test_missing_relation_fails_at_index_construction(self):
        db = Database([Relation("R1", ("a", "b"), [(1, 2)])])  # no R2
        with pytest.raises(KeyError, match="R2"):
            CQAPIndex(tiny_cqap(), db, space_budget=100)

    def test_empty_relation_is_valid_and_answers_empty(self):
        db = Database([
            Relation("R1", ("a", "b"), []),
            Relation("R2", ("a", "b"), [(2, 3)]),
        ])
        pq = prepare(tiny_cqap(), db, space_budget=100)
        assert len(pq.probe((1,))) == 0
        assert {key: len(rel) for key, rel in
                pq.probe_many([(1,), (2,)]).items()} == {(1,): 0, (2,): 0}

    def test_incompatible_request_schema_rejected(self):
        cqap = tiny_cqap()
        request = Relation("Q_A", ("u", "v"), [(1, 2)])
        with pytest.raises(ValueError, match="incompatible"):
            cqap.answer_from_scratch(tiny_db(), request)


class TestEngineBoundary:
    def test_unpreprocessed_index_rejected_by_prepared_query(self):
        index = CQAPIndex(tiny_cqap(), tiny_db(), space_budget=100)
        with pytest.raises(ValueError, match="preprocessed"):
            PreparedQuery(index)

    def test_answer_before_preprocess_rejected(self):
        index = CQAPIndex(tiny_cqap(), tiny_db(), space_budget=100)
        with pytest.raises(RuntimeError, match="preprocess"):
            index.answer((1,))

    def test_probe_arity_mismatch_rejected(self):
        pq = prepare(tiny_cqap(), tiny_db(), space_budget=100)
        with pytest.raises(ValueError, match="arity"):
            pq.probe((1, 2))
        with pytest.raises(ValueError, match="arity"):
            pq.probe_many([(1,), (1, 2)])

    def test_index_request_schema_mismatch_rejected(self):
        index = CQAPIndex(tiny_cqap(), tiny_db(), space_budget=100)
        index.preprocess()
        bad = Relation("Q_A", ("u", "v"), [(1, 2)])
        with pytest.raises(ValueError, match="incompatible"):
            index.answer(bad)

    @pytest.mark.parametrize("bad", ["greenlet", ["thread"], None])
    def test_serve_rejects_any_bad_backend_with_value_error(self, bad):
        # unhashable values used to escape as a bare "unhashable type"
        # TypeError from the registry lookup
        pq = prepare(tiny_cqap(), tiny_db(), space_budget=100)
        with pytest.raises(ValueError, match="backend must be one of"):
            serve(pq, backend=bad)

    @pytest.mark.parametrize("preprocessed", [True, False])
    def test_delta_arity_mismatch_raises_for_insert_and_delete(
            self, preprocessed):
        """A mis-sized row is never present: a delete must still raise,
        not pass for a no-op."""
        index = CQAPIndex(tiny_cqap(), tiny_db(), 10 ** 6)
        if preprocessed:
            index.preprocess()
        for op in ("insert", "delete"):
            for row in ((1, 2, 3), (1,)):
                with pytest.raises(SchemaError, match="arity"):
                    index.apply_delta(op, "R1", row)
        assert index.update_counts == {"inserts": 0, "deletes": 0,
                                       "deltas_applied": 0,
                                       "reselections": 0}

    def test_duplicate_relation_name_rejected(self):
        db = tiny_db()
        with pytest.raises(KeyError, match="duplicate"):
            db.add(Relation("R1", ("a", "b"), []))
