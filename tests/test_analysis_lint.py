"""Tests for the project-invariant linter (repro.analysis.lint)."""

import json
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, lint_source, render_json, render_text
from repro.analysis.lint import all_rules
from repro.serving.batching import BatchScheduler
from repro.util.counters import Counters

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
RULE_CODES = ("REP001", "REP002", "REP003", "REP004", "REP005")


def _codes(findings):
    return {f.rule for f in findings}


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert [r.code for r in all_rules()] == list(RULE_CODES)

    def test_rules_carry_descriptions(self):
        for rule in all_rules():
            assert rule.name
            assert rule.description


class TestFixtures:
    """Each rule flags its bad fixture and passes the clean twin."""

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_bad_fixture_is_flagged(self, code):
        findings = lint_paths([FIXTURES / f"{code.lower()}_bad.py"])
        assert code in _codes(findings), (
            f"{code} did not flag its bad fixture: {findings}"
        )

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_bad_fixture_triggers_only_its_rule(self, code):
        findings = lint_paths([FIXTURES / f"{code.lower()}_bad.py"])
        assert _codes(findings) == {code}

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_clean_twin_passes(self, code):
        findings = lint_paths([FIXTURES / f"{code.lower()}_clean.py"])
        assert findings == []

    def test_rep004_flags_both_shapes(self):
        # the envelope-call kwarg and the dict-literal key both drift
        findings = lint_paths([FIXTURES / "rep004_bad.py"])
        messages = " ".join(f.message for f in findings)
        assert "latency_p99" in messages
        assert "queue_depth" in messages


class TestSuppression:
    def test_noqa_fixture_is_clean(self):
        assert lint_paths([FIXTURES / "noqa_suppressed.py"]) == []

    def test_targeted_noqa_suppresses_only_listed_rule(self):
        source = "def f(x):\n    assert x  # repro: noqa[REP001]\n"
        findings = lint_source(source)
        assert _codes(findings) == {"REP005"}

    def test_blanket_noqa_suppresses_everything(self):
        source = "def f(x):\n    assert x  # repro: noqa\n"
        assert lint_source(source) == []


class TestLiveTree:
    def test_src_tree_is_lint_clean(self):
        """The shipped package must pass its own linter (all rules)."""
        src = Path(repro.__file__).resolve().parent
        findings = lint_paths([src])
        assert findings == [], render_text(findings)


class TestOutput:
    def test_render_text_names_location_and_rule(self):
        findings = lint_paths([FIXTURES / "rep005_bad.py"])
        text = render_text(findings)
        assert "rep005_bad.py" in text
        assert "REP005" in text
        assert "finding(s)" in text

    def test_render_json_round_trips(self):
        findings = lint_paths([FIXTURES / "rep005_bad.py"])
        payload = json.loads(render_json(findings))
        assert payload["count"] == len(findings) > 0
        assert payload["findings"][0]["rule"] == "REP005"
        assert payload["findings"][0]["line"] > 0

    def test_render_text_on_clean_run(self):
        assert render_text([]) == "no findings"


class TestCli:
    def test_cli_exit_codes(self):
        from repro.analysis.__main__ import main

        assert main([str(FIXTURES / "rep005_bad.py")]) == 1
        assert main([str(FIXTURES / "rep005_clean.py")]) == 0

    def test_cli_select_unknown_rule(self):
        from repro.analysis.__main__ import main

        assert main(["--select", "REP999",
                     str(FIXTURES / "rep005_clean.py")]) == 2

    def test_cli_select_restricts_rules(self):
        from repro.analysis.__main__ import main

        # REP001 alone does not flag a bare assert
        assert main(["--select", "REP001",
                     str(FIXTURES / "rep005_bad.py")]) == 0


class _StubIndex:
    """The delta feed the scheduler subscribes to (and leaves on close)."""

    def register_delta_listener(self, listener):
        pass

    def unregister_delta_listener(self, listener):
        pass


class _StubBackend:
    """Minimal shard-backend contract for scheduler unit tests."""

    n_shards = 1
    index = _StubIndex()

    def normalize(self, binding):
        return binding

    def shard_of(self, key):
        return 0

    def answer_group(self, shard_id, group):
        return {key: None for key in group}, Counters()


class _Event:
    changed = True
    affected_keys = frozenset()


class TestBatchSchedulerStatsLock:
    """Regression for the REP001 audit: delta-feed counters are locked.

    ``on_index_delta`` fires on whatever thread applies the index delta,
    concurrently with the serving loop; a bare ``+=`` there was a
    read-modify-write race that lost updates.  The count now lives on the
    scheduler's ``AnswerCache`` (its ``deltas`` counter), under the one
    lock that also guards the entries.
    """

    def test_concurrent_deltas_count_exactly(self):
        scheduler = BatchScheduler(_StubBackend(), cache_size=4)
        threads, per_thread = 8, 400

        def storm():
            event = _Event()
            for _ in range(per_thread):
                scheduler.on_index_delta(event)

        workers = [threading.Thread(target=storm) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert scheduler.cache.deltas == threads * per_thread
        scheduler.close()

    def test_unchanged_events_do_not_count(self):
        scheduler = BatchScheduler(_StubBackend(), cache_size=4)

        class _Noop:
            changed = False
            affected_keys = frozenset()

        scheduler.on_index_delta(_Noop())
        assert scheduler.cache.deltas == 0
        scheduler.close()
