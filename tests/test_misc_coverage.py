"""Assorted coverage tests for smaller public surfaces."""


from tests.conftest import make_store, shared_word_predicate


class TestReportRendering:
    def test_bool_and_string_cells(self):
        from repro.experiments import format_table

        rows = [{"ok": True, "name": "x"}, {"ok": False, "name": "longer"}]
        text = format_table(rows)
        assert "True" in text and "False" in text
        assert "longer" in text

    def test_missing_keys_render_empty(self):
        from repro.experiments import format_table

        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4


class TestSpectralRobustness:
    def test_weighted_component(self):
        from repro.clustering.correlation import ScoreMatrix
        from repro.embedding.spectral import spectral_embedding

        m = ScoreMatrix(6)
        weights = [5.0, 0.1, 3.0, 0.2, 4.0]
        for i, w in enumerate(weights):
            m.set(i, i + 1, w)
        emb = spectral_embedding(m)
        assert sorted(emb.order) == list(range(6))

    def test_mixed_components_and_singletons(self):
        from repro.clustering.correlation import ScoreMatrix
        from repro.embedding.spectral import spectral_embedding

        m = ScoreMatrix(7)
        m.set(0, 1, 1.0)
        m.set(1, 2, 1.0)
        m.set(4, 5, 2.0)
        emb = spectral_embedding(m)
        assert sorted(emb.order) == list(range(7))
        assert len(emb.breaks) >= 3


class TestIncrementalCapBehavior:
    def test_verification_cap_bounds_insert_cost(self):
        from repro.core.incremental import IncrementalTopK
        from repro.predicates.base import FunctionPredicate, PredicateLevel

        calls = {"n": 0}

        def expensive_eval(a, b):
            calls["n"] += 1
            return a["name"] == b["name"]

        level = PredicateLevel(
            FunctionPredicate(
                evaluate_fn=expensive_eval,
                keys_fn=lambda r: ["shared"],
                name="one-block",
            ),
            FunctionPredicate(
                evaluate_fn=lambda a, b: True,
                keys_fn=lambda r: ["all"],
                name="always",
            ),
        )
        engine = IncrementalTopK([level], max_block_verifications=5)
        for i in range(50):
            engine.add({"name": f"n{i}"})
        # Each insert verifies at most 5 same-key records.
        assert calls["n"] <= 50 * 5

    def test_key_implies_match_skips_verification(self):
        from repro.core.incremental import EngineSnapshot, IncrementalTopK
        from repro.predicates.base import PredicateLevel
        from repro.predicates.library import ExactFieldsPredicate
        from tests.conftest import shared_word_predicate

        level = PredicateLevel(
            ExactFieldsPredicate(["name"]), shared_word_predicate()
        )
        engine = IncrementalTopK([level])
        for _ in range(20):
            engine.add({"name": "same"})
        groups = EngineSnapshot.freeze(engine).collapsed_groups()
        assert len(groups) == 1
        assert groups[0].weight == 20.0


class TestRecordStoreIterationContract:
    def test_records_are_reusable_across_predicates(self):
        # The per-record-id caches inside predicates key on record_id;
        # two predicates over the same store must not interfere.
        from repro.predicates.library import CommonWordsPredicate

        store = make_store(["a b c d", "a b c e"])
        p1 = CommonWordsPredicate(("name",), 3)
        p2 = CommonWordsPredicate(("name",), 4)
        assert p1.evaluate(store[0], store[1])
        assert not p2.evaluate(store[0], store[1])


class TestGroupScoreMatrixDefaults:
    def test_default_propagates(self):
        from repro.clustering.correlation import ScoreMatrix

        m = ScoreMatrix(3, default=-2.0)
        assert m.get(0, 1) == -2.0
        assert m.default == -2.0


class TestCliEntryPoint:
    def test_module_help(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "topk" in result.stdout
