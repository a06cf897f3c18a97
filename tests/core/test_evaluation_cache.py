"""Tests for the fitted pipeline's disclosure-set evaluation cache and
the incremental evaluator's per-feature delta cache."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.data import generate_bayesnet_dataset
from repro.selection import solve_greedy
from repro.selection.problem import DisclosureProblem

BUDGETS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)


def _dataset(dims, seed=11):
    return generate_bayesnet_dataset(
        n_samples=800, n_features=dims, domain_size=3, n_sensitive=2,
        seed=seed,
    )


def _fit(kind, dataset):
    return PrivacyAwareClassifier(PipelineConfig(
        classifier=kind,
        paillier_bits=384,
        dgk_bits=192,
        risk_sample_rows=100,
        linear_iterations=80,
    )).fit(dataset)


def _uncached_problem(pipeline, budget):
    """The problem as built without the cache: every evaluation goes to
    the risk function and the cost model."""
    cached = pipeline.build_problem(budget)
    return DisclosureProblem(
        candidates=cached.candidates,
        risk=pipeline._risk_function,
        cost=pipeline.estimated_cost_seconds,
        risk_budget=budget,
        free_features=cached.free_features,
    )


@pytest.fixture(scope="module")
def d32():
    return _dataset(32)


@pytest.fixture(scope="module")
def d64():
    return _dataset(64, seed=12)


class TestSweepMatchesUncached:
    @pytest.mark.parametrize("kind", ["linear", "naive_bayes", "tree"])
    @pytest.mark.parametrize("dims", [32, 64])
    def test_same_sets_costs_and_risks(self, kind, dims, d32, d64):
        pipeline = _fit(kind, d32 if dims == 32 else d64)
        for budget in BUDGETS:
            cached = pipeline.select_disclosure(budget)
            reference = solve_greedy(_uncached_problem(pipeline, budget))
            assert cached.disclosed == reference.disclosed
            assert cached.cost == reference.cost
            assert abs(cached.risk - reference.risk) <= 1e-12
        assert pipeline.optimized_cost() == pipeline.estimated_cost_seconds(
            pipeline.solution.disclosed
        )
        assert pipeline.pure_smc_cost() == pipeline.estimated_cost_seconds(())


class TestEvaluatedOncePerFit:
    @pytest.mark.parametrize("kind", ["linear", "naive_bayes", "tree"])
    def test_each_set_reaches_risk_and_cost_at_most_once(
        self, kind, d32, monkeypatch
    ):
        pipeline = _fit(kind, d32)
        risk_calls, cost_calls = Counter(), Counter()
        risk = pipeline._risk_function
        cost = PrivacyAwareClassifier.estimated_cost_seconds

        def counted_risk(columns):
            risk_calls[frozenset(columns)] += 1
            return risk(columns)

        def counted_cost(self, disclosure_set=()):
            disclosure_set = tuple(disclosure_set)
            cost_calls[frozenset(disclosure_set)] += 1
            return cost(self, disclosure_set)

        monkeypatch.setattr(pipeline, "_risk_function", counted_risk)
        monkeypatch.setattr(
            PrivacyAwareClassifier, "estimated_cost_seconds", counted_cost
        )
        for budget in BUDGETS:
            pipeline.select_disclosure(budget)
            pipeline.speedup()
        assert risk_calls and cost_calls
        assert max(risk_calls.values()) == 1
        assert max(cost_calls.values()) == 1

    def test_refit_on_another_dataset_invalidates(self, d32, d64):
        pipeline = _fit("naive_bayes", d32)
        for budget in BUDGETS:
            pipeline.select_disclosure(budget)
        pipeline.fit(d64)
        fresh = _fit("naive_bayes", d64)
        assert pipeline.pure_smc_cost() == fresh.pure_smc_cost()
        for budget in BUDGETS:
            refitted = pipeline.select_disclosure(budget)
            expected = fresh.select_disclosure(budget)
            assert refitted.disclosed == expected.disclosed
            assert refitted.cost == expected.cost
            assert abs(refitted.risk - expected.risk) <= 1e-12


class TestBound:
    def test_never_grows_past_bound(self, d32, monkeypatch):
        monkeypatch.setattr(pipeline_module, "EVALUATION_CACHE_SIZE", 8)
        pipeline = _fit("linear", d32)
        memos = (pipeline._risk_memo, pipeline._cost_memo)
        for budget in BUDGETS:
            solution = pipeline.select_disclosure(budget)
            reference = solve_greedy(_uncached_problem(pipeline, budget))
            assert solution.disclosed == reference.disclosed
            assert solution.cost == reference.cost
            for memo in memos:
                info = memo.cache_info()
                assert info.maxsize == 8
                assert info.currsize <= 8
        assert all(memo.cache_info().currsize == 8 for memo in memos)

    def test_keys_are_int_bitmasks(self, d32):
        pipeline = _fit("naive_bayes", d32)
        pipeline.select_disclosure(0.1)
        disclosed = pipeline.solution.disclosed
        key = sum(1 << f for f in disclosed)
        assert pipeline_module._bitmask(reversed(disclosed)) == key
        assert pipeline_module._members(key) == sorted(disclosed)
        hits = pipeline._risk_memo.cache_info().hits
        assert pipeline._risk_memo(key) == pipeline.solution.risk
        assert pipeline._risk_memo.cache_info().hits == hits + 1

    def test_clear(self, d32):
        pipeline = _fit("naive_bayes", d32)
        pipeline.select_disclosure(0.1)
        assert pipeline._risk_memo.cache_info().currsize
        assert pipeline._cost_memo.cache_info().currsize
        pipeline.clear_evaluation_cache()
        assert pipeline._risk_memo.cache_info().currsize == 0
        assert pipeline._cost_memo.cache_info().currsize == 0

    def test_dropped_pipeline_is_freed_without_the_cycle_collector(self, d32):
        pipeline = _fit("naive_bayes", d32)
        pipeline.select_disclosure(0.1)
        alive = weakref.ref(pipeline)
        gc.disable()
        try:
            del pipeline
            assert alive() is None
        finally:
            gc.enable()


class TestDeltaCache:
    @pytest.fixture
    def evaluator(self, d32):
        return _fit("naive_bayes", d32).risk_evaluator

    def test_deltas_are_read_only(self, evaluator):
        feature = next(
            f for f in range(evaluator.rows.shape[1])
            if f not in evaluator.sensitive_columns
        )
        evaluator.push(feature)
        sensitive = evaluator.sensitive_columns[0]
        delta = evaluator._delta(sensitive, feature)
        assert not delta.flags.writeable
        with pytest.raises(ValueError):
            delta[0, 0] = 1.0
        assert evaluator._delta(sensitive, feature) is delta
        np.testing.assert_array_equal(
            delta, evaluator._computed_delta(sensitive, feature)
        )

    def test_push_pop_peek_match_uncached(self, evaluator):
        d = evaluator.rows.shape[1]
        rng = np.random.default_rng(5)
        # Sensitive columns included: their point-mass delta is cached too.
        order = [int(f) for f in rng.permutation(d)[:12]]
        order += list(evaluator.sensitive_columns[:1])
        order = list(dict.fromkeys(order))
        for _ in range(2):  # the second round reads only cached deltas
            for feature in order:
                peeked = evaluator.peek_risk(feature)
                evaluator.push(feature)
                exact = evaluator.risk_of_set(evaluator.disclosed)
                assert abs(peeked - exact) <= 1e-12
                assert abs(evaluator.risk() - exact) <= 1e-12
            while evaluator.disclosed:
                evaluator.pop()
                exact = evaluator.risk_of_set(evaluator.disclosed)
                assert abs(evaluator.risk() - exact) <= 1e-12
        assert len(evaluator._deltas) == len(order) * len(
            evaluator.sensitive_columns
        )

    def test_risk_of_set_stays_uncached(self, evaluator):
        evaluator.risk_of_set(range(6))
        assert not evaluator._deltas
