"""Shared fixtures for the experiment benchmarks.

Everything heavy (datasets, trained pipelines) is session-scoped; bench
bodies then measure only the operation the experiment is about.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.data import (
    generate_adult_like,
    generate_cancer_like,
    generate_warfarin,
    train_test_split,
)

BENCH_PAILLIER_BITS = 384
BENCH_DGK_BITS = 192
#: Rounds of a cold-cache kernel (each round pays its own evaluations).
COLD_ROUNDS = 5


def bench_config(kind: str, **overrides) -> PipelineConfig:
    """Pipeline configuration used across benches (small live keys; the
    cost model extrapolates to production keys)."""
    defaults = dict(
        classifier=kind,
        paillier_bits=BENCH_PAILLIER_BITS,
        dgk_bits=BENCH_DGK_BITS,
        dgk_plaintext_bits=16,
        risk_sample_rows=200,
        linear_iterations=150,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def bench_cold(benchmark, pipeline, kernel):
    """Benchmark ``kernel()`` with ``pipeline``'s disclosure-set
    evaluation cache emptied before every round, so each round pays for
    its own risk and cost evaluations instead of timing cache hits."""
    return benchmark.pedantic(
        kernel, setup=pipeline.clear_evaluation_cache, rounds=COLD_ROUNDS
    )


@pytest.fixture(scope="session")
def warfarin_data():
    return generate_warfarin(n_samples=4000, seed=0)


@pytest.fixture(scope="session")
def adult_data():
    return generate_adult_like(n_samples=8000, seed=1)


@pytest.fixture(scope="session")
def cancer_data():
    return generate_cancer_like(n_samples=600, seed=2)


@pytest.fixture(scope="session")
def all_datasets(warfarin_data, adult_data, cancer_data):
    return [warfarin_data, adult_data, cancer_data]


@pytest.fixture(scope="session")
def warfarin_train_test(warfarin_data):
    return train_test_split(warfarin_data, seed=0)


@pytest.fixture(scope="session")
def fitted_pipelines(warfarin_train_test):
    """One fitted pipeline per classifier family on the warfarin cohort."""
    train, _ = warfarin_train_test
    pipelines = {}
    for kind in ("linear", "naive_bayes", "tree"):
        pipelines[kind] = PrivacyAwareClassifier(bench_config(kind)).fit(train)
    return pipelines
