"""E10 -- Ablation: choice of privacy-risk metric.

How does the selected disclosure set change under the three risk
metrics (expected max-posterior, normalised entropy loss, adversary
inference accuracy)? The ablation shows the optimizer is robust:
low-risk demographics get disclosed under every metric, while the
metrics disagree mainly about the marginal mid-risk features.

The benchmarked kernel is a disclosure optimization under the entropy
metric, timed from a cold evaluation cache.
"""

import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier, RiskMetric
from repro.bench import Table

from conftest import bench_cold, bench_config

BUDGET = 0.1


def test_e10_risk_metric_ablation(warfarin_train_test, benchmark):
    train, _ = warfarin_train_test

    table = Table(
        "E10: disclosure sets per risk metric (budget 0.1, naive Bayes)",
        ["metric", "risk", "|S|", "speedup", "disclosed"],
    )
    selections = {}
    pipelines = {}
    for metric in RiskMetric:
        pipeline = PrivacyAwareClassifier(
            bench_config("naive_bayes", risk_metric=metric)
        ).fit(train)
        solution = pipeline.select_disclosure(BUDGET)
        selections[metric] = set(solution.disclosed)
        pipelines[metric] = pipeline
        names = ",".join(
            train.features[i].name for i in sorted(solution.disclosed)
        )
        table.add_row(
            [metric.value, solution.risk, len(solution.disclosed),
             pipeline.speedup(), names]
        )
        assert solution.risk <= BUDGET + 1e-9
    table.print()

    # Robustness: the metrics agree on a common low-risk core (at least
    # the public demographics), and none discloses a sensitive column at
    # this small budget.
    core = set.intersection(*selections.values())
    assert set(train.public_indices) <= core
    for chosen in selections.values():
        assert not (chosen & set(train.sensitive_indices))

    pipeline = pipelines[RiskMetric.ENTROPY]
    bench_cold(benchmark, pipeline, lambda: pipeline.select_disclosure(BUDGET))
