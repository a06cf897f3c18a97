"""E8 -- Optimizer scalability in the number of features.

Solve time of lazy greedy vs eager greedy vs branch-and-bound as the
feature count grows (random Bayesian-network cohorts, naive-Bayes
classifier cost). Greedy stays fast at d = 64 while exact search grows
quickly; lazy evaluation saves a large fraction of risk evaluations.

The benchmarked kernel is lazy greedy at d = 48. Every solver, and
every kernel round, starts from a cold evaluation cache; one extra line
times a seven-budget sweep on one fit with the cache kept warm.
"""

import statistics
import time

import numpy as np
import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.bench import Table
from repro.selection import solve_branch_and_bound, solve_greedy

from conftest import bench_cold, bench_config

DIMENSIONS = (8, 16, 32, 48, 64)
BUDGET = 0.15
SWEEP_BUDGETS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)


def _pipeline_for(d: int) -> PrivacyAwareClassifier:
    from repro.data import generate_bayesnet_dataset

    dataset = generate_bayesnet_dataset(
        n_samples=1500, n_features=d, domain_size=3, n_sensitive=2,
        seed=100 + d,
    )
    return PrivacyAwareClassifier(
        bench_config("naive_bayes", risk_sample_rows=150)
    ).fit(dataset)


def test_e8_solver_scalability(benchmark):
    table = Table(
        "E8: solve time vs feature count (budget 0.15)",
        ["d", "lazy (ms)", "lazy evals", "eager (ms)", "eager evals",
         "b&b (ms)", "b&b nodes"],
    )
    lazy_times = {}
    for d in DIMENSIONS:
        pipeline = _pipeline_for(d)

        pipeline.clear_evaluation_cache()
        problem = pipeline.build_problem(BUDGET)
        problem.reset_counters()
        start = time.perf_counter()
        lazy = solve_greedy(problem, lazy=True)
        lazy_ms = (time.perf_counter() - start) * 1e3
        lazy_evals = problem.evaluation_counts["risk"]
        lazy_times[d] = lazy_ms

        pipeline.clear_evaluation_cache()
        problem = pipeline.build_problem(BUDGET)
        problem.reset_counters()
        start = time.perf_counter()
        eager = solve_greedy(problem, lazy=False)
        eager_ms = (time.perf_counter() - start) * 1e3
        eager_evals = problem.evaluation_counts["risk"]

        if d <= 16:
            pipeline.clear_evaluation_cache()
            problem = pipeline.build_problem(BUDGET)
            start = time.perf_counter()
            bnb = solve_branch_and_bound(problem, max_nodes=50_000)
            bnb_ms = (time.perf_counter() - start) * 1e3
            bnb_nodes = bnb.nodes_explored
        else:
            bnb_ms, bnb_nodes = float("nan"), "-"

        table.add_row([d, lazy_ms, lazy_evals, eager_ms, eager_evals,
                       bnb_ms, bnb_nodes])

        # Shape: lazy never does more risk evaluations than eager, and
        # both stay within the budget.
        assert lazy_evals <= eager_evals
        assert lazy.risk <= BUDGET + 1e-9
        assert eager.risk <= BUDGET + 1e-9
    table.print()

    # Greedy scales to d=64 in interactive time.
    assert lazy_times[64] < 10_000

    # A trade-off sweep on one fit: cold clears the cache before every
    # budget, warm keeps what earlier budgets priced. Same selections.
    pipeline = _pipeline_for(64)
    sweeps = {}
    for mode in ("cold", "warm"):
        pipeline.clear_evaluation_cache()
        times, chosen = [], []
        for budget in SWEEP_BUDGETS:
            if mode == "cold":
                pipeline.clear_evaluation_cache()
            start = time.perf_counter()
            chosen.append(pipeline.select_disclosure(budget).disclosed)
            times.append((time.perf_counter() - start) * 1e3)
        sweeps[mode] = (times, chosen)
    assert sweeps["cold"][1] == sweeps["warm"][1]
    cold, warm = sweeps["cold"][0], sweeps["warm"][0]
    print(
        f"E8 warm sweep (d=64, {len(SWEEP_BUDGETS)} budgets, one fit): "
        f"{sum(warm):.1f} ms total, later budgets median "
        f"{statistics.median(warm[1:]):.2f} ms; cold {sum(cold):.1f} ms "
        f"total, median {statistics.median(cold[1:]):.2f} ms"
    )

    pipeline = _pipeline_for(48)
    bench_cold(
        benchmark, pipeline,
        lambda: solve_greedy(pipeline.build_problem(BUDGET)),
    )
