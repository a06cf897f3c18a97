"""E16 -- Scaling the model: tree depth vs disclosure benefit.

The warfarin model is small; real clinical decision support can use far
deeper trees. Pure-SMC tree evaluation grows with the number of nodes
and leaves (every comparison and every leaf is priced under
encryption), while the disclosure-optimized protocol only pays for the
residual subtree over hidden features -- so the speedup *grows with
model size*, pushing toward the paper's three-orders-of-magnitude
regime on realistic model scales, especially over WAN where the
comparison rounds dominate.

The benchmarked kernel is a disclosure optimization on the deepest tree,
timed from a cold evaluation cache.
"""

import numpy as np
import pytest

from repro.api import PrivacyAwareClassifier
from repro.bench import Table
from repro.data import generate_bayesnet_dataset
from repro.smc.cost_model import CostModel, NATIVE_1024
from repro.smc.network import NetworkProfile

from conftest import bench_cold, bench_config

DEPTHS = (4, 6, 8, 10, 12)
BUDGET = 0.1


def test_e16_tree_depth_scaling(benchmark):
    dataset = generate_bayesnet_dataset(
        n_samples=6000, n_features=24, domain_size=4, max_parents=2,
        n_sensitive=2, seed=77,
    )
    wan = CostModel(hardware=NATIVE_1024, network=NetworkProfile.WAN,
                    traffic_scale=2.0)

    table = Table(
        "E16: tree size vs disclosure speedup (budget 0.1)",
        ["depth", "internal", "leaves", "pure LAN (s)", "opt LAN (s)",
         "speedup LAN", "speedup WAN"],
    )
    speedups = []
    deepest_pipeline = None
    for depth in DEPTHS:
        pipeline = PrivacyAwareClassifier(
            bench_config("tree", tree_max_depth=depth, risk_sample_rows=150)
        ).fit(dataset)
        deepest_pipeline = pipeline
        root = pipeline.plain_model.root

        solution = pipeline.select_disclosure(BUDGET)
        pure_lan = pipeline.pure_smc_cost()
        optimized_lan = solution.cost

        pure_wan = wan.total_seconds(pipeline.estimated_trace(()))
        optimized_wan = wan.total_seconds(
            pipeline.estimated_trace(solution.disclosed)
        )

        lan_speedup = pure_lan / optimized_lan
        wan_speedup = pure_wan / optimized_wan
        speedups.append((depth, lan_speedup, wan_speedup))
        table.add_row([
            depth, root.count_internal(), root.count_leaves(),
            pure_lan, optimized_lan, lan_speedup, wan_speedup,
        ])
        assert solution.risk <= BUDGET + 1e-9
    table.print()

    # Shape: the shallow tree happens not to touch the sensitive
    # features, so disclosure degenerates it to plaintext (the extreme
    # speedup); beyond that regime the benefit grows with model size
    # and exceeds 40x at slight risk on the deepest trees. With the
    # batched comparison protocol both sides pay few rounds, so the WAN
    # speedup tracks the compute/traffic ratio rather than exploding
    # with round counts -- still growing with depth.
    lan_series = [s[1] for s in speedups]
    wan_series = [s[2] for s in speedups]
    assert lan_series[0] > 100  # shallow tree: fully resolved in plaintext
    non_degenerate = lan_series[1:]
    assert non_degenerate[-1] > non_degenerate[0]
    assert non_degenerate[-1] > 40
    assert wan_series[-1] > wan_series[1]
    assert wan_series[-1] > 10

    assert deepest_pipeline is not None
    bench_cold(
        benchmark, deepest_pipeline,
        lambda: deepest_pipeline.select_disclosure(BUDGET),
    )
