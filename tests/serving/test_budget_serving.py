"""Budget enforcement on the serving path: server, fleet, identity.

The enforcement invariant under test everywhere: a client identity's
cumulative realized risk never exceeds its budget, across requests,
across disclosure overrides, and across fleet shards (which share one
frontend-owned ledger).
"""

import socket
import threading

import pytest

from repro.core.exceptions import ReproError
from repro.core.serialization import (
    deployed_to_dict,
    deployment_from_dict,
    deployment_to_dict,
)
from repro.core.session import SessionConfig
from repro.privacy.ledger import PrivacyLedger
from repro.serving import ClassificationFleet, ClassificationServer
from repro.serving.budget import (
    BudgetEnforcer,
    identity_for_context,
    identity_for_seed,
)
from repro.smc.context import make_context
from repro.smc.transport import request_classification

_BASE_SEED = 7300
_BITS = {"paillier_bits": 384, "dgk_bits": 192}


@pytest.fixture(scope="module")
def deployed(warfarin_split):
    from repro.api import PipelineConfig, PrivacyAwareClassifier

    train, _ = warfarin_split
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier="naive_bayes", risk_sample_rows=100,
                       **_BITS)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    return deployment_from_dict(deployment_to_dict(pipeline))


@pytest.fixture(scope="module")
def row(warfarin_split):
    _, test = warfarin_split
    return [int(v) for v in test.X[0]]


def start_server(deployed, **config_overrides):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    config_overrides.setdefault("paillier_bits", _BITS["paillier_bits"])
    config_overrides.setdefault("dgk_bits", _BITS["dgk_bits"])
    server = ClassificationServer(
        deployed, listener, config=SessionConfig(**config_overrides)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, port


def stop_server(server, thread):
    server.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestBundleCarriesRiskModel:
    def test_round_tripped_bundle_has_risk_model(self, deployed):
        assert deployed.risk_model is not None
        assert deployed.risk_model["adversary"]["kind"] == "naive_bayes"

    def test_enforcer_requires_risk_model(self, deployed, tmp_path):
        bare = deployment_from_dict(
            {k: v for k, v in deployed_to_dict(deployed).items()
             if k != "risk_model"}
        )
        config = SessionConfig(ledger_path=str(tmp_path / "l.db"), **_BITS)
        with pytest.raises(ReproError):
            BudgetEnforcer.from_config(bare, config)

    def test_no_ledger_means_no_enforcer(self, deployed):
        assert BudgetEnforcer.from_config(
            deployed, SessionConfig(**_BITS)
        ) is None


class TestIdentity:
    def test_seed_identity_is_stable_and_distinct(self):
        a1 = identity_for_seed(_BASE_SEED, **_BITS)
        a2 = identity_for_seed(_BASE_SEED, **_BITS)
        b = identity_for_seed(_BASE_SEED + 1, **_BITS)
        assert a1 == a2
        assert a1 != b
        assert a1.startswith("pk-")

    def test_seed_identity_matches_live_context(self):
        ctx = make_context(
            config=SessionConfig(seed=_BASE_SEED, **_BITS)
        )
        assert identity_for_context(ctx) == identity_for_seed(
            _BASE_SEED, **_BITS
        )


class TestEnforcerTelemetry:
    def test_clients_gauge_counts_known_identities(self, deployed, tmp_path):
        import repro.telemetry as telemetry

        enforcer = BudgetEnforcer(
            deployed.risk_model, str(tmp_path / "gauge.db"),
            default_budget=1.0,
        )
        telemetry.configure(True, reset=True)
        try:
            for i, identity in enumerate(
                ["pk-a", "pk-b", "pk-a", "pk-c", "pk-b", "pk-d"]
            ):
                enforcer.admit(identity, [0], f"req-{i}")
                assert telemetry.snapshot()["gauges"]["budget.clients"] == (
                    len(enforcer.ledger.clients())
                )
            assert len(enforcer.ledger.clients()) == 4
        finally:
            telemetry.configure(False, reset=True)
            enforcer.close()


class TestServerEnforcement:
    def test_depletion_degrades_and_never_exceeds_budget(
        self, deployed, row, tmp_path
    ):
        """One identity walks the ladder: early requests are full, a
        hungry request is degraded or smc, spend stays under rho."""
        ledger_path = str(tmp_path / "serve.db")
        budget = 0.05
        n_features = len(row)
        server, thread, port = start_server(
            deployed, ledger_path=ledger_path, privacy_budget=budget,
            max_workers=2,
        )
        try:
            modes = []
            for lo in range(0, n_features, 3):
                want = list(range(lo, min(lo + 3, n_features)))
                result = request_classification(
                    "127.0.0.1", port, row, seed=_BASE_SEED,
                    disclosure=want,
                )
                decision = result.budget
                assert decision is not None
                assert decision["mode"] in ("full", "degraded", "smc")
                assert decision["spent_after"] <= budget + 1e-9
                assert set(decision["granted"]) <= set(want)
                modes.append(decision["mode"])
        finally:
            stop_server(server, thread)
        assert modes[0] == "full", "first cheap request should fit"
        assert any(m != "full" for m in modes), (
            "sweeping every feature must deplete a 0.05 budget"
        )
        with PrivacyLedger(ledger_path) as ledger:
            record = ledger.client(identity_for_seed(_BASE_SEED, **_BITS))
            assert record.spent <= budget + 1e-9
            assert record.charges == len(modes)

    def test_identities_do_not_share_budget(self, deployed, row, tmp_path):
        ledger_path = str(tmp_path / "pair.db")
        server, thread, port = start_server(
            deployed, ledger_path=ledger_path, privacy_budget=0.1,
            max_workers=2,
        )
        try:
            for seed in (_BASE_SEED, _BASE_SEED + 7):
                result = request_classification(
                    "127.0.0.1", port, row, seed=seed, disclosure=[0, 1],
                )
                assert result.budget["identity"] == identity_for_seed(
                    seed, **_BITS
                )
        finally:
            stop_server(server, thread)
        with PrivacyLedger(ledger_path) as ledger:
            assert len(ledger.clients()) == 2

    def test_redisclosure_is_free(self, deployed, row, tmp_path):
        server, thread, port = start_server(
            deployed, ledger_path=str(tmp_path / "replay.db"),
            privacy_budget=0.1, max_workers=2,
        )
        try:
            first = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED,
                disclosure=[0, 1],
            )
            replay = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED,
                disclosure=[0, 1],
            )
        finally:
            stop_server(server, thread)
        assert replay.budget["granted"] == first.budget["granted"]
        assert replay.budget["spent_after"] == pytest.approx(
            first.budget["spent_after"], abs=1e-12
        )
        assert replay.budget["mode"] == "full"

    def test_no_ledger_leaves_results_unstamped(self, deployed, row):
        server, thread, port = start_server(deployed, max_workers=2)
        try:
            result = request_classification(
                "127.0.0.1", port, row, seed=_BASE_SEED
            )
        finally:
            stop_server(server, thread)
        assert result.budget is None


class TestFleetEnforcement:
    def test_frontend_owns_the_only_ledger(self, deployed, row, tmp_path):
        """Budget decisions ride through the relay, shards are spawned
        ledger-free, and one identity's budget is fleet-global."""
        ledger_path = str(tmp_path / "fleet.db")
        budget = 0.05
        config = SessionConfig(
            ledger_path=ledger_path, privacy_budget=budget, **_BITS
        )
        with ClassificationFleet(
            deployed, shards=2, config=config, heartbeat_interval=0.2
        ) as fleet:
            assert fleet._shard_config.ledger_path is None
            modes = []
            for lo in range(0, len(row), 3):
                want = list(range(lo, min(lo + 3, len(row))))
                result = request_classification(
                    "127.0.0.1", fleet.port, row, seed=_BASE_SEED,
                    disclosure=want,
                )
                assert result.budget is not None
                assert result.budget["spent_after"] <= budget + 1e-9
                modes.append(result.budget["mode"])
            # a different identity starts fresh on the other shard
            other = request_classification(
                "127.0.0.1", fleet.port, row, seed=_BASE_SEED + 1,
                disclosure=[0, 1],
            )
            assert other.budget["spent_before"] == pytest.approx(0.0)
        assert any(m != "full" for m in modes)
        with PrivacyLedger(ledger_path) as ledger:
            assert len(ledger.clients()) == 2
            for name in ledger.clients():
                assert ledger.client(name).spent <= budget + 1e-9
