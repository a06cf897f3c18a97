"""Serving with ``protocol_backend="shares"``: end-to-end over TCP.

A linear deployment served by a shares-backend server must answer the
same labels as a paillier-backend server (and as the plaintext
quantised reference), with the request protocol's share elements
physically crossing the socket. The server owns one shares backend, so
the offline triple store is shared across requests. The shares backend
runs linear models only, so a naive-Bayes or tree bundle is refused at
startup by the server, the fleet and ``repro serve``.
"""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import ReproError
from repro.core.pipeline import PipelineConfig, PrivacyAwareClassifier
from repro.core.serialization import (
    deployment_from_dict,
    deployment_to_dict,
    save_deployment,
)
from repro.core.session import SessionConfig
from repro.data.schema import Dataset, FeatureSpec
from repro.serving import ClassificationFleet, ClassificationServer
from repro.smc.transport import request_classification

_BITS = {"paillier_bits": 384, "dgk_bits": 192}
_REPO = Path(__file__).resolve().parents[2]


def _dataset():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 8, size=(80, 5))
    w = np.array([2.0, -1.5, 0.5, 1.0, -0.5])
    y = (X @ w > np.median(X @ w)).astype(int)
    features = [
        FeatureSpec(name=f"f{i}", domain_size=8, sensitive=(i == 0))
        for i in range(X.shape[1])
    ]
    return Dataset(name="shares-serving", features=features, X=X, y=y)


def _fit(classifier):
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier=classifier, **_BITS)
    ).fit(_dataset())
    pipeline.select_disclosure(0.3)
    return pipeline


@pytest.fixture(scope="module")
def linear_bundle():
    pipeline = _fit("linear")
    deployed = deployment_from_dict(deployment_to_dict(pipeline))
    X = _dataset().X
    return deployed, pipeline, [[int(v) for v in row] for row in X[:4]]


@pytest.fixture(scope="module", params=["naive_bayes", "tree"])
def nonlinear_pipeline(request):
    return _fit(request.param)


def _serve(deployed, backend):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    server = ClassificationServer(
        deployed, listener,
        config=SessionConfig(protocol_backend=backend, **_BITS),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, port


def _stop(server, thread):
    server.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_shares_server_matches_paillier_server(linear_bundle):
    deployed, pipeline, rows = linear_bundle
    labels = {}
    for backend in ("paillier", "shares"):
        server, thread, port = _serve(deployed, backend)
        try:
            labels[backend] = [
                request_classification(
                    "127.0.0.1", port, row, seed=900 + i
                ).label
                for i, row in enumerate(rows)
            ]
        finally:
            _stop(server, thread)
    assert labels["shares"] == labels["paillier"]
    expected = [
        int(pipeline.secure_model.predict_quantized(np.asarray(row)))
        for row in rows
    ]
    assert labels["shares"] == expected


def test_shares_server_reports_honest_byte_accounting(linear_bundle):
    deployed, _, rows = linear_bundle
    server, thread, port = _serve(deployed, "shares")
    try:
        result = request_classification("127.0.0.1", port, rows[0], seed=77)
    finally:
        _stop(server, thread)
    trace = result.server_trace
    assert result.client_stats["bytes_received"] == trace["bytes_total"]
    assert trace.get("op_share_mul_triple", 0) > 0
    assert not any(
        key.startswith(("op_paillier", "op_dgk")) for key in trace
    )


def test_shares_server_refuses_nonlinear_bundle(nonlinear_pipeline):
    """Such a server used to serve the model over Paillier silently."""
    deployed = deployment_from_dict(deployment_to_dict(nonlinear_pipeline))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with pytest.raises(ReproError, match="supports classifier='linear'"):
            ClassificationServer(
                deployed, listener,
                config=SessionConfig(protocol_backend="shares", **_BITS),
            )
    with pytest.raises(ReproError, match="supports classifier='linear'"):
        ClassificationFleet(
            deployed, shards=2,
            config=SessionConfig(protocol_backend="shares", **_BITS),
        )


def test_cli_serve_refuses_shares_with_nonlinear_bundle(
    nonlinear_pipeline, tmp_path
):
    bundle = str(tmp_path / "bundle.json")
    save_deployment(bundle, nonlinear_pipeline)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--bundle", bundle,
         "--backend", "shares", "--port", "0"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(_REPO / "src")},
    )
    assert proc.returncode != 0
    assert "supports classifier='linear' only" in proc.stderr
    assert "serving" not in proc.stdout
