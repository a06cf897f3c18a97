"""Span recording around the public entry points of each layer.

The benchmark traces the system from the outside: it replaces a
layer's public function *where its caller looks it up* (a module
attribute, a class attribute or a registry entry) with a wrapper that
records one span per call, then runs the unmodified program. Nothing
under ``src/`` knows it is being traced, and the program's own
``repro.telemetry`` stays off.

A span is ``(id, parent, request, name, start, end, attrs)``. Parents
come from a per-thread stack, so a span's parent is the innermost traced
call that was open on the same thread. The request id is set by the
outermost span of a request (the server handler, or one selection call)
and inherited by every span below it. Spans stay in memory until the
traced process dumps them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        func: Callable,
        request_id: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``func``.

        ``request_id(args, kwargs)`` names the request this call opens
        (for root spans); ``before(args, kwargs)`` returns extra fields
        read just before the call runs.
        """
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span = {
                "id": next(recorder._ids),
                "parent": parent["id"] if parent else None,
                "request": (
                    request_id(args, kwargs) if request_id is not None
                    else (parent["request"] if parent else None)
                ),
                "name": name,
            }
            if before is not None:
                span.update(before(args, kwargs))
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


class Patches:
    """Replaces attributes and registry entries until :meth:`undo`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    @staticmethod
    def _raw(owner, name: str):
        if isinstance(owner, dict):
            return owner[name]
        if isinstance(owner, type):
            return owner.__dict__[name]
        return getattr(owner, name)

    def replace(self, owner, name: str, value) -> None:
        """Set ``owner.name`` (``owner[name]`` for a dict) to ``value``."""
        self._undo.append((owner, name, self._raw(owner, name)))
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def trace(self, owner, name: str, span: str, **options) -> None:
        """Record a span per call of ``owner.name``: a module function,
        a plain, static or class method, or a registry entry."""
        raw = self._raw(owner, name)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self.recorder.wrap(span, raw.__func__, **options))
        else:
            wrapped = self.recorder.wrap(span, raw, **options)
        self.replace(owner, name, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = raw
            else:
                setattr(owner, name, raw)


# -- what each workload traces ---------------------------------------------


def _remaining_triples(args, kwargs):
    store, count = args[0], args[1]
    return {"count": int(count), "stocked": int(store.remaining_triples)}


def _remaining_masks(args, kwargs):
    store, count = args[0], args[1]
    bits = args[2] if len(args) > 2 else kwargs["bit_length"]
    return {"count": int(count), "stocked": int(store.remaining_masks(bits))}


def _queue_wait(args, kwargs):
    return {"queue_wait": time.monotonic() - float(args[3])}


def install_server_patches(patches: Patches) -> None:
    """Trace every layer a served classification passes through.

    Called inside the server process before ``repro serve`` runs; each
    target is the name the calling code resolves at call time.
    """
    import repro.core.serialization as serialization
    import repro.crypto.dgk as dgk
    import repro.crypto.engine as engine
    import repro.crypto.paillier as paillier
    import repro.crypto.triples as triples
    import repro.privacy.incremental as incremental
    import repro.privacy.ledger as ledger
    import repro.privacy.pricing as pricing
    import repro.secure.secure_naive_bayes as secure_nb
    import repro.secure.secure_tree as secure_tree
    import repro.serving.budget as budget
    import repro.serving.runtime as runtime
    import repro.smc.argmax as argmax
    import repro.smc.comparison as comparison
    import repro.smc.context as context
    import repro.smc.dotproduct as dotproduct
    import repro.smc.shares as shares
    import repro.smc.transport as transport
    import repro.smc.wire as wire

    server = runtime.ClassificationServer
    patches.trace(
        server, "_worker", "serving.worker",
        request_id=lambda args, kwargs: str(args[2]), before=_queue_wait,
    )
    patches.trace(server, "_handle", "serving.handle")
    patches.trace(server, "_classify", "serving.classify")

    patches.trace(context, "make_context", "keys.make_context")
    patches.trace(paillier.PaillierKeyPair, "generate", "keys.paillier")
    patches.trace(dgk.DgkKeyPair, "generate", "keys.dgk")

    patches.trace(runtime, "identity_for_context", "budget.identity")
    patches.trace(budget.BudgetEnforcer, "admit", "budget.admit")
    patches.trace(pricing.DisclosurePricer, "plan", "budget.price")
    patches.trace(ledger.PrivacyLedger, "ensure_client", "budget.ledger_read")
    patches.trace(ledger.PrivacyLedger, "charge", "budget.ledger_write")
    patches.trace(
        incremental.IncrementalRiskEvaluator, "peek_risk", "risk.peek"
    )

    patches.trace(serialization.DeployedClassifier, "classify", "secure.classify")

    for name in (
        "encrypt_feature_vector", "batched_encrypted_dot_products",
        "share_feature_vector", "shared_dot_products",
    ):
        patches.trace(dotproduct, name, f"dotproduct.{name}")
    for name in ("encrypt_indicator_vector", "indicator_lookup"):
        patches.trace(secure_nb, name, f"dotproduct.{name}")

    for name in ("sign_test_client_learns", "share_sign_test_client_learns"):
        patches.trace(comparison, name, f"compare.{name}")
    patches.trace(secure_tree, "compare_encrypted_many",
                  "compare.compare_encrypted_many")
    for name in ("compare_encrypted_client_learns", "share_compare_shared"):
        patches.trace(argmax, name, f"compare.{name}")

    for name in ("secure_argmax", "share_secure_argmax"):
        patches.trace(argmax, name, f"argmax.{name}")
    patches.trace(secure_nb, "secure_argmax", "argmax.secure_argmax")

    for name in (
        "input_client", "input_server", "open_batch", "multiply_batch",
        "reveal_to_client",
    ):
        patches.trace(shares.ShareSession, name, f"shares.{name}")
    patches.trace(shares, "share_reveal_to_client", "shares.share_reveal_to_client")

    for name in (
        "encrypt_batch", "decrypt_batch", "scalar_mul_batch",
        "rerandomize_batch", "dot_product",
    ):
        patches.trace(engine.CryptoEngine, name, f"crypto.{name}")
    patches.trace(triples.TripleStore, "take_triples", "crypto.take_triples",
                  before=_remaining_triples)
    patches.trace(triples.TripleStore, "take_masks", "crypto.take_masks",
                  before=_remaining_masks)

    patches.trace(transport.TcpTransport, "exchange", "wire.exchange")
    patches.trace(wire, "recv_frame", "wire.recv_frame")
    patches.trace(wire, "send_frame", "wire.send_frame")


def install_selection_patches(patches: Patches, request: Callable) -> None:
    """Trace the analyst path: greedy selection, costing and risk.

    ``request()`` returns the id of the selection call in progress. The
    risk function is built at ``fit`` time, so this must run before the
    pipelines are fitted.
    """
    import repro.core.pipeline as pipeline
    import repro.privacy.incremental as incremental

    patches.trace(
        pipeline.SOLVERS, "greedy", "selection.greedy",
        request_id=lambda args, kwargs: request(),
    )
    patches.trace(
        pipeline.PrivacyAwareClassifier, "estimated_cost_seconds",
        "costing.estimated_cost_seconds",
    )
    evaluator = incremental.IncrementalRiskEvaluator
    raw = evaluator.__dict__["as_risk_function"]
    recorder = patches.recorder

    def as_risk_function(self):
        return recorder.wrap("risk.eval", raw(self))

    patches.replace(evaluator, "as_risk_function", as_risk_function)


# -- aggregation -----------------------------------------------------------


class SpanIndex:
    """Spans of one traced phase, grouped for per-layer arithmetic."""

    def __init__(self, spans: Iterable[dict], requests: Iterable[str]) -> None:
        wanted = set(requests)
        self.spans = [s for s in spans if s.get("request") in wanted]
        self.by_id: Dict[object, dict] = {s["id"]: s for s in self.spans}
        self.children: Dict[object, List[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] in self.by_id:
                self.children[span["parent"]].append(span)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def _outermost_of_layer(self, span: dict) -> bool:
        layer = layer_of(span["name"])
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if layer_of(parent["name"]) == layer:
                return False
            parent = self.by_id.get(parent["parent"])
        return True

    def named(self, prefix: str) -> List[dict]:
        return [s for s in self.spans if s["name"].startswith(prefix)]

    def layer_seconds(self, layer: str) -> float:
        """Wall time inside a layer, nested calls of it counted once."""
        return sum(
            self.duration(s) for s in self.spans
            if layer_of(s["name"]) == layer and self._outermost_of_layer(s)
        )

    def layer_calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if layer_of(s["name"]) == layer)

    def self_seconds(self, prefix: str) -> float:
        """Span time minus the time its direct children cover."""
        total = 0.0
        for span in self.named(prefix):
            covered = sum(self.duration(c) for c in self.children[span["id"]])
            total += self.duration(span) - covered
        return total

    def covered_seconds(self, root: str, skip_layer: str) -> float:
        """Time of the outermost spans under ``root`` spans that belong
        to a layer other than ``skip_layer``."""
        total = 0.0

        def walk(span: dict) -> None:
            nonlocal total
            for child in self.children[span["id"]]:
                if layer_of(child["name"]) == skip_layer:
                    walk(child)
                else:
                    total += self.duration(child)

        for span in self.named(root):
            walk(span)
        return total
