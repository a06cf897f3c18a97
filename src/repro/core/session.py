"""Session configuration: one object for a whole two-party session.

Key sizes, engine backend, transport policy, randomness mode and the
telemetry switch used to be scattered keyword arguments across
:func:`repro.smc.context.make_context`, :class:`repro.core.pipeline
.PipelineConfig` and the CLI. :class:`SessionConfig` consolidates them
into a single validated dataclass accepted everywhere a session is
built; the old keyword arguments keep working through a deprecation
shim that warns once per process.

This module is deliberately light: it imports no sockets, no process
pools, no numpy -- the :mod:`repro.api` facade re-exports it without
dragging the heavy runtime in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.exceptions import ReproError

#: Engine backends, mirrored from :data:`repro.crypto.engine.BACKENDS`
#: (kept literal here so this module stays import-light; a unit test
#: asserts the two stay in sync).
ENGINE_BACKENDS = ("serial", "parallel")

#: Bignum (modular-exponentiation) backends, mirrored from
#: :data:`repro.crypto.modexp.MODEXP_BACKENDS` (same sync test).
CRYPTO_BACKENDS = ("auto", "python", "gmpy2")

#: Transport backends, mirrored from
#: :data:`repro.smc.transport.TRANSPORT_BACKENDS` (same sync test).
TRANSPORT_BACKENDS = ("inproc", "tcp")

#: Protocol backends, mirrored from
#: :data:`repro.secure.backends.PROTOCOL_BACKENDS` (same sync test).
PROTOCOL_BACKENDS = ("paillier", "shares")

RNG_MODES = ("deterministic", "system")

DEFAULT_STATISTICAL_SECURITY_BITS = 40


def check_protocol_backend(protocol_backend: str, classifier: str) -> None:
    """Raise :class:`ReproError` unless ``protocol_backend`` can run a
    ``classifier`` model.

    The Paillier stack runs every model kind; the shares backend covers
    linear models only. Pipelines and servers both call this at
    construction, so a mismatch fails at startup rather than silently
    serving the model over Paillier.
    """
    if protocol_backend != "paillier" and classifier != "linear":
        raise ReproError(
            f"protocol_backend {protocol_backend!r} supports "
            f"classifier='linear' only; {classifier!r} runs on "
            f"the Paillier protocol stack"
        )


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to stand up one client/server crypto session.

    Attributes
    ----------
    seed:
        Master seed deriving key material and both parties' randomness
        streams (``rng_mode="deterministic"``).
    paillier_bits / dgk_bits / dgk_plaintext_bits:
        Key sizes for the additively homomorphic and comparison
        cryptosystems.
    statistical_security_bits:
        Width of the additive blinding margin (``kappa``).
    engine_backend / engine_workers:
        Batch crypto execution backend (``"serial"`` or ``"parallel"``)
        and its process count (``None`` = CPU count).
    crypto_backend:
        Bignum kernel for the modular exponentiations: ``"auto"``
        (default; probes for ``gmpy2`` and falls back to pure Python),
        ``"python"`` (the canonical built-in ``pow``) or ``"gmpy2"``
        (GMP; raises if the optional package is missing). All backends
        are bit-for-bit identical -- this is a wall-clock knob only.
        See ``docs/PERFORMANCE.md``.
    transport_backend:
        Wire backend for live protocol runs: ``"inproc"`` round-trips
        every message through the canonical codec in-process, ``"tcp"``
        ships each message over a localhost socket to a peer process.
    protocol_backend:
        Online-phase protocol engine: ``"paillier"`` (default; the
        paper's homomorphic protocol stack, all work online) or
        ``"shares"`` (additive secret sharing over precomputed Beaver
        triples; ring arithmetic online, triple dealing offline). The
        CLI surfaces this as ``--backend``.
    connect_timeout / io_timeout / transport_retries / backoff_seconds:
        Socket transport policy (see
        :class:`repro.smc.transport.TransportConfig`).
    rng_mode:
        ``"deterministic"`` (seeded, reproducible transcripts) or
        ``"system"`` (OS entropy; suitable for real key material, not
        reproducible).
    telemetry:
        Whether spans/counters should be recorded for this session.
        The CLI flips this on for ``--metrics``; library users call
        :func:`repro.telemetry.configure` themselves.
    max_workers / queue_depth / request_timeout_s:
        Serving-runtime policy (:class:`repro.serving
        .ClassificationServer`): the request handler pool size, how
        many admitted requests may wait for a free worker before new
        connections are shed with an ``overloaded`` error, and the
        per-request wall-clock deadline in seconds (``None`` = fall
        back to ``io_timeout``).
    ledger_path / privacy_budget:
        Cumulative privacy-budget enforcement for served deployments
        (:mod:`repro.privacy.ledger`). ``ledger_path`` is the sqlite
        file durably recording each client's disclosed features and
        realized risk (``None`` = no ledger, requests are served with
        their full disclosure set); ``privacy_budget`` is the default
        per-client budget ``rho`` in ``[0, 1]`` for clients the ledger
        has not seen before (``None`` = the ledger default). See
        ``docs/PRIVACY.md``.
    shards:
        Number of independent shard *processes* behind the serving
        frontend (:class:`repro.serving.ClassificationFleet`). ``1``
        (default) serves from a single in-process
        :class:`~repro.serving.ClassificationServer`; above that, each
        shard gets its own process, crypto engine and telemetry
        registry, so online capacity scales with cores instead of
        stalling on the GIL. ``max_workers`` / ``queue_depth`` apply
        *per shard*.

    Example::

        config = SessionConfig(seed=7, paillier_bits=384, dgk_bits=192)
        ctx = make_context(config=config)
        faster = config.with_overrides(engine_backend="parallel")
    """

    seed: int = 0
    paillier_bits: int = 512
    dgk_bits: int = 256
    dgk_plaintext_bits: int = 16
    statistical_security_bits: int = DEFAULT_STATISTICAL_SECURITY_BITS
    engine_backend: str = "serial"
    engine_workers: Optional[int] = None
    crypto_backend: str = "auto"
    transport_backend: str = "inproc"
    protocol_backend: str = "paillier"
    connect_timeout: float = 5.0
    io_timeout: float = 30.0
    transport_retries: int = 3
    backoff_seconds: float = 0.05
    rng_mode: str = "deterministic"
    telemetry: bool = False
    max_workers: int = 4
    queue_depth: int = 16
    request_timeout_s: Optional[float] = None
    shards: int = 1
    ledger_path: Optional[str] = None
    privacy_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.engine_backend not in ENGINE_BACKENDS:
            raise ReproError(
                f"unknown engine backend {self.engine_backend!r}; "
                f"expected one of {ENGINE_BACKENDS}"
            )
        if self.crypto_backend not in CRYPTO_BACKENDS:
            raise ReproError(
                f"unknown crypto backend {self.crypto_backend!r}; "
                f"expected one of {CRYPTO_BACKENDS}"
            )
        if self.transport_backend not in TRANSPORT_BACKENDS:
            raise ReproError(
                f"unknown transport backend {self.transport_backend!r}; "
                f"expected one of {TRANSPORT_BACKENDS}"
            )
        if self.protocol_backend not in PROTOCOL_BACKENDS:
            raise ReproError(
                f"unknown protocol backend {self.protocol_backend!r}; "
                f"expected one of {PROTOCOL_BACKENDS}"
            )
        if self.rng_mode not in RNG_MODES:
            raise ReproError(
                f"unknown rng mode {self.rng_mode!r}; "
                f"expected one of {RNG_MODES}"
            )
        for name in ("paillier_bits", "dgk_bits", "dgk_plaintext_bits",
                     "statistical_security_bits"):
            if getattr(self, name) <= 0:
                raise ReproError(f"{name} must be positive")
        if self.engine_workers is not None and self.engine_workers < 1:
            raise ReproError(
                f"engine_workers must be positive, got {self.engine_workers}"
            )
        if self.transport_retries < 0:
            raise ReproError("transport_retries must be non-negative")
        if self.max_workers < 1:
            raise ReproError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.queue_depth < 0:
            raise ReproError(
                f"queue_depth must be non-negative, got {self.queue_depth}"
            )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ReproError(
                f"request_timeout_s must be positive, "
                f"got {self.request_timeout_s}"
            )
        if self.shards < 1:
            raise ReproError(f"shards must be positive, got {self.shards}")
        if self.privacy_budget is not None and not (
            0.0 <= self.privacy_budget <= 1.0
        ):
            raise ReproError(
                f"privacy_budget must be a normalized risk in [0, 1], "
                f"got {self.privacy_budget}"
            )

    def with_overrides(self, **overrides) -> "SessionConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    @classmethod
    def from_args(cls, args, **extra) -> "SessionConfig":
        """Build a config from a parsed CLI namespace.

        Reads whichever of ``--seed``, ``--engine``, ``--workers``,
        ``--crypto-backend``, ``--transport``, ``--backend``,
        ``--rng-mode``,
        ``--metrics``, ``--queue-depth``, ``--request-timeout``,
        ``--shards``, ``--ledger`` and ``--privacy-budget`` the
        subcommand defined; anything absent keeps its default.
        ``extra`` overrides both.
        """
        values = {}
        for field_name, arg_name in (
            ("seed", "seed"),
            ("engine_backend", "engine"),
            ("engine_workers", "workers"),
            ("crypto_backend", "crypto_backend"),
            ("transport_backend", "transport"),
            ("protocol_backend", "backend"),
            ("rng_mode", "rng_mode"),
            ("queue_depth", "queue_depth"),
            ("request_timeout_s", "request_timeout"),
            ("shards", "shards"),
            ("ledger_path", "ledger"),
            ("privacy_budget", "privacy_budget"),
        ):
            value = getattr(args, arg_name, None)
            if value is not None:
                values[field_name] = value
        if getattr(args, "metrics", None) is not None:
            values["telemetry"] = True
        values.update(extra)
        return cls(**values)
