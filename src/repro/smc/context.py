"""Shared state for a two-party secure computation session.

A :class:`TwoPartyContext` bundles everything a protocol invocation
needs: the accounted channel, the client's key material (the *client* is
the data owner and holds all private keys, exactly as in Bost et al.),
independent randomness streams for each party, and the statistical
security parameter used for additive blinding.

Protocols take a context instead of loose arguments so that composed
executions (dot product, then comparison, then argmax) accumulate into a
single :class:`~repro.smc.protocol.ExecutionTrace`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence

import repro.telemetry as telemetry
from repro.core.session import SessionConfig
from repro.crypto.dgk import DgkKeyPair, DgkPrivateKey, DgkPublicKey
from repro.crypto.engine import CryptoEngine, make_engine
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.rand import DeterministicRandom, fresh_rng, secure_rng
from repro.smc.network import Channel
from repro.smc.protocol import ExecutionTrace, Op

DEFAULT_STATISTICAL_SECURITY_BITS = 40


@dataclass
class TwoPartyContext:
    """Keys, randomness and accounting for one client/server session.

    Attributes
    ----------
    channel:
        The accounted message channel; its trace is the session trace.
    paillier:
        The client's Paillier key pair. The server only ever uses
        ``paillier.public_key``.
    dgk:
        The client's DGK key pair for the bitwise comparison subprotocol.
    client_rng / server_rng:
        Independent randomness streams so one party's draws cannot
        perturb the other's (important for reproducible transcripts).
    statistical_security_bits:
        Width of additive blinding noise (``kappa``); blinded values are
        statistically indistinguishable from uniform up to ``2^-kappa``.
    engine:
        The batch crypto engine executing bulk Paillier work. The
        default serial engine reproduces the reference behaviour; a
        parallel engine (``make_engine("parallel", workers)``) fans the
        big-int exponentiations out across processes while producing
        byte-identical ciphertexts and identical traces.

    Example::

        ctx = make_context(config=SessionConfig(seed=7))
        label = deployed.classify(ctx, row)
        print(ctx.trace.total_bytes, ctx.trace.rounds)
    """

    channel: Channel
    paillier: PaillierKeyPair
    dgk: DgkKeyPair
    client_rng: DeterministicRandom
    server_rng: DeterministicRandom
    statistical_security_bits: int = DEFAULT_STATISTICAL_SECURITY_BITS
    engine: CryptoEngine = field(default_factory=CryptoEngine)
    #: The protocol backend live queries run on (a
    #: :class:`repro.secure.backends.ProtocolBackend`). ``None`` on
    #: directly constructed legacy contexts;
    #: :func:`repro.secure.base.resolve_backend` then falls back to the
    #: Paillier backend with a one-time deprecation warning.
    protocol_backend: Optional[object] = None

    @property
    def trace(self) -> ExecutionTrace:
        """The session's execution trace (owned by the channel)."""
        return self.channel.trace

    # -- counted cryptographic helpers ---------------------------------

    def client_encrypt(self, value: int) -> PaillierCiphertext:
        """Client-side Paillier encryption, counted in the trace."""
        self.trace.count(Op.PAILLIER_ENCRYPT)
        return self.paillier.public_key.encrypt(value, rng=self.client_rng)

    def server_encrypt(self, value: int) -> PaillierCiphertext:
        """Server-side Paillier encryption under the client's key."""
        self.trace.count(Op.PAILLIER_ENCRYPT)
        return self.paillier.public_key.encrypt(value, rng=self.server_rng)

    def client_decrypt(self, ciphertext: PaillierCiphertext) -> int:
        """Client-side Paillier decryption, counted in the trace."""
        self.trace.count(Op.PAILLIER_DECRYPT)
        return self.paillier.private_key.decrypt(ciphertext)

    def add(self, a: PaillierCiphertext, b) -> PaillierCiphertext:
        """Homomorphic addition (ciphertext or plaintext), counted."""
        self.trace.count(Op.PAILLIER_ADD)
        return a + b

    def scalar_mul(self, a: PaillierCiphertext, scalar: int) -> PaillierCiphertext:
        """Homomorphic scalar multiplication, counted."""
        self.trace.count(Op.PAILLIER_SCALAR_MUL)
        return a * scalar

    def rerandomize(self, a: PaillierCiphertext, rng=None) -> PaillierCiphertext:
        """Ciphertext re-randomisation, counted."""
        self.trace.count(Op.PAILLIER_RERANDOMIZE)
        return a.rerandomize(rng=rng or self.server_rng)

    def blinding_noise(self, payload_bits: int, rng=None) -> int:
        """Draw additive blinding noise covering ``payload_bits`` plus
        the statistical security margin."""
        rng = rng or self.server_rng
        return rng.getrandbits(payload_bits + self.statistical_security_bits)

    # -- counted batch paths (dispatched to the engine) -----------------

    def client_encrypt_batch(
        self, values: Sequence[int]
    ) -> List[PaillierCiphertext]:
        """Client-side batch encryption; one counted op per value.

        Nonces come from ``client_rng`` in input order, so the batch is
        transcript-identical to a loop of :meth:`client_encrypt`.
        """
        self.trace.count(Op.PAILLIER_ENCRYPT, len(values))
        return self.engine.encrypt_batch(
            self.paillier.public_key, values, rng=self.client_rng
        )

    def server_encrypt_batch(
        self, values: Sequence[int]
    ) -> List[PaillierCiphertext]:
        """Server-side batch encryption under the client's key."""
        self.trace.count(Op.PAILLIER_ENCRYPT, len(values))
        return self.engine.encrypt_batch(
            self.paillier.public_key, values, rng=self.server_rng
        )

    def client_decrypt_batch(
        self, ciphertexts: Sequence[PaillierCiphertext], signed: bool = True
    ) -> List[int]:
        """Client-side batch decryption (CRT fast path when available)."""
        self.trace.count(Op.PAILLIER_DECRYPT, len(ciphertexts))
        return self.engine.decrypt_batch(
            self.paillier.private_key, ciphertexts, signed=signed
        )

    def scalar_mul_batch(
        self,
        ciphertexts: Sequence[PaillierCiphertext],
        scalars: Sequence[int],
        signed: bool = True,
    ) -> List[PaillierCiphertext]:
        """Batch homomorphic scalar multiplication, counted per element."""
        self.trace.count(Op.PAILLIER_SCALAR_MUL, len(ciphertexts))
        return self.engine.scalar_mul_batch(ciphertexts, scalars, signed=signed)

    def rerandomize_batch(
        self, ciphertexts: Sequence[PaillierCiphertext], rng=None
    ) -> List[PaillierCiphertext]:
        """Batch re-randomisation, counted per element."""
        self.trace.count(Op.PAILLIER_RERANDOMIZE, len(ciphertexts))
        return self.engine.rerandomize_batch(
            ciphertexts, rng=rng or self.server_rng
        )


#: Entries kept by :func:`seeded_key_material`, one per recent
#: ``(seed, key sizes)``; an entry is about 1.2 KB.
KEY_CACHE_SIZE = 4096


class KeyMaterial(NamedTuple):
    """A session's key material and stream seeds, as plain integers.

    The output of one key derivation: the client's Paillier and DGK
    keys, and the seeds of the client and server randomness streams
    (``None`` for OS-entropy streams). It holds no object with mutable
    state, so one cached value can back many concurrent sessions: each
    :meth:`paillier_keypair` / :meth:`dgk_keypair` / :meth:`rng` call
    builds fresh objects, whose lazily built tables are never shared.
    """

    paillier_n: int
    paillier_p: int
    paillier_q: int
    paillier_lam: int
    paillier_mu: int
    dgk_n: int
    dgk_g: int
    dgk_h: int
    dgk_u: int
    dgk_p: int
    dgk_q: int
    dgk_v_p: int
    dgk_v_q: int
    client_seed: Optional[int]
    server_seed: Optional[int]

    @classmethod
    def derive(
        cls,
        master: DeterministicRandom,
        paillier_bits: int,
        dgk_bits: int,
        dgk_plaintext_bits: int,
    ) -> "KeyMaterial":
        """Generate Paillier then DGK keys from ``master``, then fork the
        client and server streams from it, in that order."""
        paillier = PaillierKeyPair.generate(key_bits=paillier_bits, rng=master)
        dgk = DgkKeyPair.generate(
            key_bits=dgk_bits, plaintext_bits=dgk_plaintext_bits, rng=master
        )
        private, dgk_private = paillier.private_key, dgk.private_key
        return cls(
            paillier_n=paillier.public_key.n,
            paillier_p=private.p,
            paillier_q=private.q,
            paillier_lam=private.lam,
            paillier_mu=private.mu,
            dgk_n=dgk.public_key.n,
            dgk_g=dgk.public_key.g,
            dgk_h=dgk.public_key.h,
            dgk_u=dgk.public_key.u,
            dgk_p=dgk_private.p,
            dgk_q=dgk_private.q,
            dgk_v_p=dgk_private.v_p,
            dgk_v_q=dgk_private.v_q,
            client_seed=master.fork().seed,
            server_seed=master.fork().seed,
        )

    def paillier_keypair(self) -> PaillierKeyPair:
        """A fresh Paillier key pair object for these keys."""
        public = PaillierPublicKey(n=self.paillier_n)
        return PaillierKeyPair(
            public_key=public,
            private_key=PaillierPrivateKey(
                public_key=public, lam=self.paillier_lam, mu=self.paillier_mu,
                p=self.paillier_p, q=self.paillier_q,
            ),
        )

    def dgk_keypair(self) -> DgkKeyPair:
        """A fresh DGK key pair object for these keys."""
        public = DgkPublicKey(
            n=self.dgk_n, g=self.dgk_g, h=self.dgk_h, u=self.dgk_u
        )
        return DgkKeyPair(
            public_key=public,
            private_key=DgkPrivateKey(
                public_key=public, p=self.dgk_p, q=self.dgk_q,
                v_p=self.dgk_v_p, v_q=self.dgk_v_q,
            ),
        )

    @staticmethod
    def rng(seed: Optional[int]) -> DeterministicRandom:
        """A fresh stream for ``client_seed`` or ``server_seed``."""
        return secure_rng() if seed is None else fresh_rng(seed)


@lru_cache(maxsize=KEY_CACHE_SIZE)
def seeded_key_material(
    seed: int, paillier_bits: int, dgk_bits: int, dgk_plaintext_bits: int
) -> KeyMaterial:
    """The key material a deterministic session with ``seed`` derives.

    The one definition of seed -> keys: :func:`make_context` and the
    serving budget's client identity
    (:func:`repro.serving.budget.identity_for_seed`) both read it.
    Memoized on its four arguments (pass them positionally, as ints),
    so a repeated client seed costs a dict lookup instead of two prime
    searches. ``seeded_key_material.__wrapped__`` is the uncached
    derivation.
    """
    return KeyMaterial.derive(
        fresh_rng(seed), paillier_bits, dgk_bits, dgk_plaintext_bits
    )


#: One-time flag for the legacy-kwargs deprecation warning, so a script
#: that calls :func:`make_context` in a loop is not drowned in noise.
_legacy_kwargs_warned = False

def make_context(
    seed: Optional[int] = None,
    paillier_bits: Optional[int] = None,
    dgk_bits: Optional[int] = None,
    dgk_plaintext_bits: Optional[int] = None,
    statistical_security_bits: Optional[int] = None,
    channel: Optional[Channel] = None,
    engine: Optional[CryptoEngine] = None,
    engine_backend: Optional[str] = None,
    engine_workers: Optional[int] = None,
    config: Optional[SessionConfig] = None,
    protocol_backend=None,
) -> TwoPartyContext:
    """Build a ready-to-use session context with its own key objects.

    The preferred interface is ``make_context(config=SessionConfig(...))``
    (optionally with ``seed=``, ``channel=``, a prebuilt ``engine=`` or
    a prebuilt ``protocol_backend=`` -- passing the backend lets many
    per-request contexts share one offline triple store -- which stay
    first-class). The scattered per-parameter keywords
    (``paillier_bits``, ``engine_backend``, ...) are deprecated in
    favour of :class:`repro.core.session.SessionConfig`; they keep
    working -- overriding the config when both are given -- but emit one
    :class:`DeprecationWarning` per process.

    Under ``rng_mode="deterministic"`` the single seed derives the key
    material and both parties' randomness streams, so a whole protocol
    transcript is reproducible from one integer. That derivation is
    :func:`seeded_key_material`, memoized for the last
    :data:`KEY_CACHE_SIZE` seeds, so a repeated seed skips key
    generation; every call still gets fresh key and stream objects.
    ``rng_mode="system"`` draws everything from OS entropy instead and
    is never cached. The engine backend only changes *how* batch work
    executes, never the transcript:
    ``engine_backend="parallel"`` produces the same ciphertexts and
    trace as the serial default.

    When ``config.telemetry`` is set, telemetry recording is switched on
    for the process before key generation, so the session is observable
    from its first operation.

    Example::

        ctx = make_context(config=SessionConfig(
            seed=7, paillier_bits=384, dgk_bits=192,
        ))
    """
    global _legacy_kwargs_warned
    cfg = config if config is not None else SessionConfig()
    passed = {
        "paillier_bits": paillier_bits,
        "dgk_bits": dgk_bits,
        "dgk_plaintext_bits": dgk_plaintext_bits,
        "statistical_security_bits": statistical_security_bits,
        "engine_backend": engine_backend,
        "engine_workers": engine_workers,
    }
    legacy = {name: value for name, value in passed.items() if value is not None}
    if legacy:
        if not _legacy_kwargs_warned:
            warnings.warn(
                "passing "
                + ", ".join(sorted(legacy))
                + " to make_context() directly is deprecated; build a "
                "repro.core.session.SessionConfig and pass it as "
                "make_context(config=...)",
                DeprecationWarning,
                stacklevel=2,
            )
            _legacy_kwargs_warned = True
        cfg = cfg.with_overrides(**legacy)
    if seed is not None:
        cfg = cfg.with_overrides(seed=seed)
    if cfg.telemetry and not telemetry.enabled():
        telemetry.configure(True)
    with telemetry.span(
        "session.keygen",
        paillier_bits=cfg.paillier_bits,
        dgk_bits=cfg.dgk_bits,
    ):
        if cfg.rng_mode == "system":
            keys = KeyMaterial.derive(
                secure_rng(), cfg.paillier_bits, cfg.dgk_bits,
                cfg.dgk_plaintext_bits,
            )
        else:
            keys = seeded_key_material(
                int(cfg.seed), int(cfg.paillier_bits), int(cfg.dgk_bits),
                int(cfg.dgk_plaintext_bits),
            )
    # Imported here: repro.secure imports this module at import time.
    from repro.secure.backends import make_protocol_backend

    return TwoPartyContext(
        channel=channel or Channel(),
        paillier=keys.paillier_keypair(),
        dgk=keys.dgk_keypair(),
        client_rng=KeyMaterial.rng(keys.client_seed),
        server_rng=KeyMaterial.rng(keys.server_seed),
        statistical_security_bits=cfg.statistical_security_bits,
        engine=engine
        or make_engine(cfg.engine_backend, workers=cfg.engine_workers,
                       modexp=cfg.crypto_backend),
        protocol_backend=(
            protocol_backend
            if protocol_backend is not None
            else make_protocol_backend(cfg.protocol_backend)
        ),
    )
