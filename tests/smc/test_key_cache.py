"""The seeded key-derivation cache behind :func:`make_context`.

A deterministic session's keys and stream seeds are memoized per
``(seed, key sizes)``. The cache must be invisible in every transcript:
a hit yields exactly the keys and streams the uncached derivation (and
the inline derivation it replaced) would, while each context still gets
its own key objects.
"""

import threading

import pytest

from repro.core.session import SessionConfig
from repro.crypto.dgk import DgkKeyPair
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.rand import fresh_rng
from repro.serving.budget import identity_for_context, identity_for_seed
from repro.smc.context import (
    KEY_CACHE_SIZE,
    make_context,
    seeded_key_material,
)

_SIZES = [(384, 192), (512, 256)]


def _context(seed, paillier_bits=384, dgk_bits=192, **overrides):
    return make_context(config=SessionConfig(
        seed=seed, paillier_bits=paillier_bits, dgk_bits=dgk_bits,
        **overrides,
    ))


def _public(ctx):
    return (ctx.paillier.public_key, ctx.dgk.public_key)


@pytest.mark.parametrize("paillier_bits,dgk_bits", _SIZES)
@pytest.mark.parametrize("seed", [1, 7, 123])
def test_cached_derivation_equals_uncached(seed, paillier_bits, dgk_bits):
    uncached = seeded_key_material.__wrapped__(seed, paillier_bits, dgk_bits, 16)
    assert seeded_key_material(seed, paillier_bits, dgk_bits, 16) == uncached

    # The inline derivation make_context ran before the cache existed:
    # one master stream seeds Paillier, then DGK, then forks the client
    # and server streams.
    master = fresh_rng(seed)
    paillier = PaillierKeyPair.generate(key_bits=paillier_bits, rng=master)
    dgk = DgkKeyPair.generate(key_bits=dgk_bits, plaintext_bits=16, rng=master)
    client_rng, server_rng = master.fork(), master.fork()

    for ctx in (_context(seed, paillier_bits, dgk_bits),
                _context(seed, paillier_bits, dgk_bits)):
        assert ctx.paillier == paillier
        assert ctx.dgk.public_key == dgk.public_key
        private = ctx.dgk.private_key
        assert (private.p, private.q, private.v_p, private.v_q) == (
            dgk.private_key.p, dgk.private_key.q,
            dgk.private_key.v_p, dgk.private_key.v_q,
        )
        assert ctx.client_rng.seed == client_rng.seed
        assert ctx.server_rng.seed == server_rng.seed
        assert ctx.client_rng.getrandbits(128) == fresh_rng(
            client_rng.seed).getrandbits(128)
        assert ctx.server_rng.getrandbits(128) == fresh_rng(
            server_rng.seed).getrandbits(128)


def test_second_context_for_a_seed_generates_no_keys(monkeypatch):
    seed = 880_001
    _context(seed)
    calls = []

    def counting(original):
        def generate(*args, **kwargs):
            calls.append(original)
            return original(*args, **kwargs)
        return staticmethod(generate)

    monkeypatch.setattr(PaillierKeyPair, "generate",
                        counting(PaillierKeyPair.generate))
    monkeypatch.setattr(DgkKeyPair, "generate", counting(DgkKeyPair.generate))
    _context(seed)
    assert calls == []
    _context(seed + 1)  # a new seed still derives, through the same names
    assert len(calls) == 2


def test_system_mode_is_never_cached():
    seeded_key_material.cache_clear()
    a = _context(1, rng_mode="system")
    b = _context(1, rng_mode="system")
    assert a.paillier.public_key != b.paillier.public_key
    assert a.dgk.public_key != b.dgk.public_key
    assert not a.client_rng.is_deterministic
    assert seeded_key_material.cache_info().currsize == 0


def test_cache_bound_is_a_constant():
    assert KEY_CACHE_SIZE == 4096
    assert seeded_key_material.cache_info().maxsize == KEY_CACHE_SIZE


def test_concurrent_contexts_share_keys_not_objects():
    seed = 880_101
    contexts = [None] * 8
    barrier = threading.Barrier(len(contexts))

    def build(slot):
        barrier.wait()
        contexts[slot] = _context(seed)

    threads = [threading.Thread(target=build, args=(i,))
               for i in range(len(contexts))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    first = contexts[0]
    for ctx in contexts[1:]:
        assert _public(ctx) == _public(first)
        assert ctx.paillier is not first.paillier
        assert ctx.paillier.private_key is not first.paillier.private_key
        assert ctx.dgk.public_key is not first.dgk.public_key
        assert ctx.dgk.private_key is not first.dgk.private_key
        assert ctx.dgk.private_key._baby_steps is not (
            first.dgk.private_key._baby_steps)
        assert ctx.client_rng is not first.client_rng
        assert ctx.server_rng is not first.server_rng


def test_lazy_key_state_is_per_context():
    a, b = _context(880_201), _context(880_201)
    a.dgk.private_key._ensure_tables()
    assert a.paillier.private_key.crt_params is not None
    assert "_crt_params" not in b.paillier.private_key.__dict__
    assert b.dgk.private_key._baby_steps == {}


@pytest.mark.parametrize("seed", [7, 300, 880_301])
def test_seed_identity_equals_context_identity(seed):
    assert identity_for_seed(seed, 384, 192) == identity_for_context(
        _context(seed)
    )
