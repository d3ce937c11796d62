"""Unit tests for repro.crypto.keys (two-backend sealed boxes)."""

import hashlib
import tracemalloc

import pytest

from repro.crypto import clear_process_caches, stream
from repro.crypto.dh import GROUP_TEST, DHPrivateKey, DHPublicKey
from repro.crypto.keys import AuthenticationError, KeyPair, PublicKey, seal, sealed_overhead


BACKENDS = ("sim", "dh")


@pytest.mark.parametrize("backend", BACKENDS)
class TestSealUnseal:
    def test_roundtrip(self, backend):
        keypair = KeyPair.generate(backend, seed=1)
        blob = seal(keypair.public, b"message", seed=5)
        assert keypair.unseal(blob) == b"message"

    def test_wrong_key_raises(self, backend):
        alice = KeyPair.generate(backend, seed=1)
        bob = KeyPair.generate(backend, seed=2)
        blob = seal(alice.public, b"message", seed=5)
        with pytest.raises(AuthenticationError):
            bob.unseal(blob)

    def test_tampered_blob_raises(self, backend):
        keypair = KeyPair.generate(backend, seed=1)
        blob = bytearray(seal(keypair.public, b"message", seed=5))
        blob[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            keypair.unseal(bytes(blob))

    def test_seeded_seal_is_deterministic(self, backend):
        keypair = KeyPair.generate(backend, seed=1)
        assert seal(keypair.public, b"m", seed=9) == seal(keypair.public, b"m", seed=9)

    def test_unseeded_seal_randomizes(self, backend):
        keypair = KeyPair.generate(backend, seed=1)
        assert seal(keypair.public, b"m") != seal(keypair.public, b"m")

    def test_overhead_matches_reality(self, backend):
        keypair = KeyPair.generate(backend, seed=1)
        plaintext = b"x" * 100
        blob = seal(keypair.public, plaintext, seed=3)
        assert len(blob) == len(plaintext) + sealed_overhead(keypair.public)

    def test_empty_blob_raises(self, backend):
        keypair = KeyPair.generate(backend, seed=1)
        with pytest.raises(AuthenticationError):
            keypair.unseal(b"")

    def test_large_seed_accepted(self, backend):
        # Regression: 62-bit rng seeds scaled by 4 overflowed 8 bytes.
        keypair = KeyPair.generate(backend, seed=(1 << 62) * 4 + 1)
        blob = seal(keypair.public, b"m", seed=(1 << 62) * 4 + 2)
        assert keypair.unseal(blob) == b"m"


class TestBackendSeparation:
    def test_sim_box_rejected_by_dh_key(self):
        sim_key = KeyPair.generate("sim", seed=1)
        dh_key = KeyPair.generate("dh", seed=1)
        blob = seal(sim_key.public, b"m", seed=2)
        with pytest.raises(AuthenticationError):
            dh_key.unseal(blob)

    def test_garbage_format_rejected(self):
        keypair = KeyPair.generate("sim", seed=1)
        with pytest.raises(AuthenticationError):
            keypair.unseal(b"Zgarbage-bytes-here")


class TestDegenerateEphemeral:
    """A box built on an ephemeral value whose powers do not depend on
    the exponent would open under every key in the group."""

    @pytest.mark.parametrize(
        "eph",
        [0, 1, GROUP_TEST.prime - 1, GROUP_TEST.prime + 1],
        ids=["zero", "one", "p-1", "p+1"],
    )
    def test_box_on_degenerate_ephemeral_opens_under_no_key(self, eph):
        group = GROUP_TEST
        eph_bytes = eph.to_bytes((group.prime.bit_length() + 7) // 8, "big")
        # x = 1 yields eph mod p: the "secret" every (odd) exponent shares.
        shared = DHPrivateKey(group, 1).shared_secret(DHPublicKey(group, eph))
        nonce = hashlib.sha256(b"rac/seal-nonce" + eph_bytes).digest()[:16]
        blob = b"D" + eph_bytes + stream.encrypt(shared, nonce, b"relay this for me")
        for seed in range(10):
            pair = KeyPair.generate("dh", seed=seed)
            with pytest.raises(AuthenticationError):
                pair.unseal(blob)
            assert pair.open(blob) is None


class TestTrialMissesRetainNothing:
    """RAC's receive rule makes every group member trial-unseal every
    first-seen broadcast, and all but one trial miss. A miss derives a
    DH secret that occurs once: nothing it leaves behind is ever read
    again, so once the bounded shared-base stores are warm the heap
    must not grow with the number of misses."""

    KEYS = 24
    BROADCASTS = 100  # x 23 misses each: one batch is N = 2,300 trials

    def _broadcasts(self, keys, first, count):
        misses = 0
        for index in range(first, first + count):
            owner = index % len(keys)
            blob = seal(keys[owner].public, b"layer", seed=index)
            for position, keypair in enumerate(keys):
                if position != owner:
                    with pytest.raises(AuthenticationError):
                        keypair.unseal(blob)
                    misses += 1
        return misses

    def test_heap_is_flat_from_the_nth_to_the_2nth_miss(self):
        clear_process_caches()
        keys = [KeyPair.generate("dh", seed=seed) for seed in range(self.KEYS)]
        # Warm: every key gets its recipient table and comb recoding,
        # and the broadcast store fills with combs it then replaces.
        self._broadcasts(keys, 0, self.KEYS)
        tracemalloc.start()
        try:
            # Comb replacements free untraced warm-up tables during the
            # first batch, so only the second one can read flat.
            first = self._broadcasts(keys, self.KEYS, self.BROADCASTS)
            held_at_n = tracemalloc.get_traced_memory()[0]
            second = self._broadcasts(keys, self.KEYS + self.BROADCASTS, self.BROADCASTS)
            held_at_2n = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            clear_process_caches()
        assert first == second == self.BROADCASTS * (self.KEYS - 1)
        assert held_at_2n - held_at_n < 16 * 1024


class TestPublicKey:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            PublicKey("rsa", 1)

    def test_dh_requires_material(self):
        with pytest.raises(ValueError):
            PublicKey("dh", 1)

    def test_hashable(self):
        a = KeyPair.generate("sim", seed=1).public
        b = KeyPair.generate("sim", seed=2).public
        assert len({a, b, a}) == 2

    def test_keypair_ids_deterministic_per_seed(self):
        assert KeyPair.generate("sim", seed=5).public.key_id == KeyPair.generate("sim", seed=5).public.key_id
