"""Equivalence properties for the optimised crypto hot paths.

The fast-path implementations (bulk big-int keystream XOR, cached key
splitting, ``g``'s window table, the shared-base stores' combs and
window tables)
must be *byte-identical* to the straightforward seed-code definitions —
every wire blob of a fixed-seed simulation is pinned by
``tests/integration/test_determinism.py``, so even a single differing
byte would be a protocol change, not an optimisation. Each test here
re-implements the original definition from first principles and checks
the production code against it on adversarial inputs (empty messages,
non-block-multiple sizes, exact block boundaries).
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.crypto import clear_process_caches, dh, stream
from repro.crypto.dh import GROUP_2048, GROUP_TEST, DHGroup, DHPrivateKey, DHPublicKey
from repro.crypto.keys import KeyPair, seal

keys = st.binary(min_size=16, max_size=32)
nonces = st.binary(min_size=8, max_size=16)

# Sizes engineered around the 32-byte block: empty, sub-block, exact
# multiples, one off either side of a boundary, and a multi-block tail.
_EDGE_SIZES = [0, 1, 31, 32, 33, 63, 64, 65, 100, 512]
payloads = st.one_of(
    st.sampled_from(_EDGE_SIZES).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    st.binary(min_size=0, max_size=700),
)


def reference_keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """The seed implementation: per-block hash, per-byte XOR loop."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        block = hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out[: len(data)]))


def reference_split_key(key: bytes) -> "tuple[bytes, bytes]":
    """The seed key derivation, uncached."""
    enc = hashlib.sha256(b"rac/enc" + key).digest()
    auth = hashlib.sha256(b"rac/auth" + key).digest()
    return enc, auth


class TestKeystreamEquivalence:
    @given(keys, nonces, payloads)
    def test_bulk_xor_matches_reference(self, key, nonce, data):
        assert stream.keystream_xor(key, nonce, data) == reference_keystream_xor(
            key, nonce, data
        )

    def test_empty_message(self):
        assert stream.keystream_xor(b"k" * 16, b"n" * 8, b"") == b""

    def test_non_block_multiple_edges(self):
        key, nonce = b"k" * 16, b"n" * 8
        for size in _EDGE_SIZES:
            data = bytes(range(256)) * (size // 256 + 1)
            data = data[:size]
            assert stream.keystream_xor(key, nonce, data) == reference_keystream_xor(
                key, nonce, data
            ), f"mismatch at size {size}"


class TestSplitKeyEquivalence:
    @given(st.binary(min_size=0, max_size=64))
    def test_cached_split_matches_reference(self, key):
        assert stream._split_key(key) == reference_split_key(key)

    @given(keys, nonces, payloads)
    def test_encrypt_decrypt_round_trip_uses_same_bytes(self, key, nonce, plaintext):
        # encrypt() composes _split_key + keystream_xor + mac; if every
        # component matches its reference, the blob must round-trip and
        # equal a from-scratch recomputation.
        enc_key, auth_key = reference_split_key(key)
        expected_ct = reference_keystream_xor(enc_key, nonce, plaintext)
        expected = stream.mac(auth_key, nonce + expected_ct) + expected_ct
        assert stream.encrypt(key, nonce, plaintext) == expected
        assert stream.decrypt(key, nonce, expected) == plaintext


class TestSealEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.binary(min_size=0, max_size=200),
           st.integers(min_value=0, max_value=2**60))
    def test_sim_seal_is_cache_independent(self, key_seed, plaintext, seal_seed):
        pair = KeyPair.generate("sim", seed=key_seed)
        blob = seal(pair.public, plaintext, seed=seal_seed)
        assert seal(pair.public, plaintext, seed=seal_seed) == blob
        assert pair.unseal(blob) == plaintext

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.binary(min_size=0, max_size=200),
           st.integers(min_value=0, max_value=2**60))
    def test_dh_seal_open_identical_with_cold_and_warm_kem_cache(
        self, key_seed, plaintext, seal_seed
    ):
        # The name predates the shared-base stores, which took the KEM
        # cache's place: cold, counted-but-unbuilt (two trials) and
        # table-built states of both stores must produce the same bytes.
        pair = KeyPair.generate("dh", seed=key_seed)
        dh.clear_base_store()
        blobs, opened = [], []
        for _ in range(dh._BASE_BUILD_AT + 1):
            blobs.append(seal(pair.public, plaintext, seed=seal_seed))
            opened.append(pair.unseal(blobs[-1]))
        assert _tables() == _tables(dh._RECIPIENT_STORE) == 1
        dh.clear_base_store()
        assert pair.unseal(blobs[-1]) == plaintext  # cold unseal of a table-sealed blob
        assert set(blobs) == {blobs[0]}
        assert set(opened) == {plaintext}

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**60))
    def test_recipient_table_survives_interleaved_broadcasts(self, key_seed, seal_seed):
        pair = KeyPair.generate("dh", seed=key_seed)
        recipient = (GROUP_TEST.prime, GROUP_TEST.exponent_bits, pair.public.dh_value)
        dh.clear_base_store()
        blobs = [seal(pair.public, b"layer", seed=seal_seed) for _ in range(dh._BASE_BUILD_AT)]
        assert isinstance(dh._RECIPIENT_STORE[recipient], list)
        for value in range(2, 2 + dh._BASE_STORE_MAX + 4):  # broadcasts in flight, each tried thrice
            for exponent in (3, 5, 7):
                _secret(GROUP_TEST, exponent, value)
        assert len(dh._BASE_STORE) == dh._BASE_STORE_MAX
        assert isinstance(dh._RECIPIENT_STORE[recipient], list)
        blobs.append(seal(pair.public, b"layer", seed=seal_seed))
        assert set(blobs) == {blobs[0]}
        assert pair.unseal(blobs[0]) == b"layer"


class TestFixedBasePowEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**160 - 1))
    def test_comb_matches_builtin_pow(self, exponent):
        group = GROUP_TEST
        assert group.fixed_base_pow(exponent) == pow(group.generator, exponent, group.prime)

    def test_oversized_exponent_falls_back(self):
        group = GROUP_TEST
        exponent = (1 << 300) + 12345
        assert group.fixed_base_pow(exponent) == pow(group.generator, exponent, group.prime)


def _secret(group, exponent: int, base: int, sealing: bool = False) -> bytes:
    return DHPrivateKey(group, exponent).shared_secret(DHPublicKey(group, base), sealing=sealing)


def _reference_secret(group, exponent: int, base: int) -> bytes:
    """The seed definition: one cold ``pow`` per key, then the KDF."""
    raw = pow(base, exponent, group.prime).to_bytes((group.prime.bit_length() + 7) // 8, "big")
    return hashlib.sha256(b"rac/dh-kdf" + raw).digest()


def _tables(store=None) -> int:
    store = dh._BASE_STORE if store is None else store
    return sum(isinstance(entry, list) for entry in store.values())


def _entry(store, group, base):
    return store.get((group.prime, group.exponent_bits, base))


groups = st.sampled_from([GROUP_TEST, GROUP_2048])
roles = st.sampled_from([False, True])  # sealing: the recipient store, else the broadcast store


class TestSharedBaseEquivalence:
    """``DHPrivateKey.shared_secret`` through either shared-base store is
    ``pow`` — in every store state and in any trial order."""

    @settings(max_examples=25, deadline=None)
    @given(groups, st.data())
    def test_shared_base_matches_builtin_pow(self, group, data):
        base = data.draw(st.integers(min_value=0, max_value=group.prime + 1))
        edge = [0, 1, (1 << group.exponent_bits) - 1]
        drawn = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << group.exponent_bits) - 1), max_size=4)
        )
        dh.clear_base_store()
        for exponent in edge + drawn + edge:  # edges before and after the table is built
            assert _secret(group, exponent, base) == _reference_secret(group, exponent, base)
        assert _tables() == 1

    @settings(max_examples=10, deadline=None)
    @given(groups, roles, st.integers(min_value=2, max_value=2**512), st.integers(min_value=1, max_value=2**64))
    def test_over_long_exponent_falls_back_to_pow(self, group, sealing, base, excess):
        exponent = (excess << group.exponent_bits) | 5
        dh.clear_base_store()
        # counting, tabled at the third trial, walked, and a fresh base tabled at its first
        for candidate in [base] * (dh._BASE_BUILD_AT + 1) + [base + 1]:
            assert _secret(group, exponent, candidate, sealing) == _reference_secret(group, exponent, candidate)

    @settings(max_examples=6, deadline=None)
    @given(groups, roles, st.integers(min_value=2, max_value=2**512))
    def test_every_store_state_matches_builtin_pow(self, group, sealing, base):
        # Counting (trials 1-2), tabled at the third, walked after, and a
        # fresh base tabled at its first trial once the store is eager.
        store = dh._RECIPIENT_STORE if sealing else dh._BASE_STORE
        for exponent in (0, 1, (1 << group.exponent_bits) - 1):
            expected = _reference_secret(group, exponent, base)
            dh.clear_base_store()
            for trial in range(1, dh._BASE_BUILD_AT + 2):
                assert _secret(group, exponent, base, sealing) == expected
                assert isinstance(_entry(store, group, base), list) == (trial >= dh._BASE_BUILD_AT)
                assert store.eager == (trial >= dh._BASE_BUILD_AT)
            fresh = base + 1
            assert _secret(group, exponent, fresh, sealing) == _reference_secret(group, exponent, fresh)
            assert isinstance(_entry(store, group, fresh), list)

    @settings(max_examples=8, deadline=None)
    @given(roles, st.integers(min_value=2, max_value=GROUP_TEST.prime - 2), st.data())
    def test_groups_sharing_a_prime_keep_their_own_tables(self, sealing, base, data):
        # A comb's column width is exponent_bits / 8, so a table built
        # for one group and walked for the other would be wrong: the
        # store key carries exponent_bits, not just (prime, base).
        wide = DHGroup(GROUP_TEST.prime, GROUP_TEST.generator, 256)
        trials = data.draw(
            st.lists(
                st.sampled_from([GROUP_TEST, wide]).flatmap(
                    lambda g: st.tuples(st.just(g), st.integers(min_value=1, max_value=(1 << g.exponent_bits) - 1))
                ),
                min_size=8,
                max_size=12,
            ).filter(lambda ts: len({g for g, _ in ts[:3]}) == 2)
        )
        dh.clear_base_store()
        for group, exponent in trials:
            assert _secret(group, exponent, base, sealing) == _reference_secret(group, exponent, base)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_interleaved_bases_evict_rebuild_and_agree(self, data):
        group = GROUP_TEST
        bases = data.draw(
            st.lists(
                st.integers(min_value=2, max_value=group.prime - 2),
                min_size=dh._BASE_STORE_MAX + 1,
                max_size=dh._BASE_STORE_MAX + 8,
                unique=True,
            )
        )
        exponents = data.draw(
            st.lists(st.integers(min_value=0, max_value=2**160 - 1), min_size=2, max_size=4)
        )
        # Hot bases come round often enough to get (and lose, and get
        # again) a table; the sweep over all bases is what evicts them.
        trials = [(b, x) for b in bases[:3] for x in exponents * 2] + [
            (b, exponents[0]) for b in bases
        ]
        trials = data.draw(st.permutations(trials * 2))
        expected = {(b, x): _reference_secret(group, x, b) for b, x in set(trials)}
        dh.clear_base_store()
        for base, exponent in trials:
            assert _secret(group, exponent, base) == expected[base, exponent]
            assert len(dh._BASE_STORE) <= dh._BASE_STORE_MAX

    def test_evicted_base_is_counted_and_built_afresh(self):
        # The first base is counted and tabled at its third trial; that
        # makes the store eager, so every later base (the hot one back
        # from eviction included) is tabled at its first.
        group, exponent = GROUP_TEST, 0xC0FFEE
        hot, *others = range(2, 3 + dh._BASE_STORE_MAX)
        dh.clear_base_store()
        for trial in range(1, dh._BASE_BUILD_AT + 1):
            assert _secret(group, exponent, hot) == _reference_secret(group, exponent, hot)
            assert _tables() == (trial == dh._BASE_BUILD_AT)
        for count, base in enumerate(others, start=2):
            assert _secret(group, exponent, base) == _reference_secret(group, exponent, base)
            assert _tables() == min(count, dh._BASE_STORE_MAX)
        assert _entry(dh._BASE_STORE, group, hot) is None
        assert _secret(group, exponent, hot) == _reference_secret(group, exponent, hot)
        assert isinstance(_entry(dh._BASE_STORE, group, hot), list)
        assert _tables() == len(dh._BASE_STORE) == dh._BASE_STORE_MAX

    @settings(max_examples=10, deadline=None)
    @given(
        roles,
        st.lists(st.integers(min_value=2, max_value=GROUP_TEST.prime - 2), min_size=2, max_size=12, unique=True),
        st.integers(min_value=1, max_value=2**160 - 1),
    )
    def test_one_base_at_the_threshold_tables_fresh_bases_at_their_first_trial(
        self, sealing, bases, exponent
    ):
        store = dh._RECIPIENT_STORE if sealing else dh._BASE_STORE
        first, *fresh = bases
        dh.clear_base_store()
        for base in fresh:  # one trial each: counted, nothing built
            _secret(GROUP_TEST, exponent, base, sealing)
            assert _entry(store, GROUP_TEST, base) == 1
        for _ in range(dh._BASE_BUILD_AT):
            _secret(GROUP_TEST, exponent, first, sealing)
        assert store.eager and _tables(store) == 1
        for base in fresh:  # counted before the threshold: tabled at the next trial
            _secret(GROUP_TEST, exponent, base, sealing)
            assert isinstance(_entry(store, GROUP_TEST, base), list)
        new = max(bases) + 1
        assert _secret(GROUP_TEST, exponent, new, sealing) == _reference_secret(GROUP_TEST, exponent, new)
        assert isinstance(_entry(store, GROUP_TEST, new), list)

    def test_clearing_the_process_caches_returns_the_stores_to_counting(self):
        for sealing in (False, True):
            for _ in range(dh._BASE_BUILD_AT):
                _secret(GROUP_TEST, 0xC0FFEE, 7, sealing)
        assert dh._BASE_STORE.eager and dh._RECIPIENT_STORE.eager
        assert dh._comb_columns.cache_info().currsize
        clear_process_caches()
        assert dh._comb_columns.cache_info().currsize == 0
        for store, sealing in ((dh._BASE_STORE, False), (dh._RECIPIENT_STORE, True)):
            assert not store and not store.eager
            _secret(GROUP_TEST, 0xC0FFEE, 7, sealing)
            assert _entry(store, GROUP_TEST, 7) == 1

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=2, max_value=GROUP_TEST.prime - 2),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        st.integers(min_value=1, max_value=2**160 - 1),
        st.integers(min_value=1, max_value=2**160 - 1),
    )
    def test_two_trials_per_base_never_build_a_table(self, bases, id_exponent, pseudonym_exponent):
        # A process that hosts one node tries its two keys on each
        # ephemeral value and nothing else: it must pay plain ``pow``.
        dh.clear_base_store()
        for base in bases:
            _secret(GROUP_TEST, id_exponent, base)
            _secret(GROUP_TEST, pseudonym_exponent, base)
        assert dh._BASE_STORE and _tables() == 0
