"""Diffie-Hellman key agreement over the RFC 3526 MODP groups.

This is the "real" asymmetric backend of the crypto substrate: a genuine
ElGamal-style key-encapsulation mechanism built only on the standard
library's big ints. RAC itself never depends on a particular cipher;
see :mod:`repro.crypto.keys` for the backend indirection.

Every exponentiation returns the integer ``pow(base, x, p)`` would, by
one of three routes: ``g^x`` (key generation, ephemeral keys) walks a
per-group comb table of ``g``; ``peer^x`` (:meth:`DHPrivateKey.shared_secret`)
is a plain ``pow`` for the first two trials against a base and, from
the third, walks a window table of that base's public powers kept in a
small LRU store — the 2*G trial decryptions RAC's receive rule asks of a
G-member group share one base per broadcast, so a process simulating
the group squares it once, not 2*G times; exponents too long for a
table fall back to ``pow``. Only public powers of public values are
shared: each key still derives its own secret from its own exponent.
None of the three routes is constant-time, which is within what this
stdlib-only, simulation-grade backend claims.

The paper assumes a global active opponent that *cannot invert
encryption* (Section II-A). A 2048-bit MODP group with SHA-256 key
derivation honours that assumption for real; the simulated backend in
:mod:`repro.crypto.keys` only mimics the interface.

For test speed a 512-bit group is also provided (``GROUP_TEST``); it is
obviously not secure and exists only to keep the full test suite fast.
"""

from __future__ import annotations

import hashlib
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

__all__ = ["DHGroup", "GROUP_2048", "GROUP_TEST", "DHPrivateKey", "DHPublicKey", "generate_keypair"]

#: Fixed-base comb window (bits). Each fixed-base exponentiation costs
#: at most ``exponent_bits / _COMB_WINDOW`` modular multiplications and
#: zero squarings once the per-group table is built.
_COMB_WINDOW = 5

#: (prime, generator, exponent_bits) -> comb table. Key generation and
#: every ephemeral KEM key share the same base g, so the table is built
#: once per group and amortised across the whole population.
_COMB_TABLES: "Dict[Tuple[int, int, int], List[List[int]]]" = {}

# ---------------------------------------------------------------------------
# Shared-base store
#
# RAC's receive rule makes every group member try its ID key and then
# its pseudonym key on every first-seen broadcast, so a process that
# simulates G nodes raises one ephemeral public value to 2*G different
# exponents. The squarings of those exponentiations depend on the base
# alone: ``shared_secret`` counts the trials made against a base and, at
# the ``_BASE_BUILD_AT``-th, builds the comb table of its public powers
# once; every later exponent costs ``bits / _BASE_WINDOW`` multiplications
# and no squaring. What is shared is public (powers of a value that
# travelled in the clear); exponents, secrets, KDF outputs and MAC
# checks stay per key, and the integer returned is ``pow``'s.
#
# Break-even, measured on the 512-bit test group (160-bit exponents) in
# units of one cold ``pow``: building a table at w=4 is 40 rows x 15
# multiplications = 3.3, walking it is <= 40 multiplications = 0.21
# (3.6 and 0.22 on the 2048-bit group). n trials against one base cost
# 2 + 3.3 + 0.21 (n - 2): worse than n cold exponentiations up to the
# sixth trial (5.5 for 3 at worst), better from the seventh, 0.42 n at
# the 24 trials of a 12-node group. w=3 (build 2.1, walk 0.29) and w=5
# (5.4, 0.17) land at 0.43 n and 0.47 n there. Building at the third
# trial rather than the second is what keeps a process that hosts one
# node — two trials per ephemeral value, ``live/worker.py`` — from ever
# building: it pays exactly ``pow``. A table is 40 x 16 integers of 512
# bits, ~60 kB (~290 kB on the 2048-bit group), and a simulated group
# has a dozen or so broadcasts in flight, so the store is small: at 16,
# 32 and 64 entries the 12-node onion benchmark spends the same time
# and peaks at 60.6, 61.6 and 63.6 MiB.
# ---------------------------------------------------------------------------

_BASE_WINDOW = 4
_BASE_BUILD_AT = 3
_BASE_STORE_MAX = 16

#: (prime, base) -> trials made so far (int), or the base's table once built.
_BASE_STORE: "OrderedDict[Tuple[int, int], Union[int, List[List[int]]]]" = OrderedDict()


def clear_base_store() -> None:
    """Forget every trial count and shared-base table."""
    _BASE_STORE.clear()


def _window_table(base: int, prime: int, exponent_bits: int, window: int) -> "List[List[int]]":
    """Row ``k`` holds ``base ** (d << window * k) % prime`` for every digit ``d``."""
    table = []
    base %= prime
    for _ in range((exponent_bits + window - 1) // window):
        row = [1, base]
        for _ in range(2, 1 << window):
            row.append(row[-1] * base % prime)
        table.append(row)
        base = row[-1] * base % prime
    return table


def _window_pow(table: "List[List[int]]", window: int, base: int, exponent: int, prime: int) -> int:
    """``pow(base, exponent, prime)`` by walking ``base``'s table: one
    multiplication per non-zero digit, no squaring. An exponent the
    table has no rows for (or a negative one) falls back to ``pow``."""
    if exponent >> (window * len(table)):
        return pow(base, exponent, prime)
    mask = (1 << window) - 1
    result = 1
    row = 0
    while exponent:
        digit = exponent & mask
        if digit:
            result = result * table[row][digit] % prime
        exponent >>= window
        row += 1
    return result


def _shared_base_pow(base: int, exponent: int, group: "DHGroup") -> int:
    """``pow(base, exponent, group.prime)``, through the shared-base store."""
    prime = group.prime
    store = _BASE_STORE
    key = (prime, base)
    entry = store.get(key)
    if entry is None:
        if len(store) >= _BASE_STORE_MAX:
            store.popitem(last=False)
        store[key] = 1
        return pow(base, exponent, prime)
    store.move_to_end(key)
    if isinstance(entry, int):
        if entry + 1 < _BASE_BUILD_AT:
            store[key] = entry + 1
            return pow(base, exponent, prime)
        entry = store[key] = _window_table(base, prime, group.exponent_bits, _BASE_WINDOW)
    return _window_pow(entry, _BASE_WINDOW, base, exponent, prime)


@dataclass(frozen=True)
class DHGroup:
    """A prime-order multiplicative group for Diffie-Hellman."""

    prime: int
    generator: int
    exponent_bits: int

    def random_exponent(self, rng: "secrets.SystemRandom | None" = None) -> int:
        # Rejection-sample instead of the historical ``| 1``, which
        # forced every exponent odd and halved the sampled keyspace for
        # no benefit (the groups here are prime-order safe-prime
        # groups; only the zero exponent is degenerate).
        while True:
            if rng is None:
                exponent = secrets.randbits(self.exponent_bits)
            else:
                exponent = rng.getrandbits(self.exponent_bits)
            if exponent:
                return exponent

    def fixed_base_pow(self, exponent: int) -> int:
        """``generator ** exponent mod prime`` via a fixed-base comb.

        Byte-identical to ``pow(generator, exponent, prime)`` but 3-4x
        faster once the per-group table exists, because the precomputed
        powers eliminate every squaring. Exponents longer than the
        table (never produced by :meth:`random_exponent`) fall back to
        built-in ``pow``.
        """
        key = (self.prime, self.generator, self.exponent_bits)
        table = _COMB_TABLES.get(key)
        if table is None:
            table = _COMB_TABLES[key] = _window_table(
                self.generator, self.prime, self.exponent_bits, _COMB_WINDOW
            )
        return _window_pow(table, _COMB_WINDOW, self.generator, exponent, self.prime)


# RFC 3526, group 14 (2048-bit MODP).
_P2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

GROUP_2048 = DHGroup(prime=_P2048, generator=2, exponent_bits=256)

# A small safe prime (512 bits) for fast tests. NOT SECURE.
_P512 = int(
    "F52A9F64B58C0F3A5F20BC6A04264A6CB88B72051B63B41B6046AF7CB186E2C1"
    "7C8AEAF5DFB4B8F93BA1E8A9F1577C7393AC0E9BAE7B9AF1BB941B50B91DD6BB",
    16,
)
GROUP_TEST = DHGroup(prime=_P512, generator=5, exponent_bits=160)


@dataclass(frozen=True)
class DHPublicKey:
    """Public half of a DH keypair (``g^x mod p``)."""

    group: DHGroup
    value: int

    def fingerprint(self) -> int:
        digest = hashlib.sha256(self.value.to_bytes((self.value.bit_length() + 7) // 8, "big"))
        return int.from_bytes(digest.digest()[:16], "big")


@dataclass(frozen=True)
class DHPrivateKey:
    """Private half of a DH keypair (the exponent ``x``)."""

    group: DHGroup
    exponent: int

    def public_key(self) -> DHPublicKey:
        return DHPublicKey(self.group, self.group.fixed_base_pow(self.exponent))

    def shared_secret(self, peer: DHPublicKey) -> bytes:
        """Raw DH shared secret ``peer^x mod p``, hashed to 32 bytes."""
        if peer.group.prime != self.group.prime:
            raise ValueError("DH keys belong to different groups")
        secret = _shared_base_pow(peer.value, self.exponent, self.group)
        raw = secret.to_bytes((self.group.prime.bit_length() + 7) // 8, "big")
        return hashlib.sha256(b"rac/dh-kdf" + raw).digest()


def generate_keypair(group: DHGroup = GROUP_2048, seed: "int | None" = None) -> DHPrivateKey:
    """Generate a DH keypair.

    ``seed`` makes generation deterministic, which simulations use to
    build reproducible populations; real deployments leave it ``None``
    so the exponent comes from the OS entropy pool.
    """
    if seed is None:
        exponent = group.random_exponent()
    else:
        # The seeded derivation keeps its historical ``| 1``: fixed-seed
        # populations (and the determinism pins in
        # tests/integration/test_determinism.py) must keep producing the
        # exact same keys. The bias fix applies to the unseeded,
        # security-relevant sampling in :meth:`DHGroup.random_exponent`.
        material = hashlib.sha256(b"rac/dh-seed" + seed.to_bytes(16, "big", signed=True)).digest()
        exponent = int.from_bytes(material, "big") % (1 << group.exponent_bits) | 1
    return DHPrivateKey(group, exponent)
