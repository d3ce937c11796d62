"""Diffie-Hellman key agreement over the RFC 3526 MODP groups.

This is the "real" asymmetric backend of the crypto substrate: a genuine
ElGamal-style key-encapsulation mechanism built only on the standard
library's big ints. RAC itself never depends on a particular cipher;
see :mod:`repro.crypto.keys` for the backend indirection.

Every exponentiation returns the integer ``pow(base, x, p)`` would. A
base that gets reused walks a table built once for it, and which side
is reused picks the table kind:

* ``g^x`` (key generation, ephemeral keys) walks a per-group window
  table of ``g``;
* a broadcast's ephemeral value raised by the process's long-lived keys
  (:meth:`DHPrivateKey.shared_secret`, the 2*G trial decryptions RAC's
  receive rule asks of a G-member group) walks an 8-row comb of that
  value — the keys come back on every broadcast, so each key's column
  recoding is computed once and cached;
* a recipient's long-lived public key raised to a fresh ephemeral
  exponent (``shared_secret(..., sealing=True)``, one per ``seal``)
  walks a window table of that key, which needs no per-exponent work.

The last two live in two small LRU stores of public powers of public
values. A store pays plain ``pow`` for the first trials against a base
until one of its bases reaches the third; from then on it tables a new
base at its first trial. A process hosting one node (two trials per
ephemeral value) therefore never builds a broadcast table. Exponents
too long for a table fall back to ``pow``; each key still derives its
own secret from its own exponent. None of the routes is constant-time,
which is within what this stdlib-only, simulation-grade backend claims.

The paper assumes a global active opponent that *cannot invert
encryption* (Section II-A). A 2048-bit MODP group with SHA-256 key
derivation honours that assumption for real; the simulated backend in
:mod:`repro.crypto.keys` only mimics the interface.

For test speed a 512-bit group is also provided (``GROUP_TEST``); it is
obviously not secure and exists only to keep the full test suite fast.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = ["DHGroup", "GROUP_2048", "GROUP_TEST", "DHPrivateKey", "DHPublicKey", "generate_keypair"]

#: Window (bits) of ``g``'s table. Each ``g^x`` costs at most
#: ``exponent_bits / _G_WINDOW`` modular multiplications and zero
#: squarings once the per-group table is built.
_G_WINDOW = 5

#: (prime, generator, exponent_bits) -> window table of ``g``. Key
#: generation and every ephemeral KEM key share the same base g, so the
#: table is built once per group and amortised across the population.
_G_TABLES: "Dict[Tuple[int, int, int], List[List[int]]]" = {}


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


# ---------------------------------------------------------------------------
# Shared-base stores
#
# RAC's receive rule makes every group member try its ID key and then
# its pseudonym key on every first-seen broadcast, so a process that
# simulates G nodes raises one ephemeral public value E to 2*G exponents
# — the same 2*G on every broadcast. ``seal`` raises a recipient's
# public key, one of a few dozen in a group, to a fresh exponent each
# time. Whichever side is reused gets the work done once: a broadcast
# value gets an 8-row comb (the 255 subset products of ``E^(2^(w*j))``,
# w = bits/8; 20 squarings and <= 20 multiplications per trial on the
# 160-bit exponents), walked with each key's column recoding, which a
# key pays once; a recipient key gets a window table (w=4, <= bits/4
# multiplications and no per-exponent work, which a fresh exponent could
# not amortise). What is shared is public; exponents, secrets, KDF
# outputs and MAC checks stay per key, and the integer is ``pow``'s.
#
# Break-even, measured on the 512-bit test group (160-bit exponents) in
# units of one cold ``pow`` (~240 us on a shared x86-64 host; 2048-bit
# group in brackets): a comb costs 2.1 [1.6] to build and 0.21 [0.22] a
# trial, plus 0.05 [0.006] once per key for its recoding; a w=4 window
# table 3.5 [3.7] and 0.22 [0.23]. The comb wins on the build and on
# size, not per trial. n trials against a value tabled at its first cost
# 2.1 + 0.21 n: behind cold ``pow`` at two trials (2.5 against 2), ahead
# from the third, 0.30 n at the 24 trials of a 12-node group (0.43 n for
# a window table built at the third). So a store counts until one base
# reaches the third trial — the process hosts a group — and from then
# on tables every base it meets; a process that hosts one node (two
# trials per ephemeral value, ``live/worker.py``) never builds a
# broadcast table and pays exactly ``pow``. A comb is 256 integers,
# ~25 kB (~73 kB on the 2048-bit group), a window table 640, ~60 kB
# (~290 kB). A simulated group has a dozen or so broadcasts in flight,
# so that store holds 16; recipient keys get 32 of their own, every key
# of a 12-node group — sharing one LRU, the broadcast values flushed
# them before their third seal.
# ---------------------------------------------------------------------------

_BASE_BUILD_AT = 3
_BASE_STORE_MAX = 16
_COMB_ROWS = 8
_COLUMN_CACHE_MAX = 1024
_RECIPIENT_STORE_MAX = 32
_RECIPIENT_WINDOW = 4


def _comb_width(exponent_bits: int) -> int:
    return -(-exponent_bits // _COMB_ROWS)


def _comb_table(base: int, prime: int, exponent_bits: int) -> "List[int]":
    """Entry ``s`` is the product of ``base ** (1 << width * j) % prime``
    over the bits ``j`` set in ``s``, ``width`` being ``_comb_width``."""
    width = _comb_width(exponent_bits)
    row = base % prime
    table = [1]
    for j in range(_COMB_ROWS):
        if j:
            for _ in range(width):
                row = row * row % prime
        table += [entry * row % prime for entry in table]
    return table


@functools.lru_cache(maxsize=_COLUMN_CACHE_MAX)
def _comb_columns(exponent: int, width: int) -> "Tuple[int, ...]":
    """The comb indexes of ``exponent``, most significant column first:
    bit ``j`` of column ``i``'s index is bit ``i + width * j`` of the
    exponent. Cached here, never on a key object (snapshots pickle keys):
    the exponents a comb is walked with are the process's long-lived
    keys, each back on every broadcast."""
    mask = (1 << width) - 1
    rows = [format(exponent >> width * j & mask, f"0{width}b") for j in reversed(range(_COMB_ROWS))]
    return tuple(int("".join(bits), 2) for bits in zip(*rows))


def _comb_pow(table: "List[int]", base: int, exponent: int, group: "DHGroup") -> int:
    """``pow(base, exponent, prime)`` by walking ``base``'s comb: one
    squaring and at most one multiplication per column. An exponent the
    comb has no rows for (or a negative one) falls back to ``pow``."""
    prime = group.prime
    width = _comb_width(group.exponent_bits)
    if exponent >> width * _COMB_ROWS:
        return pow(base, exponent, prime)
    result = 1
    for index in _comb_columns(exponent, width):
        result = result * result % prime
        if index:
            result = result * table[index] % prime
    return result


def _recipient_table(base: int, prime: int, exponent_bits: int) -> "List[List[int]]":
    return _window_table(base, prime, exponent_bits, _RECIPIENT_WINDOW)


def _recipient_pow(table: "List[List[int]]", base: int, exponent: int, group: "DHGroup") -> int:
    return _window_pow(table, _RECIPIENT_WINDOW, base, exponent, group.prime)


class _BaseStore(OrderedDict):
    """A bounded LRU of the bases one role raises to many exponents.

    ``(prime, exponent_bits, base)`` maps to the trials counted so far
    (an int) or the base's table once built; ``exponent_bits`` is in the
    key because a table's layout depends on it. Until one base reaches
    ``_BASE_BUILD_AT`` trials every base pays ``pow`` for its first
    trials; from then on (``eager``) every trial walks a table, and a
    new base's table is built at its first trial.
    """

    def __init__(
        self,
        capacity: int,
        build: "Callable[[int, int, int], List]",
        walk: "Callable[[List, int, int, DHGroup], int]",
    ) -> None:
        super().__init__()
        self.capacity = capacity
        self.build = build
        self.walk = walk
        self.eager = False

    def clear(self) -> None:
        super().clear()
        self.eager = False

    def pow(self, base: int, exponent: int, group: "DHGroup") -> int:
        """``pow(base, exponent, group.prime)``, through the store."""
        prime, bits = group.prime, group.exponent_bits
        key = (prime, bits, base)
        entry = self.get(key)
        if entry is None:
            if len(self) >= self.capacity:
                self.popitem(last=False)
            if not self.eager:
                self[key] = 1
                return pow(base, exponent, prime)
            entry = self[key] = self.build(base, prime, bits)
        else:
            self.move_to_end(key)
            if entry.__class__ is int:
                if entry + 1 < _BASE_BUILD_AT and not self.eager:
                    self[key] = entry + 1
                    return pow(base, exponent, prime)
                self.eager = True
                entry = self[key] = self.build(base, prime, bits)
        return self.walk(entry, base, exponent, group)


#: Broadcast ephemeral values, raised by the process's long-lived keys.
_BASE_STORE = _BaseStore(_BASE_STORE_MAX, _comb_table, _comb_pow)
#: Recipients' long-lived public keys, raised to fresh ephemeral exponents.
_RECIPIENT_STORE = _BaseStore(_RECIPIENT_STORE_MAX, _recipient_table, _recipient_pow)


def clear_base_store() -> None:
    """Forget every trial count, table and column recoding of both
    stores, and return them to counting."""
    _BASE_STORE.clear()
    _RECIPIENT_STORE.clear()
    _comb_columns.cache_clear()


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
        """``generator ** exponent mod prime`` via a fixed-base window table.

        Byte-identical to ``pow(generator, exponent, prime)`` but 3-4x
        faster once the per-group table exists, because the precomputed
        powers eliminate every squaring. Exponents longer than the
        table (never produced by :meth:`random_exponent`) fall back to
        built-in ``pow``.
        """
        key = (self.prime, self.generator, self.exponent_bits)
        table = _G_TABLES.get(key)
        if table is None:
            table = _G_TABLES[key] = _window_table(
                self.generator, self.prime, self.exponent_bits, _G_WINDOW
            )
        return _window_pow(table, _G_WINDOW, self.generator, exponent, self.prime)


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

    def shared_secret(self, peer: DHPublicKey, sealing: bool = False) -> bytes:
        """Raw DH shared secret ``peer^x mod p``, hashed to 32 bytes.

        By default ``peer`` is a broadcast's ephemeral value and this a
        long-lived key trying it; ``sealing`` says this is a fresh
        ephemeral key and ``peer`` a recipient's long-lived key. The
        role only picks the store whose table is walked."""
        if peer.group.prime != self.group.prime:
            raise ValueError("DH keys belong to different groups")
        store = _RECIPIENT_STORE if sealing else _BASE_STORE
        secret = store.pow(peer.value, self.exponent, self.group)
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
