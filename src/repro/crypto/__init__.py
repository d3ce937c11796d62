"""Cryptographic substrate for the RAC reproduction.

Sub-modules:

* :mod:`repro.crypto.hashes` — one-way functions ``f``/``g`` (group
  puzzle), ring-position hashing, message identifiers;
* :mod:`repro.crypto.dh` — Diffie-Hellman over RFC 3526 MODP groups;
* :mod:`repro.crypto.stream` — SHA256-CTR cipher + HMAC;
* :mod:`repro.crypto.keys` — the two-backend (``dh`` real / ``sim``
  fast) keypair and sealed-box API the protocol code uses;
* :mod:`repro.crypto.shuffle` — the Dissent v1 accountable shuffle.
"""

from .hashes import message_id, oneway_f, oneway_g, ring_position, sha256_int, truncated_bits
from .keys import AuthenticationError, KeyPair, PublicKey, seal, sealed_overhead
from .shuffle import DishonestParticipant, ShuffleParticipant, ShuffleResult, run_shuffle
from . import dh as _dh
from . import keys as _keys


def clear_process_caches() -> None:
    """Reset every module-level crypto cache in this process.

    The two shared-base stores of :mod:`repro.crypto.dh` (trial counts,
    combs of broadcast values, window tables of recipient keys), its
    cache of each key's comb column recoding, and the ``lru_cache``'d
    derivations keyed by long-lived values
    (:func:`repro.crypto.keys._sim_symmetric_key`,
    :func:`repro.crypto.hashes.ring_position`) are pure-function caches,
    so they never change results — but a sweep worker that executes many
    runs back to back would (a) grow them without bound across runs and
    (b) inherit a fork-parent's warm cache, making per-run memory and
    timing depend on sibling runs. Worker-run boundaries call this to
    keep every run cold-started and memory-bounded; it also returns both
    stores to counting, so a run hosting one node never builds a
    broadcast table because a sibling run hosted a group.
    """
    _dh.clear_base_store()
    _keys._sim_symmetric_key.cache_clear()
    ring_position.cache_clear()


__all__ = [
    "clear_process_caches",
    "message_id",
    "oneway_f",
    "oneway_g",
    "ring_position",
    "sha256_int",
    "truncated_bits",
    "AuthenticationError",
    "KeyPair",
    "PublicKey",
    "seal",
    "sealed_overhead",
    "DishonestParticipant",
    "ShuffleParticipant",
    "ShuffleResult",
    "run_shuffle",
]
