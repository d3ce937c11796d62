"""Symmetric authenticated encryption from the standard library.

A SHA-256 counter-mode keystream provides the cipher and HMAC-SHA256
provides integrity. Together with the DH KEM in :mod:`repro.crypto.dh`
this yields an authenticated hybrid public-key scheme, which is all the
onion layers of RAC need: a relay must be able to *detect* whether it
successfully deciphered a layer (the paper's per-layer "flag"), which is
exactly what the MAC check gives us.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import struct

__all__ = ["keystream_xor", "mac", "verify_mac", "encrypt", "decrypt", "AuthenticationError", "MAC_LEN"]

MAC_LEN = 16
_BLOCK = 32  # SHA-256 output size
_PACK_COUNTER = struct.Struct(">Q").pack

#: Packed big-endian counters, extended lazily; a 10 kB message needs
#: 313 of them per keystream, so re-packing per block adds up.
_COUNTER_PACKS: "list[bytes]" = [_PACK_COUNTER(i) for i in range(512)]


def keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA256-CTR keystream; its own inverse.

    The keystream block for counter ``c`` is ``SHA256(key || nonce ||
    c)``, exactly as in the original per-byte implementation — but the
    blocks are generated from a shared midstate (one hash of ``key ||
    nonce``, copied per block) and the XOR happens in a single big-int
    operation instead of a Python loop, which is where simulation time
    used to go: every trial-peel of every broadcast runs through here.
    """
    size = len(data)
    if size == 0:
        return b""
    nblocks = (size + _BLOCK - 1) // _BLOCK
    packs = _COUNTER_PACKS
    while nblocks > len(packs):
        packs.append(_PACK_COUNTER(len(packs)))
    base = hashlib.sha256(key + nonce)
    copy = base.copy
    stream = b"".join([_ctr_block(copy(), pack) for pack in packs[:nblocks]])[:size]
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(size, "big")


def _ctr_block(block, pack: bytes) -> bytes:
    block.update(pack)
    return block.digest()


class AuthenticationError(Exception):
    """Raised when a MAC check fails (layer not addressed to this key)."""


def mac(key: bytes, data: bytes, *more: bytes) -> bytes:
    """Truncated HMAC-SHA256 tag over ``data`` (and ``more``, as if
    concatenated: a 10 kB ciphertext is fed after its nonce, not copied
    behind it)."""
    tagger = hmac.new(key, data, hashlib.sha256)
    for part in more:
        tagger.update(part)
    return tagger.digest()[:MAC_LEN]


def verify_mac(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time comparison of the expected tag against ``tag``."""
    return hmac.compare_digest(mac(key, data), tag)


@functools.lru_cache(maxsize=4096)
def _split_key(key: bytes) -> "tuple[bytes, bytes]":
    # Cached: every seal/open of a layer re-derives the same two
    # subkeys, and a simulation touches the same node keys constantly.
    # The derivation is a pure function of ``key``, so caching cannot
    # change any output byte.
    enc = hashlib.sha256(b"rac/enc" + key).digest()
    auth = hashlib.sha256(b"rac/auth" + key).digest()
    return enc, auth


def encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC; the tag is prepended to the ciphertext."""
    enc_key, auth_key = _split_key(key)
    ciphertext = keystream_xor(enc_key, nonce, plaintext)
    return mac(auth_key, nonce, ciphertext) + ciphertext


def decrypt(key: bytes, nonce: bytes, blob: bytes) -> bytes:
    """Check the tag and decrypt. Raises :class:`AuthenticationError`."""
    if len(blob) < MAC_LEN:
        raise AuthenticationError("ciphertext too short")
    view = memoryview(blob)
    tag, ciphertext = view[:MAC_LEN], view[MAC_LEN:]
    enc_key, auth_key = _split_key(key)
    if not hmac.compare_digest(mac(auth_key, nonce, ciphertext), tag):
        raise AuthenticationError("MAC mismatch")
    return keystream_xor(enc_key, nonce, ciphertext)
