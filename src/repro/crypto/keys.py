"""Key material for RAC nodes.

Every RAC node owns **two** private/public key pairs (Section IV-C):

* the *ID keys*, linked to the node identifier, used for the onion
  layers addressed to relays;
* the *pseudonym keys*, unlinkable to the node identifier, used to
  encrypt a message for its final destination. How nodes learn each
  other's public pseudonym keys is application-dependent (the paper's
  example is an anonymous publish-subscribe system; see
  ``examples/anonymous_pubsub.py``).

Two interchangeable backends provide the asymmetric primitive:

``dh``
    A genuine ElGamal-style hybrid scheme over a MODP group
    (:mod:`repro.crypto.dh` + :mod:`repro.crypto.stream`). Slow but
    real; the global opponent genuinely cannot invert it.

``sim``
    A *simulated* sealed box: same interface, same success/failure
    behaviour (unsealing succeeds iff the matching private key is
    used), but the payload is only obfuscated, not protected. Orders of
    magnitude faster; used for large-population simulations where the
    experiment measures message flow, not confidentiality. This
    substitution is recorded in DESIGN.md section 2.

Protocol code never branches on the backend: it calls
:func:`KeyPair.generate`, :func:`seal` and :meth:`KeyPair.unseal` only.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from dataclasses import dataclass, field
from typing import Optional

from . import dh as _dh
from . import stream as _stream
from .stream import AuthenticationError

__all__ = ["PublicKey", "KeyPair", "seal", "sealed_overhead", "AuthenticationError"]

_SIM_KEYID_LEN = 16
_SIM_NONCE_LEN = 16
_TAG_SIM = b"S"
_TAG_DH = b"D"

@dataclass(frozen=True, slots=True)
class PublicKey:
    """A public key: a stable 128-bit ``key_id`` plus backend material."""

    backend: str
    key_id: int
    dh_value: Optional[int] = None
    dh_group: Optional[_dh.DHGroup] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in ("sim", "dh"):
            raise ValueError(f"unknown key backend: {self.backend!r}")
        if self.backend == "dh" and (self.dh_value is None or self.dh_group is None):
            raise ValueError("dh-backend public key requires dh_value and dh_group")

    def __hash__(self) -> int:
        return hash((self.backend, self.key_id))


class KeyPair:
    """A private/public key pair under one of the two backends."""

    __slots__ = ("backend", "public", "_private")

    def __init__(self, backend: str, public: PublicKey, _private) -> None:
        self.backend = backend
        self.public = public
        self._private = _private
        if backend == "dh" and not isinstance(_private, _dh.DHPrivateKey):
            raise TypeError("dh backend requires a DHPrivateKey")

    @classmethod
    def generate(
        cls,
        backend: str = "sim",
        seed: "int | None" = None,
        group: _dh.DHGroup = _dh.GROUP_TEST,
    ) -> "KeyPair":
        """Generate a fresh keypair.

        ``seed`` gives deterministic keys for reproducible simulations.
        The ``dh`` backend defaults to the small test group; pass
        ``group=repro.crypto.dh.GROUP_2048`` for real-strength keys.
        """
        if backend == "sim":
            if seed is None:
                secret = secrets.token_bytes(32)
            else:
                secret = hashlib.sha256(b"rac/sim-key" + seed.to_bytes(16, "big", signed=True)).digest()
            key_id = int.from_bytes(
                hashlib.sha256(b"rac/sim-keyid" + secret).digest()[:_SIM_KEYID_LEN], "big"
            )
            return cls("sim", PublicKey("sim", key_id), secret)
        if backend == "dh":
            private = _dh.generate_keypair(group, seed=seed)
            pub = private.public_key()
            return cls(
                "dh",
                PublicKey("dh", pub.fingerprint(), dh_value=pub.value, dh_group=group),
                private,
            )
        raise ValueError(f"unknown key backend: {backend!r}")

    def unseal(self, blob: bytes) -> bytes:
        """Open a sealed box. Raises :class:`AuthenticationError` if the
        box was not sealed to this key (this is the paper's per-layer
        deciphering "flag": a failed unseal means *not for me*)."""
        if not blob:
            raise AuthenticationError("empty sealed box")
        # The miss path of a trial peel (2*G runs per onion layer): header
        # fields are read at their offsets and the body reaches the MAC
        # as one view, never as a copy.
        tag = blob[:1]
        if tag == _TAG_SIM:
            return self._unseal_sim(blob)
        if tag == _TAG_DH:
            return self._unseal_dh(blob)
        raise AuthenticationError("unknown sealed-box format")

    def _unseal_sim(self, blob: bytes) -> bytes:
        if self.backend != "sim":
            raise AuthenticationError("sealed box uses the sim backend")
        nonce_at = 1 + _SIM_KEYID_LEN
        body_at = nonce_at + _SIM_NONCE_LEN
        if len(blob) < body_at:
            raise AuthenticationError("sealed box too short")
        key_id = int.from_bytes(blob[1:nonce_at], "big")
        if key_id != self.public.key_id:
            raise AuthenticationError("sealed box addressed to a different key")
        sym = _sim_symmetric_key(key_id)
        return _stream.decrypt(sym, blob[nonce_at:body_at], memoryview(blob)[body_at:])

    def _unseal_dh(self, blob: bytes) -> bytes:
        if self.backend != "dh":
            raise AuthenticationError("sealed box uses the dh backend")
        group = self._private.group
        body_at = 1 + (group.prime.bit_length() + 7) // 8
        if len(blob) < body_at:
            raise AuthenticationError("sealed box too short")
        eph_bytes = blob[1:body_at]
        eph = int.from_bytes(eph_bytes, "big")
        # 0, 1 and p+1 give every exponent the same "secret", p-1 every
        # odd one: a box built on one of them would open under every
        # key and the per-layer flag would stop meaning "for me".
        if not 2 <= eph <= group.prime - 2:
            raise AuthenticationError("degenerate ephemeral key")
        shared = self._private.shared_secret(_dh.DHPublicKey(group, eph))
        nonce = hashlib.sha256(b"rac/seal-nonce" + eph_bytes).digest()[:16]
        return _stream.decrypt(shared, nonce, memoryview(blob)[body_at:])


@functools.lru_cache(maxsize=8192)
def _sim_symmetric_key(key_id: int) -> bytes:
    # The sim backend derives the symmetric key from the *public* key id:
    # interface-faithful (wrong key -> AuthenticationError) but knowingly
    # not confidential. See the module docstring. Cached: pure function
    # of the key id, recomputed on every seal/unseal otherwise.
    return hashlib.sha256(b"rac/sim-sym" + key_id.to_bytes(_SIM_KEYID_LEN, "big")).digest()


def seal(public: PublicKey, plaintext: bytes, seed: "int | None" = None) -> bytes:
    """Seal ``plaintext`` so that only the owner of ``public`` opens it.

    ``seed`` derandomizes the ephemeral material (nonce / ephemeral DH
    key) for reproducible simulations.
    """
    if public.backend == "sim":
        if seed is None:
            nonce = secrets.token_bytes(_SIM_NONCE_LEN)
        else:
            nonce = hashlib.sha256(b"rac/sim-nonce" + seed.to_bytes(16, "big", signed=True)).digest()[
                :_SIM_NONCE_LEN
            ]
        sym = _sim_symmetric_key(public.key_id)
        body = public.key_id.to_bytes(_SIM_KEYID_LEN, "big") + nonce
        return _TAG_SIM + body + _stream.encrypt(sym, nonce, plaintext)
    if public.backend == "dh":
        group = public.dh_group
        assert group is not None and public.dh_value is not None
        eph = _dh.generate_keypair(group, seed=seed)
        pub_len = (group.prime.bit_length() + 7) // 8
        eph_bytes = eph.public_key().value.to_bytes(pub_len, "big")
        shared = eph.shared_secret(_dh.DHPublicKey(group, public.dh_value), sealing=True)
        nonce = hashlib.sha256(b"rac/seal-nonce" + eph_bytes).digest()[:16]
        return _TAG_DH + eph_bytes + _stream.encrypt(shared, nonce, plaintext)
    raise ValueError(f"unknown key backend: {public.backend!r}")


def sealed_overhead(public: PublicKey) -> int:
    """Bytes added by one :func:`seal` layer (needed by onion padding)."""
    if public.backend == "sim":
        return 1 + _SIM_KEYID_LEN + _SIM_NONCE_LEN + _stream.MAC_LEN
    assert public.dh_group is not None
    pub_len = (public.dh_group.prime.bit_length() + 7) // 8
    return 1 + pub_len + _stream.MAC_LEN
