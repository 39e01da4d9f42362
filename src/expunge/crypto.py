"""Key material and the concrete ciphers behind the protocol.

Readings are encrypted non-deterministically for the enclave with a
hybrid envelope ``eph_pub ‖ nonce ‖ AES-256-GCM(plaintext)``: an X25519
ephemeral key agreement, HKDF-SHA256 key derivation, then AES-256-GCM
under a fresh random 96-bit nonce. One agreement covers one batch, as in
HPKE's multi-message context (RFC 9180): the provider seals an epoch's
readings, and the query log a block's records, under one ephemeral key,
so the envelopes of a batch share their 32-byte prefix. Two encryptions
of the same plaintext still always differ, and only the holder of the
recipient private key can open an envelope. A single envelope is the
batch of one, and decryption derives one key per distinct prefix.

The symmetric channel for verifiable tags uses AES-256-GCM under the
shared key ``K``; tampering with a tag is an authentication failure,
which the attestation layer reports separately from a value mismatch.

Users sign query records with Ed25519.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .errors import DomainError, IntegrityError

SYMMETRIC_KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
EPHEMERAL_PUBLIC_BYTES = 32

#: Fixed per-message growth of a hybrid envelope over its plaintext.
HYBRID_OVERHEAD_BYTES = EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES + TAG_BYTES

_HKDF_INFO = b"expunge/hybrid-envelope/v1"


def _envelope_cipher(shared: bytes, ephemeral_pub: bytes, recipient_pub: bytes) -> AESGCM:
    return AESGCM(
        HKDF(
            algorithm=SHA256(),
            length=SYMMETRIC_KEY_BYTES,
            salt=ephemeral_pub + recipient_pub,
            info=_HKDF_INFO,
        ).derive(shared)
    )


def hybrid_encrypt_many(
    plaintexts: Sequence[bytes], recipient: X25519PublicKey
) -> tuple[bytes, ...]:
    """Encrypt each plaintext for ``recipient`` under one key agreement.

    One ephemeral key, exchange and derived key serve the whole call;
    each envelope draws its own random nonce. Envelopes come back in
    input order. An empty input returns ``()`` without an agreement.
    """
    if not plaintexts:
        return ()
    ephemeral = X25519PrivateKey.generate()
    eph_pub = ephemeral.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    rcpt_pub = recipient.public_bytes(Encoding.Raw, PublicFormat.Raw)
    seal = _envelope_cipher(ephemeral.exchange(recipient), eph_pub, rcpt_pub).encrypt
    envelopes = []
    for plaintext in plaintexts:
        nonce = os.urandom(NONCE_BYTES)
        envelopes.append(eph_pub + nonce + seal(nonce, plaintext, None))
    return tuple(envelopes)


def hybrid_decrypt_many(
    envelopes: Iterable[bytes], recipient: X25519PrivateKey
) -> tuple[bytes, ...]:
    """Open each envelope; one key agreement per distinct ephemeral key.

    Derived keys live only for this call. A short envelope, a low-order
    ephemeral key or a failed authentication raises ``IntegrityError``.
    """
    rcpt_pub = recipient.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    openers = {}
    plaintexts = []
    for envelope in envelopes:
        if len(envelope) < HYBRID_OVERHEAD_BYTES:
            raise IntegrityError("envelope too short")
        eph_pub = envelope[:EPHEMERAL_PUBLIC_BYTES]
        opener = openers.get(eph_pub)
        if opener is None:
            try:
                shared = recipient.exchange(X25519PublicKey.from_public_bytes(eph_pub))
            except ValueError as exc:  # low-order point: no shared secret exists
                raise IntegrityError("envelope key agreement failed") from exc
            opener = openers[eph_pub] = _envelope_cipher(shared, eph_pub, rcpt_pub).decrypt
        nonce = envelope[EPHEMERAL_PUBLIC_BYTES : EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES]
        sealed = envelope[EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES :]
        try:
            plaintexts.append(opener(nonce, sealed, None))
        except InvalidTag as exc:
            raise IntegrityError("envelope authentication failed") from exc
    return tuple(plaintexts)


def hybrid_encrypt(plaintext: bytes, recipient: X25519PublicKey) -> bytes:
    """Encrypt one message for ``recipient``: the batch of one."""
    return hybrid_encrypt_many((plaintext,), recipient)[0]


def hybrid_decrypt(envelope: bytes, recipient: X25519PrivateKey) -> bytes:
    return hybrid_decrypt_many((envelope,), recipient)[0]


def symmetric_encrypt(key: bytes, plaintext: bytes, associated_data: bytes | None = None) -> bytes:
    """AES-GCM under a fresh nonce; ``associated_data`` is authenticated, not stored."""
    nonce = os.urandom(NONCE_BYTES)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, associated_data)


def symmetric_decrypt(key: bytes, blob: bytes, associated_data: bytes | None = None) -> bytes:
    if len(blob) < NONCE_BYTES + TAG_BYTES:
        raise IntegrityError("ciphertext too short")
    try:
        return AESGCM(key).decrypt(blob[:NONCE_BYTES], blob[NONCE_BYTES:], associated_data)
    except InvalidTag as exc:
        raise IntegrityError("tag authentication failed") from exc


def sign(private: Ed25519PrivateKey, message: bytes) -> bytes:
    return private.sign(message)


def verify_signature(public: Ed25519PublicKey, signature: bytes, message: bytes) -> bool:
    try:
        public.verify(signature, message)
        return True
    except InvalidSignature:
        return False


@dataclass
class KeyRing:
    """All key material for one deployment.

    Private halves live only inside the roles that own them; nothing here
    is ever placed in an outsourced payload.
    """

    enclave_private: X25519PrivateKey
    sdp_box_private: X25519PrivateKey
    shared_key: bytes
    user_signing_keys: dict[bytes, Ed25519PrivateKey] = field(default_factory=dict)

    @property
    def enclave_public(self) -> X25519PublicKey:
        return self.enclave_private.public_key()

    @property
    def sdp_box_public(self) -> X25519PublicKey:
        return self.sdp_box_private.public_key()

    def user_public_keys(self) -> dict[bytes, Ed25519PublicKey]:
        """Registration registry: user id to verification key."""
        return {uid: key.public_key() for uid, key in self.user_signing_keys.items()}


def generate_keyring(user_ids: list[bytes] | None = None) -> KeyRing:
    if len(set(user_ids or [])) != len(user_ids or []):
        raise DomainError("duplicate user ids in registration")
    return KeyRing(
        enclave_private=X25519PrivateKey.generate(),
        sdp_box_private=X25519PrivateKey.generate(),
        shared_key=os.urandom(SYMMETRIC_KEY_BYTES),
        user_signing_keys={uid: Ed25519PrivateKey.generate() for uid in user_ids or []},
    )
