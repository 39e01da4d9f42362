"""Key material and the concrete ciphers behind the protocol.

Readings are encrypted non-deterministically for the enclave with a
hybrid envelope: a fresh X25519 ephemeral key agreement per message,
HKDF-SHA256 key derivation, then AES-256-GCM. Two encryptions of the
same plaintext therefore always differ, and only the holder of the
recipient private key can open the envelope.

The symmetric channel for verifiable tags uses AES-256-GCM under the
shared key ``K``; tampering with a tag is an authentication failure,
which the attestation layer reports separately from a value mismatch.

Users sign query records with Ed25519.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

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
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .errors import DomainError, IntegrityError

SYMMETRIC_KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
EPHEMERAL_PUBLIC_BYTES = 32

#: Fixed per-message growth of a hybrid envelope over its plaintext.
HYBRID_OVERHEAD_BYTES = EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES + TAG_BYTES

_HKDF_INFO = b"expunge/hybrid-envelope/v1"


def _derive_envelope_key(shared: bytes, ephemeral_pub: bytes, recipient_pub: bytes) -> bytes:
    return HKDF(
        algorithm=SHA256(),
        length=SYMMETRIC_KEY_BYTES,
        salt=ephemeral_pub + recipient_pub,
        info=_HKDF_INFO,
    ).derive(shared)


def hybrid_encrypt(plaintext: bytes, recipient: X25519PublicKey) -> bytes:
    """Encrypt for ``recipient``; fresh randomness on every call."""
    ephemeral = X25519PrivateKey.generate()
    eph_pub = ephemeral.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    rcpt_pub = recipient.public_bytes(Encoding.Raw, PublicFormat.Raw)
    key = _derive_envelope_key(ephemeral.exchange(recipient), eph_pub, rcpt_pub)
    nonce = os.urandom(NONCE_BYTES)
    sealed = AESGCM(key).encrypt(nonce, plaintext, None)
    return eph_pub + nonce + sealed


def hybrid_decrypt(envelope: bytes, recipient: X25519PrivateKey) -> bytes:
    if len(envelope) < EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES + TAG_BYTES:
        raise IntegrityError("envelope too short")
    eph_pub = envelope[:EPHEMERAL_PUBLIC_BYTES]
    nonce = envelope[EPHEMERAL_PUBLIC_BYTES : EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES]
    sealed = envelope[EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES :]
    ephemeral = X25519PublicKey.from_public_bytes(eph_pub)
    rcpt_pub = recipient.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    key = _derive_envelope_key(recipient.exchange(ephemeral), eph_pub, rcpt_pub)
    try:
        return AESGCM(key).decrypt(nonce, sealed, None)
    except InvalidTag as exc:
        raise IntegrityError("envelope authentication failed") from exc


def symmetric_encrypt(key: bytes, plaintext: bytes) -> bytes:
    nonce = os.urandom(NONCE_BYTES)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def symmetric_decrypt(key: bytes, blob: bytes) -> bytes:
    if len(blob) < NONCE_BYTES + TAG_BYTES:
        raise IntegrityError("ciphertext too short")
    try:
        return AESGCM(key).decrypt(blob[:NONCE_BYTES], blob[NONCE_BYTES:], None)
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


def _raw_private(key) -> bytes:
    return key.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())


def save_keyring(keyring: KeyRing, path: Path) -> None:
    """Persist a keyring for the simulation harness (plaintext JSON).

    This exists so CLI runs can be resumed; it is harness plumbing, not a
    key-management scheme.
    """
    doc = {
        "enclave_private": base64.b64encode(_raw_private(keyring.enclave_private)).decode(),
        "sdp_box_private": base64.b64encode(_raw_private(keyring.sdp_box_private)).decode(),
        "shared_key": base64.b64encode(keyring.shared_key).decode(),
        "user_signing_keys": {
            uid.hex(): base64.b64encode(_raw_private(key)).decode()
            for uid, key in keyring.user_signing_keys.items()
        },
    }
    path.write_text(json.dumps(doc, indent=2))


def load_keyring(path: Path) -> KeyRing:
    doc = json.loads(path.read_text())
    return KeyRing(
        enclave_private=X25519PrivateKey.from_private_bytes(
            base64.b64decode(doc["enclave_private"])
        ),
        sdp_box_private=X25519PrivateKey.from_private_bytes(
            base64.b64decode(doc["sdp_box_private"])
        ),
        shared_key=base64.b64decode(doc["shared_key"]),
        user_signing_keys={
            bytes.fromhex(uid): Ed25519PrivateKey.from_private_bytes(base64.b64decode(raw))
            for uid, raw in doc["user_signing_keys"].items()
        },
    )
