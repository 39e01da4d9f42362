import base64
import json

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from expunge.crypto import (
    HYBRID_OVERHEAD_BYTES,
    generate_keyring,
    hybrid_decrypt,
    hybrid_encrypt,
    load_keyring,
    save_keyring,
    sign,
    symmetric_decrypt,
    symmetric_encrypt,
    verify_signature,
)
from expunge.errors import DomainError, IntegrityError


def test_hybrid_round_trip(keyring):
    blob = hybrid_encrypt(b"secret reading", keyring.enclave_public)
    assert hybrid_decrypt(blob, keyring.enclave_private) == b"secret reading"


def test_hybrid_is_nondeterministic(keyring):
    one = hybrid_encrypt(b"same", keyring.enclave_public)
    two = hybrid_encrypt(b"same", keyring.enclave_public)
    assert one != two
    assert hybrid_decrypt(one, keyring.enclave_private) == hybrid_decrypt(
        two, keyring.enclave_private
    )


def test_hybrid_wrong_key_fails_authentication(keyring):
    blob = hybrid_encrypt(b"secret", keyring.enclave_public)
    with pytest.raises(IntegrityError):
        hybrid_decrypt(blob, X25519PrivateKey.generate())


def test_hybrid_overhead_is_fixed(keyring):
    for size in (0, 1, 100, 4096):
        blob = hybrid_encrypt(b"x" * size, keyring.enclave_public)
        assert len(blob) == size + HYBRID_OVERHEAD_BYTES


def test_symmetric_round_trip_and_tamper(keyring):
    blob = symmetric_encrypt(keyring.shared_key, b"tag material")
    assert symmetric_decrypt(keyring.shared_key, blob) == b"tag material"
    tampered = blob[:-1] + bytes([blob[-1] ^ 1])
    with pytest.raises(IntegrityError):
        symmetric_decrypt(keyring.shared_key, tampered)


def test_signatures(keyring):
    key = keyring.user_signing_keys[b"user-00"]
    sig = sign(key, b"message")
    assert verify_signature(key.public_key(), sig, b"message")
    assert not verify_signature(key.public_key(), sig, b"other message")


def test_duplicate_registration_rejected():
    with pytest.raises(DomainError):
        generate_keyring([b"u", b"u"])


def test_keyring_save_load_round_trip(tmp_path, keyring):
    save_keyring(keyring, tmp_path / "keys.json")
    loaded = load_keyring(tmp_path / "keys.json")
    blob = hybrid_encrypt(b"x", keyring.enclave_public)
    assert hybrid_decrypt(blob, loaded.enclave_private) == b"x"
    assert loaded.shared_key == keyring.shared_key
    assert set(loaded.user_signing_keys) == set(keyring.user_signing_keys)


def test_keyring_with_the_retired_provider_signing_key_still_loads(tmp_path, keyring):
    path = tmp_path / "keys.json"
    save_keyring(keyring, path)
    doc = json.loads(path.read_text())
    assert "sdp_sign_private" not in doc
    doc["sdp_sign_private"] = base64.b64encode(bytes(32)).decode()  # as older runs saved it
    path.write_text(json.dumps(doc))
    loaded = load_keyring(path)
    assert loaded.shared_key == keyring.shared_key
    assert not hasattr(loaded, "sdp_sign_private")
