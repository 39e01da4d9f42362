import base64
import json

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from expunge.crypto import (
    EPHEMERAL_PUBLIC_BYTES,
    HYBRID_OVERHEAD_BYTES,
    NONCE_BYTES,
    generate_keyring,
    hybrid_decrypt,
    hybrid_decrypt_many,
    hybrid_encrypt,
    hybrid_encrypt_many,
    sign,
    symmetric_decrypt,
    symmetric_encrypt,
    verify_signature,
)
from expunge.errors import DomainError, IntegrityError
from expunge.harness import StateDir


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
    sizes = (0, 1, 100, 4096)
    for size in sizes:
        blob = hybrid_encrypt(b"x" * size, keyring.enclave_public)
        assert len(blob) == size + HYBRID_OVERHEAD_BYTES
    batch = hybrid_encrypt_many([b"x" * size for size in sizes], keyring.enclave_public)
    assert [len(blob) for blob in batch] == [size + HYBRID_OVERHEAD_BYTES for size in sizes]


PLAINTEXTS = [b"reading-%d" % i for i in range(6)] + [b"", b"reading-0"]
PREFIX = slice(0, EPHEMERAL_PUBLIC_BYTES)
NONCE = slice(EPHEMERAL_PUBLIC_BYTES, EPHEMERAL_PUBLIC_BYTES + NONCE_BYTES)


def test_every_batch_envelope_opens_alone_in_input_order(keyring):
    batch = hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public)
    assert [hybrid_decrypt(blob, keyring.enclave_private) for blob in batch] == PLAINTEXTS
    assert hybrid_decrypt_many(batch, keyring.enclave_private) == tuple(PLAINTEXTS)


def test_batch_shares_its_prefix_and_draws_distinct_nonces(keyring):
    one = hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public)
    two = hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public)
    for batch in (one, two):
        assert len({blob[PREFIX] for blob in batch}) == 1
        assert len({blob[NONCE] for blob in batch}) == len(batch)
    assert one[0][PREFIX] != two[0][PREFIX]
    assert not set(one) & set(two)


def test_empty_batch_makes_no_key_agreement(keyring, agreements):
    assert hybrid_encrypt_many([], keyring.enclave_public) == ()
    assert hybrid_decrypt_many([], agreements.watch(keyring.enclave_private)) == ()
    assert agreements.generated == agreements.exchanges == 0


def test_batch_agrees_once_and_opens_once_per_prefix(keyring, agreements):
    first = hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public)
    second = hybrid_encrypt_many(PLAINTEXTS[:2], keyring.enclave_public)
    assert agreements.generated == agreements.exchanges == 2
    recipient = agreements.watch(keyring.enclave_private)
    opened = hybrid_decrypt_many(first + second + first[:1], recipient)
    assert opened == tuple(PLAINTEXTS + PLAINTEXTS[:2] + PLAINTEXTS[:1])
    assert agreements.exchanges == 4


def test_tampered_batch_envelope_fails_authentication(keyring):
    batch = list(hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public))
    batch[3] = batch[3][:-1] + bytes([batch[3][-1] ^ 1])
    with pytest.raises(IntegrityError):
        hybrid_decrypt(batch[3], keyring.enclave_private)
    with pytest.raises(IntegrityError):
        hybrid_decrypt_many(batch, keyring.enclave_private)


def test_prefix_moved_onto_another_batch_fails_authentication(keyring):
    one = hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public)
    two = hybrid_encrypt_many(PLAINTEXTS, keyring.enclave_public)
    moved = one[0][PREFIX] + two[0][EPHEMERAL_PUBLIC_BYTES:]
    with pytest.raises(IntegrityError):
        hybrid_decrypt(moved, keyring.enclave_private)


def test_low_order_ephemeral_key_fails_closed(keyring):
    # the all-zero point has no X25519 shared secret with any key
    envelope = bytes(EPHEMERAL_PUBLIC_BYTES) + bytes(NONCE_BYTES) + bytes(40)
    with pytest.raises(IntegrityError, match="key agreement"):
        hybrid_decrypt(envelope, keyring.enclave_private)


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
    StateDir(tmp_path).save_keyring(keyring)
    loaded = StateDir(tmp_path).keyring()
    blob = hybrid_encrypt(b"x", keyring.enclave_public)
    assert hybrid_decrypt(blob, loaded.enclave_private) == b"x"
    assert loaded.shared_key == keyring.shared_key
    assert set(loaded.user_signing_keys) == set(keyring.user_signing_keys)


def test_keyring_with_the_retired_provider_signing_key_still_loads(tmp_path, keyring):
    StateDir(tmp_path).save_keyring(keyring)
    path = tmp_path / "keyring.json"
    doc = json.loads(path.read_text())
    assert "sdp_sign_private" not in doc
    doc["sdp_sign_private"] = base64.b64encode(bytes(32)).decode()  # as older runs saved it
    path.write_text(json.dumps(doc))
    loaded = StateDir(tmp_path).keyring()
    assert loaded.shared_key == keyring.shared_key
    assert not hasattr(loaded, "sdp_sign_private")
