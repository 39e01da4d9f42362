import hashlib
import random

import pytest

from expunge.control import (
    SEALED_ACCESSIBLE,
    SEALED_IRRECOVERABLE,
    SEALED_TIME,
    MetaDataRow,
    SensorDataRow,
    accessible_tag,
    batch_epoch,
    build_outsource_payload,
    check_rows_consistent,
    decrypt_reading,
    encrypt_epoch,
    epoch_timestamp,
    irrecoverable_tag,
    open_seal,
    reading_digest,
    reading_digests,
    seal,
    sentinel_digest,
    timestamp_anchor,
    timestamp_exponent,
)
from expunge.core import EpochWindow, SensorReading
from expunge.crypto import (
    EPHEMERAL_PUBLIC_BYTES,
    HYBRID_OVERHEAD_BYTES,
    NONCE_BYTES,
)
from expunge.encoding import u64, vbytes
from expunge.engine import CellArray, expunge
from expunge.errors import (
    DomainError,
    EpochMismatchError,
    InconsistentRowsError,
    IntegrityError,
)


def _reading(t, device=b"\x02abcde", payload=b"load"):
    return SensorReading(device_id=device, time=t, payload=payload)


WINDOW = EpochWindow(1000, 2000)


class TestBatching:
    def test_positions_follow_arrival_order(self):
        readings = [_reading(1100), _reading(1500), _reading(1900)]
        batched = batch_epoch(readings, WINDOW)
        assert [(p, r.time) for p, r in batched] == [(1, 1100), (2, 1500), (3, 1900)]

    def test_boundary_instant_belongs_to_next_epoch(self):
        with pytest.raises(EpochMismatchError):
            batch_epoch([_reading(2000)], WINDOW)

    def test_positions_stable_for_unordered_times(self):
        rng = random.Random(3)
        readings = [_reading(rng.randrange(1000, 2000)) for _ in range(10**4)]
        batched = batch_epoch(readings, WINDOW)
        # arrival order is preserved even when timestamps are shuffled
        assert [r for _, r in batched] == readings
        assert [p for p, _ in batched] == list(range(1, 10**4 + 1))


class TestReadingDigest:
    def test_position_salting(self):
        one = reading_digest(b"\x02abcde", 1000, 1)
        two = reading_digest(b"\x02abcde", 1000, 2)
        assert one != two

    def test_deterministic(self):
        assert reading_digest(b"\x02abcde", 1000, 1) == reading_digest(
            b"\x02abcde", 1000, 1
        )

    def test_matches_documented_layout(self):
        # oracle: independent recomputation from the documented byte layout
        device, epoch_id, position = b"\x02abcde", 77, 3
        expected = hashlib.sha256(
            len(device).to_bytes(4, "big")
            + device
            + epoch_id.to_bytes(8, "big")
            + position.to_bytes(8, "big")
        ).digest()
        assert reading_digest(device, epoch_id, position) == expected

    def test_positions_are_one_based(self):
        with pytest.raises(DomainError):
            reading_digest(b"\x02abcde", 1, 0)


class TestEpochTimestamp:
    def test_first_epoch_hand_modexp(self, tiny_params):
        digests = (b"\x11" * 32, b"\x22" * 32)
        exponent = int.from_bytes(hashlib.sha256(digests[0] + digests[1]).digest(), "big") | 1
        expected = pow(tiny_params.seed, exponent, tiny_params.modulus)
        ct = epoch_timestamp(tiny_params.seed, digests, tiny_params)
        assert ct.value == expected

    def test_permutation_changes_timestamp(self, tiny_params):
        d = (b"\x11" * 32, b"\x22" * 32)
        assert epoch_timestamp(tiny_params.seed, d, tiny_params) != epoch_timestamp(
            tiny_params.seed, (d[1], d[0]), tiny_params
        )

    def test_two_epoch_chain_unrolls_to_nested_steps(self, tiny_params):
        d1 = (b"\x01" * 32,)
        d2 = (b"\x02" * 32,)
        ct1 = epoch_timestamp(tiny_params.seed, d1, tiny_params)
        ct2 = epoch_timestamp(ct1, d2, tiny_params)
        e1 = int.from_bytes(hashlib.sha256(d1[0]).digest(), "big") | 1
        e2 = int.from_bytes(hashlib.sha256(d2[0]).digest(), "big") | 1
        assert ct2.value == pow(tiny_params.seed, e1 * e2, tiny_params.modulus)

    def test_empty_digest_list_rejected(self, tiny_params):
        with pytest.raises(DomainError):
            timestamp_exponent(())


class TestEncryptReading:
    def test_nondeterministic_and_round_trip(self, keyring):
        r = _reading(1100)
        one = encrypt_epoch([r], WINDOW.id, keyring.enclave_public)[0]
        two = encrypt_epoch([r], WINDOW.id, keyring.enclave_public)[0]
        assert one != two
        assert decrypt_reading(one, keyring.enclave_private) == (r, WINDOW.id)
        assert decrypt_reading(two, keyring.enclave_private) == (r, WINDOW.id)

    def test_epoch_id_bound_into_plaintext(self, keyring):
        r = _reading(1100)
        blob = encrypt_epoch([r], 1000, keyring.enclave_public)[0]
        _, epoch_id = decrypt_reading(blob, keyring.enclave_private)
        assert epoch_id == 1000

    def test_ciphertext_overhead_constant(self, keyring):
        r_small = _reading(1100, payload=b"")
        r_big = _reading(1100, payload=b"x" * 1000)
        small = encrypt_epoch([r_small], WINDOW.id, keyring.enclave_public)[0]
        big = encrypt_epoch([r_big], WINDOW.id, keyring.enclave_public)[0]
        # plaintext grows by exactly the payload delta; envelope overhead fixed
        assert len(big) - len(small) == 1000
        plaintext_len = len(r_small.to_bytes()) + 8  # reading fields + epoch id
        assert len(small) == plaintext_len + HYBRID_OVERHEAD_BYTES

    def test_epoch_batch_matches_single_envelopes(self, keyring):
        readings = [_reading(1100), _reading(1200, payload=b""), _reading(1300, payload=b"x" * 99)]
        batch = encrypt_epoch(readings, WINDOW.id, keyring.enclave_public)
        singles = [encrypt_epoch([r], WINDOW.id, keyring.enclave_public)[0] for r in readings]
        assert [len(blob) for blob in batch] == [len(blob) for blob in singles]
        assert [decrypt_reading(blob, keyring.enclave_private) for blob in batch] == [
            (r, WINDOW.id) for r in readings
        ]

    def test_low_order_ephemeral_key_fails_closed(self, keyring):
        envelope = bytes(EPHEMERAL_PUBLIC_BYTES) + bytes(NONCE_BYTES) + bytes(40)
        with pytest.raises(IntegrityError):
            decrypt_reading(envelope, keyring.enclave_private)


class TestTags:
    def test_single_ciphertext_tag_is_its_hash(self):
        assert accessible_tag((b"ct-bytes",)) == hashlib.sha256(b"ct-bytes").digest()

    def test_reordering_changes_tag(self):
        assert accessible_tag((b"a", b"b")) != accessible_tag((b"b", b"a"))

    def test_tag_matches_scripted_concatenation(self):
        rng = random.Random(5)
        cts = tuple(rng.randbytes(50) for _ in range(3))
        assert accessible_tag(cts) == hashlib.sha256(b"".join(cts)).digest()

    def test_irrecoverable_tag_equals_engine_proof(self):
        rng = random.Random(6)
        cts = tuple(rng.randbytes(60) for _ in range(4))
        _, proof = expunge(CellArray.from_ciphertexts(list(cts), 77))
        assert irrecoverable_tag(cts, 77) == proof.proof

    def test_tags_differ_over_random_epochs(self):
        rng = random.Random(7)
        for trial in range(100):
            cts = tuple(rng.randbytes(40) for _ in range(rng.randint(1, 6)))
            assert irrecoverable_tag(cts, trial) != accessible_tag(cts)

    def test_irrecoverable_tag_deterministic(self):
        cts = (b"ct-1", b"ct-2")
        assert irrecoverable_tag(cts, 1) == irrecoverable_tag(cts, 1)

    def test_originals_untouched(self):
        cts = (b"ct-1", b"ct-2")
        irrecoverable_tag(cts, 1)
        assert cts == (b"ct-1", b"ct-2")


class TestOutsourcePayload:
    def test_single_reading_payload(self, keyring, tiny_params):
        sensor, meta = build_outsource_payload(
            WINDOW, [_reading(1100)], tiny_params.seed, keyring, tiny_params
        )
        assert sensor.epoch_id == meta.epoch_id == WINDOW.id
        assert len(sensor.digests) == len(sensor.ciphertexts) == 1
        check_rows_consistent(sensor, meta)

    def test_sealed_tags_open_to_recomputed_values(self, keyring, tiny_params):
        readings = [_reading(1100), _reading(1400, device=b"\x02fghij")]
        sensor, meta = build_outsource_payload(
            WINDOW, readings, tiny_params.seed, keyring, tiny_params
        )
        key = keyring.shared_key
        ah = open_seal(key, SEALED_ACCESSIBLE, WINDOW.id, meta.enc_accessible_tag)
        assert ah == accessible_tag(sensor.ciphertexts)
        irh = open_seal(key, SEALED_IRRECOVERABLE, WINDOW.id, meta.enc_irrecoverable_tag)
        assert irh == irrecoverable_tag(sensor.ciphertexts, WINDOW.id)
        anchor = open_seal(key, SEALED_TIME, WINDOW.id, meta.enc_crypto_time)
        assert anchor == timestamp_anchor(sensor.crypto_time)

    def test_seal_opens_only_as_its_field_and_epoch(self, keyring):
        # all three sealed values are 32-byte digests: the field label and
        # the epoch id keep one seal from passing as another
        key = keyring.shared_key
        blob = seal(key, SEALED_TIME, WINDOW.id, bytes(32))
        assert open_seal(key, SEALED_TIME, WINDOW.id, blob) == bytes(32)
        for label, epoch_id in (
            (SEALED_ACCESSIBLE, WINDOW.id),
            (SEALED_IRRECOVERABLE, WINDOW.id),
            (SEALED_TIME, WINDOW.id + 1),
        ):
            with pytest.raises(IntegrityError):
                open_seal(key, label, epoch_id, blob)

    def test_timestamp_anchor_is_sha256_of_the_canonical_record(self, tiny_params):
        # the sealed field holds a 32-byte digest, as the two tags do, and
        # not a second copy of the timestamp
        value = epoch_timestamp(tiny_params.seed, (sentinel_digest(WINDOW.id),), tiny_params)
        anchor = timestamp_anchor(value)
        assert anchor == hashlib.sha256(value.to_bytes()).digest() and len(anchor) == 32

    def test_two_epoch_two_reading_chain_structure(self, keyring, tiny_params):
        # two epochs of two readings: the second timestamp is the first
        # raised to the digest of the second epoch's digest pair
        w1, w2 = EpochWindow(0, 1000), EpochWindow(1000, 2000)
        s1, _ = build_outsource_payload(
            w1, [_reading(100), _reading(200)], tiny_params.seed, keyring, tiny_params
        )
        s2, _ = build_outsource_payload(
            w2, [_reading(1100), _reading(1200)], s1.crypto_time, keyring, tiny_params
        )
        exponent = (
            int.from_bytes(hashlib.sha256(s2.digests[0] + s2.digests[1]).digest(), "big") | 1
        )
        assert s2.crypto_time.value == pow(
            s1.crypto_time.value, exponent, tiny_params.modulus
        )

    def test_empty_epoch_uses_sentinel(self, keyring, tiny_params):
        sensor, meta = build_outsource_payload(
            WINDOW, [], tiny_params.seed, keyring, tiny_params
        )
        assert sensor.digests == (sentinel_digest(WINDOW.id),)
        assert sensor.ciphertexts == ()
        # the chain still advances off the sentinel digest
        expected = epoch_timestamp(tiny_params.seed, sensor.digests, tiny_params)
        assert sensor.crypto_time == expected

    def test_one_key_agreement_per_non_empty_epoch(self, keyring, tiny_params, agreements):
        readings = [_reading(1100 + 10 * i) for i in range(5)]
        sensor, _ = build_outsource_payload(
            WINDOW, readings, tiny_params.seed, keyring, tiny_params
        )
        assert agreements.generated == agreements.exchanges == 1
        assert len({ct[:EPHEMERAL_PUBLIC_BYTES] for ct in sensor.ciphertexts}) == 1
        build_outsource_payload(WINDOW, [], tiny_params.seed, keyring, tiny_params)
        assert agreements.generated == agreements.exchanges == 1

    def test_sentinel_digest_layout(self):
        assert sentinel_digest(42) == hashlib.sha256(b"EMPTY" + u64(42)).digest()

    def test_out_of_window_reading_aborts_whole_payload(self, keyring, tiny_params):
        with pytest.raises(EpochMismatchError):
            build_outsource_payload(
                WINDOW, [_reading(1100), _reading(2100)], tiny_params.seed, keyring, tiny_params
            )

    def test_row_round_trips(self, keyring, tiny_params):
        sensor, meta = build_outsource_payload(
            WINDOW, [_reading(1100)], tiny_params.seed, keyring, tiny_params
        )
        assert SensorDataRow.from_bytes(sensor.to_bytes()) == sensor
        assert MetaDataRow.from_bytes(meta.to_bytes()) == meta

    def test_row_validation(self, tiny_params):
        from expunge.accumulator import AccumulatorValue

        with pytest.raises(DomainError):
            SensorDataRow(
                epoch_id=1,
                digests=(b"\x01" * 32, b"\x02" * 32),
                crypto_time=AccumulatorValue(2),
                ciphertexts=(b"only-one",),
            )
        with pytest.raises(InconsistentRowsError):
            check_rows_consistent(
                SensorDataRow(
                    epoch_id=1,
                    digests=(b"\x01" * 32,),
                    crypto_time=AccumulatorValue(2),
                    ciphertexts=(b"ct",),
                ),
                MetaDataRow(
                    epoch_id=2, bt=2, et=3,
                    enc_crypto_time=b"", enc_accessible_tag=b"", enc_irrecoverable_tag=b"",
                ),
            )


class TestMembershipSoundness:
    def test_every_reading_digest_present_and_absent_device_matches_nothing(
        self, keyring, tiny_params
    ):
        rng = random.Random(8)
        devices = [bytes([0x02]) + rng.randbytes(5) for _ in range(5)]
        readings = [
            _reading(1000 + i, device=devices[i % len(devices)]) for i in range(25)
        ]
        sensor, _ = build_outsource_payload(
            WINDOW, readings, tiny_params.seed, keyring, tiny_params
        )
        for position, reading in enumerate(readings, start=1):
            assert (
                reading_digest(reading.device_id, WINDOW.id, position)
                == sensor.digests[position - 1]
            )
        absent = bytes([0x02]) + rng.randbytes(5)
        for position in range(1, len(readings) + 1):
            assert reading_digest(absent, WINDOW.id, position) not in sensor.digests


def _per_element(algorithm: str, parts) -> bytes:
    """The hash fed one ``update`` per part: what joined hashing must equal."""
    h = hashlib.new(algorithm)
    for part in parts:
        h.update(part)
    return h.digest()


#: The protocol hash by its hashlib name, for the per-element references.
PROTOCOL_HASH = ["sha256"]


@pytest.mark.parametrize("algorithm", PROTOCOL_HASH)
@pytest.mark.parametrize("count", [0, 1, 1563])
class TestJoinedHashing:
    """One joined buffer and packed counters give the per-element digests."""

    def test_timestamp_exponent(self, algorithm, count):
        rng = random.Random(count)
        digests = tuple(rng.randbytes(32) for _ in range(count))
        if not count:
            with pytest.raises(DomainError):
                timestamp_exponent(digests)
            return
        assert timestamp_exponent(digests) == _per_element(algorithm, digests)

    def test_accessible_tag(self, algorithm, count):
        rng = random.Random(count)
        cts = tuple(rng.randbytes(rng.randrange(0, 400)) for _ in range(count))
        assert accessible_tag(cts) == _per_element(algorithm, cts)

    def test_reading_digests(self, algorithm, count):
        device = b"\x02sensor"
        expected = [
            _per_element(algorithm, (vbytes(device), u64(3600000), u64(position)))
            for position in range(1, count + 1)
        ]
        assert reading_digests(device, 3600000, count) == expected
        assert expected == [
            reading_digest(device, 3600000, position) for position in range(1, count + 1)
        ]


@pytest.mark.parametrize("algorithm", PROTOCOL_HASH)
def test_accessible_tag_of_no_ciphertexts_is_hash_of_empty_string(algorithm):
    assert accessible_tag(()) == hashlib.new(algorithm, b"").digest()
