"""Golden byte vectors for every canonical record and wire payload.

The hex strings below pin the layout bit for bit: provider, cloud and
verifiers hash, seal and ship exactly these bytes, so any change to them
is a protocol change and needs a version bump or a new record type, not a
silent edit. Every value is built by hand from fixed inputs; nothing here
is random.
"""

from unittest import mock

import pytest

from expunge import control
from expunge.accumulator import AccumulatorParams, AccumulatorValue
from expunge.cloud import AttestationBundle, CloudStore, EpochRecord, Transition
from expunge.control import MetaDataRow, SensorDataRow, decrypt_reading, encrypt_epoch
from expunge.core import DataState, RetentionPolicy, SensorReading
from expunge.engine import DeletionProof
from expunge.errors import NotAuthorizedError, UnavailableError
from expunge.querylog import QueryRecord, SealedBlock
from expunge.wire import CloudService, SpService

ACC, IRR, PUR = DataState.ACCESSIBLE, DataState.IRRECOVERABLE, DataState.PURGED
D1, D2, D3 = bytes(range(8)), bytes(range(8, 16)), bytes(range(16, 24))
CIPHERTEXTS = (b"ct-one", b"ct-two!")
TIME = AccumulatorValue(2890)
PREV_TIME = AccumulatorValue(1234)
PROOF = DeletionProof(
    epoch_id=3600, proof=bytes([0x5A]) * 8, produced_at=10800, cell_size=6
)
READING = SensorReading(device_id=bytes.fromhex("a1b2c3d4e5f6"), time=3_601_000, payload=b"rssi=-61")
SENSOR_ROW = SensorDataRow(epoch_id=3600, digests=(D1, D2), crypto_time=TIME, ciphertexts=CIPHERTEXTS)
EMPTY_ROW = SensorDataRow(epoch_id=7200, digests=(D3,), crypto_time=PREV_TIME, ciphertexts=())
META = MetaDataRow(
    epoch_id=3600,
    bt=3600,
    et=7200,
    enc_crypto_time=b"sealed-time",
    enc_accessible_tag=b"sealed-ah",
    enc_irrecoverable_tag=b"sealed-irh",
)
EMPTY_META = MetaDataRow(
    epoch_id=7200,
    bt=7200,
    et=10800,
    enc_crypto_time=b"sealed-time-2",
    enc_accessible_tag=b"sealed-ah-2",
    enc_irrecoverable_tag=b"sealed-irh-2",
)
BLOCK_1 = SealedBlock(
    block_id=1, created_at=0, sealed_at=3600, block_proof=AccumulatorValue(77),
    encrypted_records=(b"blob-1", b"blob-22"),
)
BLOCK_2 = SealedBlock(
    block_id=2, created_at=3600, sealed_at=7200, block_proof=AccumulatorValue(78),
    encrypted_records=(),
)
QUERY = QueryRecord(query=b"SELECT occupancy", time=4000, user_id=b"user-01", signature=b"sig")

RECORDS = {
    "reading": READING,
    "acc_params": AccumulatorParams(modulus=61 * 53, seed=2, modulus_bits=12),
    "acc_value": TIME,
    "sensor_row": SENSOR_ROW,
    "sensor_row_empty_epoch": EMPTY_ROW,
    "meta_row": META,
    "deletion_proof": PROOF,
    "bundle_accessible_first": AttestationBundle(
        epoch_id=3600, state=ACC, first_epoch=True, prev_crypto_time=None,
        crypto_time=TIME, digests=(D1, D2), ciphertexts=CIPHERTEXTS,
        enc_crypto_time=b"sealed-time", enc_state_tag=b"sealed-ah",
        deletion_proof=None, served_at=5000,
    ),
    "bundle_irrecoverable": AttestationBundle(
        epoch_id=7200, state=IRR, first_epoch=False, prev_crypto_time=PREV_TIME,
        crypto_time=TIME, digests=(D1, D2), ciphertexts=None,
        enc_crypto_time=b"sealed-time", enc_state_tag=b"sealed-irh",
        deletion_proof=PROOF, served_at=12000,
    ),
    "epoch_record_accessible": EpochRecord(
        epoch_id=3600, et=7200, prev_epoch_id=None, prev_crypto_time=None,
        crypto_time=TIME, digests=(D1, D2), ciphertexts=CIPHERTEXTS,
        enc_crypto_time=b"sealed-time", enc_accessible_tag=b"sealed-ah",
        enc_irrecoverable_tag=b"sealed-irh", deletion_proof=None, state=ACC,
        state_history=[(ACC, 7200)],
    ),
    "epoch_record_irrecoverable": EpochRecord(
        epoch_id=7200, et=10800, prev_epoch_id=3600, prev_crypto_time=PREV_TIME,
        crypto_time=TIME, digests=(D1, D2), ciphertexts=None,
        enc_crypto_time=b"sealed-time-2", enc_accessible_tag=None,
        enc_irrecoverable_tag=b"sealed-irh-2", deletion_proof=PROOF, state=IRR,
        state_history=[(ACC, 10800), (IRR, 14400)],
    ),
    "epoch_record_purged": EpochRecord(
        epoch_id=3600, et=7200, prev_epoch_id=None, prev_crypto_time=None,
        crypto_time=None, digests=(), ciphertexts=None, enc_crypto_time=None,
        enc_accessible_tag=None, enc_irrecoverable_tag=None, deletion_proof=None,
        state=PUR, state_history=[(ACC, 7200), (IRR, 10800), (PUR, 18000)],
    ),
    "query_record": QUERY,
    "sealed_block": BLOCK_1,
    "sealed_block_empty": BLOCK_2,
}

GOLDEN = {
    "acc_params": "c702040000000c000000020ca10000000102",
    "acc_value": "c70205000000020b4a",
    "bundle_accessible_first": (
        "c7020a0000000000000e10000100c70205000000020b4a00000008000000020001020304"
        "05060708090a0b0c0d0e0f01000000020000000663742d6f6e650000000763742d74776f"
        "210000000b7365616c65642d74696d65000000097365616c65642d616800000000000000"
        "1388"
    ),
    "bundle_irrecoverable": (
        "c7020a0000000000001c20010001c702050000000204d2c70205000000020b4a00000008"
        "00000002000102030405060708090a0b0c0d0e0f000000000b7365616c65642d74696d65"
        "0000000a7365616c65642d69726801c702080000000000000e10000000085a5a5a5a5a5a"
        "5a5a0000000000002a30000000060000000000002ee0"
    ),
    "deletion_proof": (
        "c702080000000000000e10000000085a5a5a5a5a5a5a5a0000000000002a3000000006"
    ),
    "epoch_record_accessible": (
        "c702100000000000000e100000000000001c2000000001c70205000000020b4a00000008"
        "00000002000102030405060708090a0b0c0d0e0f01000000020000000663742d6f6e6500"
        "00000763742d74776f21010000000b7365616c65642d74696d6501000000097365616c65"
        "642d6168010000000a7365616c65642d6972680000000001000000000000001c20"
    ),
    "epoch_record_irrecoverable": (
        "c702100000000000001c200000000000002a30010000000000000e100101c70205000000"
        "0204d201c70205000000020b4a0000000800000002000102030405060708090a0b0c0d0e"
        "0f00010000000d7365616c65642d74696d652d3200010000000c7365616c65642d697268"
        "2d3201c702080000000000000e10000000085a5a5a5a5a5a5a5a0000000000002a300000"
        "000600000002000000000000002a30010000000000003840"
    ),
    "epoch_record_purged": (
        "c702100000000000000e100000000000001c200002000000000000000000000000000000"
        "00000003000000000000001c20010000000000002a30020000000000004650"
    ),
    "meta_row": (
        "c702070000000000000e100000000000000e100000000000001c200000000b7365616c65"
        "642d74696d65000000097365616c65642d61680000000a7365616c65642d697268"
    ),
    "query_record": (
        "c7020b0000001053454c454354206f63637570616e63790000000000000fa00000000775"
        "7365722d303100000003736967"
    ),
    "reading": (
        "c7020100000006a1b2c3d4e5f6000000000036f26800000008727373693d2d3631"
    ),
    "reading_plaintext": (
        "c7020d00000006a1b2c3d4e5f6000000000036f26800000008727373693d2d3631000000"
        "0000000e10"
    ),
    "sealed_block": (
        "c7020c000000000000000100000000000000000000000000000e10c70205000000014d00"
        "00000200000006626c6f622d3100000007626c6f622d3232"
    ),
    "sealed_block_empty": (
        "c7020c00000000000000020000000000000e100000000000001c20c70205000000014e00"
        "000000"
    ),
    "sensor_row": (
        "c702060000000000000e100000000800000002000102030405060708090a0b0c0d0e0fc7"
        "0205000000020b4a000000020000000663742d6f6e650000000763742d74776f21"
    ),
    "sensor_row_empty_epoch": (
        "c702060000000000001c2000000008000000011011121314151617c702050000000204d2"
        "00000000"
    ),
    "wire_audit_fetch_first_request": "0000000000000001",
    "wire_audit_fetch_first_response": (
        "0000003cc7020c000000000000000100000000000000000000000000000e10c702050000"
        "00014d0000000200000006626c6f622d3100000007626c6f622d323200"
    ),
    "wire_audit_fetch_request": "0000000000000002",
    "wire_audit_fetch_response": (
        "00000027c7020c00000000000000020000000000000e100000000000001c20c702050000"
        "00014e0000000001c70205000000014d"
    ),
    "wire_error_response": (
        "040000002e726571756573746572206973206e6f7420612064657369676e617465642073"
        "6572766963652070726f7669646572"
    ),
    "wire_fetch_bundle_request": "0000000000000e100000000000001388",
    "wire_fetch_bundle_response": (
        "c7020a0000000000000e10000100c70205000000020b4a00000008000000020001020304"
        "05060708090a0b0c0d0e0f01000000020000000663742d6f6e650000000763742d74776f"
        "210000000b7365616c65642d74696d65000000097365616c65642d616800000000000000"
        "1388"
    ),
    "wire_fetch_sp_request": "0000000000000e100000000773702d303030310000000000001388",
    "wire_fetch_sp_response": "000000020000000663742d6f6e650000000763742d74776f21",
    "wire_ingest_request": (
        "c702060000000000000e100000000800000002000102030405060708090a0b0c0d0e0fc7"
        "0205000000020b4a000000020000000663742d6f6e650000000763742d74776f21c70207"
        "0000000000000e100000000000000e100000000000001c200000000b7365616c65642d74"
        "696d65000000097365616c65642d61680000000a7365616c65642d697268"
    ),
    "wire_ingest_response": "0000000000000e10",
    "wire_query_request": (
        "00000031c7020b0000001053454c454354206f63637570616e63790000000000000fa000"
        "000007757365722d3031000000037369670000000000000fa0"
    ),
    "wire_query_response": "",
    "wire_tick_request": "0000000000002a30",
    "wire_tick_response": "000000010000000000000e1000010000000000002a30",
}


def _identity(data, _key):
    return data


def _identity_many(plaintexts, _key):
    return tuple(plaintexts)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_golden_vector(name):
    value = RECORDS[name]
    blob = bytes.fromhex(GOLDEN[name])
    assert value.to_bytes() == blob
    decoded = type(value).from_bytes(blob)
    assert decoded == value
    assert decoded.to_bytes() == blob


def test_reading_plaintext_golden_vector():
    # With the envelope stubbed out, encrypt/decrypt expose the plaintext layout.
    with mock.patch.object(control, "hybrid_encrypt_many", _identity_many), mock.patch.object(
        control, "hybrid_decrypt", _identity
    ):
        (blob,) = encrypt_epoch([READING], 3600, None)
        assert blob.hex() == GOLDEN["reading_plaintext"]
        assert decrypt_reading(blob, None) == (READING, 3600)


class Tap:
    """Transport that hands each request to a service and keeps both payloads."""

    def __init__(self, handle):
        self._handle = handle
        self.seen: list[tuple[bytes, bytes]] = []

    def request(self, msg_type, payload):
        resp_type, resp_payload = self._handle(msg_type, payload)
        self.seen.append((payload, resp_payload))
        return resp_type, resp_payload, 0.0

    def check(self, name, request=True):
        sent, received = self.seen[-1]
        if request:
            assert sent.hex() == GOLDEN[f"wire_{name}_request"]
        assert received.hex() == GOLDEN[f"wire_{name}_response"]


class StubLogger:
    def __init__(self, blocks):
        self.sealed_blocks = blocks
        self.logged = []

    def log(self, record, now):
        self.logged.append((record, now))


def test_cloud_wire_golden_vectors():
    store = CloudStore(
        RetentionPolicy(p_del=1, p_ver=3, delta=3600), sp_allowlist=frozenset({b"sp-0001"})
    )
    tap = Tap(CloudService(store).handle)

    assert CloudService.ingest_via(tap, SENSOR_ROW, META) == 3600
    tap.check("ingest")
    assert CloudService.ingest_via(tap, EMPTY_ROW, EMPTY_META) == 7200

    cts, _ = CloudService.fetch_sp_via(tap, 3600, b"sp-0001", 5000)
    assert cts == CIPHERTEXTS
    tap.check("fetch_sp")

    bundle, _ = CloudService.fetch_bundle_via(tap, 3600, 5000)
    assert bundle == RECORDS["bundle_accessible_first"]
    tap.check("fetch_bundle")

    assert CloudService.tick_via(tap, 10800) == [Transition(3600, ACC, IRR, 10800)]
    tap.check("tick")

    with pytest.raises(NotAuthorizedError, match="designated service provider"):
        CloudService.fetch_sp_via(tap, 3600, b"intruder", 5000)
    tap.check("error", request=False)


def test_sp_wire_golden_vectors():
    logger = StubLogger([BLOCK_1, BLOCK_2])
    tap = Tap(SpService(logger).handle)

    SpService.query_via(tap, QUERY, 4000)
    assert logger.logged == [(QUERY, 4000)]
    tap.check("query")

    assert SpService.audit_fetch_via(tap, 1) == (BLOCK_1, None)
    tap.check("audit_fetch_first")
    assert SpService.audit_fetch_via(tap, 2) == (BLOCK_2, BLOCK_1.block_proof)
    tap.check("audit_fetch")

    for block_id in (0, 3, 9):  # ids are 1-based positions; 0 is not the last block
        with pytest.raises(UnavailableError, match=f"no sealed block {block_id}"):
            SpService.audit_fetch_via(tap, block_id)
