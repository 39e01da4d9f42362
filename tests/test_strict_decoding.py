"""Decoders accept only canonical bytes, and the wire fails closed.

Every decode either raises ``EncodingError``/``ExpungeError`` or yields a
value that re-encodes to exactly the input, so two parties can never
read one byte string as two different records.
"""

import gc
import re
import resource
import weakref
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_encoding import GOLDEN, META, QUERY, RECORDS, SENSOR_ROW, _identity, _identity_many

import expunge
from expunge import control, wire
from expunge.control import decrypt_reading, encrypt_epoch
from expunge.encoding import EncodingError, u32, vbytes
from expunge.errors import ExpungeError, WireError
from expunge.wire import CloudService, MessageType, SpService, raise_for_error

D1, D2 = bytes(range(8)), bytes(range(8, 16))


def _with_byte(name: str, offset: int, value: int) -> bytes:
    blob = bytearray.fromhex(GOLDEN[name])
    blob[offset] = value
    return bytes(blob)


def _decode(name: str, blob: bytes):
    return type(RECORDS[name]).from_bytes(blob)


# Offsets after the 3-byte header: a bundle has epoch_id u64, then state,
# first_epoch and the prev_crypto_time presence byte; an epoch record has
# two u64s, then the prev_epoch_id presence byte (absent in these vectors),
# state and two presence bytes.
@pytest.mark.parametrize(
    "name, offset",
    [
        ("bundle_accessible_first", 12),
        ("bundle_accessible_first", 13),
        ("bundle_irrecoverable", 13),
        ("epoch_record_accessible", 19),
        ("epoch_record_accessible", 21),
    ],
)
@pytest.mark.parametrize("value", [2, 9, 0xFF])
def test_flag_byte_must_be_0_or_1(name, offset, value):
    with pytest.raises(EncodingError, match="flag byte"):
        _decode(name, _with_byte(name, offset, value))


@pytest.mark.parametrize("name, offset", [("bundle_irrecoverable", 11), ("epoch_record_purged", 20)])
def test_out_of_range_state_is_encoding_error(name, offset):
    with pytest.raises(EncodingError, match="not a DataState"):
        _decode(name, _with_byte(name, offset, 9))


def test_empty_digest_list_must_declare_width_0():
    # Purged first record: header, two u64s, the absent prev_epoch_id, state,
    # two absent presence bytes.
    with pytest.raises(EncodingError, match="width 0"):
        _decode("epoch_record_purged", _with_byte("epoch_record_purged", 26, 8))


@pytest.mark.parametrize(
    "name, listed",
    [
        ("bundle_accessible_first", u32(8) + u32(2) + D1 + D2),
        ("sensor_row", u32(8) + u32(2) + D1 + D2),
        ("epoch_record_accessible", u32(8) + u32(2) + D1 + D2),
    ],
)
def test_zero_width_list_cannot_declare_elements(name, listed):
    # A larger count is not tried: code without the check would build one
    # tuple entry per declared element from these few bytes.
    blob = bytes.fromhex(GOLDEN[name])
    assert blob.count(listed) == 1
    with pytest.raises(EncodingError, match="zero-width"):
        _decode(name, blob.replace(listed, u32(0) + u32(10**6)))


def _codecs() -> dict:
    """``(decode, encode)`` for every non-empty golden vector."""
    codecs = {name: (type(v).from_bytes, type(v).to_bytes) for name, v in RECORDS.items()}
    codecs["reading_plaintext"] = (
        lambda blob: decrypt_reading(blob, None),
        lambda value: encrypt_epoch([value[0]], value[1], None)[0],
    )
    for name, layout in _wire_layouts().items():
        if GOLDEN[name]:
            codecs[name] = (layout.unpack, lambda values, layout=layout: layout.pack(*values))
    return codecs


def _wire_layouts() -> dict:
    """The layout of each wire golden vector, read from its row of ``wire.EXCHANGES``."""
    layouts = {"wire_error_response": wire.ERROR_LAYOUT}
    for msg_type, (request, _, reply) in wire.EXCHANGES.items():
        for stem in (f"wire_{msg_type.name.lower()}", f"wire_{msg_type.name.lower()}_first"):
            layouts[f"{stem}_request"] = request
            layouts[f"{stem}_response"] = reply
    return {name: layout for name, layout in layouts.items() if name in GOLDEN}


@pytest.mark.parametrize("msg_type", wire.EXCHANGES, ids=lambda msg_type: msg_type.name)
def test_each_exchange_has_golden_vectors(msg_type):
    stem = f"wire_{msg_type.name.lower()}"
    assert {f"{stem}_request", f"{stem}_response"} <= set(_wire_layouts())


def test_wire_golden_vectors_round_trip_through_the_table():
    assert sorted(_wire_layouts()) == sorted(name for name in GOLDEN if name.startswith("wire_"))
    for name, layout in _wire_layouts().items():
        blob = bytes.fromhex(GOLDEN[name])
        assert layout.pack(*layout.unpack(blob)) == blob


@contextmanager
def _address_space_cap(headroom: int = 256 << 20):
    """Make a decode that allocates per declared element raise MemoryError.

    A decoder that sized its work by a count field instead of the bytes
    present could otherwise take the whole host's memory on one mutated
    vector before failing.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/status") as status:
        used = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
    cap = used + headroom if hard == resource.RLIM_INFINITY else min(used + headroom, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# The QUERY acknowledgement is the one empty payload: there is nothing to mutate.
FUZZED = sorted(name for name in GOLDEN if GOLDEN[name])


def test_every_golden_vector_is_fuzzed():
    assert sorted(_codecs()) == FUZZED


@pytest.mark.parametrize("name", FUZZED)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_vectors_fail_cleanly_or_round_trip(name, data):
    decode, encode = _codecs()[name]
    blob = bytearray.fromhex(GOLDEN[name])
    edits = data.draw(
        st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=3)
    )
    for index, value in edits:
        blob[index] = value
    cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    blob = bytes(blob[:cut])
    with mock.patch.object(control, "hybrid_encrypt_many", _identity_many), mock.patch.object(
        control, "hybrid_decrypt", _identity
    ):
        try:
            with _address_space_cap():
                value = decode(blob)
        except (EncodingError, ExpungeError):
            return
        assert encode(value) == blob


def test_wire_payload_rejects_trailing_bytes():
    with pytest.raises(EncodingError, match="trailing"):
        request, _, _ = wire.EXCHANGES[MessageType.TICK]
        request.unpack(bytes(9))


# -- wire --------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload", [bytes([99]) + vbytes(b"boom"), bytes([0]) + vbytes(b"boom"), b"\x04\x00", b""]
)
def test_malformed_error_frame_is_wire_error(payload):
    with pytest.raises(WireError):
        raise_for_error(MessageType.ERROR, payload)


#: Each request type's client helper, keyed by the type's name in lower case.
_CLIENT_HELPERS = {
    "ingest": lambda t: CloudService.ingest_via(t, SENSOR_ROW, META),
    "fetch_sp": lambda t: CloudService.fetch_sp_via(t, 3600, b"s", 0),
    "fetch_bundle": lambda t: CloudService.fetch_bundle_via(t, 3600, 5000),
    "tick": lambda t: CloudService.tick_via(t, 10800),
    "query": lambda t: SpService.query_via(t, QUERY, 4000),
    "audit_fetch": lambda t: SpService.audit_fetch_via(t, 2),
}


def test_every_request_type_has_a_client_helper():
    assert sorted(_CLIENT_HELPERS) == sorted(t.name.lower() for t in wire.EXCHANGES)


@pytest.mark.parametrize("service", [CloudService, SpService], ids=lambda cls: cls.__name__)
def test_a_dropped_service_is_freed_without_the_cycle_collector(service):
    # a service that referred to itself would hold its store or query log,
    # with every record in it, until the next full collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        handle = service(object()).handle
        freed = weakref.ref(handle.__self__)
        del handle
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


class Replying:
    """Transport that answers every request with one fixed reply."""

    def __init__(self, msg_type: int, payload: bytes):
        self.reply = msg_type, payload, 0.0

    def request(self, msg_type, payload):
        return self.reply


@pytest.mark.parametrize("name", _CLIENT_HELPERS)
def test_client_helpers_refuse_a_reply_of_another_type(name):
    call = _CLIENT_HELPERS[name]
    _, expected, _ = wire.EXCHANGES[MessageType[name.upper()]]
    payload = bytes.fromhex(GOLDEN[f"wire_{name}_response"])
    call(Replying(expected, payload))  # the payload is valid for this helper
    for other in {reply_type for _, reply_type, _ in wire.EXCHANGES.values()} - {expected}:
        with pytest.raises(WireError, match=f"expected a {expected.name} reply"):
            call(Replying(other, payload))


class RecordingSocket:
    """Socket stand-in that serves a fixed stream and records each ``recv`` size."""

    def __init__(self, stream: bytes):
        self._stream = stream
        self.sizes: list[int] = []

    def recv(self, n: int) -> bytes:
        self.sizes.append(n)
        chunk, self._stream = self._stream[:n], self._stream[n:]
        return chunk


def test_recv_reads_in_bounded_chunks():
    body = bytes(range(256)) * (12 * 1024)  # 3 MiB
    sock = RecordingSocket(body)
    assert wire._recv_exact(sock, len(body)) == body
    assert max(sock.sizes) <= 1 << 20


def test_declared_frame_length_does_not_size_the_read():
    sock = RecordingSocket(u32(0xFFFFFFFF) + b"\x10short")
    with pytest.raises(WireError, match="exceeds"):
        wire._read_frame(sock)
    assert sock.sizes == [4]


def test_frame_cap_admits_a_frame_of_exactly_the_cap(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 8)
    assert wire._read_frame(RecordingSocket(u32(8) + b"\x10" + bytes(7))) == (0x10, bytes(7))
    with pytest.raises(WireError, match="exceeds"):
        wire._read_frame(RecordingSocket(u32(9) + b"\x10" + bytes(8)))


@pytest.mark.parametrize(
    "msg_type, payload_bytes",
    [(MessageType.TICK, 8), (MessageType.FETCH_BUNDLE, 16), (MessageType.AUDIT_FETCH, 8)],
)
def test_fixed_width_request_is_capped_by_its_layout(msg_type, payload_bytes):
    exact = bytes(range(payload_bytes))
    frame = u32(payload_bytes + 1) + bytes([msg_type]) + exact
    assert wire._read_frame(RecordingSocket(frame)) == (msg_type, exact)
    for declared in (payload_bytes + 2, 1 << 20):
        sock = RecordingSocket(u32(declared) + bytes([msg_type]) + bytes(declared - 1))
        with pytest.raises(WireError, match="exceeds"):
            wire._read_frame(sock)
        assert sock.sizes == [4, 1]  # the 5-byte head, and nothing of the body


def test_other_types_keep_the_global_cap():
    payload = bytes(1 << 20)
    frame = u32(len(payload) + 1) + bytes([MessageType.INGEST]) + payload
    assert wire._read_frame(RecordingSocket(frame)) == (MessageType.INGEST, payload)


# -- drift guard -------------------------------------------------------------

_HAND_LAYOUT = re.compile(r"Reader\(|expect_header|header\(encoding\.TYPE_")


def test_only_encoding_builds_record_layouts():
    package = Path(expunge.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "encoding.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _HAND_LAYOUT.search(line)
    ]
    assert offenders == []


# ``hashing`` opens libcrypto through ``_hashlib``, which this does not match
_HASHLIB_USE = re.compile(r"\bimport hashlib\b|\bfrom hashlib\b|\bhashlib\.")


def test_only_hashing_uses_hashlib():
    package = Path(expunge.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "hashing.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _HASHLIB_USE.search(line)
    ]
    assert offenders == []


def test_only_hashing_loads_libcrypto():
    package = Path(expunge.__file__).parent
    loaders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"\bCDLL\(|\b_hashlib\b", path.read_text())
    ]
    assert loaders == ["hashing.py"]


def test_only_querylog_builds_sealed_blocks():
    package = Path(expunge.__file__).parent
    builders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"\bSealedBlock\(", path.read_text())
    ]
    assert builders == ["querylog.py"]
