"""Length-prefixed binary wire protocol between simulation roles.

Frames are ``u32 length, u8 message type, payload``; payloads reuse the
canonical record layout. Two interchangeable transports exist: an
in-process loopback for deterministic tests, and local TCP sockets when
the harness should measure real transfer times. Both report the elapsed
request-to-response time, which is what the attestation time bound
consumes.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time
from enum import IntEnum
from typing import Callable

from .accumulator import AccumulatorValue
from .cloud import AttestationBundle, CloudStore, Transition
from .control import MetaDataRow, SensorDataRow
from .encoding import (
    U64,
    VBYTES,
    VBYTES_LIST,
    EncodingError,
    Layout,
    enum,
    nested,
    optional,
    seq,
    u8,
    u32,
)
from .errors import (
    DataExpiredError,
    DuplicateEpochError,
    ExpungeError,
    InconsistentRowsError,
    NotAuthorizedError,
    SealedBlockError,
    SignatureRejected,
    UnavailableError,
    WireError,
)
from .querylog import QueryLogger, QueryRecord, SealedBlock


class MessageType(IntEnum):
    INGEST = 1
    FETCH_SP = 2
    FETCH_BUNDLE = 3
    TICK = 4
    QUERY = 5
    AUDIT_FETCH = 6

    OK = 16
    ERROR = 17
    CIPHERTEXTS = 18
    BUNDLE = 19
    TRANSITIONS = 20
    BLOCK = 21


class ErrorCode(IntEnum):
    PROTOCOL = 1
    DUPLICATE = 2
    INCONSISTENT = 3
    UNAUTHORIZED = 4
    EXPIRED = 5
    UNAVAILABLE = 6
    REJECTED = 7
    SEALED = 8


_CODE_ERRORS = {
    ErrorCode.DUPLICATE: DuplicateEpochError,
    ErrorCode.INCONSISTENT: InconsistentRowsError,
    ErrorCode.UNAUTHORIZED: NotAuthorizedError,
    ErrorCode.EXPIRED: DataExpiredError,
    ErrorCode.UNAVAILABLE: UnavailableError,
    ErrorCode.REJECTED: SignatureRejected,
    ErrorCode.SEALED: SealedBlockError,
    ErrorCode.PROTOCOL: WireError,
}

Handler = Callable[[int, bytes], tuple[int, bytes]]

# Payload layouts. A single u64 is the TICK and AUDIT_FETCH request and the
# INGEST acknowledgement; QUERY and BLOCK carry a whole record as vbytes.
U64_LAYOUT = Layout(None, ("value", U64))
INGEST_LAYOUT = Layout(
    None, ("sensor_row", nested(SensorDataRow)), ("meta_row", nested(MetaDataRow))
)
FETCH_SP_LAYOUT = Layout(None, ("epoch_id", U64), ("requester", VBYTES), ("now", U64))
CIPHERTEXTS_LAYOUT = Layout(None, ("ciphertexts", VBYTES_LIST))
FETCH_BUNDLE_LAYOUT = Layout(None, ("at", U64), ("now", U64))
TRANSITIONS_LAYOUT = Layout(None, ("transitions", seq(nested(Transition))))
QUERY_LAYOUT = Layout(None, ("record", VBYTES), ("now", U64))
BLOCK_LAYOUT = Layout(
    None, ("block", VBYTES), ("prev_proof", optional(nested(AccumulatorValue)))
)
ERROR_LAYOUT = Layout(None, ("code", enum(ErrorCode)), ("message", VBYTES))


def error_payload(exc: Exception) -> tuple[int, bytes]:
    code = next(
        (code for code, exc_type in _CODE_ERRORS.items() if isinstance(exc, exc_type)),
        ErrorCode.PROTOCOL,
    )
    return MessageType.ERROR, ERROR_LAYOUT.pack(code, str(exc).encode())


def raise_for_error(msg_type: int, payload: bytes) -> None:
    if msg_type != MessageType.ERROR:
        return
    try:
        code, message = ERROR_LAYOUT.unpack(payload)
    except EncodingError as exc:
        raise WireError(f"malformed error frame: {exc}") from exc
    raise _CODE_ERRORS[code](message.decode(errors="replace"))


def _exchange(transport, msg_type: int, payload: bytes, reply_type: int) -> tuple[bytes, float]:
    """Send one request; return the reply's payload and the request's wall time.

    An error reply raises its error; any reply type but ``reply_type``
    raises :class:`WireError`, so no helper decodes a payload of the
    wrong kind.
    """
    resp_type, resp_payload, elapsed = transport.request(msg_type, payload)
    raise_for_error(resp_type, resp_payload)
    if resp_type != reply_type:
        raise WireError(f"expected a {MessageType(reply_type).name} reply, got type {resp_type}")
    return resp_payload, elapsed


class LoopbackTransport:
    """Direct handler invocation with the same timing interface as sockets."""

    def __init__(self, handler: Handler):
        self._handler = handler

    def request(self, msg_type: int, payload: bytes) -> tuple[int, bytes, float]:
        # The handler gets and returns payloads as they are: no frame is
        # built, so ``elapsed`` is the handler's time alone. A type that
        # a frame could not carry is refused, as on a socket.
        u8(msg_type)
        start = time.perf_counter()
        resp_type, resp_payload = self._handler(msg_type, payload)
        elapsed = time.perf_counter() - start
        return resp_type, resp_payload, elapsed

    def close(self) -> None:
        pass


class _FrameServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


#: Largest single ``recv``: memory follows the bytes that arrive, not a
#: length the peer declares.
_RECV_CHUNK = 1 << 20

#: Largest frame a peer may declare, type byte included. The largest
#: frame the tests, demos and benchmark send is a 1 MiB irrecoverable
#: bundle (2^15 digests, no cells); a longer declared length is refused
#: from the 4-byte header alone.
MAX_FRAME_BYTES = 64 << 20

#: Payload size of each fixed-width request, from its layout. A frame of
#: one of these types that declares a longer payload is refused after
#: its 5-byte head; every other type is held to MAX_FRAME_BYTES alone.
_FIXED_PAYLOAD_BYTES = {
    MessageType.TICK: len(U64_LAYOUT.pack(0)),
    MessageType.FETCH_BUNDLE: len(FETCH_BUNDLE_LAYOUT.pack(0, 0)),
    MessageType.AUDIT_FETCH: len(U64_LAYOUT.pack(0)),
}


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, _RECV_CHUNK))
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> tuple[int, bytes]:
    length = struct.unpack(">I", _recv_exact(sock, 4))[0]
    if length < 1:
        raise WireError("empty frame")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"declared frame length {length} exceeds {MAX_FRAME_BYTES}")
    msg_type = _recv_exact(sock, 1)[0]
    cap = _FIXED_PAYLOAD_BYTES.get(msg_type)
    if cap is not None and length - 1 > cap:
        raise WireError(
            f"declared {MessageType(msg_type).name} payload of {length - 1} B exceeds {cap}"
        )
    return msg_type, _recv_exact(sock, length - 1)


def _write_frame(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    sock.sendall(u32(len(payload) + 1) + u8(msg_type) + payload)


def serve(handler: Handler, host: str = "127.0.0.1", port: int = 0) -> "_FrameServer":
    """Start a threaded frame server; ``server.server_address`` has the port."""

    class _RequestHandler(socketserver.BaseRequestHandler):
        def handle(self):
            try:
                while True:
                    msg_type, payload = _read_frame(self.request)
                    try:
                        resp_type, resp_payload = handler(msg_type, payload)
                    except Exception as exc:  # surface as a wire error frame
                        resp_type, resp_payload = error_payload(exc)
                    _write_frame(self.request, resp_type, resp_payload)
            except (WireError, ConnectionError, OSError):
                return

    server = _FrameServer((host, port), _RequestHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class SocketTransport:
    """Persistent client connection to a frame server."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, msg_type: int, payload: bytes) -> tuple[int, bytes, float]:
        start = time.perf_counter()
        _write_frame(self._sock, msg_type, payload)
        resp_type, resp_payload = _read_frame(self._sock)
        elapsed = time.perf_counter() - start
        return resp_type, resp_payload, elapsed

    def close(self) -> None:
        self._sock.close()


# -- cloud role --------------------------------------------------------------


class CloudService:
    """Message handler wrapping a :class:`CloudStore`."""

    def __init__(self, store: CloudStore):
        self.store = store

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        try:
            if msg_type == MessageType.INGEST:
                eid = self.store.ingest(*INGEST_LAYOUT.unpack(payload))
                return MessageType.OK, U64_LAYOUT.pack(eid)
            if msg_type == MessageType.FETCH_SP:
                ciphertexts = self.store.fetch_for_sp(*FETCH_SP_LAYOUT.unpack(payload))
                return MessageType.CIPHERTEXTS, CIPHERTEXTS_LAYOUT.pack(ciphertexts)
            if msg_type == MessageType.FETCH_BUNDLE:
                bundle = self.store.fetch_bundle(*FETCH_BUNDLE_LAYOUT.unpack(payload))
                return MessageType.BUNDLE, bundle.to_bytes()
            if msg_type == MessageType.TICK:
                transitions = self.store.tick(*U64_LAYOUT.unpack(payload))
                return MessageType.TRANSITIONS, TRANSITIONS_LAYOUT.pack(transitions)
            raise WireError(f"cloud cannot handle message type {msg_type}")
        except (ExpungeError, EncodingError) as exc:
            return error_payload(exc)

    # -- client-side helpers (shared by harness and CLI) ----------------------

    @staticmethod
    def ingest_via(transport, sensor_row: SensorDataRow, meta_row: MetaDataRow) -> int:
        payload, _ = _exchange(
            transport, MessageType.INGEST, INGEST_LAYOUT.pack(sensor_row, meta_row), MessageType.OK
        )
        (eid,) = U64_LAYOUT.unpack(payload)
        return eid

    @staticmethod
    def fetch_sp_via(
        transport, epoch_id: int, requester: bytes, now: int
    ) -> tuple[tuple[bytes, ...], float]:
        payload, elapsed = _exchange(
            transport,
            MessageType.FETCH_SP,
            FETCH_SP_LAYOUT.pack(epoch_id, requester, now),
            MessageType.CIPHERTEXTS,
        )
        (cts,) = CIPHERTEXTS_LAYOUT.unpack(payload)
        return cts, elapsed

    @staticmethod
    def fetch_bundle_via(transport, at: int, now: int) -> tuple[AttestationBundle, float]:
        payload, elapsed = _exchange(
            transport,
            MessageType.FETCH_BUNDLE,
            FETCH_BUNDLE_LAYOUT.pack(at, now),
            MessageType.BUNDLE,
        )
        return AttestationBundle.from_bytes(payload), elapsed

    @staticmethod
    def tick_via(transport, now: int) -> list[Transition]:
        payload, _ = _exchange(
            transport, MessageType.TICK, U64_LAYOUT.pack(now), MessageType.TRANSITIONS
        )
        (transitions,) = TRANSITIONS_LAYOUT.unpack(payload)
        return transitions


# -- service-provider role -----------------------------------------------------


class SpService:
    """Message handler for the provider-audited side of the SP."""

    def __init__(self, logger: QueryLogger):
        self.logger = logger

    def handle(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        try:
            if msg_type == MessageType.QUERY:
                blob, now = QUERY_LAYOUT.unpack(payload)
                self.logger.log(QueryRecord.from_bytes(blob), now)
                return MessageType.OK, b""
            if msg_type == MessageType.AUDIT_FETCH:
                (block_id,) = U64_LAYOUT.unpack(payload)
                blocks = self.logger.sealed_blocks  # block ids are 1-based positions
                if not 1 <= block_id <= len(blocks):
                    raise UnavailableError(f"no sealed block {block_id}")
                prev_proof = blocks[block_id - 2].block_proof if block_id > 1 else None
                body = BLOCK_LAYOUT.pack(blocks[block_id - 1].to_bytes(), prev_proof)
                return MessageType.BLOCK, body
            raise WireError(f"service provider cannot handle message type {msg_type}")
        except (ExpungeError, EncodingError) as exc:
            return error_payload(exc)

    @staticmethod
    def query_via(transport, record: QueryRecord, now: int) -> None:
        _exchange(
            transport, MessageType.QUERY, QUERY_LAYOUT.pack(record.to_bytes(), now), MessageType.OK
        )

    @staticmethod
    def audit_fetch_via(
        transport, block_id: int
    ) -> tuple[SealedBlock, AccumulatorValue | None]:
        """Returns (sealed block, previous block proof or None)."""
        payload, _ = _exchange(
            transport, MessageType.AUDIT_FETCH, U64_LAYOUT.pack(block_id), MessageType.BLOCK
        )
        blob, prev = BLOCK_LAYOUT.unpack(payload)
        return SealedBlock.from_bytes(blob), prev
