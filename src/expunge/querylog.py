"""Tamper-evident query logging inside the provider's trusted component.

Every query a user sends to the service provider is signed by the user,
chained into the current block by hash and, when the block seals,
bound into a chained accumulator proof. The service provider stores only
encrypted sealed blocks, so it can neither read, alter, drop, nor
reorder logged queries without the next audit noticing: a record-level
change breaks the recomputed block proof, and a missing block breaks the
proof chain itself.

The "enclave" here is an in-process trusted component with its own key
namespace; there is no hardware attestation in this harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from . import encoding
from .accumulator import AccumulatorParams, AccumulatorValue, step
from .crypto import hybrid_decrypt_many, hybrid_encrypt_many, sign, verify_signature
from .encoding import U64, VBYTES, VBYTES_LIST, Layout, Record, nested, u64, vbytes, vint
from .errors import DomainError, IntegrityError, SealedBlockError, SignatureRejected
from .hashing import digest

_EMPTY_BLOCK_LABEL = b"EMPTYBLOCK"


def signed_payload(query: bytes, time: int) -> bytes:
    """Exact bytes a user signs for one query."""
    return vbytes(query) + u64(time)


@dataclass(frozen=True)
class QueryRecord(Record):
    """One signed query: the user cannot later deny having sent it."""

    LAYOUT = Layout(
        encoding.TYPE_QUERY_RECORD,
        ("query", VBYTES),
        ("time", U64),
        ("user_id", VBYTES),
        ("signature", VBYTES),
    )

    query: bytes
    time: int
    user_id: bytes
    signature: bytes


def make_query_record(
    query: bytes, time: int, user_id: bytes, signing_key: Ed25519PrivateKey
) -> QueryRecord:
    return QueryRecord(
        query=query,
        time=time,
        user_id=user_id,
        signature=sign(signing_key, signed_payload(query, time)),
    )


def seed_link(params: AccumulatorParams) -> bytes:
    """Chain origin for the first record of a block: the public seed."""
    return vint(params.seed)


def chain_digest(record: QueryRecord, prev_link: bytes) -> bytes:
    """Next running digest: the record's own fields chained onto ``prev_link``."""
    return digest(record.to_bytes(), vbytes(prev_link))


def empty_block_digest(block_id: int) -> bytes:
    """Sentinel chain head for a block sealed with no records."""
    return digest(_EMPTY_BLOCK_LABEL, u64(block_id))


@dataclass
class QueryBlock:
    """The open block being filled inside the trusted component."""

    block_id: int
    created_at: int
    capacity: int
    records: list[QueryRecord] = field(default_factory=list)
    running_digest: bytes | None = None
    sealed: bool = False
    block_proof: AccumulatorValue | None = None

    def __post_init__(self):
        if self.capacity < 1:
            raise DomainError("block capacity must be at least 1")

    @property
    def full(self) -> bool:
        return len(self.records) >= self.capacity


@dataclass(frozen=True)
class SealedBlock(Record):
    """Durable on-disk form: proof plus per-record encryption."""

    LAYOUT = Layout(
        encoding.TYPE_SEALED_BLOCK,
        ("block_id", U64),
        ("created_at", U64),
        ("sealed_at", U64),
        ("block_proof", nested(AccumulatorValue)),
        ("encrypted_records", VBYTES_LIST),
    )

    block_id: int
    created_at: int
    sealed_at: int
    block_proof: AccumulatorValue
    encrypted_records: tuple[bytes, ...]


def append_query(
    block: QueryBlock,
    record: QueryRecord,
    registry: dict[bytes, Ed25519PublicKey],
    params: AccumulatorParams,
) -> None:
    """Chain one record into the open block after signature screening."""
    if block.sealed:
        raise SealedBlockError(f"block {block.block_id} is sealed")
    if block.full:
        raise SealedBlockError(f"block {block.block_id} is full; seal it first")
    public = registry.get(record.user_id)
    if public is None or not verify_signature(
        public, record.signature, signed_payload(record.query, record.time)
    ):
        raise SignatureRejected(f"record from {record.user_id!r} failed verification")
    prev_link = block.running_digest if block.records else seed_link(params)
    block.running_digest = chain_digest(record, prev_link)
    block.records.append(record)


def seal_block(
    block: QueryBlock,
    prev_proof: AccumulatorValue | int,
    params: AccumulatorParams,
    sdp_public: X25519PublicKey,
    sealed_at: int,
) -> SealedBlock:
    """Freeze the block: chained proof, each record encrypted on its own.

    The block's records share one key agreement; each still opens alone.

    An empty block seals over a sentinel digest so the proof chain shows
    no gap that suppression could hide in. ``prev_proof`` is the seal of
    the previous block, or the public seed for the first one.
    """
    if block.sealed:
        raise SealedBlockError(f"block {block.block_id} is already sealed")
    head = block.running_digest
    if head is None:
        head = empty_block_digest(block.block_id)
    proof = step(prev_proof, head, params)
    block.sealed = True
    block.block_proof = proof
    return SealedBlock(
        block_id=block.block_id,
        created_at=block.created_at,
        sealed_at=sealed_at,
        block_proof=proof,
        encrypted_records=hybrid_encrypt_many(
            [record.to_bytes() for record in block.records], sdp_public
        ),
    )


@dataclass(frozen=True)
class AuditReport:
    block_id: int
    decrypt_ok: bool
    proof_match: bool
    invalid_signature_positions: tuple[int, ...]
    recomputed_proof: AccumulatorValue | None

    @property
    def ok(self) -> bool:
        return self.decrypt_ok and self.proof_match

    @property
    def impersonation_suspected(self) -> bool:
        return bool(self.invalid_signature_positions)


def audit_block(
    sealed: SealedBlock,
    prev_proof: AccumulatorValue | int,
    sdp_private: X25519PrivateKey,
    params: AccumulatorParams,
    registry: dict[bytes, Ed25519PublicKey],
) -> AuditReport:
    """Provider-side audit of one sealed block.

    Decrypts the records, re-verifies every user signature, replays the
    hash chain and the accumulator step, and compares against the proof
    the block was stored with. Any tampering with record content, order,
    count, or with the block's position in the chain shows up as a proof
    mismatch; signature failures point at impersonated users.
    """
    try:
        records = [
            QueryRecord.from_bytes(plaintext)
            for plaintext in hybrid_decrypt_many(sealed.encrypted_records, sdp_private)
        ]
    except (IntegrityError, encoding.EncodingError):
        return AuditReport(
            block_id=sealed.block_id,
            decrypt_ok=False,
            proof_match=False,
            invalid_signature_positions=(),
            recomputed_proof=None,
        )

    bad_signatures = []
    for position, record in enumerate(records, start=1):
        public = registry.get(record.user_id)
        if public is None or not verify_signature(
            public, record.signature, signed_payload(record.query, record.time)
        ):
            bad_signatures.append(position)

    if records:
        link = seed_link(params)
        for record in records:
            link = chain_digest(record, link)
    else:
        link = empty_block_digest(sealed.block_id)
    recomputed = step(prev_proof, link, params)

    return AuditReport(
        block_id=sealed.block_id,
        decrypt_ok=True,
        proof_match=recomputed == sealed.block_proof,
        invalid_signature_positions=tuple(bad_signatures),
        recomputed_proof=recomputed,
    )


class QueryLogger:
    """The trusted component's logging loop: open block, seal, hand off.

    Blocks seal when full or when their wall-time limit passes,
    whichever happens first, so quiet periods still produce auditable
    blocks. Sealed blocks go to ``sink`` (typically a file writer owned
    by the service provider).
    """

    def __init__(
        self,
        capacity: int,
        time_limit: int,
        params: AccumulatorParams,
        sdp_public: X25519PublicKey,
        registry: dict[bytes, Ed25519PublicKey],
        start_time: int = 0,
        sink: Callable[[SealedBlock], None] | None = None,
    ):
        if time_limit <= 0:
            raise DomainError("block time limit must be positive")
        self.capacity = capacity
        self.time_limit = time_limit
        self.params = params
        self.sdp_public = sdp_public
        self.registry = registry
        self.sink = sink
        self.sealed_blocks: list[SealedBlock] = []
        self.security_events: list[dict] = []
        self._chain_tip: AccumulatorValue | int = params.seed
        self._open = QueryBlock(block_id=1, created_at=start_time, capacity=capacity)

    @property
    def open_block(self) -> QueryBlock:
        return self._open

    def _seal_open(self, now: int) -> None:
        sealed = seal_block(self._open, self._chain_tip, self.params, self.sdp_public, now)
        self.sealed_blocks.append(sealed)
        self._chain_tip = sealed.block_proof
        if self.sink is not None:
            self.sink(sealed)
        self._open = QueryBlock(
            block_id=sealed.block_id + 1, created_at=now, capacity=self.capacity
        )

    def advance(self, now: int) -> None:
        """Seal on the time limit; called whenever the clock moves."""
        while now - self._open.created_at >= self.time_limit:
            self._seal_open(self._open.created_at + self.time_limit)

    def log(self, record: QueryRecord, now: int) -> None:
        """Admit one query record; the logging call sits on the request path."""
        self.advance(now)
        try:
            append_query(self._open, record, self.registry, self.params)
        except SignatureRejected:
            self.security_events.append(
                {"at": now, "user_id": record.user_id.hex(), "event": "signature_rejected"}
            )
            raise
        if self._open.full:
            self._seal_open(now)

    def flush(self, now: int) -> None:
        """Seal whatever is open (end of run)."""
        if self._open.records:
            self._seal_open(now)
