"""Tamper-evident query logging inside the provider's trusted component.

Every query a user sends to the service provider is signed by the user,
chained into the current block by hash and, when the block seals,
bound into a chained accumulator proof. The service provider stores only
encrypted sealed blocks, so it cannot read logged queries, and the next
audit notices a changed, dropped, added or reordered record (the
recomputed block proof differs), a record whose signature does not
verify, or a missing block between two kept ones (the proof chain
breaks). The audit does not notice a dropped or re-derived *newest*
block: the accumulator step and the SDP's box key are public, so the
service provider can recompute a tail's proofs over signed records of
its choosing, and nothing vouches for the chain's tip. ROADMAP item 5
(the truncation attack) closes that gap.

The "enclave" here is an in-process trusted component with its own key
namespace; there is no hardware attestation in this harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from . import encoding
from .accumulator import AccumulatorParams, AccumulatorValue, start_step, step
from .crypto import hybrid_decrypt_many, hybrid_encrypt_many, sign, verify_signature
from .encoding import U64, VBYTES, VBYTES_LIST, Record, nested, u64, vbytes, vint
from .errors import DomainError, IntegrityError, SignatureRejected
from .hashing import digest

_EMPTY_BLOCK_LABEL = b"EMPTYBLOCK"


def signed_payload(query: bytes, time: int) -> bytes:
    """Exact bytes a user signs for one query."""
    return vbytes(query) + u64(time)


@dataclass(frozen=True)
class QueryRecord(Record):
    """One signed query: the user cannot later deny having sent it."""

    TYPE = encoding.TYPE_QUERY_RECORD
    query: Annotated[bytes, VBYTES]
    time: Annotated[int, U64]
    user_id: Annotated[bytes, VBYTES]
    signature: Annotated[bytes, VBYTES]


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


@dataclass(frozen=True)
class SealedBlock(Record):
    """Durable on-disk form: proof plus per-record encryption."""

    TYPE = encoding.TYPE_SEALED_BLOCK
    block_id: Annotated[int, U64]
    created_at: Annotated[int, U64]
    sealed_at: Annotated[int, U64]
    block_proof: Annotated[AccumulatorValue, nested(AccumulatorValue)]
    encrypted_records: Annotated[tuple[bytes, ...], VBYTES_LIST]


def _signed_by_registered_user(
    record: QueryRecord, registry: dict[bytes, Ed25519PublicKey]
) -> bool:
    public = registry.get(record.user_id)
    return public is not None and verify_signature(
        public, record.signature, signed_payload(record.query, record.time)
    )


@dataclass(frozen=True)
class AuditReport:
    block_id: int
    decrypt_ok: bool
    proof_match: bool
    invalid_signature_positions: tuple[int, ...]

    @property
    def ok(self) -> bool:
        """Records open, the proof matches and every signature verifies.

        :meth:`QueryLogger.log` admits only signed records, so a stored
        record with a bad signature was put there after logging.
        """
        return self.decrypt_ok and self.proof_match and not self.invalid_signature_positions

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
    mismatch. A signature failure fails the audit too, even under a
    matching proof, and points at an impersonated user.
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
        )

    if records:
        link = seed_link(params)
        for record in records:
            link = chain_digest(record, link)
    else:
        link = empty_block_digest(sealed.block_id)
    # the step runs while the signatures are checked
    with start_step(prev_proof, link, params, bool(records)) as recomputed:
        bad_signatures = [
            position
            for position, record in enumerate(records, start=1)
            if not _signed_by_registered_user(record, registry)
        ]
        return AuditReport(
            block_id=sealed.block_id,
            decrypt_ok=True,
            proof_match=recomputed() == sealed.block_proof,
            invalid_signature_positions=tuple(bad_signatures),
        )


class QueryLogger:
    """The trusted component's logging loop: chain, seal, hand off.

    Each admitted record chains by hash onto the open block's running
    link, which starts from the public seed. Blocks seal when full or
    when their wall-time limit passes, whichever happens first, so quiet
    periods still produce auditable blocks. A seal raises the previous
    block's proof (the public seed for block 1) to the block's last link,
    so each proof chains from the one before. An empty block seals over a
    sentinel digest (:func:`empty_block_digest`), so the proof chain shows
    no gap that suppression could hide in. A block's records share one
    key agreement, and each still opens alone; an empty block makes none.
    Block ids come from a counter, not from ``sealed_blocks``, which the
    service provider holds and persists as it sees fit.
    """

    def __init__(
        self,
        capacity: int,
        time_limit: int,
        params: AccumulatorParams,
        sdp_public: X25519PublicKey,
        registry: dict[bytes, Ed25519PublicKey],
        start_time: int = 0,
    ):
        if capacity < 1:
            raise DomainError("block capacity must be at least 1")
        if time_limit <= 0:
            raise DomainError("block time limit must be positive")
        self.capacity = capacity
        self.time_limit = time_limit
        self.params = params
        self.sdp_public = sdp_public
        self.registry = registry
        self.sealed_blocks: list[SealedBlock] = []
        self._chain_tip: AccumulatorValue | int = params.seed
        self._block_id = 1
        self._created_at = start_time
        self._records: list[QueryRecord] = []
        self._link = seed_link(params)

    def _seal_open(self, now: int) -> None:
        head = self._link if self._records else empty_block_digest(self._block_id)
        proof = step(self._chain_tip, head, self.params)
        sealed = SealedBlock(
            block_id=self._block_id,
            created_at=self._created_at,
            sealed_at=now,
            block_proof=proof,
            encrypted_records=hybrid_encrypt_many(
                [record.to_bytes() for record in self._records], self.sdp_public
            ),
        )
        self.sealed_blocks.append(sealed)
        self._chain_tip = proof
        self._block_id += 1
        self._created_at = now
        self._records = []
        self._link = seed_link(self.params)

    def advance(self, now: int) -> None:
        """Seal on the time limit; called whenever the clock moves."""
        while now - self._created_at >= self.time_limit:
            self._seal_open(self._created_at + self.time_limit)

    def log(self, record: QueryRecord, now: int) -> None:
        """Admit one query record; the logging call sits on the request path."""
        self.advance(now)
        if not _signed_by_registered_user(record, self.registry):
            raise SignatureRejected(f"record from {record.user_id!r} failed verification")
        self._link = chain_digest(record, self._link)
        self._records.append(record)
        if len(self._records) >= self.capacity:
            self._seal_open(now)

    def flush(self, now: int) -> None:
        """Seal whatever is open (end of run)."""
        if self._records:
            self._seal_open(now)
