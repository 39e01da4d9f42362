"""Cloud-side store: persistence, retention scheduling, serving paths.

The store keeps one record per epoch and walks each record through the
one-way state machine. ``tick(now)`` is the scheduler: it is driven
externally (harness clock or wall clock) so that retention timelines
replay deterministically. When an epoch's deletion time passes, the
store runs the overwrite transform on the epoch's own cells, keeps the
resulting proof, and discards the original ciphertexts; when the
verification window passes, it purges proof and metadata, leaving a
tombstone so "purged" remains distinguishable from "never existed".

A record keeps each epoch fact once. The metadata row's three sealed
values are fields of the record; the accessible tag goes with the
ciphertexts at deletion, since no deleted epoch serves it. Each record
names its predecessor's epoch id (none for the first epoch). The previous
epoch's timestamp is the predecessor record's own ``crypto_time``, so a
bundle takes it from there; a record holds a copy in ``prev_crypto_time``
only once its predecessor is purged. A purge writes that copy into the
successor before the tombstone drops the original, so a crash between
the two writes leaves two copies and never none. A purged tip (the
newest stored epoch) keeps its ``crypto_time`` until its successor is
purged: the next ingest chains from it and its successor's bundles read
it there.

Each epoch waits in a deadline heap keyed by its next transition time
(deletion, then verification expiry when that is finite), so a tick
costs O(due · log n) for n stored epochs and touches only the epochs
that are due, in ascending epoch order. Epoch windows must not overlap,
so the epoch containing an instant is found by bisecting the epoch ids.

Persistence is one segment file per epoch, nothing else: each record
holds its state and state history. A record version is written to a
temporary file and committed with one ``os.replace`` over the epoch's
segment, so a process crash leaves the old or the new record, never half
of one. The file is fsynced before the replace and the directory after
it, so a transition that has returned survives a power loss too; a
power loss during one leaves the old record or the new, and perhaps a
temporary file. A reload reads the segments in name order, ignores
leftover temporary files, takes the last tick from the newest recorded
transition, and fails closed on a segment that does not decode, is not
named after its epoch, or does not follow the segment before it (a
record whose named predecessor is not the previous segment shows that
a segment is missing, since tombstones keep every segment), and on a
live epoch whose previous timestamp is in neither its own record nor
its purged predecessor's. A record's
next version is written before the store adopts it, so a failed write
leaves memory as it was and the transition is retried. A store created
with ``root=None`` lives purely in memory (benchmarks, quick tests).

The store is honest. The dishonest cloud that the time bound is tested
against is ``harness.LazyCloudStore``, a subclass.
"""

from __future__ import annotations

import heapq
import logging
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

from . import encoding
from .accumulator import AccumulatorValue
from .control import MetaDataRow, SensorDataRow, check_rows_consistent
from .core import (
    NEVER,
    DataState,
    EpochWindow,
    RetentionPolicy,
    deletion_due,
    state_at,
    verification_expiry,
)
from .encoding import (
    DIGESTS,
    FLAG,
    U64,
    VBYTES,
    VBYTES_LIST,
    EncodingError,
    Record,
    enum,
    nested,
    optional,
    seq,
    tup,
)
from .engine import DeletionProof, expunge_ciphertexts
from .errors import (
    DataExpiredError,
    DomainError,
    DuplicateEpochError,
    InconsistentRowsError,
    NotAuthorizedError,
    UnavailableError,
)

logger = logging.getLogger(__name__)

_STATE = enum(DataState)
_ACC_VALUE = nested(AccumulatorValue)


def _fsync(path: Path) -> None:
    """Flush a file's bytes, or a directory's entries, to the disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _epoch_name(epoch_id: int | None) -> str:
    return "no epoch" if epoch_id is None else f"epoch {epoch_id}"


@dataclass(frozen=True)
class AttestationBundle(Record):
    """Everything a verifier needs for one epoch, and nothing more."""

    TYPE = encoding.TYPE_BUNDLE
    epoch_id: Annotated[int, U64]
    state: Annotated[DataState, _STATE]
    first_epoch: Annotated[bool, FLAG]
    prev_crypto_time: Annotated[AccumulatorValue | None, optional(_ACC_VALUE)]
    crypto_time: Annotated[AccumulatorValue, _ACC_VALUE]
    digests: Annotated[tuple[bytes, ...], DIGESTS]
    ciphertexts: Annotated[tuple[bytes, ...] | None, optional(VBYTES_LIST)]
    enc_crypto_time: Annotated[bytes, VBYTES]
    enc_state_tag: Annotated[bytes, VBYTES]
    deletion_proof: Annotated[DeletionProof | None, optional(nested(DeletionProof))]
    served_at: Annotated[int, U64]


@dataclass
class EpochRecord(Record):
    """One epoch's stored material plus its state history; each transition is a new version.

    The epoch's window is ``[epoch_id, et)``: ingest refuses a row whose
    epoch id is not its window's start.
    """

    TYPE = encoding.TYPE_EPOCH_RECORD
    epoch_id: Annotated[int, U64]
    et: Annotated[int, U64]
    prev_epoch_id: Annotated[int | None, optional(U64)]
    state: Annotated[DataState, _STATE]
    prev_crypto_time: Annotated[AccumulatorValue | None, optional(_ACC_VALUE)]
    crypto_time: Annotated[AccumulatorValue | None, optional(_ACC_VALUE)]
    digests: Annotated[tuple[bytes, ...], DIGESTS]
    ciphertexts: Annotated[tuple[bytes, ...] | None, optional(VBYTES_LIST)]
    enc_crypto_time: Annotated[bytes | None, optional(VBYTES)]
    enc_accessible_tag: Annotated[bytes | None, optional(VBYTES)]
    enc_irrecoverable_tag: Annotated[bytes | None, optional(VBYTES)]
    deletion_proof: Annotated[DeletionProof | None, optional(nested(DeletionProof))]
    state_history: Annotated[list[tuple[DataState, int]], seq(tup(_STATE, U64))] = field(
        default_factory=list
    )

    @property
    def window(self) -> EpochWindow:
        return EpochWindow(self.epoch_id, self.et)

    @property
    def first_epoch(self) -> bool:
        return self.prev_epoch_id is None

    def replaced(self, **changes) -> EpochRecord:
        """This record with ``changes``, in the same state."""
        # a plain constructor call: dataclasses.replace costs several times as much
        return EpochRecord(**{**vars(self), **changes})

    def advanced(self, state: DataState, at: int, **changes) -> EpochRecord:
        """The next version of this record: in ``state`` from ``at``, with ``changes``."""
        history = [*self.state_history, (state, at)]
        return self.replaced(state=state, state_history=history, **changes)


@dataclass(frozen=True)
class Transition(Record):
    TYPE = None
    epoch_id: Annotated[int, U64]
    from_state: Annotated[DataState, _STATE]
    to_state: Annotated[DataState, _STATE]
    at: Annotated[int, U64]


class CloudStore:
    """Epoch records, the retention scheduler, and both serving paths."""

    def __init__(
        self,
        policy: RetentionPolicy,
        root: Path | None = None,
        sp_allowlist: frozenset[bytes] = frozenset(),
    ):
        self.policy = policy
        self.root = Path(root) if root is not None else None
        self.sp_allowlist = frozenset(sp_allowlist)
        self.last_tick: int | None = None
        self._records: dict[int, EpochRecord] = {}
        self._ids: list[int] = []  # epoch ids in chain order, ascending
        self._deadlines: list[tuple[int, int]] = []  # heap of (next deadline, epoch id)
        self._lock = threading.RLock()
        if self.root is not None:
            (self.root / "segments").mkdir(parents=True, exist_ok=True)
            self._load()

    # -- persistence ---------------------------------------------------------

    def _segment_path(self, epoch_id: int) -> Path:
        return self.root / "segments" / f"{epoch_id:016d}.seg"

    def _adopt(self, record: EpochRecord) -> None:
        """Write ``record`` as its epoch's next version, then hold it in memory.

        The segment's atomic replace is the commit. The temporary file is
        fsynced before it, so the name never points at bytes still only
        in the page cache, and the directory after it, so the new name
        is on disk when this returns. A write that fails raises before
        memory changes, so memory never runs ahead of disk and the
        caller can retry the transition.
        """
        if self.root is not None:
            path = self._segment_path(record.epoch_id)
            temp = path.with_name(path.name + ".tmp")
            temp.write_bytes(record.to_bytes())
            _fsync(temp)
            os.replace(temp, path)
            _fsync(path.parent)
        self._records[record.epoch_id] = record

    def _load(self) -> None:
        predecessor = None
        for path in sorted((self.root / "segments").glob("*.seg")):
            record = EpochRecord.from_bytes(path.read_bytes())
            if path != self._segment_path(record.epoch_id):
                raise EncodingError(f"segment {path.name} holds epoch {record.epoch_id}")
            found = None if predecessor is None else predecessor.epoch_id
            if record.prev_epoch_id != found:
                raise EncodingError(
                    f"epoch {record.epoch_id} follows {_epoch_name(record.prev_epoch_id)},"
                    f" but the segment before it holds {_epoch_name(found)}: a segment is missing"
                )
            if (
                record.state is not DataState.PURGED
                and not record.first_epoch
                and record.prev_crypto_time is None
                and predecessor.crypto_time is None
            ):
                raise EncodingError(
                    f"epoch {record.epoch_id} has no previous timestamp:"
                    f" epoch {found} is purged and the record kept no copy"
                )
            self._records[record.epoch_id] = record
            self._ids.append(record.epoch_id)
            self._schedule(record)
            predecessor = record
        self.last_tick = max(
            (at for r in self._records.values() for _, at in r.state_history[1:]), default=None
        )

    # -- ingest path ---------------------------------------------------------

    def ingest(self, sensor_row: SensorDataRow, meta_row: MetaDataRow) -> int:
        """Persist one epoch payload; returns the epoch id acknowledged.

        Epochs must arrive in chain order (strictly increasing ids), each
        one ``policy.delta`` long, and an epoch may not begin before its
        predecessor ends: the store schedules and serves by the row's
        window, and the verifier judges by the policy's. The previous
        epoch's timestamp is not captured here: the predecessor's record
        holds it, and purging the predecessor copies it into this record.
        """
        with self._lock:
            check_rows_consistent(sensor_row, meta_row)
            eid = sensor_row.epoch_id
            if meta_row.et - meta_row.bt != self.policy.delta:
                raise InconsistentRowsError(
                    f"epoch {eid} spans {meta_row.et - meta_row.bt}, not delta {self.policy.delta}"
                )
            if eid in self._records:
                raise DuplicateEpochError(f"epoch {eid} already ingested")
            tip = self._records[self._ids[-1]] if self._ids else None
            if tip is not None and eid <= tip.epoch_id:
                raise DomainError(f"epoch {eid} arrived out of chain order")
            if tip is not None and meta_row.bt < tip.et:
                raise DomainError(
                    f"epoch {eid} begins at {meta_row.bt}, inside epoch"
                    f" {tip.epoch_id} which ends at {tip.et}"
                )
            record = EpochRecord(
                epoch_id=eid,
                et=meta_row.et,
                prev_epoch_id=None if tip is None else tip.epoch_id,
                prev_crypto_time=None,
                crypto_time=sensor_row.crypto_time,
                digests=sensor_row.digests,
                ciphertexts=sensor_row.ciphertexts,
                enc_crypto_time=meta_row.enc_crypto_time,
                enc_accessible_tag=meta_row.enc_accessible_tag,
                enc_irrecoverable_tag=meta_row.enc_irrecoverable_tag,
                deletion_proof=None,
                state=DataState.ACCESSIBLE,
                state_history=[(DataState.ACCESSIBLE, meta_row.et)],
            )
            self._adopt(record)
            self._ids.append(eid)
            self._schedule(record)
            return eid

    # -- retention scheduler -------------------------------------------------

    def _schedule(self, record: EpochRecord) -> None:
        """Queue the record's next transition, if it has a finite one."""
        if record.state is DataState.ACCESSIBLE:
            deadline = deletion_due(record.window, self.policy)
        elif record.state is DataState.IRRECOVERABLE:
            deadline = verification_expiry(record.window, self.policy)
        else:
            return
        if deadline is not NEVER:
            heapq.heappush(self._deadlines, (deadline, record.epoch_id))

    def tick(self, now: int) -> list[Transition]:
        """Apply all state transitions due at or before ``now``.

        Only epochs whose next deadline has passed are visited, in
        ascending epoch order. A failed overwrite leaves the epoch
        accessible and is retried on the next tick.
        """
        with self._lock:
            if self.last_tick is not None and now < self.last_tick:
                raise DomainError("tick time moved backwards")
            self.last_tick = now
            due = []
            while self._deadlines and self._deadlines[0][0] <= now:
                due.append(heapq.heappop(self._deadlines)[1])
            due.sort()
            transitions: list[Transition] = []
            for position, eid in enumerate(due):
                try:
                    self._advance(eid, now, transitions)
                except BaseException:
                    for pending in due[position:]:
                        self._schedule(self._records[pending])
                    raise
                self._schedule(self._records[eid])
            return transitions

    def _advance(self, eid: int, now: int, transitions: list[Transition]) -> None:
        record = self._records[eid]
        window = record.window
        if record.state is DataState.ACCESSIBLE:
            if deletion_due(window, self.policy) <= now:
                try:
                    self._expunge_record(record, now)
                except Exception:
                    logger.warning("expunge failed for epoch %d; will retry", eid, exc_info=True)
                    return
                record = self._records[eid]
                transitions.append(
                    Transition(eid, DataState.ACCESSIBLE, DataState.IRRECOVERABLE, now)
                )
        if record.state is DataState.IRRECOVERABLE:
            if verification_expiry(window, self.policy) <= now:
                self._purge_record(record, now)
                transitions.append(Transition(eid, DataState.IRRECOVERABLE, DataState.PURGED, now))

    def _expunge_record(self, record: EpochRecord, now: int) -> None:
        proof = expunge_ciphertexts(record.ciphertexts, record.epoch_id, now)
        self._adopt(
            record.advanced(
                DataState.IRRECOVERABLE, now,
                ciphertexts=None, enc_accessible_tag=None, deletion_proof=proof,
            )
        )

    def _purge_record(self, record: EpochRecord, now: int) -> None:
        """Copy the record's timestamp into its live successor, then write its tombstone."""
        position = bisect_left(self._ids, record.epoch_id) + 1
        successor = self._records[self._ids[position]] if position < len(self._ids) else None
        if (
            successor is not None
            and successor.state is not DataState.PURGED
            and successor.prev_crypto_time is None
        ):
            self._adopt(successor.replaced(prev_crypto_time=record.crypto_time))
        # a purged tip keeps its timestamp: the next ingest chains from it
        self._adopt(
            record.advanced(
                DataState.PURGED, now, prev_crypto_time=None, digests=(), deletion_proof=None,
                crypto_time=record.crypto_time if successor is None else None,
                enc_crypto_time=None, enc_irrecoverable_tag=None,
            )
        )
        # a predecessor purged as the tip kept its timestamp for this record alone
        pred = self._records.get(record.prev_epoch_id)
        if pred is not None and pred.state is DataState.PURGED and pred.crypto_time is not None:
            self._adopt(pred.replaced(crypto_time=None))

    # -- serving paths -------------------------------------------------------

    def _resolve_epoch(self, at: int) -> EpochRecord:
        # windows are disjoint and ordered, so only the last epoch that
        # begins at or before ``at`` can contain it
        position = bisect_right(self._ids, at)
        if position:
            candidate = self._records[self._ids[position - 1]]
            if candidate.epoch_id <= at < candidate.et:
                return candidate
        raise UnavailableError(f"no epoch recorded containing {at}")

    def fetch_for_sp(self, epoch_id: int, requester: bytes, now: int) -> tuple[bytes, ...]:
        """Serve an epoch's ciphertexts to a listed service provider.

        The serving path re-checks the policy clock, so data past its
        deletion time is refused even if the scheduler is lagging.
        """
        with self._lock:
            if requester not in self.sp_allowlist:
                raise NotAuthorizedError("requester is not a designated service provider")
            record = self._resolve_epoch(epoch_id)
            if record.state is not DataState.ACCESSIBLE or state_at(
                record.window, self.policy, now
            ) is not DataState.ACCESSIBLE:
                raise DataExpiredError(f"epoch {record.epoch_id} data expired")
            return record.ciphertexts

    def fetch_bundle(self, at: int, now: int) -> AttestationBundle:
        """Assemble the attestation bundle for the epoch containing ``at``.

        Irrecoverable epochs are served from the stored proof without
        recomputation. The previous timestamp comes from the record, or
        else from its predecessor's record.
        """
        with self._lock:
            record = self._resolve_epoch(at)
            if record.state is DataState.PURGED:
                raise UnavailableError(
                    f"verification material for epoch {record.epoch_id} was purged"
                )
            if record.state is DataState.IRRECOVERABLE:
                enc_state_tag = record.enc_irrecoverable_tag
            else:
                enc_state_tag = record.enc_accessible_tag
            prev = record.prev_crypto_time
            if prev is None and not record.first_epoch:
                prev = self._records[record.prev_epoch_id].crypto_time
            return AttestationBundle(
                epoch_id=record.epoch_id,
                state=record.state,
                first_epoch=record.first_epoch,
                prev_crypto_time=prev,
                crypto_time=record.crypto_time,
                digests=record.digests,
                ciphertexts=record.ciphertexts,
                enc_crypto_time=record.enc_crypto_time,
                enc_state_tag=enc_state_tag,
                deletion_proof=record.deletion_proof,
                served_at=now,
            )

    # -- inspection ----------------------------------------------------------

    def epoch_ids(self) -> list[int]:
        return list(self._ids)

    def state_of(self, epoch_id: int) -> DataState:
        return self._records[epoch_id].state

    def record(self, epoch_id: int) -> EpochRecord:
        return self._records[epoch_id]
