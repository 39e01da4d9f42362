"""Cloud-side store: persistence, retention scheduling, serving paths.

The store keeps one record per epoch and walks each record through the
one-way state machine. ``tick(now)`` is the scheduler: it is driven
externally (harness clock or wall clock) so that retention timelines
replay deterministically. When an epoch's deletion time passes, the
store runs the overwrite transform on the epoch's own cells, keeps the
resulting proof, and discards the original ciphertexts; when the
verification window passes, it purges proof and metadata, leaving a
tombstone so "purged" remains distinguishable from "never existed".

Each epoch waits in a deadline heap keyed by its next transition time
(deletion, then verification expiry when that is finite), so a tick
costs O(due · log n) for n stored epochs and touches only the epochs
that are due, in ascending epoch order. Epoch windows must not overlap,
so the epoch containing an instant is found by bisecting the epoch ids.

Persistence is one segment file per epoch, nothing else: each record
holds its state and state history. A transition writes a temporary file
and commits it with one ``os.replace`` over the epoch's segment, so a
process crash leaves the old or the new record, never half of one (files
are not fsynced, so a power loss can still lose recent writes). A reload
reads the segments in name order, ignores leftover temporary files, takes
the last tick from the newest recorded transition, and fails closed on a
segment that does not decode or is not named after its epoch. A record's
next version is written before the store adopts it, so a failed write
leaves memory as it was and the transition is retried. A store created
with ``root=None`` lives purely in memory (benchmarks, quick tests).

``lazy_deletion`` simulates a dishonest cloud for the harness: the
scheduler skips deletion and the bundle path fabricates proofs on
demand, which the attestation time bound is designed to catch.
"""

from __future__ import annotations

import heapq
import logging
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from . import encoding
from .accumulator import AccumulatorValue
from .control import MetaDataRow, SensorDataRow, check_rows_consistent
from .core import (
    NEVER,
    DataState,
    RetentionPolicy,
    deletion_due,
    state_at,
    verification_expiry,
    window_for_id,
)
from .encoding import (
    DIGESTS,
    FLAG,
    U64,
    VBYTES,
    VBYTES_LIST,
    EncodingError,
    Layout,
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


@dataclass(frozen=True)
class AttestationBundle(Record):
    """Everything a verifier needs for one epoch, and nothing more."""

    LAYOUT = Layout(
        encoding.TYPE_BUNDLE,
        ("epoch_id", U64),
        ("state", _STATE),
        ("first_epoch", FLAG),
        ("prev_crypto_time", optional(_ACC_VALUE)),
        ("crypto_time", _ACC_VALUE),
        ("digests", DIGESTS),
        ("ciphertexts", optional(VBYTES_LIST)),
        ("enc_crypto_time", VBYTES),
        ("enc_state_tag", VBYTES),
        ("deletion_proof", optional(nested(DeletionProof))),
        ("served_at", U64),
    )

    epoch_id: int
    state: DataState
    first_epoch: bool
    prev_crypto_time: AccumulatorValue | None
    crypto_time: AccumulatorValue
    digests: tuple[bytes, ...]
    ciphertexts: tuple[bytes, ...] | None
    enc_crypto_time: bytes
    enc_state_tag: bytes
    deletion_proof: DeletionProof | None
    served_at: int


@dataclass
class EpochRecord(Record):
    """One epoch's stored material plus its state history; each transition is a new version."""

    LAYOUT = Layout(
        encoding.TYPE_EPOCH_RECORD,
        ("epoch_id", U64),
        ("bt", U64),
        ("et", U64),
        ("first_epoch", FLAG),
        ("state", _STATE),
        ("prev_crypto_time", optional(_ACC_VALUE)),
        ("crypto_time", optional(_ACC_VALUE)),
        ("digests", DIGESTS),
        ("ciphertexts", optional(VBYTES_LIST)),
        ("meta", optional(nested(MetaDataRow))),
        ("deletion_proof", optional(nested(DeletionProof))),
        ("state_history", seq(tup(_STATE, U64))),
    )

    epoch_id: int
    bt: int
    et: int
    first_epoch: bool
    prev_crypto_time: AccumulatorValue | None
    crypto_time: AccumulatorValue | None
    digests: tuple[bytes, ...]
    ciphertexts: tuple[bytes, ...] | None
    meta: MetaDataRow | None
    deletion_proof: DeletionProof | None
    state: DataState
    state_history: list[tuple[DataState, int]] = field(default_factory=list)

    def advanced(self, state: DataState, at: int, **changes) -> EpochRecord:
        """The next version of this record: in ``state`` from ``at``, with ``changes``."""
        history = [*self.state_history, (state, at)]
        # a plain constructor call: dataclasses.replace costs several times as much
        return EpochRecord(**{**vars(self), "state": state, "state_history": history, **changes})


@dataclass(frozen=True)
class Transition(Record):
    LAYOUT = Layout(
        None, ("epoch_id", U64), ("from_state", _STATE), ("to_state", _STATE), ("at", U64)
    )

    epoch_id: int
    from_state: DataState
    to_state: DataState
    at: int


class CloudStore:
    """Epoch records, the retention scheduler, and both serving paths."""

    def __init__(
        self,
        policy: RetentionPolicy,
        root: Path | None = None,
        sp_allowlist: frozenset[bytes] = frozenset(),
        lazy_deletion: bool = False,
    ):
        self.policy = policy
        self.root = Path(root) if root is not None else None
        self.sp_allowlist = frozenset(sp_allowlist)
        self.lazy_deletion = lazy_deletion
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

        The segment's atomic replace is the commit. A write that fails
        raises before memory changes, so memory never runs ahead of disk
        and the caller can retry the transition.
        """
        if self.root is not None:
            path = self._segment_path(record.epoch_id)
            temp = path.with_name(path.name + ".tmp")
            temp.write_bytes(record.to_bytes())
            os.replace(temp, path)
        self._records[record.epoch_id] = record

    def _load(self) -> None:
        for path in sorted((self.root / "segments").glob("*.seg")):
            record = EpochRecord.from_bytes(path.read_bytes())
            if path != self._segment_path(record.epoch_id):
                raise EncodingError(f"segment {path.name} holds epoch {record.epoch_id}")
            self._records[record.epoch_id] = record
            self._ids.append(record.epoch_id)
            self._schedule(record)
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
        epoch's timestamp is captured here so bundles can be served even
        after neighbours are purged.
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
            first = tip is None
            prev = None if first else tip.crypto_time
            record = EpochRecord(
                epoch_id=eid,
                bt=meta_row.bt,
                et=meta_row.et,
                first_epoch=first,
                prev_crypto_time=prev,
                crypto_time=sensor_row.crypto_time,
                digests=sensor_row.digests,
                ciphertexts=sensor_row.ciphertexts,
                meta=meta_row,
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
        window = window_for_id(record.epoch_id, record.et - record.bt)
        if record.state is DataState.ACCESSIBLE:
            deadline = deletion_due(window, self.policy)
        elif record.state is DataState.IRRECOVERABLE:
            deadline = verification_expiry(window, self.policy)
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
                record = self._records[eid]
                # a lazy cloud never changes a due record, so its entry goes
                if not (self.lazy_deletion and record.state is DataState.ACCESSIBLE):
                    self._schedule(record)
            return transitions

    def _advance(self, eid: int, now: int, transitions: list[Transition]) -> None:
        record = self._records[eid]
        window = window_for_id(eid, record.et - record.bt)
        if record.state is DataState.ACCESSIBLE:
            if deletion_due(window, self.policy) <= now:
                if self.lazy_deletion:
                    return  # dishonest cloud: pretend, recompute on demand
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
            record.advanced(DataState.IRRECOVERABLE, now, ciphertexts=None, deletion_proof=proof)
        )

    def _purge_record(self, record: EpochRecord, now: int) -> None:
        self._adopt(
            record.advanced(
                DataState.PURGED, now, deletion_proof=None, meta=None, digests=(),
                crypto_time=None, prev_crypto_time=None,
            )
        )

    # -- serving paths -------------------------------------------------------

    def _resolve_epoch(self, at: int) -> EpochRecord:
        record = self._records.get(at)
        if record is not None:
            return record
        # windows are disjoint and ordered, so only the last epoch that
        # begins at or before ``at`` can contain it
        position = bisect_right(self._ids, at)
        if position:
            candidate = self._records[self._ids[position - 1]]
            if candidate.bt <= at < candidate.et:
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
            window = window_for_id(record.epoch_id, record.et - record.bt)
            if record.state is not DataState.ACCESSIBLE or state_at(
                window, self.policy, now
            ) is not DataState.ACCESSIBLE:
                raise DataExpiredError(f"epoch {record.epoch_id} data expired")
            return record.ciphertexts

    def fetch_bundle(self, at: int, now: int) -> AttestationBundle:
        """Assemble the attestation bundle for the epoch containing ``at``.

        Irrecoverable epochs are served from the stored proof without
        recomputation. In lazy mode an undeleted-but-due epoch instead
        fabricates the proof on demand, which is the detectably slow
        dishonest path.
        """
        with self._lock:
            record = self._resolve_epoch(at)
            if record.state is DataState.PURGED:
                raise UnavailableError(
                    f"verification material for epoch {record.epoch_id} was purged"
                )
            window = window_for_id(record.epoch_id, record.et - record.bt)
            state = record.state
            ciphertexts = record.ciphertexts
            proof = record.deletion_proof
            if (
                self.lazy_deletion
                and record.state is DataState.ACCESSIBLE
                and deletion_due(window, self.policy) <= now
            ):
                # fabricated on demand; nothing was overwritten
                proof = expunge_ciphertexts(ciphertexts, record.epoch_id, now)
                state = DataState.IRRECOVERABLE
                ciphertexts = None
            if state is DataState.IRRECOVERABLE:
                enc_state_tag = record.meta.enc_irrecoverable_tag
            else:
                enc_state_tag = record.meta.enc_accessible_tag
                proof = None
            return AttestationBundle(
                epoch_id=record.epoch_id,
                state=state,
                first_epoch=record.first_epoch,
                prev_crypto_time=record.prev_crypto_time,
                crypto_time=record.crypto_time,
                digests=record.digests,
                ciphertexts=ciphertexts,
                enc_crypto_time=record.meta.enc_crypto_time,
                enc_state_tag=enc_state_tag,
                deletion_proof=proof,
                served_at=now,
            )

    # -- inspection ----------------------------------------------------------

    def epoch_ids(self) -> list[int]:
        return list(self._ids)

    def state_of(self, epoch_id: int) -> DataState:
        return self._records[epoch_id].state

    def record(self, epoch_id: int) -> EpochRecord:
        return self._records[epoch_id]
