"""Domain types, epoch arithmetic, and the retention state machine.

Time is integer milliseconds from an origin at 0; there is no
wall-clock or calendar handling here. Epochs tile the timeline without
gaps as half-open windows ``[bt, et)``: an instant on a boundary belongs
to the later epoch, so every reading has exactly one epoch.

Data moves through three states, driven by the retention policy:
``ACCESSIBLE`` until its deletion time, ``IRRECOVERABLE`` until its
verification material expires, then ``PURGED``. Transitions never
reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Annotated

from . import encoding
from .encoding import U64, VBYTES, Record
from .errors import DomainError

MAX_PAYLOAD_BYTES = 64 * 1024
DEVICE_ID_MIN_BYTES = 6
DEVICE_ID_MAX_BYTES = 17

#: Sentinel for a verification window that never expires.
NEVER = math.inf


class DataState(IntEnum):
    ACCESSIBLE = 0
    IRRECOVERABLE = 1
    PURGED = 2


@dataclass(frozen=True)
class SensorReading(Record):
    """One raw sensor tuple: device id, capture time, opaque payload."""

    TYPE = encoding.TYPE_READING
    device_id: Annotated[bytes, VBYTES]
    time: Annotated[int, U64]
    payload: Annotated[bytes, VBYTES]

    def __post_init__(self):
        if not DEVICE_ID_MIN_BYTES <= len(self.device_id) <= DEVICE_ID_MAX_BYTES:
            raise DomainError(
                f"device_id must be {DEVICE_ID_MIN_BYTES}-{DEVICE_ID_MAX_BYTES} bytes,"
                f" got {len(self.device_id)}"
            )
        if self.time < 0:
            raise DomainError("reading time must be non-negative")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise DomainError(
                f"payload exceeds maximum of {MAX_PAYLOAD_BYTES} bytes"
            )


@dataclass(frozen=True)
class EpochWindow:
    """Half-open time window [bt, et); its id is its begin time."""

    bt: int
    et: int

    def __post_init__(self):
        if self.et <= self.bt:
            raise DomainError(f"empty or inverted window [{self.bt}, {self.et})")

    @property
    def id(self) -> int:
        return self.bt

    @property
    def delta(self) -> int:
        return self.et - self.bt

    def contains(self, t: int) -> bool:
        return self.bt <= t < self.et


@dataclass(frozen=True)
class RetentionPolicy:
    """Retention pair: epochs until deletion, epochs until purge of proofs.

    ``p_ver`` may be :data:`NEVER` (infinity), in which case verification
    material is kept forever. ``p_ver >= p_del`` is required: otherwise
    the window in which deletion could be verified would close before
    deletion happens.
    """

    p_del: int
    p_ver: int | float
    delta: int

    def __post_init__(self):
        if self.p_del < 0:
            raise DomainError("p_del must be non-negative")
        if self.delta <= 0:
            raise DomainError("epoch duration must be positive")
        if self.p_ver is not NEVER:
            if not isinstance(self.p_ver, int) or self.p_ver < 1:
                raise DomainError("p_ver must be a positive integer or NEVER")
            if self.p_ver < self.p_del:
                raise DomainError("p_ver must be at least p_del")


def epoch_of(t: int, delta: int) -> EpochWindow:
    """Map an instant to the unique epoch containing it.

    Boundary instants belong to the later epoch: ``epoch_of(et) != epoch
    ending at et``.
    """
    if delta <= 0:
        raise DomainError("epoch duration must be positive")
    if t < 0:
        raise DomainError(f"time {t} precedes the origin 0")
    bt = (t // delta) * delta
    return EpochWindow(bt=bt, et=bt + delta)


def window_for_id(epoch_id: int, delta: int) -> EpochWindow:
    return EpochWindow(bt=epoch_id, et=epoch_id + delta)


def deletion_due(epoch: EpochWindow, policy: RetentionPolicy) -> int:
    """Instant at which the epoch's data must have been deleted."""
    return epoch.et + policy.p_del * policy.delta


def verification_expiry(epoch: EpochWindow, policy: RetentionPolicy) -> int | float:
    """Instant after which deletion proofs may be purged; NEVER if unbounded."""
    if policy.p_ver is NEVER:
        return NEVER
    return epoch.et + policy.p_ver * policy.delta


def state_at(epoch: EpochWindow, policy: RetentionPolicy, now: int) -> DataState:
    """Policy-mandated state of the epoch's data at instant ``now``."""
    if now < deletion_due(epoch, policy):
        return DataState.ACCESSIBLE
    if now < verification_expiry(epoch, policy):
        return DataState.IRRECOVERABLE
    return DataState.PURGED

