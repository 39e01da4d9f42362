"""Provider-side control phase: batch, digest, timestamp, encrypt, tag.

For each epoch the provider turns its readings into two outsourceable
rows. The sensor row carries, in arrival order, one position-salted
digest per reading, the chained cryptographic timestamp, and one
non-deterministic ciphertext per reading. The metadata row carries the
epoch bounds plus three digests sealed under the shared key: the
timestamp's anchor commits to the timestamp the sensor row carries, the
accessible tag commits to the ciphertexts exactly as stored, and the
irrecoverable tag commits to what those ciphertexts must become after
the deletion transform runs.

Epochs with no readings still produce a row built around a sentinel
digest so the timestamp chain never skips a link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from . import encoding
from .accumulator import AccumulatorParams, AccumulatorValue, start_step
from .core import EpochWindow, SensorReading
from .crypto import (
    KeyRing,
    hybrid_decrypt,
    hybrid_encrypt_many,
    symmetric_decrypt,
    symmetric_encrypt,
)
from .encoding import DIGESTS, U64, VBYTES, VBYTES_LIST, Layout, Record, nested, u32, u64, vbytes
from .engine import expunge_ciphertexts
from .errors import DomainError, EpochMismatchError, InconsistentRowsError
from .hashing import DIGEST_SIZE, digest, expand

_SENTINEL_LABEL = b"EMPTY"

#: Field labels of the three sealed metadata values; see :func:`seal`.
SEALED_TIME = b"SEALED-TIME"
SEALED_ACCESSIBLE = b"SEALED-ACCESSIBLE"
SEALED_IRRECOVERABLE = b"SEALED-IRRECOVERABLE"

_READING_PLAINTEXT = Layout(
    encoding.TYPE_READING_PLAINTEXT, *SensorReading.LAYOUT.fields, ("epoch_id", U64)
)


def batch_epoch(
    readings: list[SensorReading], window: EpochWindow
) -> list[tuple[int, SensorReading]]:
    """Assign 1-based positions in arrival order after window validation."""
    batched = []
    for position, reading in enumerate(readings, start=1):
        if not window.contains(reading.time):
            raise EpochMismatchError(
                f"reading at t={reading.time} outside window [{window.bt}, {window.et})"
            )
        batched.append((position, reading))
    return batched


def reading_digest(device_id: bytes, epoch_id: int, position: int) -> bytes:
    """Digest binding a device to one position of one epoch.

    Input layout: length-prefixed device id, then epoch id and position
    as fixed-width integers. Salting with the position makes every
    digest in an epoch distinct, even for one device appearing many
    times, so the digest list leaks nothing about device activity.
    """
    if position < 1:
        raise DomainError("positions are 1-based")
    return digest(vbytes(device_id), u64(epoch_id), u64(position))


def reading_digests(device_id: bytes, epoch_id: int, count: int) -> list[bytes]:
    """:func:`reading_digest` at positions ``1..count``, in order.

    Below ``2^32`` a position's ``u64`` is ``u32(0) || u32(position)``,
    so the digest at position i is block i of the counter-mode
    expansion of ``vbytes(device_id) || u64(epoch_id) || u32(0)``. The
    whole scan is one :func:`~expunge.hashing.expand` (block 0 is
    discarded), split into digests by
    :func:`~expunge.encoding.split_fixed`: from
    :data:`~expunge.hashing.NATIVE_MIN_BLOCKS` blocks on, one X9.63 KDF
    call. ``count`` is at most ``2^32 - 1``, the largest count a digest
    list holds.
    """
    blocks = expand(vbytes(device_id) + u64(epoch_id) + u32(0), DIGEST_SIZE * (count + 1))
    return encoding.split_fixed(blocks, DIGEST_SIZE, DIGEST_SIZE, count)


def sentinel_digest(epoch_id: int) -> bytes:
    """Stand-in digest for an epoch that recorded no readings."""
    return digest(_SENTINEL_LABEL, u64(epoch_id))


def timestamp_exponent(digests: tuple[bytes, ...]) -> bytes:
    """Digest of the concatenated per-reading digests, in stored order."""
    if not digests:
        raise DomainError("an epoch timestamp needs at least one digest")
    return digest(b"".join(digests))


def timestamp_anchor(crypto_time: AccumulatorValue) -> bytes:
    """Digest of the timestamp's canonical record: what the provider seals.

    A cloud without the shared key cannot seal another anchor, and to
    pass off another timestamp under this one it would need a collision.
    """
    return digest(crypto_time.to_bytes())


def seal(key: bytes, label: bytes, epoch_id: int, value: bytes) -> bytes:
    """Seal one metadata value under the shared key, bound to its field and epoch.

    The field label and the epoch id are AES-GCM associated data, so a
    seal opens only as the field and epoch it was made for. All three
    sealed values are 32-byte digests; without the binding a cloud could
    serve one field's seal as another's and pick bytes that hash to it.
    """
    return symmetric_encrypt(key, value, label + u64(epoch_id))


def open_seal(key: bytes, label: bytes, epoch_id: int, blob: bytes) -> bytes:
    """Open a :func:`seal`; any other field, epoch or key raises IntegrityError."""
    return symmetric_decrypt(key, blob, label + u64(epoch_id))


def decrypt_reading(
    envelope: bytes, enclave_private: X25519PrivateKey
) -> tuple[SensorReading, int]:
    device_id, time, payload, epoch_id = _READING_PLAINTEXT.unpack(
        hybrid_decrypt(envelope, enclave_private)
    )
    return SensorReading(device_id=device_id, time=time, payload=payload), epoch_id


def encrypt_epoch(
    readings: list[SensorReading], epoch_id: int, enclave_public: X25519PublicKey
) -> tuple[bytes, ...]:
    """Encrypt each reading with its epoch id, under one key agreement.

    The epoch id rides inside the plaintext, so the enclave detects a
    ciphertext moved into another epoch's row. Each envelope opens alone
    with :func:`decrypt_reading`; an empty epoch makes no agreement.
    """
    pack = _READING_PLAINTEXT.pack
    return hybrid_encrypt_many(
        [pack(r.device_id, r.time, r.payload, epoch_id) for r in readings], enclave_public
    )


def accessible_tag(ciphertexts: tuple[bytes, ...]) -> bytes:
    """Hash over the raw ciphertext bytes in stored order.

    An epoch with no ciphertexts tags the empty concatenation.
    """
    return digest(b"".join(ciphertexts))


def irrecoverable_tag(ciphertexts: tuple[bytes, ...], epoch_id: int) -> bytes:
    """Simulate deletion on a copy of the ciphertexts; return the proof digest.

    Bit-identical to the proof the cloud must later produce by actually
    running the transform over its stored cells.
    """
    return expunge_ciphertexts(ciphertexts, epoch_id).proof


@dataclass(frozen=True)
class SensorDataRow(Record):
    """Outsourced per-epoch data: digests, chained timestamp, ciphertexts."""

    TYPE = encoding.TYPE_SENSOR_ROW
    epoch_id: Annotated[int, U64]
    digests: Annotated[tuple[bytes, ...], DIGESTS]
    crypto_time: Annotated[AccumulatorValue, nested(AccumulatorValue)]
    ciphertexts: Annotated[tuple[bytes, ...], VBYTES_LIST]

    def __post_init__(self):
        if not self.digests:
            raise DomainError("a sensor row carries at least one digest")
        size = len(self.digests[0])
        if any(len(d) != size for d in self.digests):
            raise DomainError("digests must share one size")
        if self.ciphertexts and len(self.ciphertexts) != len(self.digests):
            raise DomainError("ciphertexts must align one-to-one with digests")
        if not self.ciphertexts and len(self.digests) != 1:
            raise DomainError("an empty epoch carries exactly the sentinel digest")


@dataclass(frozen=True)
class MetaDataRow(Record):
    """Outsourced per-epoch metadata; all fields beyond the bounds sealed.

    ``enc_crypto_time`` seals the timestamp's :func:`timestamp_anchor`,
    not the timestamp itself. Each value is bound by :func:`seal` to its
    field and to ``epoch_id``.
    """

    TYPE = encoding.TYPE_META_ROW
    epoch_id: Annotated[int, U64]
    bt: Annotated[int, U64]
    et: Annotated[int, U64]
    enc_crypto_time: Annotated[bytes, VBYTES]
    enc_accessible_tag: Annotated[bytes, VBYTES]
    enc_irrecoverable_tag: Annotated[bytes, VBYTES]


def build_outsource_payload(
    window: EpochWindow,
    readings: list[SensorReading],
    prev_crypto_time: AccumulatorValue | int,
    keyring: KeyRing,
    params: AccumulatorParams,
) -> tuple[SensorDataRow, MetaDataRow]:
    """Produce one epoch's outsourcing rows, all-or-nothing.

    Any failure in a sub-step propagates before anything is returned, so
    a partial epoch can never be outsourced.
    """
    batched = batch_epoch(readings, window)
    if batched:
        digests = tuple(
            reading_digest(reading.device_id, window.id, position)
            for position, reading in batched
        )
    else:
        digests = (sentinel_digest(window.id),)

    # the timestamp step runs while the epoch is encrypted and tagged
    exponent = timestamp_exponent(digests)
    with start_step(prev_crypto_time, exponent, params, bool(batched)) as pending:
        ciphertexts = encrypt_epoch(readings, window.id, keyring.enclave_public) if batched else ()
        ah = accessible_tag(ciphertexts)
        irh = irrecoverable_tag(ciphertexts, window.id)
        crypto_time = pending()

    key = keyring.shared_key
    sensor_row = SensorDataRow(
        epoch_id=window.id,
        digests=digests,
        crypto_time=crypto_time,
        ciphertexts=ciphertexts,
    )
    meta_row = MetaDataRow(
        epoch_id=window.id,
        bt=window.bt,
        et=window.et,
        enc_crypto_time=seal(key, SEALED_TIME, window.id, timestamp_anchor(crypto_time)),
        enc_accessible_tag=seal(key, SEALED_ACCESSIBLE, window.id, ah),
        enc_irrecoverable_tag=seal(key, SEALED_IRRECOVERABLE, window.id, irh),
    )
    return sensor_row, meta_row


def check_rows_consistent(sensor_row: SensorDataRow, meta_row: MetaDataRow) -> None:
    """Structural cross-checks a recipient can run without the shared key."""
    if sensor_row.epoch_id != meta_row.epoch_id:
        raise InconsistentRowsError("epoch ids differ between rows")
    if meta_row.epoch_id != meta_row.bt or meta_row.et <= meta_row.bt:
        raise InconsistentRowsError("epoch id does not identify the metadata window")
