"""Correctness oracles computed apart from the program.

Each function recomputes one expected value from the normative layout in
the repository README with ``hashlib`` and ``pow`` alone, so a program
change that alters bytes or verdicts shows up as a failed check instead
of as a speed-up.
"""

from __future__ import annotations

import hashlib
import struct

ACCESSIBLE, IRRECOVERABLE, PURGED = 0, 1, 2


def _u64(n: int) -> bytes:
    return struct.pack(">Q", n)


def reading_digest(device_id: bytes, epoch_id: int, position: int) -> bytes:
    return hashlib.sha256(
        struct.pack(">I", len(device_id)) + device_id + _u64(epoch_id) + _u64(position)
    ).digest()


def chain_step(prev: int, device_ids: list[bytes], epoch_id: int, modulus: int) -> int:
    """Next epoch timestamp: ``prev ** (H(digests) | 1) mod N``."""
    if device_ids:
        digests = [reading_digest(d, epoch_id, i) for i, d in enumerate(device_ids, start=1)]
    else:
        digests = [hashlib.sha256(b"EMPTY" + _u64(epoch_id)).digest()]
    exponent = int.from_bytes(hashlib.sha256(b"".join(digests)).digest(), "big") | 1
    return pow(prev, exponent, modulus)


def positions_of(device_id: bytes, device_ids: list[bytes]) -> tuple[int, ...]:
    return tuple(i for i, d in enumerate(device_ids, start=1) if d == device_id)


def expected_state(bt: int, delta: int, p_del: int, p_ver: int | float, now: int) -> int:
    et = bt + delta
    if now < et + p_del * delta:
        return ACCESSIBLE
    if now < et + p_ver * delta:
        return IRRECOVERABLE
    return PURGED


def residue_free(ciphertexts: tuple[bytes, ...], stored: bytes) -> bool:
    """True if no 32-byte window of any ciphertext occurs in ``stored``.

    Every 32-byte window contains one 16-byte chunk that starts at a
    multiple of 16 in its ciphertext, so matching those chunks at every
    offset of ``stored`` finds every surviving window.
    """
    chunks = {ct[i : i + 16] for ct in ciphertexts for i in range(0, len(ct) - 15, 16)}
    return chunks.isdisjoint(stored[i : i + 16] for i in range(len(stored) - 15))
