"""Memory-hard overwrite transform and deletion proofs.

Deletion is not a metadata flip: every byte of an epoch's stored
ciphertexts is replaced by running a butterfly-shaped cascade of one-way
combinations over the cell array. With ``n`` cells (padded to a power of
two) the transform runs ``log2 n`` sequential iterations; in iteration
``k`` the array is split into blocks of ``2^k`` cells and the two halves
of each block are combined pairwise with stride ``2^(k-1)``.

For eight cells the pairing trace is, in 1-based positions::

    iteration 1 (block 2, step 1): (1,2) (3,4) (5,6) (7,8)
    iteration 2 (block 4, step 2): (1,3) (2,4) (5,7) (6,8)
    iteration 3 (block 8, step 4): (1,5) (2,6) (3,7) (4,8)

This table is normative; the tests check the transform's ``on_pair``
trace against it.

Each iteration reads only the previous iteration's output, so the proof
digest over the final cells cannot be produced without walking the whole
``log2 n``-deep chain over the whole array. That asymmetry (slow to
recompute, instant to transmit) is what lets a verifier catch a storage
provider that generates deletion proofs on demand instead of actually
deleting (see the attestation module's time-bounded check).

A combine hashes the pair with the protocol hash (SHA-256, see the
hashing module) and expands the digest back to a full cell: block 0 is
``H(d || u32(0))`` and the rest is the X9.63 KDF of ``d``, whose counter
starts at 1, derived natively where OpenSSL 3 provides it and hashed
block by block elsewhere, with the same bytes either way. Pairs within
one iteration are independent: it hashes them all, then expands the
digests in one batch that holds the native context's lock for the whole
iteration. Iterations are strictly ordered. Below the top iteration the
two halves of the array never read each other, so a large array
(:data:`SPLIT_MIN_BYTES`) runs them apart: the right half in one worker
process while this one runs the left half, on a host where the process
may use at least two CPUs (see the worker module). The top iteration and
the proof digest then run here. Only the final cells and the proof
survive the call; no intermediate iteration is retained. The cloud keeps
only the proof, which states the cell size; the epoch's digest list
gives the cell count.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Annotated, Callable

from . import encoding, hashing
from .encoding import U32, U64, VBYTES, Record, u32, u64
from .errors import DomainError
from .hashing import BLOCK_SIZE, DIGEST_SIZE, digest, expand, expand_many

#: Cell size used when an epoch has no ciphertexts at all; the transform
#: then runs over two synthetic pad cells so the proof chain stays total.
EMPTY_EPOCH_CELL_SIZE = 64

_PAD_LABEL = b"PAD"

#: Padded arrays of at least this many bytes (cells x cell size) run the
#: right half of their lower iterations in a worker process while this
#: process runs the left half (see the worker module). A warm worker
#: breaks even at 16-64 KiB. At this size a transform takes 30-50 ms on
#: one CPU and a warm worker saves a third of that or more, so a few of
#: them repay the worker's start (50-80 ms; 2-CPU x86-64, Python 3.11).
SPLIT_MIN_BYTES = 512 * 1024


def _next_power_of_two(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def cell_geometry(ciphertexts) -> tuple[int, int]:
    """``(cell_count, cell_size)`` of the cell array packed from ``ciphertexts``.

    One cell per ciphertext, sized for a 4-byte length prefix plus the
    longest ciphertext; an epoch with no ciphertexts gets two pad cells
    of :data:`EMPTY_EPOCH_CELL_SIZE`.
    """
    if not ciphertexts:
        return 2, EMPTY_EPOCH_CELL_SIZE
    return len(ciphertexts), 4 + max(map(len, ciphertexts))


def pad_cells(epoch_id: int, positions: range, cell_size: int) -> list[bytes]:
    """Deterministic filler cells for the 1-based slots ``positions``, in one expansion batch.

    Both the provider's simulation and the cloud's execution must pad
    identically, so padding depends only on public values.
    """
    return expand_many([digest(_PAD_LABEL, u64(epoch_id), u64(p)) for p in positions], cell_size)


@dataclass(frozen=True)
class CellArray:
    """Uniform working array of cells for one epoch; never stored or shipped."""

    epoch_id: int
    cell_size: int
    cells: tuple[bytes, ...]

    def __post_init__(self):
        if self.cell_size <= 0:
            raise DomainError("cell size must be positive")
        for cell in self.cells:
            if len(cell) != self.cell_size:
                raise DomainError("all cells must have the declared size")

    @classmethod
    def from_ciphertexts(cls, ciphertexts: list[bytes], epoch_id: int) -> "CellArray":
        """Pack ciphertexts into uniform cells.

        Each cell is a length prefix plus the ciphertext, zero-padded to
        the epoch's maximum ciphertext length, so that overwriting the
        cell array overwrites every original byte. An epoch with no
        ciphertexts still yields two synthetic pad cells, keeping the
        deletion-proof machinery total over idle epochs.
        """
        cell_count, cell_size = cell_geometry(ciphertexts)
        if not ciphertexts:
            cells = tuple(pad_cells(epoch_id, range(1, cell_count + 1), cell_size))
        else:
            cells = tuple(
                (u32(len(ct)) + ct).ljust(cell_size, b"\x00") for ct in ciphertexts
            )
        return cls(epoch_id=epoch_id, cell_size=cell_size, cells=cells)


@dataclass(frozen=True)
class DeletionProof(Record):
    """Digest over the fully overwritten cells of one epoch, and their size."""

    TYPE = encoding.TYPE_DELETION_PROOF
    epoch_id: Annotated[int, U64]
    proof: Annotated[bytes, VBYTES]
    produced_at: Annotated[int, U64]
    cell_size: Annotated[int, U32]


def combine(a: bytes, b: bytes) -> bytes:
    """One-way, order-sensitive combination of two equal-size cells.

    The pair digest is expanded back to full cell size so that writing
    the result over a cell leaves none of the original bytes behind;
    truncating the digest into the cell would not cover it.
    """
    if len(a) != len(b):
        raise DomainError("combine requires equal-length cells")
    return expand(digest(a, b), len(a))


def _combine_level(pairs: list[tuple[bytes, bytes]], cell_size: int) -> list[bytes]:
    """:func:`combine` of every pair of one transform level, in one expansion batch."""
    return expand_many([digest(a, b) for a, b in pairs], cell_size)


def _padded_cells(array: CellArray) -> list[bytes]:
    n = len(array.cells)
    slots = range(n + 1, _next_power_of_two(n) + 1)
    if not slots:  # an empty batch would still cost a native call
        return list(array.cells)
    return [*array.cells, *pad_cells(array.epoch_id, slots, array.cell_size)]


def _butterfly(
    cells: list[bytes],
    cell_size: int,
    iterations: range,
    on_pair: Callable[[int, int, int], None] | None = None,
) -> list[bytes]:
    """Run the transform's ``iterations``, in order, over ``cells`` (a power-of-two count)."""
    n = len(cells)
    for iteration in iterations:
        block, stride = 2**iteration, 2 ** (iteration - 1)
        lefts = [i for base in range(0, n, block) for i in range(base, base + stride)]
        if on_pair is not None:
            for i in lefts:
                on_pair(iteration, i, i + stride)
        values = _combine_level([(cells[i], cells[i + stride]) for i in lefts], cell_size)
        scratch: list[bytes] = [b""] * n
        for i, value in zip(lefts, values):
            scratch[i] = scratch[i + stride] = value
        cells = scratch
    return cells


def expunge(
    array: CellArray,
    now: int = 0,
    on_pair: Callable[[int, int, int], None] | None = None,
) -> tuple[CellArray, DeletionProof]:
    """Run the full transform and emit the deletion proof.

    The input array is padded to a power of two (at least two cells)
    with deterministic filler, so the same ciphertexts always produce
    the same proof on any machine. ``on_pair(iteration, i, j)`` exposes
    the pairing trace, in 0-based slots, for conformance checks; a call
    that passes it runs in this process alone, as does a small array or
    one that finds the worker busy or failed.
    """
    if not array.cells:
        raise DomainError("cannot expunge an empty cell array")
    cells = _padded_cells(array)
    iterations = range(1, len(cells).bit_length())
    if on_pair is None and len(cells) * array.cell_size >= SPLIT_MIN_BYTES:
        from . import worker  # imported, and started, on the first large transform

        lower = worker.lower_levels(cells, array.cell_size)
        if lower is not None:
            cells, iterations = lower, iterations[-1:]
    cells = _butterfly(cells, array.cell_size, iterations, on_pair)
    proof_digest = digest(*cells)
    overwritten = CellArray(
        epoch_id=array.epoch_id, cell_size=array.cell_size, cells=tuple(cells)
    )
    proof = DeletionProof(
        epoch_id=array.epoch_id, proof=proof_digest, produced_at=now, cell_size=array.cell_size
    )
    return overwritten, proof


def expunge_ciphertexts(ciphertexts, epoch_id: int, now: int = 0) -> DeletionProof:
    """Pack an epoch's ciphertexts into cells, overwrite them all, keep the proof.

    The one pack-and-expunge path: the provider's sealed irrecoverable
    tag, the cloud's scheduled deletion and a lazy cloud's on-demand
    proof all come from here, so they agree bit for bit.
    """
    array = CellArray.from_ciphertexts(list(ciphertexts), epoch_id)
    return expunge(array, now=now)[1]


# --- runtime estimation ----------------------------------------------------

#: The fit times a four-pair transform level for ``_FIT_SECONDS`` at
#: each of a path's two cell sizes, split into batches; the median batch
#: stands, so one scheduler pause cannot skew the fit.
_FIT_SECONDS = 0.0013
_FIT_BATCHES = 5


def _combine_blocks(cell_size: int) -> int:
    """Hash blocks in one combine: the pair digest, then the expansion."""
    return -(-2 * cell_size // BLOCK_SIZE) + -(-cell_size // DIGEST_SIZE)


#: The largest cell that the hashlib loop expands; larger cells take the
#: native call where it is bound (see :data:`hashing.NATIVE_MIN_BLOCKS`).
_LOOP_MAX_CELL = (hashing.NATIVE_MIN_BLOCKS - 1) * DIGEST_SIZE

#: The cell sizes at which each expansion path's line is fitted: both
#: ends of the sizes it prices.
_FIT_ENDS = {
    "loop": (EMPTY_EPOCH_CELL_SIZE, _LOOP_MAX_CELL),
    "native": (_LOOP_MAX_CELL + 1, 4096),
}

#: Each expansion path's fitted ``(fixed, per_block)`` seconds, under its
#: name in :data:`_FIT_ENDS`, fitted once per process on the path's first
#: estimate. Clearing it forces the next estimate on each path to fit again.
_calibration_cache: dict[str, tuple[float, float]] = {}


def _fit_point(cell_size: int) -> tuple[int, float]:
    """Hash blocks per combine, and the median seconds per pair of a level."""
    pairs = [(bytes([k]) * cell_size, bytes([~k & 255]) * cell_size) for k in range(4)]
    batches = []
    for _ in range(_FIT_BATCHES):
        start, rounds = time.perf_counter(), 0
        while (elapsed := time.perf_counter() - start) < _FIT_SECONDS / _FIT_BATCHES:
            _combine_level(pairs, cell_size)
            rounds += 1
        batches.append(elapsed / rounds / len(pairs))
    return _combine_blocks(cell_size), statistics.median(batches)


def _fit_combine_cost(path: str) -> tuple[float, float]:
    """Fit one expansion path's line through both ends of the sizes it prices."""
    (small_blocks, small_s), (large_blocks, large_s) = map(_fit_point, _FIT_ENDS[path])
    per_block = max(0.0, (large_s - small_s) / (large_blocks - small_blocks))
    return max(0.0, small_s - per_block * small_blocks), per_block


def _combine_seconds(cell_size: int) -> float:
    path = "loop" if cell_size <= _LOOP_MAX_CELL else "native"
    if path not in _calibration_cache:
        _calibration_cache[path] = _fit_combine_cost(path)
    fixed, per_block = _calibration_cache[path]
    return fixed + per_block * _combine_blocks(cell_size)


#: Nominal memory throughput for the linear pack/hash pass over the input.
_PACK_SECONDS_PER_BYTE = 1e-9


def expunge_duration_estimate(cell_count: int, cell_size: int) -> float:
    """Estimated wall seconds to run :func:`expunge` on one CPU of this host.

    A combine costs a fixed number of SHA-256 blocks for a given cell
    size: the pair digest over ``2 * cell_size`` bytes plus
    ``ceil(cell_size / 32)`` expansion blocks. The per-combine overhead
    and the per-block cost are fitted once per process for each
    expansion path, on the first estimate that path prices, by timing a
    transform level at both ends of the cell sizes it expands (64 B to
    4 KiB in all), so later cell sizes cost no timing at all (see
    :data:`_calibration_cache`). The estimate grows
    with ``n * cell_size * log n``, plus the linear packing and
    proof-hash pass over the input bytes. Used to size the time bound in
    the attestation phase.

    The estimate prices one CPU. A large array's transform runs its two
    halves on two (see :data:`SPLIT_MIN_BYTES`), which with a warm
    worker ran it 1.5-1.8x faster on a 2-CPU x86-64 host.
    """
    if cell_count < 1 or cell_size < 1:
        raise DomainError("estimate requires at least one cell of at least one byte")
    padded = _next_power_of_two(cell_count)
    combines = (padded // 2) * (padded.bit_length() - 1)
    linear = cell_count * cell_size * _PACK_SECONDS_PER_BYTE
    return combines * _combine_seconds(cell_size) + linear
