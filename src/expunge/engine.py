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

This table is normative; the code below is checked against it.

Each iteration reads only the previous iteration's output, so the proof
digest over the final cells cannot be produced without walking the whole
``log2 n``-deep chain over the whole array. That asymmetry (slow to
recompute, instant to transmit) is what lets a verifier catch a storage
provider that generates deletion proofs on demand instead of actually
deleting (see the attestation module's time-bounded check).

A combine hashes the pair with the protocol hash (SHA-256, see the
hashing module) and expands the digest back to a full cell. Pairs within
one iteration are independent; iterations are strictly ordered. Only the
final cells and the proof survive the call; no intermediate iteration is
retained. The cloud keeps only the proof, which states the cell size; the
epoch's digest list gives the cell count.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

from . import encoding
from .encoding import U32, U64, VBYTES, Layout, Record, u32, u64
from .errors import DomainError
from .hashing import BLOCK_SIZE, DIGEST_SIZE, digest, expand

#: Cell size used when an epoch has no ciphertexts at all; the transform
#: then runs over two synthetic pad cells so the proof chain stays total.
EMPTY_EPOCH_CELL_SIZE = 64

_PAD_LABEL = b"PAD"


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


def pad_cell(epoch_id: int, position: int, cell_size: int) -> bytes:
    """Deterministic filler cell for 1-based slot ``position``.

    Both the provider's simulation and the cloud's execution must pad
    identically, so padding depends only on public values.
    """
    return expand(digest(_PAD_LABEL, u64(epoch_id), u64(position)), cell_size)


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
            cells = tuple(pad_cell(epoch_id, p, cell_size) for p in range(1, cell_count + 1))
        else:
            cells = tuple(
                (u32(len(ct)) + ct).ljust(cell_size, b"\x00") for ct in ciphertexts
            )
        return cls(epoch_id=epoch_id, cell_size=cell_size, cells=cells)


@dataclass(frozen=True)
class DeletionProof(Record):
    """Digest over the fully overwritten cells of one epoch, and their size."""

    LAYOUT = Layout(
        encoding.TYPE_DELETION_PROOF,
        ("epoch_id", U64),
        ("proof", VBYTES),
        ("produced_at", U64),
        ("cell_size", U32),
    )

    epoch_id: int
    proof: bytes
    produced_at: int
    cell_size: int


@dataclass(frozen=True)
class ButterflySchedule:
    """Pairing plan for one array size: block and stride double per level."""

    padded_size: int

    def __post_init__(self):
        n = self.padded_size
        if n < 2 or n & (n - 1):
            raise DomainError("schedule requires a power-of-two size of at least 2")

    @property
    def iteration_count(self) -> int:
        return self.padded_size.bit_length() - 1

    def block_and_step(self, iteration: int) -> tuple[int, int]:
        """(blockSize, stepSize) for a 1-based iteration number."""
        if not 1 <= iteration <= self.iteration_count:
            raise DomainError(f"iteration out of range: {iteration}")
        return 2**iteration, 2 ** (iteration - 1)

    def pairs(self, iteration: int) -> list[tuple[int, int]]:
        """0-based index pairs combined in the given iteration."""
        block, step = self.block_and_step(iteration)
        return [
            (base + offset, base + offset + step)
            for base in range(0, self.padded_size, block)
            for offset in range(step)
        ]

    def one_based_pairs(self, iteration: int) -> list[tuple[int, int]]:
        return [(i + 1, j + 1) for i, j in self.pairs(iteration)]


def schedule_for(cell_count: int) -> ButterflySchedule:
    if cell_count < 1:
        raise DomainError("cannot schedule an empty array")
    return ButterflySchedule(padded_size=_next_power_of_two(cell_count))


def combine(a: bytes, b: bytes) -> bytes:
    """One-way, order-sensitive combination of two equal-size cells.

    The pair digest is expanded back to full cell size so that writing
    the result over a cell leaves none of the original bytes behind;
    truncating the digest into the cell would not cover it.
    """
    if len(a) != len(b):
        raise DomainError("combine requires equal-length cells")
    return expand(digest(a, b), len(a))


def _padded_cells(array: CellArray) -> list[bytes]:
    n = len(array.cells)
    target = max(2, _next_power_of_two(max(n, 1)))
    cells = list(array.cells)
    for position in range(n + 1, target + 1):
        cells.append(pad_cell(array.epoch_id, position, array.cell_size))
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
    the pairing trace for conformance checks.
    """
    if not array.cells:
        raise DomainError("cannot expunge an empty cell array")
    cells = _padded_cells(array)
    schedule = ButterflySchedule(padded_size=len(cells))
    for iteration in range(1, schedule.iteration_count + 1):
        scratch: list[bytes] = [b""] * len(cells)
        for i, j in schedule.pairs(iteration):
            if on_pair is not None:
                on_pair(iteration, i, j)
            value = combine(cells[i], cells[j])
            scratch[i] = value
            scratch[j] = value
        cells = scratch
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

#: Cell sizes at which :func:`combine` is timed to fit the cost model.
_FIT_CELL_SIZES = (64, 4096)
#: Wall time spent timing combine at each fit size, split into batches;
#: the median batch stands, so one scheduler pause cannot skew the fit.
_FIT_SECONDS = 0.003
_FIT_BATCHES = 5


def _combine_blocks(cell_size: int) -> int:
    """Hash blocks in one combine: the pair digest, then the expansion."""
    return -(-2 * cell_size // BLOCK_SIZE) + -(-cell_size // DIGEST_SIZE)


#: The fitted ``(fixed, per_block)`` combine seconds under ``"combine"``,
#: once per process; clearing it forces the next estimate to fit again.
_calibration_cache: dict[str, tuple[float, float]] = {}


def _fit_combine_cost() -> tuple[float, float]:
    """Time combine at the two fit sizes and solve for both coefficients."""
    points = []
    for cell_size in _FIT_CELL_SIZES:
        a = expand(b"calibrate-a", cell_size)
        b = expand(b"calibrate-b", cell_size)
        batches = []
        for _ in range(_FIT_BATCHES):
            rounds = 0
            start = time.perf_counter()
            while (elapsed := time.perf_counter() - start) < _FIT_SECONDS / _FIT_BATCHES:
                combine(a, b)
                rounds += 1
            batches.append(elapsed / rounds)
        points.append((_combine_blocks(cell_size), statistics.median(batches)))
    (small_blocks, small_s), (large_blocks, large_s) = points
    per_block = max(0.0, (large_s - small_s) / (large_blocks - small_blocks))
    return max(0.0, small_s - per_block * small_blocks), per_block


def _combine_seconds(cell_size: int) -> float:
    if "combine" not in _calibration_cache:
        _calibration_cache["combine"] = _fit_combine_cost()
    fixed, per_block = _calibration_cache["combine"]
    return fixed + per_block * _combine_blocks(cell_size)


#: Nominal memory throughput for the linear pack/hash pass over the input.
_PACK_SECONDS_PER_BYTE = 1e-9


def expunge_duration_estimate(cell_count: int, cell_size: int) -> float:
    """Estimated wall seconds to run :func:`expunge` on this host.

    A combine costs a fixed number of SHA-256 blocks for a given cell
    size: the pair digest over ``2 * cell_size`` bytes plus
    ``ceil(cell_size / 32)`` expansion blocks. The per-combine overhead
    and the per-block cost are fitted once per process, by timing
    combine at 64 B and 4 KiB cells, so later cell sizes cost no timing
    at all (see :data:`_calibration_cache`). The estimate grows with
    ``n * cell_size * log n``, plus the linear packing and proof-hash
    pass over the input bytes. Used to size the time bound in the
    attestation phase.
    """
    if cell_count < 1 or cell_size < 1:
        raise DomainError("estimate requires at least one cell of at least one byte")
    padded = max(2, _next_power_of_two(cell_count))
    combines = (padded // 2) * (padded.bit_length() - 1)
    linear = cell_count * cell_size * _PACK_SECONDS_PER_BYTE
    return combines * _combine_seconds(cell_size) + linear
