import hashlib
import random
import time

import pytest
from expunge import engine
from expunge.encoding import u32
from expunge.engine import (
    EMPTY_EPOCH_CELL_SIZE,
    CellArray,
    ButterflySchedule,
    DeletionProof,
    cell_geometry,
    combine,
    expunge,
    expunge_ciphertexts,
    expunge_duration_estimate,
    pad_cell,
    schedule_for,
)
from expunge.errors import DomainError

#: Normative three-iteration pairing pattern for eight cells (1-based).
REFERENCE_N8_TRACE = {
    1: [(1, 2), (3, 4), (5, 6), (7, 8)],
    2: [(1, 3), (2, 4), (5, 7), (6, 8)],
    3: [(1, 5), (2, 6), (3, 7), (4, 8)],
}


def _sha_expand(seed: bytes, length: int) -> bytes:
    """Independent re-implementation of counter-mode expansion."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


def _oracle_combine(a: bytes, b: bytes) -> bytes:
    return _sha_expand(hashlib.sha256(a + b).digest(), len(a))


def _random_cells(rng, n, size):
    return CellArray(
        epoch_id=42, cell_size=size, cells=tuple(rng.randbytes(size) for _ in range(n))
    )


class TestSchedule:
    def test_n8_trace_matches_reference_pattern(self):
        schedule = schedule_for(8)
        assert schedule.iteration_count == 3
        for iteration, pairs in REFERENCE_N8_TRACE.items():
            assert schedule.one_based_pairs(iteration) == pairs

    def test_block_and_step_double_each_iteration(self):
        schedule = schedule_for(16)
        sizes = [schedule.block_and_step(i) for i in range(1, 5)]
        assert sizes == [(2, 1), (4, 2), (8, 4), (16, 8)]

    def test_every_slot_paired_exactly_once_per_iteration(self):
        for n in (2, 4, 8, 16, 32):
            schedule = schedule_for(n)
            for it in range(1, schedule.iteration_count + 1):
                touched = [i for pair in schedule.pairs(it) for i in pair]
                assert sorted(touched) == list(range(n))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            ButterflySchedule(padded_size=6)


class TestCombine:
    def test_order_sensitive(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.randbytes(64), rng.randbytes(64)
            if a == b:
                continue
            assert combine(a, b) != combine(b, a)

    def test_output_fills_cell(self):
        for size in (1, 31, 32, 33, 100, 1024):
            assert len(combine(b"\x01" * size, b"\x02" * size)) == size

    def test_deterministic(self):
        a, b = b"\xaa" * 40, b"\xbb" * 40
        assert combine(a, b) == combine(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            combine(b"\x00" * 4, b"\x00" * 5)

    def test_matches_independent_implementation(self):
        rng = random.Random(8)
        for _ in range(50):
            a, b = rng.randbytes(48), rng.randbytes(48)
            assert combine(a, b) == _oracle_combine(a, b)


def _oracle_expunge_n8(cells):
    """Straight-line reference: all three iterations written out."""
    c = list(cells)
    # iteration 1: (1,2) (3,4) (5,6) (7,8)
    v12 = _oracle_combine(c[0], c[1])
    v34 = _oracle_combine(c[2], c[3])
    v56 = _oracle_combine(c[4], c[5])
    v78 = _oracle_combine(c[6], c[7])
    c = [v12, v12, v34, v34, v56, v56, v78, v78]
    # iteration 2: (1,3) (2,4) (5,7) (6,8)
    w13 = _oracle_combine(c[0], c[2])
    w24 = _oracle_combine(c[1], c[3])
    w57 = _oracle_combine(c[4], c[6])
    w68 = _oracle_combine(c[5], c[7])
    c = [w13, w24, w13, w24, w57, w68, w57, w68]
    # iteration 3: (1,5) (2,6) (3,7) (4,8)
    x15 = _oracle_combine(c[0], c[4])
    x26 = _oracle_combine(c[1], c[5])
    x37 = _oracle_combine(c[2], c[6])
    x48 = _oracle_combine(c[3], c[7])
    c = [x15, x26, x37, x48, x15, x26, x37, x48]
    proof = hashlib.sha256(b"".join(c)).digest()
    return c, proof


class TestExpunge:
    def test_n2_both_cells_are_the_combination(self):
        rng = random.Random(9)
        array = _random_cells(rng, 2, 32)
        out, proof = expunge(array)
        expected = combine(array.cells[0], array.cells[1])
        assert out.cells == (expected, expected)
        assert proof.proof == hashlib.sha256(expected + expected).digest()

    def test_n8_matches_unrolled_oracle(self):
        rng = random.Random(10)
        array = _random_cells(rng, 8, 64)
        out, proof = expunge(array)
        oracle_cells, oracle_proof = _oracle_expunge_n8(array.cells)
        assert list(out.cells) == oracle_cells
        assert proof.proof == oracle_proof

    def test_n8_pairing_trace(self):
        rng = random.Random(11)
        array = _random_cells(rng, 8, 16)
        trace: dict[int, list] = {}
        expunge(array, on_pair=lambda it, i, j: trace.setdefault(it, []).append((i + 1, j + 1)))
        assert trace == REFERENCE_N8_TRACE

    def test_empty_array_rejected(self):
        with pytest.raises(DomainError):
            expunge(CellArray(epoch_id=1, cell_size=8, cells=()))

    def test_single_cell_padded_to_two(self):
        array = CellArray(epoch_id=5, cell_size=32, cells=(b"\x01" * 32,))
        out, proof = expunge(array)
        pad = pad_cell(5, 2, 32)
        expected = combine(b"\x01" * 32, pad)
        assert out.cells == (expected, expected)

    def test_non_power_of_two_padding_is_deterministic(self):
        rng = random.Random(12)
        array = _random_cells(rng, 5, 24)
        _, p1 = expunge(array)
        _, p2 = expunge(array)
        assert p1.proof == p2.proof
        # padded cells depend on epoch id
        other = CellArray(epoch_id=43, cell_size=24, cells=array.cells)
        _, p3 = expunge(other)
        assert p3.proof != p1.proof

    def test_from_ciphertexts_layout(self):
        cts = [b"aaaa", b"bb"]
        array = CellArray.from_ciphertexts(cts, epoch_id=7)
        assert array.cell_size == 4 + 4
        assert array.cells[0] == u32(4) + b"aaaa"
        assert array.cells[1] == u32(2) + b"bb" + b"\x00\x00"

    def test_from_ciphertexts_empty_epoch(self):
        array = CellArray.from_ciphertexts([], epoch_id=7)
        assert len(array.cells) == 2
        assert array.cells[0] == pad_cell(7, 1, array.cell_size)
        out, proof = expunge(array)
        out2, proof2 = expunge(CellArray.from_ciphertexts([], epoch_id=7))
        assert proof.proof == proof2.proof

    @pytest.mark.parametrize(
        "cts, geometry",
        [
            ([], (2, EMPTY_EPOCH_CELL_SIZE)),
            ([b"abc"], (1, 4 + 3)),
            ([b"aaaa", b"b", b"cccccccc"], (3, 4 + 8)),
        ],
        ids=["empty", "single", "mixed"],
    )
    def test_cell_geometry_matches_packed_array(self, cts, geometry):
        array = CellArray.from_ciphertexts(cts, epoch_id=7)
        assert cell_geometry(cts) == geometry == (len(array.cells), array.cell_size)

    def test_originals_untouched_and_unrecoverable(self):
        rng = random.Random(13)
        cts = [rng.randbytes(80) for _ in range(6)]
        array = CellArray.from_ciphertexts(cts, epoch_id=3)
        out, _ = expunge(array)
        assert array.cells != out.cells  # input object untouched
        blob = b"".join(out.cells)
        for ct in cts:
            assert ct not in blob
            # no 32-byte window of any original survives
            for offset in range(0, len(ct) - 32 + 1, 16):
                assert ct[offset : offset + 32] not in blob

    def test_full_overwrite_hamming_distance(self):
        rng = random.Random(14)
        array = _random_cells(rng, 8, 128)
        out, _ = expunge(array)
        for before, after in zip(array.cells, out.cells):
            differing = sum(1 for x, y in zip(before, after) if x != y)
            assert differing > len(before) // 4

    def test_deterministic_across_runs(self):
        rng = random.Random(15)
        array = _random_cells(rng, 16, 40)
        assert expunge(array)[1].proof == expunge(array)[1].proof

    def test_proof_round_trip(self):
        proof = DeletionProof(epoch_id=9, proof=b"\x07" * 32, produced_at=77, cell_size=1024)
        assert DeletionProof.from_bytes(proof.to_bytes()) == proof

    @pytest.mark.parametrize("cts", [[], [b"abc"], [b"aaaa", b"b", b"cccccccc"]])
    def test_expunge_ciphertexts_is_expunge_of_the_packed_array(self, cts):
        proof = expunge_ciphertexts(tuple(cts), epoch_id=7, now=30)
        _, expected = expunge(CellArray.from_ciphertexts(cts, epoch_id=7), now=30)
        assert proof == expected
        assert proof.cell_size == cell_geometry(cts)[1]


class TestDurationEstimate:
    def test_positive_for_smallest_input(self):
        assert expunge_duration_estimate(1, 1) > 0

    def test_monotone_in_cell_count(self):
        for n in (1, 4, 64, 1024):
            assert expunge_duration_estimate(2 * n, 256) > expunge_duration_estimate(n, 256)

    @pytest.mark.parametrize(
        "n, size",
        [(2**14, 64), (2**13, 256), (2**12, 1024), (2**10, 4096)],
        ids=["64B", "256B", "1KiB", "4KiB"],
    )
    def test_estimate_within_3x_of_measured(self, n, size):
        estimate = expunge_duration_estimate(n, size)
        rng = random.Random(17)
        array = _random_cells(rng, n, size)
        start = time.perf_counter()
        expunge(array)
        measured = time.perf_counter() - start
        assert measured / 3 <= estimate <= measured * 3

    def test_clearing_the_cache_forces_exactly_one_new_fit(self, monkeypatch):
        fits = []
        fit = engine._fit_combine_cost

        def counting_fit():
            fits.append(None)
            return fit()

        monkeypatch.setattr(engine, "_fit_combine_cost", counting_fit)
        for _ in range(2):
            engine._calibration_cache.clear()
            for size in range(1, 51):
                assert expunge_duration_estimate(64, 37 * size) > 0
        assert len(engine._calibration_cache) == 1
        assert len(fits) == 2
