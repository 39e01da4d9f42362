import hashlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from expunge import accumulator, engine, hashing, worker
from expunge.encoding import u32, u64
from expunge.engine import (
    EMPTY_EPOCH_CELL_SIZE,
    CellArray,
    DeletionProof,
    cell_geometry,
    combine,
    expunge,
    expunge_ciphertexts,
    expunge_duration_estimate,
)
from expunge.errors import DomainError

from conftest import needs_two_cpus, worker_is_free

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


def _oracle_pad(epoch_id: int, position: int, size: int) -> bytes:
    """The filler cell of 1-based slot ``position``, by its definition."""
    return _sha_expand(hashlib.sha256(b"PAD" + u64(epoch_id) + u64(position)).digest(), size)


def _random_cells(rng, n, size):
    return CellArray(
        epoch_id=42, cell_size=size, cells=tuple(rng.randbytes(size) for _ in range(n))
    )


def _trace(n: int) -> dict[int, list[tuple[int, int]]]:
    """The transform's 1-based pairing trace over ``n`` cells, per iteration."""
    trace: dict[int, list] = {}
    array = _random_cells(random.Random(n), n, 8)
    expunge(array, on_pair=lambda it, i, j: trace.setdefault(it, []).append((i + 1, j + 1)))
    return trace


class TestSchedule:
    def test_n8_trace_matches_reference_pattern(self):
        # five to eight cells all pad to the same eight slots
        for n in (5, 6, 7, 8):
            assert _trace(n) == REFERENCE_N8_TRACE

    def test_block_and_step_double_each_iteration(self):
        # iteration k pairs slots 2^(k-1) apart, never across a block of 2^k
        sizes = []
        for _, pairs in sorted(_trace(16).items()):
            (step,) = {j - i for i, j in pairs}
            block = 2 * step
            assert all((i - 1) // block == (j - 1) // block for i, j in pairs)
            sizes.append((block, step))
        assert sizes == [(2, 1), (4, 2), (8, 4), (16, 8)]

    def test_every_slot_paired_exactly_once_per_iteration(self):
        for n in range(2, 33):
            trace = _trace(n)
            padded = 1 << (n - 1).bit_length()
            assert sorted(trace) == list(range(1, padded.bit_length()))
            for pairs in trace.values():
                touched = [i for pair in pairs for i in pair]
                assert sorted(touched) == list(range(1, padded + 1))


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
        pad = _oracle_pad(5, 2, 32)
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
        assert array.cells == (
            _oracle_pad(7, 1, array.cell_size), _oracle_pad(7, 2, array.cell_size)
        )
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

    @pytest.mark.parametrize("n", [13, 16, 64, 100])
    def test_one_expansion_batch_per_iteration(self, n, monkeypatch):
        kdf = hashing._x963kdf
        if kdf is None:
            pytest.skip("libcrypto's X963KDF is not bound on this host")
        batches = []

        class CountingKdf:
            def derive(self, seeds, length):
                batches.append(len(seeds))
                return kdf.derive(seeds, length)

        monkeypatch.setattr(hashing, "_x963kdf", CountingKdf())
        size = hashing.NATIVE_MIN_BLOCKS * hashing.DIGEST_SIZE
        array = _random_cells(random.Random(n), n, size)
        expunge(array)
        padded = 1 << (n - 1).bit_length()
        # one batch for the N - n pad cells, if any, then log2 N batches
        # of N/2 seeds, not N/2 * log2 N single derives
        pads = [padded - n] if padded > n else []
        assert batches == pads + [padded // 2] * (padded.bit_length() - 1)

    @pytest.mark.parametrize("size", [40, 384])  # both expansion paths
    @pytest.mark.parametrize("n", [1, 3, 13, 100])
    def test_batched_pad_cells_are_the_defined_fillers(self, n, size):
        array = _random_cells(random.Random(n), n, size)
        padded = engine._padded_cells(array)
        assert padded[:n] == list(array.cells)
        assert padded[n:] == [_oracle_pad(42, p, size) for p in range(n + 1, len(padded) + 1)]

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
        [(2**14, 64), (2**13, 256), (2**12, 400), (2**12, 1024), (2**10, 4096)],
        ids=["64B", "256B", "400B", "1KiB", "4KiB"],
    )
    def test_estimate_within_3x_of_measured(self, n, size, monkeypatch):
        # the estimate prices one CPU, so it is held to the one-CPU run;
        # these arrays are large enough to run on two by default
        monkeypatch.setattr(engine, "SPLIT_MIN_BYTES", float("inf"))
        estimate = expunge_duration_estimate(n, size)
        rng = random.Random(17)
        array = _random_cells(rng, n, size)
        start = time.perf_counter()
        expunge(array)
        measured = time.perf_counter() - start
        assert measured / 3 <= estimate <= measured * 3

    def test_clearing_the_cache_forces_exactly_one_new_fit(self, monkeypatch):
        # one fit per expansion path that the estimates price, each time
        fits = []
        fit = engine._fit_combine_cost

        def counting_fit(path):
            fits.append(path)
            return fit(path)

        monkeypatch.setattr(engine, "_fit_combine_cost", counting_fit)
        cases = [
            ([37 * k for k in range(1, 51)], ["loop", "native"]),
            # all at or above NATIVE_MIN_BLOCKS, as dense-day's cells are
            ([engine._LOOP_MAX_CELL + 1 + 37 * k for k in range(50)], ["native"]),
        ]
        for sizes, paths in cases:
            fits.clear()
            for _ in range(2):
                engine._calibration_cache.clear()
                for size in sizes:
                    assert expunge_duration_estimate(64, size) > 0
            assert sorted(engine._calibration_cache) == paths
            assert fits == paths * 2


def _in_process(array, monkeypatch):
    """The reference: the whole transform in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "SPLIT_MIN_BYTES", float("inf"))
        return expunge(array)


def _split_size_array(cell_size=1024, padded=512, pads=3):
    """An array of ``padded - pads`` random cells; by default exactly at the threshold."""
    return _random_cells(random.Random(cell_size * padded), padded - pads, cell_size)


@needs_two_cpus
class TestWorkerSplit:
    @pytest.mark.parametrize(
        "cell_size, padded, pads",
        [
            (64, 4096, 3),
            (64, 8192, 1),
            (64, 16384, 5),
            (460, 1024, 3),
            (460, 2048, 7),
            (1023, 512, 1),
            (1024, 512, 3),
            (1025, 512, 5),
        ],
        ids=[
            "64B-below", "64B-at", "64B-above", "460B-below", "460B-above",
            "1KiB-just-below", "1KiB-at", "1KiB-just-above",
        ],
    )
    def test_worker_path_matches_in_process(self, monkeypatch, halves_here, cell_size, padded, pads):
        array = _split_size_array(cell_size, padded, pads)
        expected = _in_process(array, monkeypatch)
        assert expunge(array) == expected
        split = padded * cell_size >= engine.SPLIT_MIN_BYTES
        assert halves_here == ([padded // 2] if split else [])

    def test_on_pair_runs_in_process_on_the_normative_pairing(self, monkeypatch, halves_here):
        array = _split_size_array()
        trace: dict[int, list] = {}

        def record(iteration, i, j):
            if j < 8:
                trace.setdefault(iteration, []).append((i + 1, j + 1))

        assert expunge(array, on_pair=record) == _in_process(array, monkeypatch)
        assert halves_here == []
        assert {k: trace[k] for k in REFERENCE_N8_TRACE} == REFERENCE_N8_TRACE

    def test_killed_worker_is_replaced_after_one_call_in_process(self, monkeypatch, halves_here):
        array = _split_size_array()
        expected = _in_process(array, monkeypatch)
        assert expunge(array) == expected
        killed = worker._WORKER._proc
        os.kill(killed.pid, signal.SIGKILL)
        killed.wait(timeout=30)
        halves_here.clear()
        assert expunge(array) == expected
        assert halves_here == [256, 256]
        assert worker._WORKER._proc is None
        halves_here.clear()
        assert expunge(array) == expected
        assert halves_here == [256]
        assert worker._WORKER._proc not in (None, killed)

    def test_threads_all_get_the_reference_proof(self, monkeypatch):
        array = _split_size_array()
        expected = _in_process(array, monkeypatch)
        starts = []
        popen = subprocess.Popen

        def counting_popen(*args, **kwargs):
            starts.append(args)
            return popen(*args, **kwargs)

        monkeypatch.setattr(worker.subprocess, "Popen", counting_popen)
        results = [None] * 4

        def run(k):
            results[k] = expunge(array)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        assert len(starts) <= 1

    def test_no_worker_where_one_cpu_is_usable(self, monkeypatch, halves_here):
        worker._WORKER.close()
        monkeypatch.setattr(worker.os, "sched_getaffinity", lambda pid: {0})
        array = _split_size_array()
        assert expunge(array) == _in_process(array, monkeypatch)
        assert halves_here == []
        assert worker._WORKER._proc is None

    def test_exiting_caller_leaves_no_worker(self):
        code = (
            "import random\n"
            "from expunge import engine, worker\n"
            "rng = random.Random(1)\n"
            "cells = tuple(rng.randbytes(1024) for _ in range(512))\n"
            "engine.expunge(engine.CellArray(epoch_id=1, cell_size=1024, cells=cells))\n"
            "print(worker._WORKER._proc.pid)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        pid = int(proc.stdout)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_exiting_with_a_step_out_leaves_no_worker(self):
        # the first atexit handler runs last: it times the worker's close
        code = (
            "import atexit, random, time\n"
            "atexit.register(lambda: print(time.perf_counter() - ended))\n"
            "from expunge import accumulator, worker\n"
            "params = accumulator.setup(512, rng=random.Random(1))\n"
            "accumulator.STEP_BUDGET_S = 0.0\n"
            "def begin():\n"
            "    return accumulator.start_step(params.seed, b'\\x07', params)\n"
            "while (pending := begin())._ticket is None:  # a step out in a ready worker\n"
            "    time.sleep(0.01)\n"
            "print(worker._WORKER._proc.pid)\n"
            "ended = time.perf_counter()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        pid, closing = proc.stdout.split()
        assert float(closing) < worker._CLOSE_WAIT_S  # it left on EOF, unkilled
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def _step_reference(params, exponents):
    """A chain of steps from the seed, each by the builtin pow."""
    acc = params.seed
    for e in exponents:
        acc = pow(acc, accumulator.exponent_from_bytes(e), params.modulus)
    return accumulator.AccumulatorValue(acc)


@needs_two_cpus
class TestWorkerChannel:
    """Steps and transforms share the worker, lent to one request at a time."""

    def test_a_transform_takes_the_worker_while_a_step_is_out(
        self, monkeypatch, halves_here, steps_in_worker, small_params
    ):
        array = _split_size_array()
        expected = _in_process(array, monkeypatch)
        with accumulator.start_step(small_params.seed, b"\x07", small_params) as pending:
            assert expunge(array) == expected
            assert pending() == _step_reference(small_params, [b"\x07"])
        assert halves_here == [256]
        assert len(steps_in_worker) == 1

    def test_a_caller_that_raises_leaves_the_worker_free(
        self, monkeypatch, halves_here, steps_in_worker, small_params
    ):
        array = _split_size_array()
        expected = _in_process(array, monkeypatch)
        with pytest.raises(RuntimeError):
            with accumulator.start_step(small_params.seed, b"\x03", small_params):
                raise RuntimeError("the caller fails before it needs the step")
        assert worker_is_free()
        with accumulator.start_step(small_params.seed, b"\x05", small_params) as pending:
            assert pending() == _step_reference(small_params, [b"\x05"])
        assert expunge(array) == expected
        assert halves_here == [256]  # the next transform reached the worker
        assert len(steps_in_worker) == 2  # and so did the next step
        assert worker_is_free()

    def test_a_transform_runs_here_while_another_threads_step_holds_the_worker(
        self, monkeypatch, halves_here, steps_in_worker, small_params
    ):
        array = _split_size_array()
        expected = _in_process(array, monkeypatch)
        began, release, values = threading.Event(), threading.Event(), []

        def hold():
            with accumulator.start_step(small_params.seed, b"\x07", small_params) as pending:
                began.set()
                release.wait(timeout=60)
                values.append(pending())

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert began.wait(timeout=60)
            assert len(steps_in_worker) == 1 and not worker_is_free()
            assert expunge(array) == expected
            assert halves_here == []
        finally:
            release.set()
            thread.join(timeout=60)
        assert values == [_step_reference(small_params, [b"\x07"])]
        assert worker_is_free()

    def test_threads_mixing_steps_and_transforms_get_the_reference_values(
        self, monkeypatch, steps_in_worker, small_params
    ):
        array = _split_size_array()
        expected_proof = _in_process(array, monkeypatch)
        rng = random.Random(29)
        jobs = [[rng.randbytes(32) for _ in range(12)] for _ in range(4)]
        results = [None] * 4

        def run(k):
            acc, proofs = small_params.seed, []
            for i, e in enumerate(jobs[k]):
                with accumulator.start_step(acc, e, small_params) as pending:
                    if (i + k) % 6 == 0:
                        proofs.append(expunge(array))
                    acc = pending()
            results[k] = (acc, proofs)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, (acc, proofs) in enumerate(results):
            assert acc == _step_reference(small_params, jobs[k])
            assert proofs == [expected_proof] * 2
        assert steps_in_worker
