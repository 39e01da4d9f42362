import ctypes
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from expunge import engine, hashing
from expunge.engine import CellArray

#: The protocol hash by its hashlib name; the references below build it
#: independently of ``expunge.hashing``.
ALGORITHMS = ["sha256"]


def _reference_expand(algorithm: str, seed: bytes, length: int) -> bytes:
    """``H(seed || u32(i))`` for i = 0, 1, ... concatenated and truncated."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.new(algorithm, seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


def _expand_path(path: str):
    """A patch that sends ``expand`` down one path.

    ``openssl`` takes the X9.63 KDF call for every output of two blocks
    or more; ``hashlib`` unbinds it, so every block is hashed in Python.
    """
    if path == "openssl":
        if hashing._x963kdf is None:
            pytest.skip("libcrypto's X963KDF is not bound on this host")
        return mock.patch.object(hashing, "NATIVE_MIN_BLOCKS", 2)
    return mock.patch.object(hashing, "_x963kdf", None)


@pytest.mark.parametrize("path", ["openssl", "hashlib"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_expand_matches_reference_concatenation(algorithm, path):
    digest_seed = hashlib.sha256(algorithm.encode()).digest()
    seeds = [b"", bytes(range(11)), digest_seed, bytes(range(100))]
    with _expand_path(path):
        for seed in seeds:
            # 17,000 B needs more than the 256 packed counters
            for length in [*range(201), 17_000]:
                assert hashing.expand(seed, length) == _reference_expand(algorithm, seed, length)


@pytest.mark.parametrize("path", ["openssl", "hashlib"])
def test_expand_many_equals_expand_per_seed(path):
    seeds = [b"", bytes(range(11)), hashlib.sha256(b"seed").digest(), bytes(range(100))]
    threshold = hashing.NATIVE_MIN_BLOCKS * hashing.DIGEST_SIZE
    lengths = [*range(threshold - 2 * hashing.DIGEST_SIZE, threshold + hashing.DIGEST_SIZE + 2), 4096]
    with _expand_path(path):
        for length in lengths:
            expected = [_reference_expand("sha256", seed, length) for seed in seeds]
            # with and without the empty seed, which keeps a batch off the native call
            for batch in (seeds, seeds[1:]):
                outputs = hashing.expand_many(batch, length)
                assert outputs == [hashing.expand(seed, length) for seed in batch]
                assert outputs == expected[len(seeds) - len(batch):]
    assert hashing.expand_many([], 4096) == []


def _reference_expunge(cells: list[bytes]) -> list[bytes]:
    """The butterfly over a power-of-two array, combining with the references."""
    n, size = len(cells), len(cells[0])
    stride = 1
    while stride < n:
        nxt = list(cells)
        for base in range(0, n, 2 * stride):
            for i in range(base, base + stride):
                pair = hashlib.sha256(cells[i] + cells[i + stride]).digest()
                nxt[i] = nxt[i + stride] = _reference_expand("sha256", pair, size)
        cells, stride = nxt, 2 * stride
    return cells


def test_expand_threads_agree_with_reference():
    if hashing._x963kdf is None:
        pytest.skip("libcrypto's X963KDF is not bound on this host")
    jobs = [
        [(hashlib.sha256(b"%d/%d" % (worker, i)).digest(), (528, 4096)[i % 2]) for i in range(300)]
        for worker in range(4)
    ]
    # workers that run whole transforms on their own arrays meanwhile
    arrays = [
        [
            CellArray(epoch_id=worker, cell_size=size, cells=tuple(
                hashing.expand(b"%d/%d/%d" % (worker, size, i), size) for i in range(16)
            ))
            for size in (528, 4096)
        ]
        for worker in range(2)
    ]
    barrier = threading.Barrier(len(jobs) + len(arrays))

    def run(job):
        barrier.wait(timeout=60)
        return [hashing.expand(seed, length) for seed, length in job]

    def run_expunge(job):
        barrier.wait(timeout=60)
        return [engine.expunge(array)[0].cells for array in job for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs) + len(arrays)) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            futures += [pool.submit(run_expunge, job) for job in arrays]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for job, outputs in zip(jobs, results):
        for (seed, length), output in zip(job, outputs):
            assert output == _reference_expand("sha256", seed, length)
    for job, outputs in zip(arrays, results[len(jobs):]):
        expected = [tuple(_reference_expunge(list(array.cells))) for array in job for _ in range(3)]
        assert outputs == expected


def test_failed_derive_raises_instead_of_returning_bytes():
    kdf = hashing._x963kdf
    if kdf is None:
        pytest.skip("libcrypto's X963KDF is not bound on this host")

    def failing_derive(ctx, out, length, params):
        ctypes.memset(out, 0xFF, length)
        return 0

    with mock.patch.object(kdf, "_derive", failing_derive):
        with pytest.raises(MemoryError):
            hashing.expand(b"seed", 4096)
    # libcrypto itself refuses a zero-length output
    with pytest.raises(MemoryError):
        kdf.derive([b"seed"], 0)
    assert hashing.expand(b"seed", 4096) == _reference_expand("sha256", b"seed", 4096)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_batch_whose_kth_derive_fails_returns_nothing(k):
    kdf = hashing._x963kdf
    if kdf is None:
        pytest.skip("libcrypto's X963KDF is not bound on this host")
    derive = kdf._derive
    calls = []

    def fails_on_kth(ctx, out, length, params):
        calls.append(length)
        return 0 if len(calls) == k else derive(ctx, out, length, params)

    seeds = [b"seed-%d" % i for i in range(5)]
    outputs = None
    with mock.patch.object(kdf, "_derive", fails_on_kth):
        with pytest.raises(MemoryError):
            outputs = hashing.expand_many(seeds, 4096)
    assert outputs is None and len(calls) == k
    assert hashing.expand_many(seeds, 4096) == [
        _reference_expand("sha256", seed, 4096) for seed in seeds
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_digests_after_equals_digest_of_concatenation(algorithm):
    suffixes = [b"", b"a", bytes(range(200))]
    assert hashing.digests_after(b"prefix", suffixes) == [
        hashing.digest(b"prefix", suffix) for suffix in suffixes
    ]
    assert hashing.digests_after(b"prefix", suffixes) == [
        hashlib.new(algorithm, b"prefix" + suffix).digest() for suffix in suffixes
    ]


def test_digest_and_block_sizes_are_sha256s():
    h = hashlib.sha256()
    assert (hashing.DIGEST_SIZE, hashing.BLOCK_SIZE) == (h.digest_size, h.block_size)
    assert hashing.digest(b"a", b"bc") == hashlib.sha256(b"abc").digest()


def test_default_hasher_expand_is_expand():
    assert hashing.DEFAULT_HASHER.expand(b"seed", 100) == hashing.expand(b"seed", 100)


def test_expand_rejects_negative_length():
    with pytest.raises(ValueError):
        hashing.expand(b"seed", -1)
