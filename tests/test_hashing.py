import ctypes
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from expunge import hashing

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


def test_expand_threads_agree_with_reference():
    if hashing._x963kdf is None:
        pytest.skip("libcrypto's X963KDF is not bound on this host")
    jobs = [
        [(hashlib.sha256(b"%d/%d" % (worker, i)).digest(), (528, 4096)[i % 2]) for i in range(300)]
        for worker in range(4)
    ]
    barrier = threading.Barrier(len(jobs))

    def run(job):
        barrier.wait(timeout=60)
        return [hashing.expand(seed, length) for seed, length in job]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(run, job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    for job, outputs in zip(jobs, results):
        for (seed, length), output in zip(job, outputs):
            assert output == _reference_expand("sha256", seed, length)


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
        kdf.derive(b"seed", 0)
    assert hashing.expand(b"seed", 4096) == _reference_expand("sha256", b"seed", 4096)


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
