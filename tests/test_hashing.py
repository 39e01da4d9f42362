import hashlib

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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_expand_matches_reference_concatenation(algorithm):
    seed = hashlib.sha256(algorithm.encode()).digest()
    # 17,000 B needs more than the 256 packed counters
    for length in [*range(201), 17_000]:
        assert hashing.expand(seed, length) == _reference_expand(algorithm, seed, length)


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
