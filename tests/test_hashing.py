import hashlib

import pytest

from expunge.hashing import Hasher

ALGORITHMS = ["sha256", "sha512", "blake2b", "sha3_256"]


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
    hasher = Hasher(algorithm)
    seed = hashlib.sha256(algorithm.encode()).digest()
    # 17,000 B needs more than 256 counters for every algorithm listed
    for length in [*range(201), 17_000]:
        assert hasher.expand(seed, length) == _reference_expand(algorithm, seed, length)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_digests_after_equals_digest_of_concatenation(algorithm):
    hasher = Hasher(algorithm)
    suffixes = [b"", b"a", bytes(range(200))]
    assert hasher.digests_after(b"prefix", suffixes) == [
        hasher.digest(b"prefix", suffix) for suffix in suffixes
    ]


def test_expand_rejects_negative_length():
    with pytest.raises(ValueError):
        Hasher().expand(b"seed", -1)
