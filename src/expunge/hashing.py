"""Deployment-wide hash configuration.

One collision-resistant hash is chosen per deployment and used for every
digest in the protocol: per-reading digests, accumulator exponents,
verifiable tags, deletion transform cells, and query-log chains. The
default is SHA-256; any ``hashlib`` algorithm name works as long as all
roles agree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .encoding import u32


@lru_cache(maxsize=None)
def _constructor(algorithm: str):
    hashlib.new(algorithm)  # fail fast on unknown names
    ctor = getattr(hashlib, algorithm, None)
    if ctor is None:
        return lambda: hashlib.new(algorithm)
    return ctor


@lru_cache(maxsize=None)
def _sizes(algorithm: str) -> tuple[int, int]:
    h = _constructor(algorithm)()
    return h.digest_size, h.block_size


#: ``u32(i)`` for the first expansion counters, packed once.
_COUNTERS = tuple(map(u32, range(256)))


@dataclass(frozen=True)
class Hasher:
    algorithm: str = "sha256"

    @property
    def size(self) -> int:
        return _sizes(self.algorithm)[0]

    @property
    def block_size(self) -> int:
        """Bytes consumed per compression of the underlying hash."""
        return _sizes(self.algorithm)[1]

    def digest(self, *parts: bytes) -> bytes:
        h = _constructor(self.algorithm)()
        for part in parts:
            h.update(part)
        return h.digest()

    def digests_after(self, prefix: bytes, suffixes: Iterable[bytes]) -> list[bytes]:
        """``H(prefix || suffix)`` for each suffix, hashing ``prefix`` once.

        Each digest continues a copy of the hash state left after the
        prefix, so the output equals ``digest(prefix, suffix)`` byte for
        byte.
        """
        base = _constructor(self.algorithm)()
        base.update(prefix)
        out = []
        for suffix in suffixes:
            h = base.copy()
            h.update(suffix)
            out.append(h.digest())
        return out

    def expand(self, seed: bytes, length: int) -> bytes:
        """Counter-mode expansion of ``seed`` to exactly ``length`` bytes.

        Output block i is ``H(seed || u32(i))``; blocks are concatenated
        and truncated. Used wherever a digest must fill a whole storage
        cell rather than be truncated into it.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        blocks = -(-length // self.size)
        counters = _COUNTERS[:blocks] if blocks <= len(_COUNTERS) else map(u32, range(blocks))
        return b"".join(self.digests_after(seed, counters))[:length]

DEFAULT_HASHER = Hasher("sha256")
