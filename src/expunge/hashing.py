"""The protocol hash H: SHA-256.

One collision-resistant hash serves every digest in the protocol:
per-reading digests, the timestamp exponent, both verifiable tags, the
deletion transform's cells and the query-log chain. This module is the
one place that names it; every other module calls the functions below.
"""

from __future__ import annotations

import sys
from hashlib import sha256
from typing import Iterable

from .encoding import u32

#: Bytes in one digest.
DIGEST_SIZE = 32
#: Bytes consumed per compression.
BLOCK_SIZE = 64

#: ``u32(i)`` for the first expansion counters, packed once.
_COUNTERS = tuple(map(u32, range(256)))


def digest(*parts: bytes) -> bytes:
    """``H(parts[0] || parts[1] || ...)``."""
    h = sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def digests_after(prefix: bytes, suffixes: Iterable[bytes]) -> list[bytes]:
    """``H(prefix || suffix)`` for each suffix, hashing ``prefix`` once.

    Each digest continues a copy of the hash state left after the
    prefix, so the output equals ``digest(prefix, suffix)`` byte for
    byte.
    """
    base = sha256(prefix)
    out = []
    for suffix in suffixes:
        h = base.copy()
        h.update(suffix)
        out.append(h.digest())
    return out


def expand(seed: bytes, length: int) -> bytes:
    """Counter-mode expansion of ``seed`` to exactly ``length`` bytes.

    Output block i is ``H(seed || u32(i))``; blocks are concatenated
    and truncated. Used wherever a digest must fill a whole storage
    cell rather than be truncated into it.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    blocks = -(-length // DIGEST_SIZE)
    counters = _COUNTERS[:blocks] if blocks <= len(_COUNTERS) else map(u32, range(blocks))
    return b"".join(digests_after(seed, counters))[:length]


#: This module, under the name by which perfbench's tracer calls
#: ``DEFAULT_HASHER.expand``.
DEFAULT_HASHER = sys.modules[__name__]
