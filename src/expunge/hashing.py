"""The protocol hash H: SHA-256.

One collision-resistant hash serves every digest in the protocol:
per-reading digests, the timestamp exponent, both verifiable tags, the
deletion transform's cells and the query-log chain. This module is the
one place that names it; every other module calls the functions below.

The expansion that fills a cell, ``H(seed || u32(0)) || H(seed ||
u32(1)) || ...``, is from its second block on the ANSI X9.63 KDF over
SHA-256 with no shared info (SEC 1 v2, section 3.6.1), whose counter
starts at 1. Where the libcrypto behind ``hashlib`` ships that KDF
(OpenSSL 3), :func:`expand` hashes block 0 with ``hashlib`` and derives
every later block in one native call; elsewhere, and for outputs too
short to repay the call, it hashes block by block. Both paths return
the same bytes.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from hashlib import sha256
from typing import Iterable

from .encoding import u32

#: Bytes in one digest.
DIGEST_SIZE = 32
#: Bytes consumed per compression.
BLOCK_SIZE = 64

#: ``u32(i)`` for the first expansion counters, packed once.
_COUNTERS = tuple(map(u32, range(256)))


def _load_libcrypto():
    """The libcrypto that ``hashlib`` links, opened through ``_hashlib``, or None."""
    try:
        import _hashlib

        return ctypes.CDLL(_hashlib.__file__)
    except (ImportError, OSError):
        return None


#: The one handle on libcrypto in this process; see :func:`bind_libcrypto`.
_LIBCRYPTO = _load_libcrypto()


def bind_libcrypto(signatures: dict):
    """The libcrypto behind ``hashlib`` with ``signatures`` typed, or None.

    ``signatures`` maps each function name to ``(restype, argtypes)``.
    Every caller gets the same handle; None means the library, or one of
    the named functions, is not there.
    """
    if _LIBCRYPTO is None:
        return None
    try:
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(_LIBCRYPTO, name)
            fn.restype, fn.argtypes = restype, argtypes
    except AttributeError:
        return None
    return _LIBCRYPTO


class _Param(ctypes.Structure):
    """OpenSSL's ``OSSL_PARAM``: one named, typed argument to a call."""

    _fields_ = [
        ("key", ctypes.c_char_p),
        ("data_type", ctypes.c_uint),
        ("data", ctypes.c_char_p),
        ("data_size", ctypes.c_size_t),
        ("return_size", ctypes.c_size_t),
    ]


#: ``OSSL_PARAM_UTF8_STRING``, ``OSSL_PARAM_OCTET_STRING`` and
#: ``OSSL_PARAM_UNMODIFIED`` of ``openssl/core.h``.
_UTF8_STRING, _OCTET_STRING = 4, 5
_UNMODIFIED = ctypes.c_size_t(-1).value


class _X963KDF:
    """One libcrypto X9.63 KDF context over SHA-256, shared by every thread.

    ctypes releases the interpreter lock inside the derive call, so the
    lock keeps one derive at a time on the context, on the key parameter
    that points at the caller's seed and on the output buffer. The
    buffer only grows: a ctypes array of a new length is a new type,
    which costs microseconds to build again once the collector frees it.
    """

    def __init__(self, lib):
        kdf = lib.EVP_KDF_fetch(None, b"X963KDF", None)
        if not kdf:
            raise OSError("EVP_KDF_fetch failed")
        ctx = lib.EVP_KDF_CTX_new(kdf)
        lib.EVP_KDF_free(kdf)
        if not ctx:
            raise OSError("EVP_KDF_CTX_new failed")
        digest_param = (_Param * 2)(_Param(b"digest", _UTF8_STRING, b"SHA256", 6, _UNMODIFIED))
        if not lib.EVP_KDF_CTX_set_params(ctx, digest_param):
            lib.EVP_KDF_CTX_free(ctx)
            raise OSError("EVP_KDF_CTX_set_params failed")
        self._ctx = ctx
        self._derive = lib.EVP_KDF_derive
        self._clear_errors = lib.ERR_clear_error
        self._params = (_Param * 2)(_Param(b"key", _OCTET_STRING, None, 0, _UNMODIFIED))
        self._key = self._params[0]
        self._out = ctypes.create_string_buffer(0)
        self._lock = threading.Lock()

    def derive(self, seed: bytes, length: int) -> bytes:
        """``length >= 1`` bytes of ``H(seed || u32(1)) || ...`` for a non-empty ``seed``."""
        with self._lock:
            if len(self._out) < length:
                self._out = ctypes.create_string_buffer(length)
            self._key.data, self._key.data_size = seed, len(seed)
            if self._derive(self._ctx, self._out, length, self._params) == 1:
                return ctypes.string_at(self._out, length)
            self._clear_errors()
        raise MemoryError("EVP_KDF_derive failed")


def _bind_x963kdf() -> _X963KDF | None:
    lib = bind_libcrypto(
        {
            "EVP_KDF_fetch": (ctypes.c_void_p, [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_char_p]),
            "EVP_KDF_free": (None, [ctypes.c_void_p]),
            "EVP_KDF_CTX_new": (ctypes.c_void_p, [ctypes.c_void_p]),
            "EVP_KDF_CTX_free": (None, [ctypes.c_void_p]),
            "EVP_KDF_CTX_set_params": (ctypes.c_int, [ctypes.c_void_p, ctypes.POINTER(_Param)]),
            "EVP_KDF_derive": (
                ctypes.c_int,
                [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t, ctypes.POINTER(_Param)],
            ),
            "ERR_clear_error": (None, []),
        }
    )
    if lib is None:
        return None
    try:
        return _X963KDF(lib)
    except OSError:
        return None


#: Bound at import; None means every expansion hashes block by block.
_x963kdf = _bind_x963kdf()

#: Fewest output blocks for which :func:`expand` takes the native call.
#: The call costs about 3.5 us before its first block, a hashlib block
#: about 0.45 us and a native one 0.1-0.15 us (2-CPU x86-64, Python
#: 3.11, OpenSSL 3.0). In a tight loop the paths break even at 8-9
#: blocks; at 2 blocks (64 B) the call is twice as slow. Between other
#: work the call's fixed cost grows more than the loop's: timed inside
#: a perfbench long-retention run, each path taken at random per call,
#: native / hashlib was 9.7 / 8.3 us at 11 blocks, 9.2 / 8.7 at 12 and
#: 8.9 / 9.1 at 13; inside verify-audit, 6.7 / 8.0 us at 13 blocks.
NATIVE_MIN_BLOCKS = 13


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
    cell rather than be truncated into it. Blocks 1 onward come from
    one X9.63 KDF call where it is bound, there are at least
    :data:`NATIVE_MIN_BLOCKS` blocks and the seed is not empty (handed
    an empty key, libcrypto keeps the previous call's); the bytes are
    the same either way.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    blocks = -(-length // DIGEST_SIZE)
    kdf = _x963kdf
    if kdf is not None and seed and blocks >= NATIVE_MIN_BLOCKS:
        return digest(seed, _COUNTERS[0]) + kdf.derive(seed, length - DIGEST_SIZE)
    counters = _COUNTERS[:blocks] if blocks <= len(_COUNTERS) else map(u32, range(blocks))
    return b"".join(digests_after(seed, counters))[:length]


#: This module, under the name by which perfbench's tracer calls
#: ``DEFAULT_HASHER.expand``.
DEFAULT_HASHER = sys.modules[__name__]
