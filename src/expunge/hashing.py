"""The protocol hash H: SHA-256.

One collision-resistant hash serves every digest in the protocol:
per-reading digests, the timestamp exponent, both verifiable tags, the
deletion transform's cells and the query-log chain. This module is the
one place that names it; every other module calls the functions below.

The expansion that fills a cell, ``H(seed || u32(0)) || H(seed ||
u32(1)) || ...``, is from its second block on the ANSI X9.63 KDF over
SHA-256 with no shared info (SEC 1 v2, section 3.6.1), whose counter
starts at 1. Where the libcrypto behind ``hashlib`` ships that KDF
(OpenSSL 3), :func:`expand_many` hashes block 0 with ``hashlib`` and
derives the rest in one native call per seed, a batch at a time;
elsewhere, and for outputs too short to repay the call, it hashes
block by block. Both paths return the same bytes.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from hashlib import sha256
from typing import Iterable, Sequence

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
    lock keeps one batch at a time on the context, on the key parameter
    and on the output buffer. The derive is typed once with ``void *``
    arguments and gets prebuilt pointers; the output is read through a
    memoryview. The buffer only grows: a ctypes array of a new length is
    a new type, which costs microseconds to build again once freed. Its
    high-water mark is the longest output yet; the verifier's membership
    scan asks for 32 bytes per digest it scans.
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
        void_p = ctypes.c_void_p
        derive_type = ctypes.CFUNCTYPE(ctypes.c_int, void_p, void_p, ctypes.c_size_t, void_p)
        self._derive = derive_type(("EVP_KDF_derive", lib))
        self._clear_errors = lib.ERR_clear_error
        self._params = (_Param * 2)(_Param(b"key", _OCTET_STRING, None, 0, _UNMODIFIED))
        self._key = self._params[0]
        self._ctx, self._params_ptr = void_p(ctx), void_p(ctypes.addressof(self._params))
        self._out, self._out_ptr = memoryview(b""), None
        self._lock = threading.Lock()

    def derive(self, seeds: Iterable[bytes], length: int) -> list[bytes]:
        """``length >= 1`` bytes of ``H(seed || u32(1)) || ...`` for each non-empty seed."""
        with self._lock:
            if len(self._out) < length:
                buffer = ctypes.create_string_buffer(length)
                self._out, self._out_ptr = memoryview(buffer), ctypes.c_void_p(ctypes.addressof(buffer))
            key, view = self._key, self._out[:length]
            args = (self._ctx, self._out_ptr, ctypes.c_size_t(length), self._params_ptr)
            outputs = []
            for seed in seeds:
                key.data, key.data_size = seed, len(seed)
                if self._derive(*args) != 1:
                    self._clear_errors()
                    raise MemoryError("EVP_KDF_derive failed")
                outputs.append(view.tobytes())
        return outputs


def _bind_x963kdf() -> _X963KDF | None:
    lib = bind_libcrypto(
        {
            "EVP_KDF_fetch": (ctypes.c_void_p, [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_char_p]),
            "EVP_KDF_free": (None, [ctypes.c_void_p]),
            "EVP_KDF_CTX_new": (ctypes.c_void_p, [ctypes.c_void_p]),
            "EVP_KDF_CTX_free": (None, [ctypes.c_void_p]),
            "EVP_KDF_CTX_set_params": (ctypes.c_int, [ctypes.c_void_p, ctypes.POINTER(_Param)]),
            "ERR_clear_error": (None, []),
        }
    )
    if lib is None:
        return None
    try:
        return _X963KDF(lib)
    except (AttributeError, OSError):  # AttributeError: no EVP_KDF_derive
        return None


#: Bound at import; None means every expansion hashes block by block.
_x963kdf = _bind_x963kdf()

#: Fewest output blocks for which :func:`expand_many` takes the native
#: call. In a batch, a seed's call costs about 1.3 us before its first
#: block and 0.14 us a block after it, against 0.43 us a hashlib block
#: (2-CPU x86-64, Python 3.11, OpenSSL 3.0); in a tight loop the paths
#: break even at 4-5 blocks in batches of 64 seeds and at 7-8 for a lone
#: seed. Between other work the call costs more: timed inside perfbench
#: runs, each batch's path drawn at random, the median native / hashlib
#: time per seed was 7.4 / 6.8 us at 11 blocks and 5.9 / 6.6 us at 12 in
#: long-retention (batches of 2-3 seeds), and 4.7 / 5.8 us at 12 blocks
#: in verify-audit.
NATIVE_MIN_BLOCKS = 12


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
    """:func:`expand_many` of one seed."""
    return expand_many((seed,), length)[0]


def expand_many(seeds: Sequence[bytes], length: int) -> list[bytes]:
    """Counter-mode expansion of each seed to exactly ``length`` bytes.

    Output block i is ``H(seed || u32(i))``; blocks are concatenated
    and truncated. Used wherever a digest must fill a whole storage
    cell rather than be truncated into it, and for the verifier's scan
    of reading digests (``control.reading_digests``). Blocks 1 onward
    come from one X9.63 KDF call per seed, all under one hold of the
    shared context, where it is bound, there are at least
    :data:`NATIVE_MIN_BLOCKS` blocks and no seed is empty (handed an
    empty key, libcrypto keeps the previous call's); the bytes are the
    same either way. A failed call raises and returns nothing.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    blocks = -(-length // DIGEST_SIZE)
    kdf = _x963kdf
    if kdf is not None and blocks >= NATIVE_MIN_BLOCKS and all(seeds):
        tails = kdf.derive(seeds, length - DIGEST_SIZE)
        return [sha256(seed + _COUNTERS[0]).digest() + tail for seed, tail in zip(seeds, tails)]
    counters = _COUNTERS[:blocks] if blocks <= len(_COUNTERS) else tuple(map(u32, range(blocks)))
    return [b"".join(digests_after(seed, counters))[:length] for seed in seeds]


#: This module, under the name by which perfbench's tracer calls
#: ``DEFAULT_HASHER.expand``.
DEFAULT_HASHER = sys.modules[__name__]
