"""One-way accumulator over an RSA group.

The accumulator is the single algebraic object behind both chained epoch
timestamps and chained query-block proofs: repeated modular
exponentiation from a public seed, one step per digest. Because
``(x^a)^b = (x^b)^a (mod n)``, the construction is quasi-commutative,
and anyone holding the public ``(seed, modulus)`` pair plus the digests
can replay and check a chain; no central authority takes part in
verification.

Setup generates the modulus from two private primes and then forgets
them: the protocol only ever computes forward, so no trapdoor is kept.

Every chain step and every Miller-Rabin witness test is one modular
exponentiation, done by OpenSSL's ``BN_mod_exp`` in the libcrypto that
``hashlib`` already links. Where that library exports no BIGNUM calls,
the builtin ``pow`` does it instead; both return the same integers, so
chains, proofs and seeded parameters are identical either way.

A caller that has other work to do before it needs a step's value
begins the step with :func:`start_step` and calls the returned handle
afterwards. Once the process has spent :data:`STEP_BUDGET_S` on steps,
a begun step runs in the worker process on a second CPU (see the worker
module) while the caller works; only public values (base, exponent,
modulus) cross the pipe. Where no worker is ready or free, on one usable
CPU and in a forked child, the step runs here, with the same result and
errors.
"""

from __future__ import annotations

import ctypes
import math
import secrets
import time
from dataclasses import dataclass
from typing import Annotated

from . import encoding
from .encoding import U32, VINT, Record
from .errors import DomainError
from .hashing import bind_libcrypto

MIN_MODULUS_BITS = 512
DEFAULT_MODULUS_BITS = 2048

_MR_ROUNDS = 40

# Small primes for cheap candidate screening before Miller-Rabin.
_SMALL_PRIMES: list[int] = []
_sieve = bytearray([1]) * 2000
for _n in range(2, 2000):
    if _sieve[_n]:
        _SMALL_PRIMES.append(_n)
        for _m in range(_n * _n, 2000, _n):
            _sieve[_m] = 0
del _sieve, _n


#: Bound at import; None means every exponentiation is the builtin ``pow``.
_libcrypto = bind_libcrypto(
    {
        "BN_new": (ctypes.c_void_p, []),
        "BN_bin2bn": (ctypes.c_void_p, [ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p]),
        "BN_mod_exp": (ctypes.c_int, [ctypes.c_void_p] * 5),
        "BN_bn2binpad": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int]),
        "BN_free": (None, [ctypes.c_void_p]),
        "BN_CTX_new": (ctypes.c_void_p, []),
        "BN_CTX_free": (None, [ctypes.c_void_p]),
    }
)


def _bignum(lib, value: int, owned: list) -> int:
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    bn = lib.BN_bin2bn(raw, len(raw), None)
    if not bn:
        raise MemoryError("BN_bin2bn failed")
    owned.append(bn)
    return bn


def _modexp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, computed by OpenSSL where it is bound.

    Only non-negative ``base < modulus``, ``exponent >= 0`` and
    ``modulus >= 2`` take the OpenSSL path; anything else, including a
    non-``int`` operand, goes to ``pow`` and gets its result or error.
    """
    lib = _libcrypto
    if lib is None or not (
        isinstance(base, int)
        and isinstance(exponent, int)
        and isinstance(modulus, int)
        and 0 <= base < modulus
        and exponent >= 0
        and modulus > 1
    ):
        return pow(base, exponent, modulus)
    size = (modulus.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    owned: list = []
    ctx = lib.BN_CTX_new()
    try:
        if not ctx:
            raise MemoryError("BN_CTX_new failed")
        result = lib.BN_new()
        if not result:
            raise MemoryError("BN_new failed")
        owned.append(result)
        operands = [_bignum(lib, v, owned) for v in (base, exponent, modulus)]
        if not lib.BN_mod_exp(result, *operands, ctx):
            raise MemoryError("BN_mod_exp failed")
        if lib.BN_bn2binpad(result, out, size) != size:
            raise MemoryError("BN_bn2binpad failed")
    finally:
        for bn in owned:
            lib.BN_free(bn)
        lib.BN_CTX_free(ctx)
    return int.from_bytes(out.raw, "big")


def _is_probable_prime(n: int, rng) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = _modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng) -> int:
    while True:
        candidate = rng.getrandbits(bits)
        # Top two bits set so the product of two such primes has exactly
        # 2*bits bits; low bit set for oddness.
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class AccumulatorParams(Record):
    """Public accumulator parameters: modulus and seed. No trapdoor."""

    TYPE = encoding.TYPE_ACC_PARAMS
    modulus_bits: Annotated[int, U32]
    modulus: Annotated[int, VINT]
    seed: Annotated[int, VINT]

    def __post_init__(self):
        if not 1 < self.seed < self.modulus:
            raise DomainError("seed must lie strictly between 1 and the modulus")
        if math.gcd(self.seed, self.modulus) != 1:
            raise DomainError("seed must be coprime with the modulus")


@dataclass(frozen=True)
class AccumulatorValue(Record):
    TYPE = encoding.TYPE_ACC_VALUE
    value: Annotated[int, VINT]

    def __post_init__(self):
        if self.value <= 0:
            raise DomainError("accumulator value must be positive")


def setup(modulus_bits: int = DEFAULT_MODULUS_BITS, rng=None) -> AccumulatorParams:
    """Generate fresh public parameters.

    The two primes exist only inside this call; the returned params hold
    just their product and a random coprime seed.
    """
    if modulus_bits < MIN_MODULUS_BITS:
        raise DomainError(f"modulus must be at least {MIN_MODULUS_BITS} bits")
    if modulus_bits % 2 != 0:
        raise DomainError("modulus_bits must be even")
    rng = rng if rng is not None else secrets.SystemRandom()
    half = modulus_bits // 2
    p = _random_prime(half, rng)
    q = _random_prime(half, rng)
    while q == p:
        q = _random_prime(half, rng)
    modulus = p * q
    seed = _random_seed(modulus, rng)
    return AccumulatorParams(modulus=modulus, seed=seed, modulus_bits=modulus_bits)


def _random_seed(modulus: int, rng) -> int:
    while True:
        seed = rng.randrange(2, modulus)
        if math.gcd(seed, modulus) == 1:
            return seed


def exponent_from_bytes(exponent_bytes: bytes) -> int:
    """Digest-to-exponent rule: big-endian unsigned, forced odd.

    Forcing the low bit keeps the exponent nonzero and odd, which rules
    out the degenerate e=0 step and even-exponent edge cases. The same
    rule is applied by provers and verifiers.
    """
    if not exponent_bytes:
        raise DomainError("empty exponent")
    return int.from_bytes(exponent_bytes, "big") | 1


def _base_value(prev: "AccumulatorValue | int", params: AccumulatorParams) -> int:
    base = prev.value if isinstance(prev, AccumulatorValue) else prev
    if not 0 < base < params.modulus:
        raise DomainError("accumulator base out of range for modulus")
    return base


def _value(result: int) -> AccumulatorValue:
    if result == 0:
        raise DomainError("degenerate accumulator step (base shares both factors)")
    return AccumulatorValue(result)


def step(
    prev: AccumulatorValue | int,
    exponent_bytes: bytes,
    params: AccumulatorParams,
) -> AccumulatorValue:
    """One accumulation step: ``prev ** e (mod modulus)``, in this process.

    ``prev`` is either the previous chain value or the public seed for
    the first link.
    """
    e = exponent_from_bytes(exponent_bytes)
    return _value(_modexp(_base_value(prev, params), e, params.modulus))


#: Seconds of in-process :func:`start_step` work after which a process
#: sends its steps to the worker: about one worker start (0.05-0.1 s on
#: a 2-CPU x86-64 host), so a short run, such as one ``expunge verify``,
#: never starts one, and a long one repays it.
STEP_BUDGET_S = 0.1

#: In-process step seconds spent so far (threads may race on it: it only
#: decides when the worker starts).
_step_seconds = 0.0


def start_step(
    prev: AccumulatorValue | int,
    exponent_bytes: bytes,
    params: AccumulatorParams,
    in_worker: bool = True,
) -> PendingStep:
    """Begin :func:`step`; call the returned handle where the value is needed.

    Once this process has spent :data:`STEP_BUDGET_S` on in-process
    steps, the step goes to the worker process (see the worker module)
    where one is ready and free, and runs there while the caller does
    its own work; otherwise, or with ``in_worker=False`` (a caller with
    too little work beside the step to repay the round trip), it runs
    here, now. Both paths give the same value. An empty exponent or a base out
    of range raises :class:`DomainError` here, a degenerate result when
    the handle is called.
    """
    global _step_seconds
    e = exponent_from_bytes(exponent_bytes)
    base = _base_value(prev, params)
    # the worker takes plain ints; any other base gets pow's result or error here
    if in_worker and _step_seconds >= STEP_BUDGET_S and type(base) is int:
        from . import worker  # imported, and started, once the budget is spent

        ticket = worker.send_modexp(base, e, params.modulus)
        if ticket is not None:
            return PendingStep(ticket=ticket, operands=(base, e, params.modulus))
    began = time.perf_counter()
    result = _modexp(base, e, params.modulus)
    _step_seconds += time.perf_counter() - began
    return PendingStep(result=result)


class PendingStep:
    """A step begun by :func:`start_step`: call it for the value.

    It is a context manager too. Leaving the ``with`` block without the
    value settles a step still in the worker, so no step outlives the
    code that began it and the worker is free for the next request.
    """

    def __init__(self, result: int | None = None, ticket=None, operands=()):
        self._result = result
        self._ticket = ticket  # a worker.Ticket for a step sent to the worker, until called
        self._operands = operands

    def __call__(self) -> AccumulatorValue:
        if self._ticket is not None:
            ticket, self._ticket = self._ticket, None
            self._result = ticket.result()
            if self._result is None:  # the worker failed: compute it here
                self._result = _modexp(*self._operands)
        return _value(self._result)

    def __enter__(self) -> PendingStep:
        return self

    def __exit__(self, *exc) -> None:
        if self._ticket is not None:
            self._ticket.settle()
