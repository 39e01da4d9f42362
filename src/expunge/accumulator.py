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
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass

from . import encoding
from .encoding import U32, VINT, Layout, Record
from .errors import DomainError

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
        x = pow(a, d, n)
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

    LAYOUT = Layout(
        encoding.TYPE_ACC_PARAMS, ("modulus_bits", U32), ("modulus", VINT), ("seed", VINT)
    )

    modulus: int
    seed: int
    modulus_bits: int

    def __post_init__(self):
        if not 1 < self.seed < self.modulus:
            raise DomainError("seed must lie strictly between 1 and the modulus")
        if math.gcd(self.seed, self.modulus) != 1:
            raise DomainError("seed must be coprime with the modulus")

    @classmethod
    def insecure(cls, p: int, q: int, seed: int) -> "AccumulatorParams":
        """Hand-chosen tiny parameters for deterministic tests only."""
        return cls(modulus=p * q, seed=seed, modulus_bits=(p * q).bit_length())


@dataclass(frozen=True)
class AccumulatorValue(Record):
    LAYOUT = Layout(encoding.TYPE_ACC_VALUE, ("value", VINT))

    value: int

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


def step(
    prev: AccumulatorValue | int,
    exponent_bytes: bytes,
    params: AccumulatorParams,
) -> AccumulatorValue:
    """One accumulation step: ``prev ** e (mod modulus)``.

    ``prev`` is either the previous chain value or the public seed for
    the first link.
    """
    e = exponent_from_bytes(exponent_bytes)
    result = pow(_base_value(prev, params), e, params.modulus)
    if result == 0:
        raise DomainError("degenerate accumulator step (base shares both factors)")
    return AccumulatorValue(result)


def verify_step(
    prev: AccumulatorValue | int,
    exponent_bytes: bytes,
    claimed: AccumulatorValue,
    params: AccumulatorParams,
) -> bool:
    """True iff replaying the step from ``prev`` lands on ``claimed``."""
    try:
        return step(prev, exponent_bytes, params) == claimed
    except (DomainError, ValueError, TypeError):
        return False
