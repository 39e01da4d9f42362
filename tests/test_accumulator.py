import hashlib
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expunge import accumulator
from expunge.accumulator import (
    AccumulatorParams,
    AccumulatorValue,
    _modexp,
    _random_seed,
    exponent_from_bytes,
    setup,
    step,
)
from expunge.errors import DomainError


class TestSetup:
    def test_insecure_constructor_toy_modulus(self, tiny_params):
        assert tiny_params.modulus == 3233
        assert tiny_params.seed == 2

    def test_generated_modulus_has_exact_bit_length(self):
        params = setup(modulus_bits=1024)
        assert params.modulus.bit_length() == 1024
        assert params.modulus % 2 == 1

    def test_seed_coprime_over_many_draws(self, small_params):
        # the seed-selection step used by setup, exercised 1000 times
        rng = random.Random(99)
        for _ in range(1000):
            seed = _random_seed(small_params.modulus, rng)
            assert math.gcd(seed, small_params.modulus) == 1
        # plus a few end-to-end setups
        for _ in range(3):
            p = setup(modulus_bits=512)
            assert math.gcd(p.seed, p.modulus) == 1

    def test_minimum_bits_enforced(self):
        with pytest.raises(DomainError):
            setup(modulus_bits=256)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            AccumulatorParams(modulus=3233, seed=1, modulus_bits=12)
        with pytest.raises(DomainError):
            AccumulatorParams(modulus=3233, seed=61, modulus_bits=12)  # shares p

    def test_params_round_trip(self, small_params):
        assert AccumulatorParams.from_bytes(small_params.to_bytes()) == small_params

    @pytest.mark.parametrize(
        "bits, seed, digest",
        [
            (2048, 2003_04969, "eaeda7a253483ced5c4c847d098b6cf26f082155ccae495d701d50f103a01c26"),
            (1024, 1024, "8b5dc5ae763912dc88676818cd0076b564fa02849f747762810ac111db3727cd"),
        ],
    )
    def test_seeded_setup_is_pinned(self, bits, seed, digest):
        # Digests of the canonical parameter bytes as computed with the
        # builtin pow; the witness sequence, and so the primes, must not move.
        params = setup(bits, rng=random.Random(seed))
        assert hashlib.sha256(params.to_bytes()).hexdigest() == digest


@st.composite
def modexp_operands(draw):
    bits = draw(st.integers(min_value=2, max_value=4096))
    modulus = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    exponent_bits = draw(st.sampled_from([0, 1, 256, 1024]))
    exponent = (
        exponent_bits
        if exponent_bits < 2
        else draw(st.integers(min_value=1 << (exponent_bits - 1), max_value=(1 << exponent_bits) - 1))
    )
    base = draw(st.integers(min_value=0, max_value=modulus - 1))
    return base, exponent, modulus


class TestModexp:
    @pytest.mark.parametrize("path", ["openssl", "builtin"])
    @given(operands=modexp_operands())
    @settings(max_examples=100, deadline=None)
    def test_equals_pow(self, path, operands):
        if path == "openssl" and accumulator._libcrypto is None:
            pytest.skip("libcrypto is not bound on this host")
        libcrypto = accumulator._libcrypto if path == "openssl" else None
        with mock.patch.object(accumulator, "_libcrypto", libcrypto):
            assert _modexp(*operands) == pow(*operands)

    def test_non_int_operand_is_type_error(self, tiny_params):
        with pytest.raises(TypeError):
            _modexp(5.0, 3, 3233)
        with pytest.raises(TypeError):
            step(5.0, b"\x03", tiny_params)

    def test_threads_agree_with_pow(self):
        params = setup(2048, rng=random.Random(2003_04969))
        rng = random.Random(7)
        jobs = [[rng.randbytes(32) for _ in range(25)] for _ in range(4)]

        def chain(exponents):
            acc, out = params.seed, []
            for e in exponents:
                acc = step(acc, e, params)
                out.append(acc.value)
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(chain, j) for j in jobs]]
        finally:
            sys.setswitchinterval(interval)
        for exponents, values in zip(jobs, results):
            acc = params.seed
            for e, value in zip(exponents, values):
                acc = pow(acc, exponent_from_bytes(e), params.modulus)
                assert value == acc

    def test_import_spawns_no_process(self):
        # ctypes.util.find_library would run ldconfig; binding must not need it.
        code = (
            "import sys, expunge; "
            "assert 'ctypes.util' not in sys.modules and 'subprocess' not in sys.modules; "
            "assert 'expunge.worker' not in sys.modules"
        )
        src = str(Path(accumulator.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


class TestStep:
    def test_hand_modexp_oracle(self, tiny_params):
        # 2^(3*5) mod 3233, computed by hand: 32768 - 10*3233 = 438
        v = step(step(tiny_params.seed, b"\x03", tiny_params), b"\x05", tiny_params)
        assert v.value == 438

    def test_quasi_commutative_on_toy_params(self, tiny_params):
        a = step(step(tiny_params.seed, b"\x05", tiny_params), b"\x03", tiny_params)
        assert a.value == 438

    def test_identity_exponent(self, tiny_params):
        assert step(tiny_params.seed, b"\x01", tiny_params).value == tiny_params.seed

    def test_exponent_rule_forces_odd(self):
        assert exponent_from_bytes(b"\x04") == 5
        assert exponent_from_bytes(b"\x05") == 5
        assert exponent_from_bytes(b"\x00") == 1
        with pytest.raises(DomainError):
            exponent_from_bytes(b"")

    def test_never_returns_zero(self, tiny_params):
        v = step(tiny_params.seed, (3233 - 1).to_bytes(2, "big"), tiny_params)
        assert v.value > 0

    @given(
        e1=st.binary(min_size=1, max_size=32),
        e2=st.binary(min_size=1, max_size=32),
    )
    @settings(max_examples=50)
    def test_quasi_commutativity_property(self, small_params, e1, e2):
        one = step(step(small_params.seed, e1, small_params), e2, small_params)
        two = step(step(small_params.seed, e2, small_params), e1, small_params)
        assert one == two
        # both equal seed^(e1'*e2') for the forced-odd exponents
        direct = pow(
            small_params.seed,
            exponent_from_bytes(e1) * exponent_from_bytes(e2),
            small_params.modulus,
        )
        assert one.value == direct

    def test_chain_determinism(self, small_params):
        digests = [hashlib.sha256(bytes([i])).digest() for i in range(10)]

        def replay():
            acc = small_params.seed
            for d in digests:
                acc = step(acc, d, small_params)
            return acc

        assert replay() == replay()


class TestVerifyStep:
    """A link is verified by replaying ``step`` and comparing with the claimed value."""

    def test_accepts_correct_link(self, small_params):
        claimed = step(small_params.seed, b"\x07\x11", small_params)
        assert step(small_params.seed, b"\x07\x11", small_params) == claimed

    def test_rejects_perturbed_value(self, small_params):
        claimed = step(small_params.seed, b"\x07\x11", small_params)
        wrong = AccumulatorValue(claimed.value + 1)
        assert step(small_params.seed, b"\x07\x11", small_params) != wrong

    def test_malformed_inputs_raise(self, small_params):
        with pytest.raises(DomainError, match="empty exponent"):
            step(small_params.seed, b"", small_params)
        with pytest.raises(DomainError, match="out of range"):
            step(0, b"\x07", small_params)

    def test_swapped_digest_exponent_detected_empirically(self, small_params):
        # verifier recomputes the exponent from a reordered digest list;
        # 10^4 trials, no false accept
        rng = random.Random(4242)
        for _ in range(10**4):
            d1 = rng.randbytes(32)
            d2 = rng.randbytes(32)
            if d1 == d2:
                continue
            honest = hashlib.sha256(d1 + d2).digest()
            swapped = hashlib.sha256(d2 + d1).digest()
            claimed = step(small_params.seed, honest, small_params)
            assert step(small_params.seed, swapped, small_params) != claimed

    def test_no_trusted_party_needed(self, small_params):
        # a verifier holding only (seed, modulus, digests, prev) checks a chain
        digests = [hashlib.sha256(bytes([i])).digest() for i in range(5)]
        chain = [AccumulatorValue(pow(small_params.seed, 1, small_params.modulus))]
        acc = small_params.seed
        for d in digests:
            acc = step(acc, d, small_params)
            chain.append(acc)
        for i, d in enumerate(digests):
            prev = small_params.seed if i == 0 else chain[i]
            assert step(prev, d, small_params) == chain[i + 1]
