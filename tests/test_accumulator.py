import hashlib
import math
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expunge import accumulator, worker
from expunge.accumulator import (
    AccumulatorParams,
    AccumulatorValue,
    _modexp,
    _random_seed,
    exponent_from_bytes,
    setup,
    start_step,
    step,
)
from expunge.errors import DomainError

from conftest import needs_two_cpus


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


#: 12 = 2^2 * 3: a base of 6 raised to an odd power >= 2 is 0 mod 12.
DEGENERATE = AccumulatorParams(modulus=12, seed=5, modulus_bits=4)


@needs_two_cpus
class TestStepInWorker:
    @given(
        base=st.integers(min_value=1),
        exponent=st.binary(min_size=1, max_size=64),
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_worker_and_pow_agree(self, steps_in_worker, small_params, base, exponent):
        base = base % (small_params.modulus - 1) + 1
        steps_in_worker.clear()
        with start_step(base, exponent, small_params) as pending:
            value = pending()
        e = exponent_from_bytes(exponent)
        assert value == AccumulatorValue(pow(base, e, small_params.modulus))
        assert steps_in_worker == [(base, e, small_params.modulus)]

    def test_a_2048_bit_chain_agrees(self, steps_in_worker):
        params = setup(2048, rng=random.Random(2003_04969))
        rng = random.Random(3)
        acc = expected = params.seed
        for _ in range(20):
            e = rng.randbytes(32)
            acc = start_step(acc, e, params)()
            expected = pow(expected, exponent_from_bytes(e), params.modulus)
            assert acc.value == expected
        assert len(steps_in_worker) == 20

    @pytest.mark.parametrize("path", ["worker", "in-process"])
    def test_both_paths_raise_the_same_domain_errors(self, request, path, small_params):
        sent = request.getfixturevalue("steps_in_worker") if path == "worker" else []
        with pytest.raises(DomainError, match="out of range"):
            start_step(small_params.modulus, b"\x07", small_params)
        with pytest.raises(DomainError, match="empty exponent"):
            start_step(small_params.seed, b"", small_params)
        pending = start_step(6, b"\x03", DEGENERATE)
        with pytest.raises(DomainError, match="degenerate"):
            pending()
        assert sent == ([(6, 3, 12)] if path == "worker" else [])

    def test_killed_worker_gives_the_in_process_value_and_is_replaced(
        self, steps_in_worker, small_params
    ):
        killed = worker._WORKER._proc
        os.kill(killed.pid, signal.SIGSTOP)  # it cannot answer what it is sent
        pending = start_step(small_params.seed, b"\x07\x11", small_params)
        os.kill(killed.pid, signal.SIGKILL)
        killed.wait(timeout=30)
        assert pending() == step(small_params.seed, b"\x07\x11", small_params)
        assert steps_in_worker and worker._WORKER._proc is None
        assert start_step(small_params.seed, b"\x05", small_params)() == step(
            small_params.seed, b"\x05", small_params
        )
        assert worker._WORKER._proc not in (None, killed)

    def test_forked_child_computes_in_process(self, steps_in_worker, small_params):
        pid = os.fork()
        if pid == 0:  # the child: its parent's worker is not its own
            ok = False
            try:
                value = start_step(small_params.seed, b"\x09", small_params)()
                ok = value == step(small_params.seed, b"\x09", small_params) and not steps_in_worker
            finally:
                os._exit(0 if ok else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert steps_in_worker == []

    def test_one_usable_cpu_computes_in_process(self, monkeypatch, small_params):
        worker._WORKER.close()
        monkeypatch.setattr(accumulator, "STEP_BUDGET_S", 0.0)
        monkeypatch.setattr(worker.os, "sched_getaffinity", lambda pid: {0})
        pending = start_step(small_params.seed, b"\x0b", small_params)
        assert pending._ticket is None and worker._WORKER._proc is None
        assert pending() == step(small_params.seed, b"\x0b", small_params)


class TestStepBudget:
    def test_a_short_run_starts_no_worker(self):
        code = (
            "import random, sys\n"
            "from expunge import accumulator\n"
            "params = accumulator.setup(512, rng=random.Random(1))\n"
            "acc = params.seed\n"
            "for k in range(50):\n"
            "    acc = accumulator.start_step(acc, bytes([k + 1]), params)()\n"
            "assert accumulator._step_seconds < accumulator.STEP_BUDGET_S\n"
            "assert 'expunge.worker' not in sys.modules and 'subprocess' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(accumulator.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)

    @needs_two_cpus
    def test_a_booting_worker_is_bypassed_until_it_signals_ready(self, monkeypatch, small_params):
        worker._WORKER.close()
        monkeypatch.setattr(accumulator, "STEP_BUDGET_S", 0.0)
        monkeypatch.setattr(worker, "_BOOT", "import time\ntime.sleep(1.5)\n" + worker._BOOT)
        expected = step(small_params.seed, b"\x0d", small_params)
        began = time.monotonic()
        slowest = in_process = 0.0
        while time.monotonic() - began < 60:
            start = time.monotonic()
            pending = start_step(small_params.seed, b"\x0d", small_params)
            slowest = max(slowest, time.monotonic() - start)
            if pending._ticket is not None:
                break
            in_process = time.monotonic() - began
            assert pending() == expected
            time.sleep(0.01)
        assert pending() == expected
        assert in_process >= 1.0  # every step of the boot ran here
        assert slowest < 0.5  # and none waited for it
