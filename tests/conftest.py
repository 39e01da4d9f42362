import ssl

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from expunge import accumulator, crypto, hashing
from expunge.accumulator import AccumulatorParams, setup
from expunge.crypto import generate_keyring

#: Detail strings the acceptance tests file for the terminal summary.
ACCEPTANCE_NOTES: dict[str, str] = {}


def _native_path_lines() -> list[str]:
    """Which libcrypto paths this run takes, read from the bindings themselves."""
    modexp = "builtin pow" if accumulator._libcrypto is None else f"openssl ({ssl.OPENSSL_VERSION})"
    expand = "hashlib"
    if hashing._x963kdf is not None:
        expand = f"openssl X963KDF ({ssl.OPENSSL_VERSION}) from {hashing.NATIVE_MIN_BLOCKS} blocks"
    return [f"accumulator modexp: {modexp}", f"hashing expand: {expand}"]


def pytest_report_header(config):
    return _native_path_lines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q hides the header; say it here instead
        for line in _native_path_lines():
            terminalreporter.write_line(line)
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], outcome == "passed"))
    if not rows:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, passed in sorted(rows):
        note = ACCEPTANCE_NOTES.get(name, "")
        suffix = f"  ({note})" if note else ""
        terminalreporter.write_line(
            f"  {'PASS' if passed else 'FAIL'}  {name}{suffix}"
        )

#: 61 * 53 = 3233: the classic textbook toy modulus.
TINY_P, TINY_Q, TINY_SEED = 61, 53, 2


@pytest.fixture(scope="session")
def tiny_params() -> AccumulatorParams:
    modulus = TINY_P * TINY_Q
    return AccumulatorParams(modulus=modulus, seed=TINY_SEED, modulus_bits=modulus.bit_length())


@pytest.fixture(scope="session")
def small_params() -> AccumulatorParams:
    """512-bit modulus: fast modexp, negligible collision probability."""
    return setup(modulus_bits=512)


@pytest.fixture(scope="session")
def keyring():
    return generate_keyring([b"user-00", b"user-01", b"user-02"])


class _CountedKey:
    """An X25519 private key whose exchanges a counter sees."""

    def __init__(self, counter: "KeyAgreements", key: X25519PrivateKey):
        self._counter = counter
        self._key = key

    def exchange(self, peer):
        self._counter.exchanges += 1
        return self._key.exchange(peer)

    def public_key(self):
        return self._key.public_key()


class KeyAgreements:
    """Counts the ephemeral keys ``expunge.crypto`` makes and every exchange."""

    def __init__(self):
        self.generated = 0
        self.exchanges = 0

    def generate(self) -> _CountedKey:
        self.generated += 1
        return _CountedKey(self, X25519PrivateKey.generate())

    def watch(self, key: X25519PrivateKey) -> _CountedKey:
        """``key`` as a recipient whose exchanges count."""
        return _CountedKey(self, key)


@pytest.fixture()
def agreements(monkeypatch) -> KeyAgreements:
    counter = KeyAgreements()
    monkeypatch.setattr(crypto, "X25519PrivateKey", counter)
    return counter
