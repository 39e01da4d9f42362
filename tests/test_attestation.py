import contextlib
import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_strict_decoding import _address_space_cap

from expunge import hashing
from expunge.attestation import (
    calibrate_time_bound,
    recompute_estimate_for_bundle,
    verify_bundle,
    verify_completeness,
    verify_membership,
)
from expunge.accumulator import step
from expunge.cloud import CloudStore
from expunge.control import (
    accessible_tag,
    build_outsource_payload,
    epoch_timestamp,
    reading_digest,
    timestamp_anchor,
)
from expunge.core import DataState, EpochWindow, RetentionPolicy, SensorReading
from expunge.errors import DomainError, IntegrityError

POLICY = RetentionPolicy(p_del=2, p_ver=4, delta=1000)


def _device(i):
    return bytes([0x02, i]) + b"dev" + bytes([i])


def _reading(t, device, payload=b"snmp"):
    return SensorReading(device_id=device, time=t, payload=payload)


@pytest.fixture(scope="module")
def deployment(keyring, small_params):
    """Three epochs ingested; first one expunged."""
    store = CloudStore(POLICY)
    prev = small_params.seed
    plans = [
        [(0, _device(1)), (1, _device(2)), (2, _device(1))],
        [(0, _device(3))],
        [(0, _device(1)), (1, _device(4)), (2, _device(2)), (3, _device(1))],
    ]
    for k, plan in enumerate(plans):
        window = EpochWindow(k * 1000, (k + 1) * 1000)
        readings = [_reading(window.bt + o, device) for o, device in plan]
        sensor, meta = build_outsource_payload(
            window, readings, prev, keyring, small_params
        )
        prev = sensor.crypto_time
        store.ingest(sensor, meta)
    store.tick(3000)  # epoch 0 reaches its deletion time: 1000 + 2*1000
    return store


class TestMembership:
    def test_present_at_one_position(self, deployment):
        bundle = deployment.fetch_bundle(1000, now=3000)
        assert verify_membership(_device(3), bundle) == [1]

    def test_absent_device(self, deployment):
        bundle = deployment.fetch_bundle(1000, now=3000)
        assert verify_membership(_device(9), bundle) == []

    def test_device_at_multiple_positions(self, deployment):
        bundle = deployment.fetch_bundle(2000, now=3000)
        assert verify_membership(_device(1), bundle) == [1, 4]

    def test_no_digest_repeats_across_positions(self, deployment):
        # structural privacy property: position salting keeps digests unique
        for at in (1000, 2000):
            bundle = deployment.fetch_bundle(at, now=3000)
            assert len(set(bundle.digests)) == len(bundle.digests)

    def test_list_of_another_width_is_not_scanned(self, deployment):
        # scanned, 2^20 one-byte digests would cost a 32 MiB expansion
        bundle = dataclasses.replace(
            deployment.fetch_bundle(1000, now=3000), digests=(b"\x00",) * (1 << 20)
        )
        with _address_space_cap(16 << 20):
            assert verify_membership(_device(1), bundle) == []

    @settings(max_examples=60, deadline=None)
    @given(
        epoch_id=st.integers(0, 2**64 - 1),
        device=st.binary(max_size=12),
        count=st.one_of(st.integers(0, 600), st.sampled_from([11, 12, 1563])),
        mix=st.integers(0, 2**32 - 1),
        width=st.sampled_from([32, 32, 32, 16, 33]),
    )
    @example(epoch_id=7, device=b"d", count=0, mix=0, width=32)
    @example(epoch_id=7, device=b"d", count=11, mix=1, width=32)
    @example(epoch_id=2**64 - 1, device=b"", count=12, mix=2, width=32)
    @example(epoch_id=7, device=b"d", count=1563, mix=3, width=32)
    @example(epoch_id=7, device=b"d", count=40, mix=4, width=16)
    @example(epoch_id=7, device=b"d", count=40, mix=5, width=33)
    def test_matches_reading_digest_scan(self, deployment, epoch_id, device, count, mix, width):
        # "shifted" is the device's digest for the next position, "other"
        # another device's at this one; cut or padded to another width, no
        # digest can match. The scan runs on the default expand path (the
        # X9.63 KDF from 11 positions on, where bound) and on hashlib alone.
        rng = random.Random(mix)
        make = {
            "device": lambda p: reading_digest(device, epoch_id, p),
            "shifted": lambda p: reading_digest(device, epoch_id, p + 1),
            "other": lambda p: reading_digest(device + b"\x00", epoch_id, p),
            "random": lambda p: rng.randbytes(32),
        }
        kinds = list(make)
        digests = tuple(
            make[rng.choice(kinds)](p)[:width].ljust(width, b"\x00") for p in range(1, count + 1)
        )
        bundle = dataclasses.replace(
            deployment.fetch_bundle(1000, now=3000), epoch_id=epoch_id, digests=digests
        )
        expected = [
            p for p, d in enumerate(digests, 1) if reading_digest(device, epoch_id, p) == d
        ]
        assert width == 32 or expected == []
        for path in (contextlib.nullcontext(), mock.patch.object(hashing, "_x963kdf", None)):
            with path:
                assert verify_membership(device, bundle) == expected


class TestCompleteness:
    def test_intact_bundle(self, deployment, small_params):
        bundle = deployment.fetch_bundle(2000, now=3000)
        ok, alpha = verify_completeness(bundle, small_params)
        assert ok and alpha == bundle.crypto_time

    def test_first_epoch_verifies_from_seed(self, deployment, small_params):
        bundle = deployment.fetch_bundle(0, now=3000)
        assert bundle.first_epoch
        ok, _ = verify_completeness(bundle, small_params)
        assert ok

    def test_single_removals_always_detected(self, keyring, small_params):
        # tamper harness: 10^3 random single-digest removals
        rng = random.Random(21)
        store = CloudStore(POLICY)
        window = EpochWindow(0, 1000)
        readings = [_reading(i, _device(i % 7)) for i in range(40)]
        sensor, meta = build_outsource_payload(
            window, readings, small_params.seed, keyring, small_params
        )
        store.ingest(sensor, meta)
        bundle = store.fetch_bundle(0, now=500)
        detected = 0
        trials = 10**3
        for _ in range(trials):
            drop = rng.randrange(len(bundle.digests))
            mutated = dataclasses.replace(
                bundle, digests=bundle.digests[:drop] + bundle.digests[drop + 1 :]
            )
            ok, _ = verify_completeness(mutated, small_params)
            detected += not ok
        assert detected == trials


class TestTimestampAnchor:
    """The sealed digest of the timestamp binds the chain the cloud serves."""

    def _completeness(self, bundle, keyring, small_params):
        report = verify_bundle(bundle, keyring.shared_key, small_params, POLICY, role="sdp")
        return report.completeness_ok

    def test_consistent_forged_chain_under_the_old_anchor_fails(
        self, deployment, keyring, small_params
    ):
        # a cloud prunes a digest and forges a predecessor and a timestamp
        # that replay: only the sealed anchor, left as it was, disagrees
        bundle = deployment.fetch_bundle(2000, now=3000)
        assert self._completeness(bundle, keyring, small_params)
        digests = bundle.digests[1:]
        prev = step(small_params.seed, reading_digest(b"forged", 1000, 1), small_params)
        forged = dataclasses.replace(
            bundle,
            digests=digests,
            prev_crypto_time=prev,
            crypto_time=epoch_timestamp(prev, digests, small_params),
        )
        assert verify_completeness(forged, small_params) == (True, forged.crypto_time)
        assert not self._completeness(forged, keyring, small_params)

    def test_another_epochs_sealed_anchor_fails(self, deployment, keyring, small_params):
        # each seal is bound to its epoch: another epoch's does not open
        bundle = deployment.fetch_bundle(2000, now=3000)
        other = deployment.fetch_bundle(1000, now=3000)
        assert self._completeness(bundle, keyring, small_params)
        swapped = dataclasses.replace(bundle, enc_crypto_time=other.enc_crypto_time)
        assert verify_completeness(swapped, small_params)[0]
        with pytest.raises(IntegrityError):
            self._completeness(swapped, keyring, small_params)

    def test_sealed_anchor_served_as_the_accessible_tag_fails(
        self, deployment, keyring, small_params
    ):
        # the anchor and the accessible tag are both sealed 32-byte digests:
        # served as the tag, the anchor would match a "ciphertext" that is
        # the cleartext timestamp record, but it does not open as a tag
        bundle = deployment.fetch_bundle(2000, now=3000)
        fake = (bundle.crypto_time.to_bytes(),)
        assert accessible_tag(fake) == timestamp_anchor(bundle.crypto_time)
        swapped = dataclasses.replace(
            bundle, enc_state_tag=bundle.enc_crypto_time, ciphertexts=fake
        )
        with pytest.raises(IntegrityError):
            verify_bundle(swapped, keyring.shared_key, small_params, POLICY)

    def test_sealed_anchor_served_as_the_irrecoverable_tag_fails(
        self, deployment, keyring, small_params
    ):
        bundle = deployment.fetch_bundle(0, now=3000)
        assert bundle.state is DataState.IRRECOVERABLE
        swapped = dataclasses.replace(
            bundle,
            enc_state_tag=bundle.enc_crypto_time,
            deletion_proof=dataclasses.replace(
                bundle.deletion_proof, proof=timestamp_anchor(bundle.crypto_time)
            ),
        )
        with pytest.raises(IntegrityError):
            verify_bundle(swapped, keyring.shared_key, small_params, POLICY, role="sdp")


class TestAccessiblePath:
    def test_honest_bundle(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(1000, now=3000)
        report = verify_bundle(bundle, keyring.shared_key, small_params, POLICY)
        assert report.state_ok and report.verified

    def test_bit_flipped_ciphertext(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(1000, now=3000)
        ct = bundle.ciphertexts[0]
        mutated = dataclasses.replace(
            bundle, ciphertexts=(bytes([ct[0] ^ 1]) + ct[1:],) + bundle.ciphertexts[1:]
        )
        report = verify_bundle(mutated, keyring.shared_key, small_params, POLICY)
        assert not report.state_ok

    def test_tampered_tag_is_integrity_error_not_mismatch(
        self, deployment, keyring, small_params
    ):
        bundle = deployment.fetch_bundle(1000, now=3000)
        tag = bundle.enc_state_tag
        broken = dataclasses.replace(bundle, enc_state_tag=tag[:-1] + bytes([tag[-1] ^ 0x01]))
        with pytest.raises(IntegrityError):
            verify_bundle(broken, keyring.shared_key, small_params, POLICY)

    def test_stale_accessible_claim_is_policy_violation(self, keyring, small_params):
        # cloud's scheduler lags: it serves an accessible-state bundle for
        # an epoch that should already be deleted; hashes match, policy no
        store = CloudStore(POLICY)
        window = EpochWindow(0, 1000)
        sensor, meta = build_outsource_payload(
            window, [_reading(0, _device(1))], small_params.seed, keyring, small_params
        )
        store.ingest(sensor, meta)
        bundle = store.fetch_bundle(0, now=5000)  # no tick has run
        assert bundle.state is DataState.ACCESSIBLE
        report = verify_bundle(bundle, keyring.shared_key, small_params, POLICY)
        assert report.tag_match and not report.policy_ok
        assert not report.verified


class TestIrrecoverablePath:
    def test_honest_pre_deleted_epoch(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(0, now=3000)
        assert bundle.state is DataState.IRRECOVERABLE
        report = verify_bundle(
            bundle, keyring.shared_key, small_params, POLICY,
            time_bound=0.5, response_time=0.001,
        )
        assert report.verified and report.time_bound_ok

    def test_wrong_proof_value(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(0, now=3000)
        bad = dataclasses.replace(
            bundle,
            deletion_proof=dataclasses.replace(
                bundle.deletion_proof, proof=bytes(32)
            ),
        )
        report = verify_bundle(
            bad, keyring.shared_key, small_params, POLICY,
            time_bound=0.5, response_time=0.001,
        )
        assert not report.state_ok and not report.verified

    def test_slow_response_flagged(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(0, now=3000)
        report = verify_bundle(
            bundle, keyring.shared_key, small_params, POLICY,
            time_bound=0.01, response_time=0.5,
        )
        assert report.time_bound_ok is False
        assert not report.verified

    def test_small_epoch_bound_not_applicable(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(0, now=3000)
        report = verify_bundle(
            bundle, keyring.shared_key, small_params, POLICY,
            time_bound=0.01, response_time=0.5, time_bound_applicable=False,
        )
        assert report.time_bound_ok is None
        assert report.verified  # bound does not apply; other checks decide

    def test_missing_proof_is_protocol_error(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(0, now=3000)
        broken = dataclasses.replace(bundle, deletion_proof=None)
        with pytest.raises(DomainError):
            verify_bundle(
                broken, keyring.shared_key, small_params, POLICY,
                time_bound=0.5, response_time=0.001,
            )

    @pytest.mark.parametrize("ciphertexts", [(b"kept-1", b"kept-2"), ()], ids=["kept", "empty"])
    def test_claim_that_still_carries_ciphertexts_is_protocol_error(
        self, deployment, keyring, small_params, ciphertexts
    ):
        # the proof is genuine, but a deleted epoch serves no ciphertexts
        bundle = deployment.fetch_bundle(0, now=3000)
        assert bundle.ciphertexts is None
        kept = dataclasses.replace(bundle, ciphertexts=ciphertexts)
        with pytest.raises(DomainError, match="still carries ciphertexts"):
            verify_bundle(
                kept, keyring.shared_key, small_params, POLICY,
                time_bound=0.5, response_time=0.001,
            )


class TestSdpPath:
    def test_verifies_epoch_without_own_probes(self, deployment, keyring, small_params):
        bundle = deployment.fetch_bundle(1000, now=3000)
        report = verify_bundle(bundle, keyring.shared_key, small_params, POLICY, role="sdp")
        assert report.verified and report.membership_positions is None

    def test_matches_user_verdict_on_identical_bundle(
        self, deployment, keyring, small_params
    ):
        bundle = deployment.fetch_bundle(2000, now=3000)
        user = verify_bundle(
            bundle, keyring.shared_key, small_params, POLICY,
            role="user", device_id=_device(1),
        )
        sdp = verify_bundle(bundle, keyring.shared_key, small_params, POLICY, role="sdp")
        assert user.verified == sdp.verified
        assert user.completeness_ok == sdp.completeness_ok
        assert user.state_ok == sdp.state_ok

    def test_range_verification_is_per_epoch_conjunction(
        self, deployment, keyring, small_params
    ):
        reports = [
            verify_bundle(
                deployment.fetch_bundle(at, now=3000),
                keyring.shared_key,
                small_params,
                POLICY,
                role="sdp",
            )
            for at in (0, 1000, 2000)
        ]
        assert all(r.verified for r in reports)


class TestTimeBoundCalibration:
    def test_threshold_rule(self):
        tau, applicable = calibrate_time_bound(round_trip=0.01, recompute_estimate=1.0)
        assert tau == pytest.approx(0.1)  # estimate/10 dominates
        assert applicable
        tau, applicable = calibrate_time_bound(round_trip=0.01, recompute_estimate=0.05)
        assert tau == pytest.approx(0.02)  # 2x round trip dominates
        assert applicable
        _, applicable = calibrate_time_bound(round_trip=0.01, recompute_estimate=0.03)
        assert not applicable  # below the 4x floor

    def test_estimate_for_bundle_positive(self, deployment):
        for at in (0, 1000):
            bundle = deployment.fetch_bundle(at, now=3000)
            assert recompute_estimate_for_bundle(bundle) > 0

    @pytest.mark.parametrize("count", [0, 1, 3, 5])
    def test_estimate_is_the_same_in_both_states(self, keyring, tiny_params, count):
        store = CloudStore(POLICY)
        window = EpochWindow(0, 1000)
        readings = [_reading(o, _device(o), payload=b"x" * o) for o in range(count)]
        store.ingest(
            *build_outsource_payload(window, readings, tiny_params.seed, keyring, tiny_params)
        )
        accessible = store.fetch_bundle(0, now=1000)
        store.tick(3000)
        irrecoverable = store.fetch_bundle(0, now=3000)
        assert irrecoverable.state is DataState.IRRECOVERABLE
        assert recompute_estimate_for_bundle(irrecoverable) == recompute_estimate_for_bundle(
            accessible
        )


class TestMinimality:
    def test_one_epoch_bundle_much_smaller_than_dataset(self, deployment):
        sizes = [
            len(deployment.fetch_bundle(at, now=3000).to_bytes())
            for at in (0, 1000, 2000)
        ]
        total = sum(sizes)
        for size in sizes:
            assert size < total  # each request moves one epoch, not the dataset
        # and bundles carry exactly the requested epoch's digest count
        assert len(deployment.fetch_bundle(1000, now=3000).digests) == 1
