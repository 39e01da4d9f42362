import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expunge.core import (
    NEVER,
    DataState,
    EpochWindow,
    RetentionPolicy,
    SensorReading,
    deletion_due,
    epoch_of,
    state_at,
    verification_expiry,
    window_for_id,
)
from expunge.errors import DomainError
from expunge.harness import ScenarioConfig

FIG2_POLICY = RetentionPolicy(p_del=2, p_ver=4, delta=1)


class TestEpochOf:
    def test_half_open_window(self):
        # t=1.5s with 1s epochs lands in [1, 2)
        w = epoch_of(1500, 1000)
        assert (w.bt, w.et, w.id) == (1000, 2000, 1000)

    def test_origin_boundary_is_first_epoch(self):
        w = epoch_of(0, 250)
        assert w.bt == 0 and w.et == 250

    def test_floor_division_oracle(self):
        # independent oracle: scan all candidate windows
        t, delta = 7999, 2000
        expected = next(
            bt
            for bt in range(0, t + 1, delta)
            if bt <= t < bt + delta
        )
        w = epoch_of(t, delta)
        assert w.bt == expected == 6000
        assert w.et == 8000

    def test_before_origin_rejected(self):
        with pytest.raises(DomainError):
            epoch_of(-1, 1000)

    @given(
        t=st.integers(min_value=0, max_value=10**12),
        delta=st.integers(min_value=1, max_value=10**7),
    )
    def test_tiling(self, t, delta):
        w = epoch_of(t, delta)
        assert w.bt <= t < w.et
        assert w.bt % delta == 0
        # uniqueness: the boundary instant belongs to the later epoch
        assert epoch_of(w.et, delta).bt == w.et


class TestPolicyTimeline:
    def test_deletion_due_reference_values(self):
        assert deletion_due(EpochWindow(1, 2), FIG2_POLICY) == 4
        assert deletion_due(EpochWindow(2, 3), FIG2_POLICY) == 5

    def test_deletion_due_p_del_zero(self):
        policy = RetentionPolicy(p_del=0, p_ver=1, delta=1)
        assert deletion_due(EpochWindow(1, 2), policy) == 2

    def test_verification_expiry_reference_values(self):
        assert verification_expiry(EpochWindow(1, 2), FIG2_POLICY) == 6
        assert verification_expiry(EpochWindow(2, 3), FIG2_POLICY) == 7

    def test_verification_expiry_unbounded(self):
        policy = RetentionPolicy(p_del=2, p_ver=NEVER, delta=1)
        assert verification_expiry(EpochWindow(1, 2), policy) == math.inf

    def test_state_at_reference_points(self):
        t1 = EpochWindow(1, 2)
        assert state_at(t1, FIG2_POLICY, 1) is DataState.ACCESSIBLE
        assert state_at(t1, FIG2_POLICY, 4) is DataState.IRRECOVERABLE
        assert state_at(t1, FIG2_POLICY, 6) is DataState.PURGED

    def test_full_trajectory_replay(self):
        # Delta=1, deletion after 2 epochs, purge after 4: five epochs
        # observed at each instant 1..7.
        expected = {
            1: ["A", "-", "-", "-", "-"],
            2: ["A", "A", "-", "-", "-"],
            3: ["A", "A", "A", "-", "-"],
            4: ["I", "A", "A", "A", "-"],
            5: ["I", "I", "A", "A", "A"],
            6: ["P", "I", "I", "A", "A"],
            7: ["P", "P", "I", "I", "A"],
        }
        letters = {
            DataState.ACCESSIBLE: "A",
            DataState.IRRECOVERABLE: "I",
            DataState.PURGED: "P",
        }
        for now, row in expected.items():
            for k, want in enumerate(row):
                window = EpochWindow(1 + k, 2 + k)
                if want == "-":
                    assert now < window.et  # epoch not closed yet
                    continue
                assert letters[state_at(window, FIG2_POLICY, now)] == want, (
                    f"epoch T_{k + 1} at now={now}"
                )

    @given(
        p_del=st.integers(min_value=0, max_value=5),
        extra=st.integers(min_value=0, max_value=5),
        delta=st.integers(min_value=1, max_value=1000),
        times=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=20),
    )
    def test_state_monotone_in_now(self, p_del, extra, delta, times):
        policy = RetentionPolicy(p_del=p_del, p_ver=p_del + max(extra, 1), delta=delta)
        window = EpochWindow(0, delta)
        states = [state_at(window, policy, now) for now in sorted(times)]
        assert states == sorted(states)

    def test_p_ver_below_p_del_rejected(self):
        with pytest.raises(DomainError):
            RetentionPolicy(p_del=3, p_ver=2, delta=1)


class TestSensorReading:
    def test_validation(self):
        with pytest.raises(DomainError):
            SensorReading(device_id=b"abc", time=0, payload=b"")  # too short
        with pytest.raises(DomainError):
            SensorReading(device_id=b"\x02abcde", time=-1, payload=b"")
        with pytest.raises(DomainError):
            SensorReading(device_id=b"\x02abcde", time=0, payload=b"x" * (64 * 1024 + 1))

    def test_round_trip(self):
        r = SensorReading(device_id=b"\x02\x42beef", time=123456, payload=b"load")
        assert SensorReading.from_bytes(r.to_bytes()) == r

    def test_encode_decode_is_identity_on_bytes(self):
        r = SensorReading(device_id=b"\x02\x42beef", time=7, payload=b"\x00\x01")
        blob = r.to_bytes()
        assert SensorReading.from_bytes(blob).to_bytes() == blob

    def test_payload_difference_changes_encoding(self):
        a = SensorReading(device_id=b"\x02abcde", time=5, payload=b"one")
        b = SensorReading(device_id=b"\x02abcde", time=5, payload=b"two")
        assert a.to_bytes() != b.to_bytes()

    def test_empty_payload_length_from_layout(self):
        # magic+version+type (3) + len prefix (4) + device (6) + time (8)
        # + payload len prefix (4) + payload (0)
        r = SensorReading(device_id=b"\x02abcde", time=0, payload=b"")
        assert len(r.to_bytes()) == 3 + 4 + 6 + 8 + 4

    def test_injectivity_over_random_corpus(self):
        rng = random.Random(1234)
        seen = set()
        count = 10**5
        for _ in range(count):
            r = SensorReading(
                device_id=rng.randbytes(rng.randint(6, 17)),
                time=rng.randrange(0, 2**40),
                payload=rng.randbytes(rng.randint(0, 40)),
            )
            seen.add(r.to_bytes())
        # collisions would shrink the set (duplicate draws are possible but
        # vanishingly unlikely at this payload entropy)
        assert len(seen) == count


def _through_config(policy: RetentionPolicy) -> RetentionPolicy:
    """The policy as a run reads it back: from the scenario config's JSON."""
    config = ScenarioConfig(p_del=policy.p_del, p_ver=policy.p_ver, delta_ms=policy.delta)
    return ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict()))).policy


class TestWindowAndPolicyCodecs:
    def test_window_round_trip(self):
        # a window comes back from its id and from any instant inside it
        w = EpochWindow(5000, 6000)
        assert window_for_id(w.id, w.delta) == epoch_of(5999, 1000) == w
        assert w.delta == 1000

    def test_window_rejects_inverted(self):
        with pytest.raises(DomainError):
            EpochWindow(6, 6)

    def test_policy_round_trip(self):
        p = RetentionPolicy(p_del=2, p_ver=4, delta=3600)
        assert _through_config(p) == p

    def test_policy_round_trip_unbounded(self):
        q = _through_config(RetentionPolicy(p_del=2, p_ver=NEVER, delta=3600))
        assert q.p_ver is NEVER and q.p_del == 2

    def test_window_for_id(self):
        assert window_for_id(7000, 500) == EpochWindow(7000, 7500)
