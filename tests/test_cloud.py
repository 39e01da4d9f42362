import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expunge.cloud import AttestationBundle, CloudStore
from expunge.control import build_outsource_payload, irrecoverable_tag
from expunge.core import NEVER, DataState, EpochWindow, RetentionPolicy, SensorReading
from expunge.crypto import symmetric_decrypt
from expunge.engine import expunge
from expunge.errors import (
    DataExpiredError,
    DomainError,
    DuplicateEpochError,
    NotAuthorizedError,
    UnavailableError,
)

SP = b"sp-main"
FIG2_POLICY = RetentionPolicy(p_del=2, p_ver=4, delta=1)


def _reading(t, device=b"\x02abcde", payload=b"snmp-load"):
    return SensorReading(device_id=device, time=t, payload=payload)


def _ingest_epochs(store, keyring, params, count, delta=1, origin=1, per_epoch=2):
    """Build and ingest `count` consecutive epochs; returns shadow copies."""
    prev = params.seed
    shadows = {}
    for k in range(count):
        window = EpochWindow(origin + k * delta, origin + (k + 1) * delta)
        readings = (
            [_reading(window.bt, device=bytes([0x02, i]) + b"dev%d" % (i % 10)) for i in range(per_epoch)]
            if per_epoch
            else []
        )
        sensor, meta = build_outsource_payload(window, readings, prev, keyring, params)
        prev = sensor.crypto_time
        store.ingest(sensor, meta)
        shadows[window.id] = sensor.ciphertexts
    return shadows


class TestIngest:
    def test_fresh_epoch_stored_accessible(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, sp_allowlist=frozenset({SP}))
        _ingest_epochs(store, keyring, tiny_params, 1)
        assert store.state_of(1) is DataState.ACCESSIBLE

    def test_duplicate_epoch_rejected(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        window = EpochWindow(1, 2)
        sensor, meta = build_outsource_payload(
            window, [_reading(1)], tiny_params.seed, keyring, tiny_params
        )
        store.ingest(sensor, meta)
        with pytest.raises(DuplicateEpochError):
            store.ingest(sensor, meta)

    def test_out_of_order_epoch_rejected(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        w2 = EpochWindow(2, 3)
        s2, m2 = build_outsource_payload(
            w2, [_reading(2)], tiny_params.seed, keyring, tiny_params
        )
        store.ingest(s2, m2)
        w1 = EpochWindow(1, 2)
        s1, m1 = build_outsource_payload(
            w1, [_reading(1)], tiny_params.seed, keyring, tiny_params
        )
        with pytest.raises(DomainError):
            store.ingest(s1, m1)


class TestScheduler:
    def test_reference_timeline_replay(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 5)
        t4 = store.tick(4)
        assert [(t.epoch_id, t.to_state) for t in t4] == [(1, DataState.IRRECOVERABLE)]
        t5 = store.tick(5)
        assert [(t.epoch_id, t.to_state) for t in t5] == [(2, DataState.IRRECOVERABLE)]
        t6 = store.tick(6)
        assert (1, DataState.IRRECOVERABLE, DataState.PURGED) in [
            (t.epoch_id, t.from_state, t.to_state) for t in t6
        ]
        assert store.state_of(1) is DataState.PURGED
        assert store.state_of(2) is DataState.IRRECOVERABLE

    def test_tick_before_due_time_is_empty(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2)
        assert store.tick(3) == []

    def test_unbounded_verification_never_purges(self, keyring, tiny_params):
        policy = RetentionPolicy(p_del=1, p_ver=NEVER, delta=1)
        store = CloudStore(policy)
        _ingest_epochs(store, keyring, tiny_params, 1)
        for now in range(2, 1002):
            for transition in store.tick(now):
                assert transition.to_state is not DataState.PURGED
        assert store.state_of(1) is DataState.IRRECOVERABLE

    def test_tick_must_be_monotone(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        store.tick(5)
        with pytest.raises(DomainError):
            store.tick(4)

    def test_stored_proof_matches_shadow_recompute(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        shadows = _ingest_epochs(store, keyring, tiny_params, 3, per_epoch=4)
        store.tick(5)
        for eid in (1, 2):
            record = store.record(eid)
            assert record.state is DataState.IRRECOVERABLE
            assert record.deletion_proof.proof == irrecoverable_tag(shadows[eid], eid)
            assert record.ciphertexts is None

    @given(ticks=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_state_machine_never_reverses(self, keyring, tiny_params, ticks):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 3, per_epoch=1)
        seen = {eid: [store.state_of(eid)] for eid in store.epoch_ids()}
        for now in sorted(ticks):
            store.tick(now)
            for eid in store.epoch_ids():
                seen[eid].append(store.state_of(eid))
        for states in seen.values():
            assert states == sorted(states)


class TestServingPaths:
    def test_fetch_for_sp_accessible(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, sp_allowlist=frozenset({SP}))
        shadows = _ingest_epochs(store, keyring, tiny_params, 1)
        assert store.fetch_for_sp(1, SP, now=2) == shadows[1]

    def test_fetch_for_sp_after_deletion_is_expired(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, sp_allowlist=frozenset({SP}))
        _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(4)
        with pytest.raises(DataExpiredError):
            store.fetch_for_sp(1, SP, now=4)

    def test_fetch_for_sp_rechecks_policy_when_scheduler_lags(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, sp_allowlist=frozenset({SP}))
        _ingest_epochs(store, keyring, tiny_params, 1)
        # no tick has run; state is still nominally accessible
        assert store.state_of(1) is DataState.ACCESSIBLE
        with pytest.raises(DataExpiredError):
            store.fetch_for_sp(1, SP, now=10)

    def test_fetch_for_sp_unlisted_requester(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, sp_allowlist=frozenset({SP}))
        _ingest_epochs(store, keyring, tiny_params, 1)
        with pytest.raises(NotAuthorizedError):
            store.fetch_for_sp(1, b"sp-rogue", now=1)

    def test_bundle_accessible_has_tag_and_no_proof(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 1)
        bundle = store.fetch_bundle(1, now=2)
        assert bundle.state is DataState.ACCESSIBLE
        assert bundle.deletion_proof is None
        assert bundle.ciphertexts is not None
        ah = symmetric_decrypt(keyring.shared_key, bundle.enc_state_tag)
        assert len(ah) == 32

    def test_bundle_irrecoverable_serves_stored_proof(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        shadows = _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(4)
        bundle = store.fetch_bundle(1, now=4)
        assert bundle.state is DataState.IRRECOVERABLE
        assert bundle.ciphertexts is None and bundle.cells is not None
        assert bundle.deletion_proof.proof == irrecoverable_tag(shadows[1], 1)

    def test_bundle_by_contained_time(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2, delta=10, origin=0)
        assert store.fetch_bundle(13, now=20).epoch_id == 10

    def test_bundle_purged_unavailable(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(6)
        with pytest.raises(UnavailableError):
            store.fetch_bundle(1, now=6)

    def test_bundle_unknown_epoch_unavailable(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        with pytest.raises(UnavailableError):
            store.fetch_bundle(1, now=1)

    def test_bundle_round_trip(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2)
        store.tick(4)
        for at, now in ((1, 4), (2, 4)):
            bundle = store.fetch_bundle(at, now=now)
            assert AttestationBundle.from_bytes(bundle.to_bytes()) == bundle


class TestPersistence:
    def test_store_reloads_from_disk(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path / "cloud", sp_allowlist=frozenset({SP}))
        shadows = _ingest_epochs(store, keyring, tiny_params, 3)
        store.tick(4)

        reloaded = CloudStore(FIG2_POLICY, root=tmp_path / "cloud")
        assert reloaded.epoch_ids() == [1, 2, 3]
        assert reloaded.state_of(1) is DataState.IRRECOVERABLE
        assert reloaded.state_of(2) is DataState.ACCESSIBLE
        assert reloaded.sp_allowlist == frozenset({SP})
        assert reloaded.record(1).deletion_proof.proof == irrecoverable_tag(shadows[1], 1)
        # serving still works after reload
        bundle = reloaded.fetch_bundle(1, now=4)
        assert bundle.state is DataState.IRRECOVERABLE

    def test_reloaded_store_keeps_the_chain_tip(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 3, origin=2)
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        tip = reloaded.record(4).crypto_time

        early, early_meta = build_outsource_payload(
            EpochWindow(1, 2), [_reading(1)], tiny_params.seed, keyring, tiny_params
        )
        with pytest.raises(DomainError):
            reloaded.ingest(early, early_meta)

        sensor, meta = build_outsource_payload(
            EpochWindow(5, 6), [_reading(5)], tip, keyring, tiny_params
        )
        reloaded.ingest(sensor, meta)
        record = reloaded.record(5)
        assert not record.first_epoch and record.prev_crypto_time == tip

    def test_purge_leaves_tombstone(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path / "cloud")
        _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(6)
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path / "cloud")
        record = reloaded.record(1)
        assert record.state is DataState.PURGED
        assert record.cells is None and record.deletion_proof is None
        assert [s for s, _ in record.state_history] == [
            DataState.ACCESSIBLE,
            DataState.IRRECOVERABLE,
            DataState.PURGED,
        ]


class TestLazyMode:
    def test_lazy_cloud_skips_deletion_but_fabricates_bundles(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, lazy_deletion=True)
        shadows = _ingest_epochs(store, keyring, tiny_params, 1)
        assert store.tick(4) == []  # pretends nothing is due
        assert store.state_of(1) is DataState.ACCESSIBLE
        bundle = store.fetch_bundle(1, now=4)
        assert bundle.state is DataState.IRRECOVERABLE
        # the fabricated proof is still the correct value, only late
        assert bundle.deletion_proof.proof == irrecoverable_tag(shadows[1], 1)
        # and the data was never actually overwritten
        assert store.record(1).ciphertexts == shadows[1]


class TestChainIntegrity:
    def test_flipped_digest_breaks_links_from_that_epoch_onward(
        self, keyring, small_params
    ):
        from expunge.accumulator import step
        from expunge.control import timestamp_exponent

        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, small_params, 5, per_epoch=3)
        records = [store.record(eid) for eid in store.epoch_ids()]

        def link_ok(i, digests_by_epoch):
            prev = small_params.seed if i == 0 else records[i - 1].crypto_time
            exponent = timestamp_exponent(digests_by_epoch[i])
            return step(prev, exponent, small_params) == records[i].crypto_time

        digests = [list(r.digests) for r in records]
        assert all(link_ok(i, digests) for i in range(5))

        # flip one bit in epoch 3's first digest: links 0..1 still hold,
        # link 2 breaks; later links still verify against stored values
        # because each was computed from the stored (unflipped) chain
        tampered = [list(d) for d in digests]
        tampered[2][0] = bytes([tampered[2][0][0] ^ 1]) + tampered[2][0][1:]
        assert link_ok(0, tampered) and link_ok(1, tampered)
        assert not link_ok(2, tampered)

        # replaying the whole chain from the seed over the tampered digests
        # diverges from the stored timestamps at epoch 3 and never recovers
        replayed = small_params.seed
        for i in range(5):
            replayed = step(replayed, timestamp_exponent(tuple(tampered[i])), small_params)
            assert (replayed == records[i].crypto_time) == (i < 2)
