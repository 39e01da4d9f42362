import itertools
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from expunge.accumulator import setup
from expunge.attestation import verify_bundle
from expunge.cloud import AttestationBundle, CloudStore, Transition
from expunge.control import (
    SEALED_ACCESSIBLE,
    MetaDataRow,
    SensorDataRow,
    build_outsource_payload,
    epoch_timestamp,
    irrecoverable_tag,
    open_seal,
    reading_digest,
)
from expunge.core import (
    NEVER,
    DataState,
    EpochWindow,
    RetentionPolicy,
    SensorReading,
    deletion_due,
    verification_expiry,
    window_for_id,
)
from expunge.encoding import EncodingError
from expunge.engine import cell_geometry
from expunge.errors import (
    DataExpiredError,
    DomainError,
    DuplicateEpochError,
    InconsistentRowsError,
    NotAuthorizedError,
    UnavailableError,
)
from expunge.harness import LazyCloudStore

SP = b"sp-main"
FIG2_POLICY = RetentionPolicy(p_del=2, p_ver=4, delta=1)
DELTA10_POLICY = RetentionPolicy(p_del=2, p_ver=4, delta=10)


def _reading(t, device=b"\x02abcde", payload=b"snmp-load"):
    return SensorReading(device_id=device, time=t, payload=payload)


def _chain(keyring, params, windows, per_epoch=2):
    """Outsourcing rows for `windows`, timestamps chained from the seed."""
    prev = params.seed
    rows = []
    for window in windows:
        readings = [
            _reading(window.bt, device=bytes([0x02, i]) + b"dev%d" % (i % 10))
            for i in range(per_epoch)
        ]
        sensor, meta = build_outsource_payload(window, readings, prev, keyring, params)
        prev = sensor.crypto_time
        rows.append((sensor, meta))
    return rows


def _ingest_epochs(store, keyring, params, count, delta=1, origin=1, per_epoch=2):
    """Build and ingest `count` consecutive epochs; returns shadow copies."""
    windows = [EpochWindow(origin + k * delta, origin + (k + 1) * delta) for k in range(count)]
    shadows = {}
    for sensor, meta in _chain(keyring, params, windows, per_epoch):
        store.ingest(sensor, meta)
        shadows[sensor.epoch_id] = sensor.ciphertexts
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

    def test_overlapping_window_rejected(self, keyring, tiny_params):
        store = CloudStore(DELTA10_POLICY)
        (s1, m1), (s2, m2) = _chain(
            keyring, tiny_params, [EpochWindow(0, 10), EpochWindow(5, 15)]
        )
        store.ingest(s1, m1)
        with pytest.raises(DomainError, match="inside epoch 0"):
            store.ingest(s2, m2)
        assert store.epoch_ids() == [0]

    @pytest.mark.parametrize("window", [EpochWindow(0, 20), EpochWindow(0, 5)])
    def test_window_not_one_delta_long_rejected(self, keyring, tiny_params, window):
        # the store would schedule and serve by this window, the verifier by delta
        store = CloudStore(DELTA10_POLICY)
        ((sensor, meta),) = _chain(keyring, tiny_params, [window])
        with pytest.raises(InconsistentRowsError, match="not delta 10"):
            store.ingest(sensor, meta)
        assert store.epoch_ids() == []


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

    def test_one_tick_deletes_and_purges_an_overdue_epoch(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2)
        assert [(t.epoch_id, t.to_state) for t in store.tick(7)] == [
            (1, DataState.IRRECOVERABLE),
            (1, DataState.PURGED),
            (2, DataState.IRRECOVERABLE),
            (2, DataState.PURGED),
        ]

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
        ah = open_seal(
            keyring.shared_key, SEALED_ACCESSIBLE, bundle.epoch_id, bundle.enc_state_tag
        )
        assert len(ah) == 32

    def test_bundle_irrecoverable_serves_stored_proof(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        shadows = _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(4)
        bundle = store.fetch_bundle(1, now=4)
        assert bundle.state is DataState.IRRECOVERABLE
        assert bundle.ciphertexts is None
        assert bundle.deletion_proof.proof == irrecoverable_tag(shadows[1], 1)
        assert bundle.deletion_proof.cell_size == cell_geometry(shadows[1])[1]

    def test_irrecoverable_bundle_and_segment_carry_no_cells(self, tmp_path, tiny_params):
        # 2^12 cells of 1 KiB: 4 MiB of overwritten cells, 128 KiB of digests
        rng = random.Random(12)
        cts = tuple(rng.randbytes(1020) for _ in range(2**12))
        digests = tuple(reading_digest(b"dev", 1, i) for i in range(1, len(cts) + 1))
        sensor = SensorDataRow(
            epoch_id=1,
            digests=digests,
            crypto_time=epoch_timestamp(tiny_params.seed, digests, tiny_params),
            ciphertexts=cts,
        )
        meta = MetaDataRow(1, 1, 2, b"sealed-time", b"sealed-ah", b"sealed-irh")
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        store.ingest(sensor, meta)
        store.tick(4)
        bundle = store.fetch_bundle(1, now=4)
        assert len(bundle.to_bytes()) < 200 << 10
        assert (tmp_path / "segments" / f"{1:016d}.seg").stat().st_size < 200 << 10
        assert bundle.deletion_proof.cell_size == 1024

    def test_bundle_by_contained_time(self, keyring, tiny_params):
        store = CloudStore(DELTA10_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2, delta=10, origin=0)
        assert store.fetch_bundle(13, now=20).epoch_id == 10

    def test_bundle_by_contained_time_among_many_epochs(self, keyring, tiny_params):
        store = CloudStore(DELTA10_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 40, delta=10, origin=0, per_epoch=1)
        for at in (0, 9, 10, 137, 255, 399):
            assert store.fetch_bundle(at, now=400).epoch_id == at // 10 * 10

    def test_bundle_between_windows_unavailable(self, keyring, tiny_params):
        store = CloudStore(DELTA10_POLICY)
        for sensor, meta in _chain(
            keyring, tiny_params, [EpochWindow(10, 20), EpochWindow(30, 40)]
        ):
            store.ingest(sensor, meta)
        assert store.fetch_bundle(35, now=40).epoch_id == 30
        for at in (5, 20, 25, 29, 40, 99):
            with pytest.raises(UnavailableError):
                store.fetch_bundle(at, now=40)

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


def _tear_writes(monkeypatch):
    """Make every ``Path.write_bytes`` write half of its data, then raise."""
    write_bytes = Path.write_bytes

    def torn(path, data):
        write_bytes(path, data[: len(data) // 2])
        raise OSError("crash mid-write")

    monkeypatch.setattr(Path, "write_bytes", torn)


class TestPersistence:
    def test_store_reloads_from_disk(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path / "cloud", sp_allowlist=frozenset({SP}))
        shadows = _ingest_epochs(store, keyring, tiny_params, 3)
        store.tick(4)

        reloaded = CloudStore(FIG2_POLICY, root=tmp_path / "cloud")
        assert reloaded.epoch_ids() == [1, 2, 3]
        assert reloaded.state_of(1) is DataState.IRRECOVERABLE
        assert reloaded.state_of(2) is DataState.ACCESSIBLE
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
        bundle = reloaded.fetch_bundle(5, now=6)
        assert not bundle.first_epoch and bundle.prev_crypto_time == tip

    def test_purge_leaves_tombstone(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path / "cloud")
        _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(6)
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path / "cloud")
        record = reloaded.record(1)
        assert record.state is DataState.PURGED
        assert record.ciphertexts is None and record.deletion_proof is None
        assert [s for s, _ in record.state_history] == [
            DataState.ACCESSIBLE,
            DataState.IRRECOVERABLE,
            DataState.PURGED,
        ]


    def test_reload_ignores_leftover_temp_files(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 2)
        store.tick(4)
        saved = [store.record(eid).to_bytes() for eid in store.epoch_ids()]
        # a crash after part of the next writes, before they replaced anything
        segment = tmp_path / "segments" / f"{2:016d}.seg"
        segment.with_name(segment.name + ".tmp").write_bytes(segment.read_bytes()[:9])

        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        assert [reloaded.record(eid).to_bytes() for eid in reloaded.epoch_ids()] == saved
        assert reloaded.last_tick == 4
        assert [(t.epoch_id, t.to_state) for t in reloaded.tick(5)] == [
            (2, DataState.IRRECOVERABLE)
        ]
        assert sorted(tmp_path.rglob("*.tmp")) == []

    def test_interrupted_write_keeps_the_previous_segment(
        self, tmp_path, keyring, tiny_params, monkeypatch
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 1)
        _tear_writes(monkeypatch)
        assert store.tick(4) == []
        monkeypatch.undo()
        # memory was not changed ahead of the disk: the expunge is retried
        assert store.state_of(1) is DataState.ACCESSIBLE
        assert store.record(1).ciphertexts is not None
        assert _snapshot(CloudStore(FIG2_POLICY, root=tmp_path)) == _snapshot(store)
        assert [(t.epoch_id, t.to_state) for t in store.tick(5)] == [
            (1, DataState.IRRECOVERABLE)
        ]
        assert _snapshot(CloudStore(FIG2_POLICY, root=tmp_path)) == _snapshot(store)

    def test_interrupted_ingest_write_is_retried(
        self, tmp_path, keyring, tiny_params, monkeypatch
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        (sensor, meta), = _chain(keyring, tiny_params, [EpochWindow(1, 2)])
        _tear_writes(monkeypatch)
        with pytest.raises(OSError):
            store.ingest(sensor, meta)
        monkeypatch.undo()
        assert store.epoch_ids() == []
        store.ingest(sensor, meta)
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        assert _snapshot(reloaded) == _snapshot(store)

    def test_interrupted_purge_write_is_retried(self, tmp_path, keyring, tiny_params, monkeypatch):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 1)
        store.tick(4)
        proof = store.record(1).deletion_proof
        _tear_writes(monkeypatch)
        with pytest.raises(OSError):
            store.tick(6)
        monkeypatch.undo()
        assert store.state_of(1) is DataState.IRRECOVERABLE
        assert store.record(1).deletion_proof == proof
        assert _snapshot(CloudStore(FIG2_POLICY, root=tmp_path)) == _snapshot(store)
        assert [(t.epoch_id, t.to_state) for t in store.tick(7)] == [(1, DataState.PURGED)]
        assert _snapshot(CloudStore(FIG2_POLICY, root=tmp_path)) == _snapshot(store)

    def test_each_transition_is_one_file_replace(
        self, tmp_path, keyring, tiny_params, monkeypatch
    ):
        replaced = []
        replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (replaced.append(dst), replace(src, dst))
        )
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        segment = tmp_path / "segments" / f"{1:016d}.seg"
        _ingest_epochs(store, keyring, tiny_params, 1)
        assert replaced == [segment]
        store.tick(4)
        assert replaced == [segment] * 2
        store.tick(6)
        assert replaced == [segment] * 3
        assert sorted(tmp_path.rglob("*")) == [segment.parent, segment]

    def test_segment_is_fsynced_before_and_its_directory_after_the_replace(
        self, tmp_path, keyring, tiny_params, monkeypatch
    ):
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(("fsync", os.fstat(fd).st_ino)), fsync(fd))
        )
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (calls.append(("replace", dst)), replace(src, dst))
        )
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        segment = tmp_path / "segments" / f"{1:016d}.seg"
        transitions = (lambda: _ingest_epochs(store, keyring, tiny_params, 1), lambda: store.tick(4))
        for transition in transitions:
            calls.clear()
            transition()
            # the replace keeps the temporary file's inode under the segment's name
            assert calls == [
                ("fsync", segment.stat().st_ino),
                ("replace", segment),
                ("fsync", segment.parent.stat().st_ino),
            ]

    def test_segment_named_for_another_epoch_fails_closed(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 2)
        segments = tmp_path / "segments"
        (segments / f"{2:016d}.seg").unlink()
        (segments / f"{1:016d}.seg").rename(segments / f"{2:016d}.seg")
        with pytest.raises(EncodingError, match="holds epoch 1"):
            CloudStore(FIG2_POLICY, root=tmp_path)

    def test_stale_index_of_an_older_store_is_ignored(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 2)
        store.tick(4)
        (tmp_path / "index.json").write_text('{"last_tick": 9, "epochs": {"7": "ACCESSIBLE"}}')
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        assert _snapshot(reloaded) == _snapshot(store)
        assert reloaded.epoch_ids() == [1, 2] and reloaded.last_tick == 4
        assert [(t.epoch_id, t.to_state) for t in reloaded.tick(5)] == [
            (2, DataState.IRRECOVERABLE)
        ]

    def test_reloaded_store_refuses_a_tick_before_its_newest_transition(
        self, tmp_path, keyring, tiny_params
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 2)
        assert CloudStore(FIG2_POLICY, root=tmp_path).last_tick is None
        store.tick(5)
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        assert reloaded.last_tick == 5
        with pytest.raises(DomainError, match="backwards"):
            reloaded.tick(4)
        assert reloaded.tick(5) == []

    def test_segment_of_layout_version_1_fails_closed(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 1)
        segment = tmp_path / "segments" / f"{1:016d}.seg"
        blob = bytearray(segment.read_bytes())
        blob[1] = 1  # the header's layout version byte
        segment.write_bytes(bytes(blob))
        with pytest.raises(EncodingError, match="unsupported layout version 1"):
            CloudStore(FIG2_POLICY, root=tmp_path)

    @pytest.mark.parametrize("keep", [0, 1, 40, -1])
    def test_truncated_segment_fails_closed(self, tmp_path, keyring, tiny_params, keep):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 2)
        segment = tmp_path / "segments" / f"{2:016d}.seg"
        segment.write_bytes(segment.read_bytes()[:keep])
        with pytest.raises(EncodingError):
            CloudStore(FIG2_POLICY, root=tmp_path)


    def test_segment_that_sealed_a_full_timestamp_copy_fails_closed(
        self, tmp_path, keyring, tiny_params
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 1)
        segment = tmp_path / "segments" / f"{1:016d}.seg"
        blob = bytearray(segment.read_bytes())
        blob[2] = 0x0F  # the record that flagged the first epoch and sealed its timestamp
        segment.write_bytes(bytes(blob))
        with pytest.raises(EncodingError, match="expected 0x10, got 0x0f"):
            CloudStore(FIG2_POLICY, root=tmp_path)

    def test_segment_of_the_retired_record_type_fails_closed(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 1)
        segment = tmp_path / "segments" / f"{1:016d}.seg"
        blob = bytearray(segment.read_bytes())
        blob[2] = 0x0E  # the type byte of the record that repeated epoch facts
        segment.write_bytes(bytes(blob))
        with pytest.raises(EncodingError, match="type mismatch"):
            CloudStore(FIG2_POLICY, root=tmp_path)


def _verified(store, keyring, params, policy, eid, now):
    bundle = store.fetch_bundle(eid, now=now)
    report = verify_bundle(bundle, keyring.shared_key, params, policy, role="sdp")
    return report.verified and report.state_claimed is store.state_of(eid)


class TestTimestampChain:
    """The previous timestamp is kept once, and every live epoch still verifies."""

    def test_epoch_chained_from_a_purged_tip_verifies(self, keyring, tiny_params):
        policy = RetentionPolicy(p_del=1, p_ver=2, delta=1)
        store = CloudStore(policy)
        ((first, first_meta),) = _chain(keyring, tiny_params, [EpochWindow(0, 1)])
        store.ingest(first, first_meta)
        assert store.tick(10) and store.state_of(0) is DataState.PURGED
        sensor, meta = build_outsource_payload(
            EpochWindow(10, 11), [_reading(10)], first.crypto_time, keyring, tiny_params
        )
        store.ingest(sensor, meta)
        bundle = store.fetch_bundle(10, now=11)
        assert not bundle.first_epoch and bundle.prev_crypto_time == first.crypto_time
        assert _verified(store, keyring, tiny_params, policy, 10, now=11)

    def test_purged_tip_drops_its_timestamp_once_its_successor_is_purged(
        self, tmp_path, keyring, tiny_params
    ):
        # epoch 0 is purged as the tip; epochs 100 and 110 chain after it
        policy = RetentionPolicy(p_del=1, p_ver=2, delta=10)
        store = CloudStore(policy, root=tmp_path)
        windows = [EpochWindow(0, 10), EpochWindow(100, 110), EpochWindow(110, 120)]
        rows = _chain(keyring, tiny_params, windows)
        store.ingest(*rows[0])
        store.tick(50)
        assert store.record(0).crypto_time == rows[0][0].crypto_time
        store.ingest(*rows[1])
        store.tick(130)
        assert store.state_of(100) is DataState.PURGED
        reloaded = CloudStore(policy, root=tmp_path)
        for s in (store, reloaded):
            assert s.record(0).crypto_time is None and s.record(100).crypto_time is not None
        reloaded.ingest(*rows[2])
        assert _verified(reloaded, keyring, tiny_params, policy, 110, now=120)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_chain_with_purged_epochs_verifies_in_both_live_states(
        self, tmp_path, keyring, tiny_params, on_disk
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path if on_disk else None)
        _ingest_epochs(store, keyring, tiny_params, 5)
        checked = set()
        for now in range(5, 9):
            store.tick(now)
            if on_disk:
                store = CloudStore(FIG2_POLICY, root=tmp_path)
            for eid in store.epoch_ids():
                state = store.state_of(eid)
                if state is not DataState.PURGED:
                    assert _verified(store, keyring, tiny_params, FIG2_POLICY, eid, now)
                    checked.add((eid, state))
        # the last tick purged epoch 3 and left 4 and 5 irrecoverable
        assert [store.state_of(eid) for eid in (1, 2, 3)] == [DataState.PURGED] * 3
        live = (DataState.ACCESSIBLE, DataState.IRRECOVERABLE)
        assert set(itertools.product((4, 5), live)) <= checked

    def test_failed_tombstone_write_leaves_the_copy_and_is_retried(
        self, tmp_path, keyring, tiny_params, monkeypatch
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 2)
        store.tick(5)
        original = store.record(1).crypto_time
        write_bytes = Path.write_bytes
        writes = []

        def second_write_fails(path, data):
            writes.append(path)
            if len(writes) == 2:
                raise OSError("disk full")
            write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", second_write_fails)
        with pytest.raises(OSError):
            store.tick(6)
        monkeypatch.undo()
        # the successor's copy landed first; the tombstone never did
        assert [w.name for w in writes] == [f"{2:016d}.seg.tmp", f"{1:016d}.seg.tmp"]
        assert store.state_of(1) is DataState.IRRECOVERABLE
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        assert _snapshot(reloaded) == _snapshot(store)
        for s in (store, reloaded):
            assert s.record(2).prev_crypto_time == original
            assert _verified(s, keyring, tiny_params, FIG2_POLICY, 2, now=6)
        assert [(t.epoch_id, t.to_state) for t in store.tick(6)] == [(1, DataState.PURGED)]
        assert store.record(1).crypto_time is None
        assert _verified(store, keyring, tiny_params, FIG2_POLICY, 2, now=6)

    def test_missing_predecessor_segment_fails_closed(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 3)
        (tmp_path / "segments" / f"{1:016d}.seg").unlink()
        with pytest.raises(EncodingError, match="epoch 2 follows epoch 1, but the segment before"):
            CloudStore(FIG2_POLICY, root=tmp_path)

    @pytest.mark.parametrize("purged", [False, True])
    def test_missing_middle_segment_fails_closed(self, tmp_path, keyring, tiny_params, purged):
        # a purged epoch keeps its tombstone segment, so a gap is never honest
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 3)
        if purged:
            store.tick(7)
            assert store.state_of(2) is DataState.PURGED
        (tmp_path / "segments" / f"{2:016d}.seg").unlink()
        with pytest.raises(EncodingError, match="epoch 3 follows epoch 2, but .* holds epoch 1"):
            CloudStore(FIG2_POLICY, root=tmp_path)

    def test_live_epoch_without_a_previous_timestamp_fails_closed(
        self, tmp_path, keyring, tiny_params
    ):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 3)
        store.tick(6)  # epoch 1 purged: epoch 2 holds the only copy of its timestamp
        assert store.state_of(1) is DataState.PURGED and store.state_of(2) is not DataState.PURGED
        stripped = store.record(2).replaced(prev_crypto_time=None)
        (tmp_path / "segments" / f"{2:016d}.seg").write_bytes(stripped.to_bytes())
        with pytest.raises(EncodingError, match="epoch 2 has no previous timestamp"):
            CloudStore(FIG2_POLICY, root=tmp_path)

    def test_records_name_their_predecessor(self, tmp_path, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY, root=tmp_path)
        _ingest_epochs(store, keyring, tiny_params, 3)
        store.tick(9)  # every epoch purged: the chain still runs through the tombstones
        reloaded = CloudStore(FIG2_POLICY, root=tmp_path)
        assert [reloaded.record(eid).prev_epoch_id for eid in (1, 2, 3)] == [None, 1, 2]
        assert [reloaded.record(eid).first_epoch for eid in (1, 2, 3)] == [True, False, False]


class TestRecordSize:
    """A record keeps each epoch fact once."""

    def test_deleted_record_repeats_no_fact(self, keyring, tiny_params):
        store = CloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2)
        store.tick(5)
        record = store.record(2)
        assert record.state is DataState.IRRECOVERABLE and record.prev_epoch_id == 1
        assert store.state_of(1) is DataState.IRRECOVERABLE
        assert record.prev_crypto_time is None
        assert record.enc_accessible_tag is None

    def test_deleted_epochs_at_2048_bits_store_at_most_585_bytes_each(self, keyring):
        # Each irrecoverable record of two readings after the first is 580
        # bytes: its 263-byte timestamp, the sealed 32-byte anchor of it
        # (65), two digests (72), the sealed irrecoverable tag (65), the
        # deletion proof (60), the state history (22) and 33 bytes of ids
        # and flags, the predecessor's epoch id included (the first record
        # names none and is 572). Sealing a full copy of the timestamp
        # (296) made it 803; repeating the predecessor's timestamp, the
        # metadata row's header and window, the window start and the
        # accessible tag besides made it 1,160.
        params = setup(modulus_bits=2048, rng=random.Random(2048))
        store = CloudStore(RetentionPolicy(p_del=1, p_ver=NEVER, delta=1))
        _ingest_epochs(store, keyring, params, 100, origin=0)
        store.tick(102)
        assert {store.state_of(eid) for eid in store.epoch_ids()} == {DataState.IRRECOVERABLE}
        stored = sum(len(store.record(eid).to_bytes()) for eid in store.epoch_ids())
        assert stored <= 585 * 100


class TestLazyMode:
    def test_lazy_cloud_skips_deletion_but_fabricates_bundles(self, keyring, tiny_params):
        store = LazyCloudStore(FIG2_POLICY)
        shadows = _ingest_epochs(store, keyring, tiny_params, 1)
        assert store.tick(4) == []  # pretends nothing is due
        assert store.state_of(1) is DataState.ACCESSIBLE
        bundle = store.fetch_bundle(1, now=4)
        assert bundle.state is DataState.IRRECOVERABLE
        # the fabricated proof is still the correct value, only late
        assert bundle.deletion_proof.proof == irrecoverable_tag(shadows[1], 1)
        # and the data was never actually overwritten
        assert store.record(1).ciphertexts == shadows[1]

    def test_lazy_ticks_change_no_record(self, keyring, tiny_params):
        # epochs 1-3 fall due for deletion at 4-6 and for purging at 6-8
        store = LazyCloudStore(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 3)
        before = _snapshot(store)
        for now in (3, 4, 5, 7, 8, 20):
            assert store.tick(now) == []
            assert _snapshot(store) == before


class _FullScanStore(CloudStore):
    """Reference scheduler: every tick walks every record in epoch order."""

    def tick(self, now):
        with self._lock:
            if self.last_tick is not None and now < self.last_tick:
                raise DomainError("tick time moved backwards")
            self.last_tick = now
            transitions = []
            for eid in sorted(self._records):
                record = self._records[eid]
                window = window_for_id(eid, record.et - record.epoch_id)
                if record.state is DataState.ACCESSIBLE:
                    if deletion_due(window, self.policy) <= now:
                        try:
                            self._expunge_record(record, now)
                        except Exception:
                            continue
                        record = self._records[eid]
                        transitions.append(
                            Transition(eid, DataState.ACCESSIBLE, DataState.IRRECOVERABLE, now)
                        )
                if record.state is DataState.IRRECOVERABLE:
                    if verification_expiry(window, self.policy) <= now:
                        self._purge_record(record, now)
                        transitions.append(
                            Transition(eid, DataState.IRRECOVERABLE, DataState.PURGED, now)
                        )
            return transitions


_ORACLE_EPOCHS = 8


@pytest.fixture(scope="module")
def oracle_rows(keyring, tiny_params):
    windows = [EpochWindow(k, k + 1) for k in range(1, _ORACLE_EPOCHS + 1)]
    return _chain(keyring, tiny_params, windows, per_epoch=1)


@st.composite
def _policies(draw):
    p_del = draw(st.integers(0, 3))
    p_ver = draw(st.one_of(st.just(NEVER), st.integers(max(p_del, 1), p_del + 3)))
    return RetentionPolicy(p_del=p_del, p_ver=p_ver, delta=1)


@st.composite
def _tick_times(draw):
    """Non-decreasing tick times: small steps and one large jump."""
    steps = draw(st.lists(st.integers(0, 2), max_size=12))
    steps.insert(draw(st.integers(0, len(steps))), draw(st.integers(0, 16)))
    return list(itertools.accumulate(steps, initial=draw(st.integers(0, 3))))


def _arrive(store, rows, count, now):
    """Ingest each of the first `count` epochs once its window has closed."""
    known = set(store.epoch_ids())
    for sensor, meta in rows[:count]:
        if meta.et <= now and sensor.epoch_id not in known:
            store.ingest(sensor, meta)


def _snapshot(store):
    return [store.record(eid).to_bytes() for eid in store.epoch_ids()]


_SCHEDULES = dict(
    count=st.integers(1, _ORACLE_EPOCHS),
    policy=_policies(),
    times=_tick_times(),
)


class TestDeadlineSchedule:
    """The deadline heap against the full scan it replaced."""

    @given(**_SCHEDULES)
    @example(count=_ORACLE_EPOCHS, policy=FIG2_POLICY, times=[0, 20])
    @example(count=2, policy=RetentionPolicy(p_del=0, p_ver=1, delta=1), times=[3, 3, 4])
    @settings(max_examples=100, deadline=None)
    def test_heap_matches_full_scan(self, oracle_rows, count, policy, times):
        heap = CloudStore(policy)
        scan = _FullScanStore(policy)
        for now in times:
            _arrive(heap, oracle_rows, count, now)
            _arrive(scan, oracle_rows, count, now)
            assert heap.tick(now) == scan.tick(now)
        assert _snapshot(heap) == _snapshot(scan)

    @pytest.mark.parametrize("store_class", [CloudStore, _FullScanStore])
    def test_failed_expunge_is_retried_next_tick(
        self, keyring, tiny_params, monkeypatch, store_class
    ):
        store = store_class(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2)
        expunge_record = store._expunge_record
        failures = []

        def fails_once(record, now):
            if not failures:
                failures.append(record.epoch_id)
                raise OSError("transient")
            expunge_record(record, now)

        monkeypatch.setattr(store, "_expunge_record", fails_once)
        assert store.tick(4) == []
        assert store.state_of(1) is DataState.ACCESSIBLE
        assert [(t.epoch_id, t.to_state) for t in store.tick(5)] == [
            (1, DataState.IRRECOVERABLE),
            (2, DataState.IRRECOVERABLE),
        ]
        assert failures == [1]

    @pytest.mark.parametrize("store_class", [CloudStore, _FullScanStore])
    def test_epochs_left_by_a_raising_tick_stay_due(
        self, keyring, tiny_params, monkeypatch, store_class
    ):
        store = store_class(FIG2_POLICY)
        _ingest_epochs(store, keyring, tiny_params, 2)
        store.tick(5)
        purge_record = store._purge_record

        def disk_full_once(record, now):
            monkeypatch.setattr(store, "_purge_record", purge_record)
            raise OSError("disk full")

        monkeypatch.setattr(store, "_purge_record", disk_full_once)
        with pytest.raises(OSError):
            store.tick(7)
        assert [(t.epoch_id, t.to_state) for t in store.tick(7)] == [
            (1, DataState.PURGED),
            (2, DataState.PURGED),
        ]

    @given(reload_at=st.integers(0, 14), lazy=st.booleans(), **_SCHEDULES)
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_reloaded_store_schedules_like_one_that_never_reloaded(
        self, tmp_path, oracle_rows, reload_at, count, policy, lazy, times
    ):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        store_class = LazyCloudStore if lazy else CloudStore
        memory = store_class(policy)
        disk = store_class(policy, root=root)
        for position, now in enumerate(times):
            if position == reload_at:
                disk = store_class(policy, root=root)
            _arrive(memory, oracle_rows, count, now)
            _arrive(disk, oracle_rows, count, now)
            assert disk.tick(now) == memory.tick(now)
        assert _snapshot(disk) == _snapshot(memory)


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
