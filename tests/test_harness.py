import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from expunge import attestation, cloud, harness
from expunge.accumulator import AccumulatorParams
from expunge.attestation import EpochVerifier
from expunge.cli import READINGS_LAYOUT, main
from expunge.cloud import CloudStore, EpochRecord
from expunge.control import build_outsource_payload
from expunge.core import (
    NEVER,
    DataState,
    EpochWindow,
    RetentionPolicy,
    SensorReading,
    deletion_due,
)
from expunge.encoding import EncodingError
from expunge.errors import DomainError, NotAuthorizedError, UnavailableError
from expunge.harness import (
    MS_PER_HOUR,
    LazyCloudStore,
    ScenarioConfig,
    StateDir,
    bench,
    device_pool,
    generate_readings,
    hourly_rate,
    run_scenario,
)
from expunge.querylog import make_query_record
from expunge.wire import CloudService, LoopbackTransport, SocketTransport, serve
from test_querylog import _resealed, _with_flipped_signature


def events(result, kind: str) -> list[dict]:
    return [e for e in result.transcript if e["event"] == kind]


# Six arrival epochs with no drain leaves a mix of all three states:
# epochs 0-1 purged, 2-3 irrecoverable, 4-5 still accessible.
FAST = dict(
    delta_ms=MS_PER_HOUR,
    p_del=2,
    p_ver=4,
    arrival_epochs=6,
    drain_epochs=0,
    day_rate_per_hour=24.0,
    night_rate_per_hour=8.0,
    modulus_bits=512,
    device_count=10,
    user_count=4,
    seed=11,
)


class TestGenerator:
    def test_deterministic_for_seed(self):
        config = ScenarioConfig(**FAST)
        assert generate_readings(config) == generate_readings(config)
        other = ScenarioConfig(**{**FAST, "seed": 12})
        assert generate_readings(other) != generate_readings(config)

    def test_rates_follow_profile(self):
        # one simulated week at a flat-ish profile: aggregate within 5%
        config = ScenarioConfig(
            **{
                **FAST,
                "arrival_epochs": 24 * 7,
                "day_rate_per_hour": 700.0,
                "night_rate_per_hour": 250.0,
            }
        )
        readings = generate_readings(config)
        by_hour: dict[int, int] = {}
        for r in readings:
            by_hour.setdefault(r.time // MS_PER_HOUR, 0)
            by_hour[r.time // MS_PER_HOUR] += 1
        expected = sum(
            hourly_rate(config, h % 24) for h in range(24 * 7)
        )
        total = len(readings)
        assert abs(total - expected) / expected < 0.05
        # day hours busier than night hours
        day = [n for h, n in by_hour.items() if 8 <= h % 24 < 20]
        night = [n for h, n in by_hour.items() if not 8 <= h % 24 < 20]
        assert sum(day) / len(day) > 2 * sum(night) / len(night)

    def test_zero_rate_config_is_empty(self):
        config = ScenarioConfig(
            **{**FAST, "day_rate_per_hour": 0.0, "night_rate_per_hour": 0.0}
        )
        assert generate_readings(config) == []

    def test_devices_from_fixed_pool(self):
        config = ScenarioConfig(**FAST)
        pool = set(device_pool(config))
        assert all(r.device_id in pool for r in generate_readings(config))

    def test_config_round_trip(self, tmp_path):
        config = ScenarioConfig(**{**FAST, "p_ver": NEVER})
        config.save(tmp_path / "c.json")
        loaded = ScenarioConfig.load(tmp_path / "c.json")
        assert loaded == config

    def test_readme_config_table_names_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Scenario config", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        documented = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
        assert sorted(documented) == sorted(f.name for f in fields(ScenarioConfig))

    def test_scenario_coverage_validation(self):
        config = ScenarioConfig(p_ver=9, arrival_epochs=1, drain_epochs=2)
        with pytest.raises(DomainError):
            run_scenario(config)


class TestWire:
    def _store(self, keyring, tiny_params):
        policy = RetentionPolicy(p_del=2, p_ver=4, delta=1000)
        store = CloudStore(policy, sp_allowlist=frozenset({b"sp-main"}))
        window = EpochWindow(0, 1000)
        reading = SensorReading(device_id=b"\x02abcde", time=5, payload=b"x")
        sensor, meta = build_outsource_payload(
            window, [reading], tiny_params.seed, keyring, tiny_params
        )
        return store, sensor, meta

    def test_loopback_round_trip(self, keyring, tiny_params):
        store, sensor, meta = self._store(keyring, tiny_params)
        transport = LoopbackTransport(CloudService(store).handle)
        assert CloudService.ingest_via(transport, sensor, meta) == 0
        cts, elapsed = CloudService.fetch_sp_via(transport, 0, b"sp-main", 500)
        assert cts == sensor.ciphertexts and elapsed > 0
        bundle, _ = CloudService.fetch_bundle_via(transport, 0, 500)
        assert bundle.epoch_id == 0
        transitions = CloudService.tick_via(transport, 3000)
        assert [t.to_state for t in transitions] == [DataState.IRRECOVERABLE]

    def test_loopback_hands_payloads_over_unchanged(self):
        payload = bytes(range(256)) * 64
        response = bytes(1000)
        seen = []

        def handler(msg_type, received):
            seen.append((msg_type, received))
            return 19, response

        transport = LoopbackTransport(handler)
        resp_type, resp_payload, elapsed = transport.request(3, payload)
        assert seen == [(3, payload)] and seen[0][1] is payload
        assert resp_type == 19 and resp_payload is response and elapsed >= 0
        with pytest.raises(EncodingError):
            transport.request(256, payload)
        assert len(seen) == 1

    def test_loopback_error_mapping(self, keyring, tiny_params):
        store, sensor, meta = self._store(keyring, tiny_params)
        transport = LoopbackTransport(CloudService(store).handle)
        CloudService.ingest_via(transport, sensor, meta)
        with pytest.raises(NotAuthorizedError):
            CloudService.fetch_sp_via(transport, 0, b"sp-rogue", 500)
        with pytest.raises(UnavailableError):
            CloudService.fetch_bundle_via(transport, 99999, 500)

    def test_socket_round_trip(self, keyring, tiny_params):
        store, sensor, meta = self._store(keyring, tiny_params)
        server = serve(CloudService(store).handle)
        try:
            transport = SocketTransport("127.0.0.1", server.server_address[1])
            CloudService.ingest_via(transport, sensor, meta)
            bundle, elapsed = CloudService.fetch_bundle_via(transport, 0, 500)
            assert bundle.epoch_id == 0 and elapsed > 0
            transport.close()
        finally:
            server.shutdown()
            server.server_close()


def _verifier_store(keyring, params, store_p_del, *, lazy=False, tick=3000):
    """Three 1 s epochs (0, 1000, 2000) in a store ticked to ``tick``."""
    store = (LazyCloudStore if lazy else CloudStore)(
        RetentionPolicy(p_del=store_p_del, p_ver=4, delta=1000)
    )
    prev = params.seed
    for k, count in enumerate((1, 40, 1)):
        window = EpochWindow(k * 1000, (k + 1) * 1000)
        readings = [
            SensorReading(b"\x02abcde", window.bt + i, b"x" * 50) for i in range(count)
        ]
        sensor, meta = build_outsource_payload(window, readings, prev, keyring, params)
        prev = sensor.crypto_time
        store.ingest(sensor, meta)
    store.tick(tick)
    return store


class TestEpochVerifier:
    """The reference fetch behind the time bound: one rule, no state."""

    @pytest.fixture
    def fetches(self, monkeypatch):
        """Record each ``(at, now)`` the cloud serves, and each proof it computes."""
        seen = {"fetch": [], "expunge": []}
        fetch_bundle, expunge_ciphertexts = CloudStore.fetch_bundle, harness.expunge_ciphertexts

        def recording_fetch(store, at, now):
            seen["fetch"].append((at, now))
            return fetch_bundle(store, at, now)

        def recording_expunge(ciphertexts, epoch_id, now):
            seen["expunge"].append((epoch_id, now))
            return expunge_ciphertexts(ciphertexts, epoch_id, now)

        monkeypatch.setattr(CloudStore, "fetch_bundle", recording_fetch)
        # the honest store's deletions and the lazy store's fabrications
        monkeypatch.setattr(cloud, "expunge_ciphertexts", recording_expunge)
        monkeypatch.setattr(harness, "expunge_ciphertexts", recording_expunge)
        return seen

    @staticmethod
    def verify(store, keyring, params, p_del, at, now):
        policy = RetentionPolicy(p_del=p_del, p_ver=4, delta=1000)
        transport = LoopbackTransport(CloudService(store).handle)
        verifier = EpochVerifier(transport, keyring, params, policy)
        return verifier.verify(at, now, "sdp")

    def test_slow_honest_cloud_not_flagged(self, keyring, tiny_params, monkeypatch):
        # Every fetch sleeps 20 ms, so the reference does too: tau is about
        # 2 * 20 ms, above the judged fetch's 20 ms. A reference that skips
        # bundle assembly would leave tau at estimate / 10 = 10 ms.
        store = _verifier_store(keyring, tiny_params, 0)
        fetch_bundle = CloudStore.fetch_bundle

        def slow_fetch(store, at, now):
            time.sleep(0.02)
            return fetch_bundle(store, at, now)

        monkeypatch.setattr(CloudStore, "fetch_bundle", slow_fetch)
        monkeypatch.setattr(attestation, "expunge_duration_estimate", lambda *args: 0.1)
        report = self.verify(store, keyring, tiny_params, 0, 0, 3000)
        assert report.state_claimed is DataState.IRRECOVERABLE
        assert report.time_bound_ok is not False and report.verified
        assert report.time_bound >= 0.04

    def test_lazy_cloud_slow_to_compute_proof_flagged(self, keyring, tiny_params, monkeypatch):
        store = _verifier_store(keyring, tiny_params, 0, lazy=True)
        expunge_ciphertexts = harness.expunge_ciphertexts

        def slow_expunge(*args):
            time.sleep(0.2)
            return expunge_ciphertexts(*args)

        monkeypatch.setattr(harness, "expunge_ciphertexts", slow_expunge)
        monkeypatch.setattr(attestation, "expunge_duration_estimate", lambda *args: 0.1)
        report = self.verify(store, keyring, tiny_params, 0, 0, 3000)
        assert report.state_claimed is DataState.IRRECOVERABLE
        assert report.time_bound_ok is False and not report.verified

    def test_back_dated_claim_is_judged_on_the_verifiers_clock(
        self, keyring, tiny_params, monkeypatch
    ):
        # A cloud that never deleted serves a due epoch's kept data as
        # accessible, stating the epoch's begin as the instant it served it.
        def back_dated(store, at, now):
            return CloudStore.fetch_bundle(store, at, at)

        store = _verifier_store(keyring, tiny_params, 0, lazy=True)
        monkeypatch.setattr(LazyCloudStore, "fetch_bundle", back_dated)
        report = self.verify(store, keyring, tiny_params, 0, 0, 3000)
        assert report.state_claimed is DataState.ACCESSIBLE and report.tag_match
        assert not report.policy_ok and not report.verified

    @pytest.mark.parametrize("lazy", [False, True], ids=["honest", "lazy"])
    @pytest.mark.parametrize("p_del", [0, 1])
    def test_reference_fetch_computes_no_proof(self, keyring, tiny_params, fetches, lazy, p_del):
        store = _verifier_store(keyring, tiny_params, p_del, lazy=lazy)
        fetches["expunge"].clear()  # the honest store's scheduled deletions
        report = self.verify(store, keyring, tiny_params, p_del, 0, 3000)
        assert report.state_claimed is DataState.IRRECOVERABLE
        assert len(fetches["fetch"]) == 2
        # only the lazy cloud's judged fetch computes a proof, at the judged `now`
        assert fetches["expunge"] == ([(0, 3000)] if lazy else [])

    def test_p_del_zero_reference_is_the_epoch_at_its_begin(self, keyring, tiny_params, fetches):
        store = _verifier_store(keyring, tiny_params, 0)
        self.verify(store, keyring, tiny_params, 0, 1500, 3000)
        assert fetches["fetch"] == [(1500, 3000), (1000, 1000)]

    def test_reference_is_the_newest_closed_epoch(self, keyring, tiny_params, fetches):
        store = _verifier_store(keyring, tiny_params, 1)  # epochs 0, 1000 deleted
        report = self.verify(store, keyring, tiny_params, 1, 0, 3000)
        assert fetches["fetch"] == [(0, 3000), (2000, 3000)]
        assert report.verified

    def test_reference_falls_back_when_newest_epoch_never_ingested(
        self, keyring, tiny_params, fetches
    ):
        store = _verifier_store(keyring, tiny_params, 1, tick=4000)  # all deleted
        self.verify(store, keyring, tiny_params, 1, 1000, 4000)
        assert fetches["fetch"] == [(1000, 4000), (3000, 4000), (1000, 1000)]

    def test_reference_falls_back_when_newest_epoch_not_accessible(
        self, keyring, tiny_params, fetches
    ):
        # a store that deletes ahead of the verifier's policy serves
        # epoch 2000 irrecoverable at 3000
        store = _verifier_store(keyring, tiny_params, 0)
        self.verify(store, keyring, tiny_params, 1, 0, 3000)
        assert fetches["fetch"] == [(0, 3000), (2000, 3000), (0, 0)]


@pytest.fixture
def seal_swapping_cloud(monkeypatch):
    """A cloud that serves the sealed timestamp anchor as the state tag."""
    fetch_bundle = CloudStore.fetch_bundle

    def swapped(store, at, now):
        bundle = fetch_bundle(store, at, now)
        return replace(bundle, enc_state_tag=bundle.enc_crypto_time)

    monkeypatch.setattr(CloudStore, "fetch_bundle", swapped)


def _refusing(bundle):
    raise UnavailableError(f"epoch {bundle.epoch_id} is not served")


#: Clouds whose irrecoverable bundles the verifier refuses: with no proof, with
#: a proof that states a cell size of 0, or not at all though still verifiable.
REFUSED_CLAIMS = {
    "no_proof": lambda bundle: replace(bundle, deletion_proof=None),
    "zero_cell_size": lambda bundle: replace(
        bundle, deletion_proof=replace(bundle.deletion_proof, cell_size=0)
    ),
    "refused": _refusing,
}


@pytest.fixture(params=sorted(REFUSED_CLAIMS))
def refused_claim_cloud(request, monkeypatch):
    """A cloud that serves each irrecoverable bundle through one of ``REFUSED_CLAIMS``."""
    fetch_bundle, serve_claim = CloudStore.fetch_bundle, REFUSED_CLAIMS[request.param]

    def serving(store, at, now):
        bundle = fetch_bundle(store, at, now)
        return serve_claim(bundle) if bundle.state is DataState.IRRECOVERABLE else bundle

    monkeypatch.setattr(CloudStore, "fetch_bundle", serving)
    return request.param


class TestScenario:
    def test_honest_run_all_checks_pass(self, tmp_path):
        config = ScenarioConfig(**FAST)
        result = run_scenario(config, state_dir=tmp_path / "state")
        assert result.summary["verification_failures"] == 0
        assert result.summary["audits_failed"] == 0
        assert result.summary["verifications"] > 0
        # the full state machine was exercised
        states = set(result.summary["states"].values())
        assert states == {"ACCESSIBLE", "IRRECOVERABLE", "PURGED"}
        # figure-style timeline: first epoch deleted once p_del epochs passed
        transitions = events(result, "transition")
        first = next(
            t for t in transitions if t["epoch_id"] == 0 and t["to"] == "IRRECOVERABLE"
        )
        assert first["t"] == (1 + config.p_del) * config.delta_ms
        # purged epochs refuse bundles
        assert events(result, "bundle_unavailable")
        # expired epochs refuse SP fetches
        assert events(result, "sp_fetch_denied")
        # state persisted for the CLI
        assert (tmp_path / "state" / "transcript.json").exists()

    def test_transcripts_deterministic_across_runs(self):
        config = ScenarioConfig(**{**FAST, "day_rate_per_hour": 10.0, "night_rate_per_hour": 4.0})
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.transcript == b.transcript
        assert a.summary["states"] == b.summary["states"]

    def test_lazy_cloud_flagged_by_time_bound(self):
        config = ScenarioConfig(
            **{**FAST, "day_rate_per_hour": 220.0, "night_rate_per_hour": 220.0,
               "lazy_cloud": True}
        )
        result = run_scenario(config)
        irrecoverable_verifies = [
            m for m in result.measurements
            if m["event"] == "verify" and m["state_claimed"] == "IRRECOVERABLE"
        ]
        assert irrecoverable_verifies
        assert any(m["time_bound_ok"] is False for m in irrecoverable_verifies)
        # and no unrelated check fails: completeness/tag stay intact
        assert all(e["completeness_ok"] for e in events(result, "verify"))
        assert all(e["tag_match"] for e in events(result, "verify"))

    def test_tampering_sp_flagged_by_audit(self):
        config = ScenarioConfig(**{**FAST, "tampering_sp": True})
        result = run_scenario(config)
        audits = events(result, "audit")
        tampered_block = events(result, "tamper_injected")[0]["block_id"]
        assert any(not a["ok"] and a["block_id"] == tampered_block for a in audits)
        assert all(a["ok"] for a in audits if a["block_id"] != tampered_block)
        # verifications against the cloud are unaffected
        assert result.summary["verification_failures"] == 0

    def test_refused_audit_fetch_counts_as_failed_audit(self, monkeypatch):
        # the provider loses its first sealed block: block 2's predecessor
        # is gone, so its fetch is refused, and the run reports it
        monkeypatch.setattr(harness._Run, "inject_tamper", lambda run: run.logger.sealed_blocks.pop(0))
        result = run_scenario(ScenarioConfig(**{**FAST, "tampering_sp": True}))
        audits = {a["block_id"]: a["ok"] for a in events(result, "audit")}
        assert 1 not in audits and audits[2] is False
        assert all(ok for block_id, ok in audits.items() if block_id > 2)
        assert result.summary["audits_failed"] == 1

    def test_seal_that_does_not_open_is_a_failed_check(self, seal_swapping_cloud):
        # each seal names its field, so the swapped one does not open
        result = run_scenario(ScenarioConfig(**FAST))
        rejected = events(result, "verify_rejected")
        assert rejected and not events(result, "verify")
        assert result.summary["verification_failures"] == result.summary["verifications"]
        assert result.summary["verifications"] == len(rejected)

    def test_refused_claim_is_a_failed_check(self, refused_claim_cloud):
        result = run_scenario(ScenarioConfig(**FAST))
        rejected = events(result, "verify_rejected")
        assert rejected and all(e["expected_state"] == "IRRECOVERABLE" for e in rejected)
        assert not [e for e in events(result, "verify") if e["state_claimed"] == "IRRECOVERABLE"]
        # each accessible check passes: the time bound judges irrecoverable claims alone
        assert result.summary["verification_failures"] == len(rejected)

    def test_failed_socket_run_leaves_no_thread_running(self):
        config = ScenarioConfig(
            **{**FAST, "transport": "socket", "payload_mean_bytes": 70000,
               "payload_jitter_bytes": 0}
        )
        before = set(threading.enumerate())
        with pytest.raises(DomainError, match="payload exceeds"):
            run_scenario(config)
        assert set(threading.enumerate()) <= before

    def test_socket_transport_scenario(self):
        config = ScenarioConfig(
            **{**FAST, "arrival_epochs": 3, "p_del": 1, "p_ver": 2, "transport": "socket"}
        )
        result = run_scenario(config)
        assert result.summary["verification_failures"] == 0


class TestBenchmarks:
    def test_exp2_reports_ratio(self):
        config = ScenarioConfig(**{**FAST, "arrival_epochs": 3})
        report = bench(config, 2)
        (ratio,) = report.values("storage_ratio")
        assert ratio > 0
        assert report.values("raw_bytes")[0] > 0

    def test_exp5_transfer_entries(self):
        config = ScenarioConfig(**{**FAST, "day_rate_per_hour": 30.0})
        report = bench(config, 5)
        assert len(report.values("bundle_transfer_measured")) == 2
        nominal = report.values("bundle_transfer_nominal")
        assert len(nominal) == 6 and all(v > 0 for v in nominal)

    def test_invalid_experiment(self):
        with pytest.raises(DomainError):
            bench(ScenarioConfig(**FAST), 6)

    def test_report_table_renders(self):
        config = ScenarioConfig(**{**FAST, "arrival_epochs": 2})
        report = bench(config, 2)
        table = report.table()
        assert "storage_ratio" in table


class TestCli:
    def test_generate_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        config = ScenarioConfig(**FAST)
        config.save(cfg)
        out = tmp_path / "readings.bin"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert READINGS_LAYOUT.unpack(out.read_bytes()) == [generate_readings(config)]
        assert "wrote" in capsys.readouterr().out

    def test_run_counts_a_seal_that_does_not_open(self, tmp_path, capsys, seal_swapping_cloud):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        assert main(["run", "--config", str(cfg)]) == 1
        assert re.search(r"(\d+) verifications \(\1 failed\)", capsys.readouterr().out)

    def test_verify_refuses_a_segment_with_a_swapped_seal(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        target = next(int(e) for e, s in summary["states"].items() if s == "ACCESSIBLE")
        segment = state / "cloud" / "segments" / f"{target:016d}.seg"
        record = EpochRecord.from_bytes(segment.read_bytes())
        swapped = record.replaced(enc_accessible_tag=record.enc_crypto_time)
        segment.write_bytes(swapped.to_bytes())
        assert main(["verify", "--state", str(state), "--time", str(target), "--role", "sdp"]) == 1
        assert "NOT VERIFIED" in capsys.readouterr().out

    def test_run_verify_audit_tick_flow(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        capsys.readouterr()

        # verify an irrecoverable epoch as the provider
        summary = json.loads((state / "summary.json").read_text())
        irrecoverable = [
            int(eid) for eid, s in summary["states"].items() if s == "IRRECOVERABLE"
        ]
        code = main(
            ["verify", "--state", str(state), "--time", str(irrecoverable[0]), "--role", "sdp"]
        )
        out = capsys.readouterr().out
        assert code == 0 and '"verified": true' in out

        # user-role verification with membership scan
        accessible = [
            int(eid) for eid, s in summary["states"].items() if s == "ACCESSIBLE"
        ]
        assert main(
            ["verify", "--state", str(state), "--time", str(accessible[0]), "--role", "user"]
        ) == 0
        capsys.readouterr()

        # audit the first sealed block
        assert main(["audit", "--state", str(state), "--block", "1"]) == 0
        assert '"ok": true' in capsys.readouterr().out

        # advance the scheduler far enough to purge everything purgeable
        final = summary["final_clock"]
        assert main(["tick", "--state", str(state), "--now", str(final + 10 * MS_PER_HOUR)]) == 0
        capsys.readouterr()

    def test_verify_of_a_saved_run_spawns_no_process(self, tmp_path, capsys):
        # below the step budget no worker starts: a short verify pays no start
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        summary = json.loads((state / "summary.json").read_text())
        accessible = next(int(e) for e, s in summary["states"].items() if s == "ACCESSIBLE")
        code = (
            "import os, sys\n"
            "spawns = ('subprocess.Popen', 'os.fork', 'os.posix_spawn', 'os.exec')\n"
            "sys.addaudithook(lambda event, args: event in spawns and os.write(2, b'spawned\\n'))\n"
            "from expunge.cli import main\n"
            f"sys.exit(main(['verify', '--state', {str(state)!r}, '--time', '{accessible}']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert '"verified": true' in proc.stdout
        assert "spawned" not in proc.stderr

    def test_audit_refuses_a_block_whose_predecessor_is_missing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        (state / "blocks" / f"{1:06d}.blk").unlink()
        # chained from the seed instead, block 2 would read as a plain proof mismatch
        assert main(["audit", "--state", str(state), "--block", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "sealed block 1, the predecessor of block 2, is missing" in err

    def test_audit_refuses_a_file_that_holds_another_block(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        blocks = state / "blocks"
        assert (blocks / f"{3:06d}.blk").exists()

        def assert_refused(block, message):
            assert main(["audit", "--state", str(state), "--block", str(block)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and message in err

        # a copy of block 1 saved as block 2 stands in for neither block 2 nor block 3's predecessor
        (blocks / f"{2:06d}.blk").write_bytes((blocks / f"{1:06d}.blk").read_bytes())
        assert_refused(2, "the file of sealed block 2 holds block 1")
        assert_refused(3, "the file of sealed block 2 holds block 1")
        # block 2 dropped and block 3 renamed into its place
        (blocks / f"{3:06d}.blk").replace(blocks / f"{2:06d}.blk")
        assert_refused(2, "the file of sealed block 2 holds block 3")

    def test_audit_fails_a_resealed_block_with_a_flipped_signature(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        keyring = StateDir(state).keyring()
        params = AccumulatorParams.from_bytes((state / "params.bin").read_bytes())
        user, key = next(iter(keyring.user_signing_keys.items()))
        records = [make_query_record(b"q-%d" % i, 10 + i, user, key) for i in range(3)]
        records[1] = _with_flipped_signature(records[1])
        resealed = _resealed(keyring, params, records)
        (state / "blocks" / f"{1:06d}.blk").write_bytes(resealed.to_bytes())
        assert main(["audit", "--state", str(state), "--block", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["proof_match"] and report["invalid_signature_positions"] == [2]
        assert not report["ok"]

    def test_audit_reads_no_cloud_segment(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        segment = next((state / "cloud" / "segments").glob("*.seg"))
        segment.write_bytes(segment.read_bytes()[:40])
        assert main(["audit", "--state", str(state), "--block", "1"]) == 0
        assert '"ok": true' in capsys.readouterr().out

    def test_verify_refuses_a_proof_of_zero_cell_size(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        target = next(int(e) for e, s in summary["states"].items() if s == "IRRECOVERABLE")
        segment = state / "cloud" / "segments" / f"{target:016d}.seg"
        record = EpochRecord.from_bytes(segment.read_bytes())
        proof = replace(record.deletion_proof, cell_size=0)  # the seal covers the proof alone
        segment.write_bytes(record.replaced(deletion_proof=proof).to_bytes())
        assert main(["verify", "--state", str(state), "--time", str(target), "--role", "sdp"]) == 1
        assert "NOT VERIFIED - bundle refused" in capsys.readouterr().out

    def test_lazy_run_verified_from_saved_state(self, tmp_path, capsys):
        config = ScenarioConfig(**{**FAST, "lazy_cloud": True})
        cfg = tmp_path / "cfg.json"
        config.save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        target = max(
            int(eid) for eid in summary["states"]
            if deletion_due(EpochWindow(int(eid), int(eid) + config.delta_ms), config.policy)
            <= summary["final_clock"]
        )
        main(["verify", "--state", str(state), "--time", str(target), "--role", "sdp"])
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        # the wall-clock verdict is left out: only the claim and its proof are stable
        assert report["state_claimed"] == "IRRECOVERABLE"
        assert report["deletion_proof_match"] is True
        segment = state / "cloud" / "segments" / f"{target:016d}.seg"
        record = EpochRecord.from_bytes(segment.read_bytes())
        assert record.state is DataState.ACCESSIBLE and record.ciphertexts

    def test_verify_time_bound_uses_reference_round_trip(self, tmp_path, capsys, monkeypatch):
        # The judged fetch takes 0.3 s and the recompute estimate is pinned
        # at 1 s. Bounded by a reference fetch, tau = max(2 * rtt, 0.1 s)
        # = 0.1 s and the fetch is flagged; bounded by the judged fetch's own
        # time, tau would be 0.6 s and the bound not applicable.
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        target = next(int(e) for e, s in summary["states"].items() if s == "IRRECOVERABLE")

        fetch_bundle = CloudStore.fetch_bundle

        def slow_fetch(store, at, now):
            if at == target:
                time.sleep(0.3)
            return fetch_bundle(store, at, now)

        monkeypatch.setattr(CloudStore, "fetch_bundle", slow_fetch)
        monkeypatch.setattr(attestation, "expunge_duration_estimate", lambda *args: 1.0)
        code = main(["verify", "--state", str(state), "--time", str(target), "--role", "sdp"])
        assert "time bound EXCEEDED" in capsys.readouterr().out
        assert code == 1

    def test_verify_json_states_the_inputs_of_the_time_bound(self, tmp_path, capsys, monkeypatch):
        # The JSON report must explain an EXCEEDED on its own: it carries
        # the judged response time, the bound it was held to and the
        # inputs that set the bound, so tau is recomputed from it alone.
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        target = next(int(e) for e, s in summary["states"].items() if s == "IRRECOVERABLE")

        fetch_bundle = CloudStore.fetch_bundle

        def slow_fetch(store, at, now):
            if at == target:
                time.sleep(0.3)
            return fetch_bundle(store, at, now)

        monkeypatch.setattr(CloudStore, "fetch_bundle", slow_fetch)
        monkeypatch.setattr(attestation, "expunge_duration_estimate", lambda *args: 1.0)
        main(["verify", "--state", str(state), "--time", str(target), "--role", "sdp"])
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["time_bound_ok"] is False
        assert report["response_time"] >= 0.3 > report["time_bound"] > 0
        rtt, estimate = report["reference_round_trip"], report["recompute_estimate"]
        assert report["time_bound"] == max(2 * rtt, estimate / 10)
        assert report["time_bound_applies"] == (estimate >= 4 * rtt)

        accessible = next(int(e) for e, s in summary["states"].items() if s == "ACCESSIBLE")
        main(["verify", "--state", str(state), "--time", str(accessible), "--role", "sdp"])
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        for key in ("reference_round_trip", "recompute_estimate", "time_bound_applies"):
            assert report[key] is None

    def test_verify_summary_says_when_the_time_bound_does_not_apply(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        target = next(int(e) for e, s in summary["states"].items() if s == "IRRECOVERABLE")

        monkeypatch.setattr(attestation, "expunge_duration_estimate", lambda *args: 1e-9)
        code = main(["verify", "--state", str(state), "--time", str(target), "--role", "sdp"])
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["time_bound_applies"] is False and report["time_bound_ok"] is None
        summary_line = out.splitlines()[-1]
        assert re.search(
            r"\): VERIFIED - .*time bound not applicable "
            r"\(estimate 0\.00 ms < 4 x rtt \d+\.\d\d ms\)$",
            summary_line,
        ), summary_line
        assert code == 0

    def test_verify_purged_epoch_is_protocol_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        capsys.readouterr()
        summary = json.loads((state / "summary.json").read_text())
        purged = [int(eid) for eid, s in summary["states"].items() if s == "PURGED"]
        code = main(["verify", "--state", str(state), "--time", str(purged[0])])
        assert code == 2

    def test_unknown_config_field_refused(self):
        with pytest.raises(DomainError, match="unknown config field.*bogus"):
            ScenarioConfig.from_dict({**ScenarioConfig(**FAST).to_dict(), "bogus": 1})

    @staticmethod
    def assert_input_error(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_unknown_config_field_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_dell": 3}))
        self.assert_input_error(capsys, ["run", "--config", str(cfg)])

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p_del": 2,')
        self.assert_input_error(capsys, ["generate", "--config", str(cfg)])

    def test_missing_state_dir_is_input_error(self, tmp_path, capsys):
        argv = ["verify", "--state", str(tmp_path / "absent"), "--time", "0"]
        self.assert_input_error(capsys, argv)

    def test_truncated_segment_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**{**FAST, "arrival_epochs": 2, "p_del": 1, "p_ver": 1}).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        capsys.readouterr()
        segment = next((state / "cloud" / "segments").glob("*.seg"))
        segment.write_bytes(segment.read_bytes()[:40])
        self.assert_input_error(capsys, ["verify", "--state", str(state), "--time", "0"])

    @pytest.mark.parametrize("command", ["verify", "tick"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            ("remove the middle segment", "a segment is missing"),
            ("write the retired type 0x0F", "expected 0x10, got 0x0f"),
        ],
    )
    def test_damaged_cloud_store_is_input_error(self, tmp_path, capsys, command, damage, message):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        summary = json.loads((state / "summary.json").read_text())
        capsys.readouterr()
        segments = sorted((state / "cloud" / "segments").glob("*.seg"))
        middle = segments[len(segments) // 2]
        if damage == "remove the middle segment":
            middle.unlink()
        else:
            middle.write_bytes(middle.read_bytes()[:2] + b"\x0f" + middle.read_bytes()[3:])
        after = segments[len(segments) // 2 + 1].stem.lstrip("0")
        argv = {
            "verify": ["verify", "--time", after, "--role", "sdp"],
            "tick": ["tick", "--now", str(summary["final_clock"])],
        }[command]
        err = self.assert_input_error(capsys, [argv[0], "--state", str(state), *argv[1:]])
        assert message in err

    def test_missing_block_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**{**FAST, "arrival_epochs": 2, "p_del": 1, "p_ver": 1}).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])  # a verdict does not matter here
        capsys.readouterr()
        err = self.assert_input_error(capsys, ["audit", "--state", str(state), "--block", "99"])
        assert err == "error: no sealed block 99\n"

    @pytest.mark.parametrize("command", [["tick", "--now", "0"], ["verify", "--time", "0"]])
    def test_state_dir_without_a_cloud_store_is_input_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**{**FAST, "arrival_epochs": 2, "p_del": 1, "p_ver": 1}).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        capsys.readouterr()
        shutil.rmtree(state / "cloud")
        self.assert_input_error(capsys, [command[0], "--state", str(state), *command[1:]])
        assert not (state / "cloud").exists()

    @pytest.mark.parametrize(
        "name, damage, command",
        [
            *[
                ("keyring.json", damage, command)
                for damage in (
                    "no shared_key", "a 3-byte sdp_box_private",
                    "an sdp_box_private that is not base64", "a list",
                )
                for command in (["verify", "--time", "0"], ["audit", "--block", "1"])
            ],
            *[
                ("meta.json", damage, command)
                for damage in ("{}", "[]")
                for command in (["verify", "--time", "0"], ["tick", "--now", "0"])
            ],
        ],
        ids=repr,
    )
    def test_damaged_keyring_or_meta_is_input_error(self, tmp_path, capsys, name, damage, command):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**{**FAST, "arrival_epochs": 2, "p_del": 1, "p_ver": 1}).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])  # a verdict does not matter here
        capsys.readouterr()
        path = state / name
        doc = json.loads(path.read_text())
        if name == "meta.json":
            doc = json.loads(damage)
        elif damage == "no shared_key":
            del doc["shared_key"]
        elif damage == "a 3-byte sdp_box_private":
            doc["sdp_box_private"] = "AAAA"
        elif damage == "an sdp_box_private that is not base64":
            doc["sdp_box_private"] = "not base64!"
        else:
            doc = list(doc)
        path.write_text(json.dumps(doc))
        err = self.assert_input_error(capsys, [command[0], "--state", str(state), *command[1:]])
        assert name in err

    @pytest.mark.parametrize(
        "doc",
        [
            3,
            {"p_del": "2"},
            {"arrival_epochs": 2.5},
            {"seed": True},
            {"p_ver": 4.5},
            {"drain_epochs": "3"},
            {"day_hours": [8, "20"]},
            {"lazy_cloud": 1},
        ],
        ids=repr,
    )
    def test_config_value_of_the_wrong_type_is_input_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        self.assert_input_error(capsys, ["run", "--config", str(cfg)])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("verify_every_epochs", 0),
            ("verify_every_epochs", -1),
            ("queries_per_epoch", -1),
            ("drain_epochs", -1),
        ],
    )
    def test_config_value_out_of_range_is_input_error(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        doc = {"modulus_bits": 512, "arrival_epochs": 4, "p_del": 1, "p_ver": 2, field: value}
        cfg.write_text(json.dumps(doc))
        self.assert_input_error(capsys, ["run", "--config", str(cfg)])

    def test_device_that_is_not_hex_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**{**FAST, "arrival_epochs": 2, "p_del": 1, "p_ver": 1}).save(cfg)
        state = tmp_path / "state"
        assert main(["run", "--config", str(cfg), "--state", str(state)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--state", str(state), "--time", "1", "--device", "zz"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--device" in err and "Traceback" not in err

    def test_config_accepts_the_documented_alternatives(self):
        doc = {"day_rate_per_hour": 100, "p_ver": "inf", "drain_epochs": None, "day_hours": [6, 18]}
        config = ScenarioConfig.from_dict(doc)
        assert config.p_ver is NEVER and config.day_hours == (6, 18)
        assert config.day_rate_per_hour == 100 and config.drain_epochs == config.p_del + 2

    def test_stale_files_of_an_older_state_dir_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**FAST).save(cfg)
        state = tmp_path / "state"
        main(["run", "--config", str(cfg), "--state", str(state)])
        summary = json.loads((state / "summary.json").read_text())
        assert not (state / "policy.bin").exists()
        assert not (state / "cloud" / "index.json").exists()
        # an older run also kept the policy and a store index beside the segments
        # the policy record of layout version 2: p_del 0, p_ver 1, delta 1 hour
        stale = "c702030000000000000000000000000000000001000000000036ee80"
        (state / "policy.bin").write_bytes(bytes.fromhex(stale))
        (state / "cloud" / "index.json").write_text('{"last_tick": 0, "epochs": {"9": "PURGED"}}')
        capsys.readouterr()
        accessible = next(int(e) for e, s in summary["states"].items() if s == "ACCESSIBLE")
        assert main(["verify", "--state", str(state), "--time", str(accessible)]) == 0
        assert main(["tick", "--state", str(state), "--now", str(summary["final_clock"])]) == 0
        assert capsys.readouterr().out.endswith("no transitions due\n")

    def test_bench_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        ScenarioConfig(**{**FAST, "arrival_epochs": 2}).save(cfg)
        assert main(["bench", "--exp", "2", "--config", str(cfg)]) == 0
        assert "storage_ratio" in capsys.readouterr().out
