"""Acceptance gate: every release criterion, at its stated tolerance.

Each test is one criterion; the terminal summary prints one PASS/FAIL
line per criterion (see conftest). Wall-clock limits are asserted where
the criterion states one.
"""

import dataclasses
import math
import random
import time

from conftest import ACCEPTANCE_NOTES
from expunge.accumulator import setup, step
from expunge.attestation import EpochVerifier, verify_bundle
from expunge.cloud import CloudStore
from expunge.control import (
    SEALED_ACCESSIBLE,
    SEALED_IRRECOVERABLE,
    SEALED_TIME,
    MetaDataRow,
    SensorDataRow,
    accessible_tag,
    build_outsource_payload,
    epoch_timestamp,
    irrecoverable_tag,
    open_seal,
    reading_digest,
    seal,
    timestamp_anchor,
)
from expunge.core import DataState, EpochWindow, RetentionPolicy, SensorReading
from expunge.crypto import generate_keyring, hybrid_encrypt
from expunge.engine import expunge, CellArray
from expunge.errors import IntegrityError
from expunge.harness import MS_PER_HOUR, LazyCloudStore, ScenarioConfig, bench
from expunge.querylog import QueryLogger, audit_block, make_query_record
from expunge.wire import CloudService, LoopbackTransport


def _note(name, text):
    ACCEPTANCE_NOTES[name] = text


def test_criterion_1_schedule_replay(keyring, tiny_params):
    """Reference retention timeline replays exactly, in under a second."""
    start = time.perf_counter()
    policy = RetentionPolicy(p_del=2, p_ver=4, delta=1)
    store = CloudStore(policy)
    prev = tiny_params.seed
    for k in range(5):
        window = EpochWindow(1 + k, 2 + k)
        reading = SensorReading(device_id=b"\x02abcde", time=window.bt, payload=b"x")
        sensor, meta = build_outsource_payload(
            window, [reading], prev, keyring, tiny_params
        )
        prev = sensor.crypto_time
        store.ingest(sensor, meta)

    t4 = store.tick(4)
    assert [(t.epoch_id, t.to_state) for t in t4] == [(1, DataState.IRRECOVERABLE)]
    t5 = store.tick(5)
    assert [(t.epoch_id, t.to_state) for t in t5] == [(2, DataState.IRRECOVERABLE)]
    t6 = store.tick(6)
    assert (1, DataState.PURGED) in [(t.epoch_id, t.to_state) for t in t6]
    assert store.state_of(1) is DataState.PURGED
    assert store.state_of(2) is DataState.IRRECOVERABLE

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"replay took {elapsed:.3f}s"
    _note("test_criterion_1_schedule_replay", f"{elapsed * 1000:.0f} ms")


def test_criterion_2_quasi_commutativity(tiny_params):
    """1000 random triples over a 2048-bit modulus; plus the hand value."""
    v = step(step(tiny_params.seed, b"\x03", tiny_params), b"\x05", tiny_params)
    assert v.value == 438

    params = setup(modulus_bits=2048)
    assert params.modulus.bit_length() == 2048
    rng = random.Random(20480)
    for _ in range(1000):
        x = rng.randrange(2, params.modulus)
        if math.gcd(x, params.modulus) != 1:
            continue
        e1 = rng.randbytes(32)
        e2 = rng.randbytes(32)
        assert step(step(x, e1, params), e2, params) == step(
            step(x, e2, params), e1, params
        )
    _note("test_criterion_2_quasi_commutativity", "1000 triples, zero mismatches")


def test_criterion_3_tag_proof_equality(keyring, small_params):
    """Provider-simulated deletion tag equals the cloud's proof, n in 1..64."""
    start = time.perf_counter()
    policy = RetentionPolicy(p_del=0, p_ver=10**6, delta=1000)
    store = CloudStore(policy)
    prev = small_params.seed
    shadows = {}
    metas = {}
    for n in range(1, 65):
        window = EpochWindow((n - 1) * 1000, n * 1000)
        readings = [
            SensorReading(
                device_id=bytes([0x02, n, i]) + b"dev",
                time=window.bt + i,
                payload=b"p" * (10 + (i * 7) % 40),
            )
            for i in range(n)
        ]
        sensor, meta = build_outsource_payload(
            window, readings, prev, keyring, small_params
        )
        prev = sensor.crypto_time
        store.ingest(sensor, meta)
        shadows[window.id] = sensor.ciphertexts
        metas[window.id] = meta

    store.tick(64 * 1000)  # p_del=0: every closed epoch is due
    for eid, cts in shadows.items():
        record = store.record(eid)
        assert record.state is DataState.IRRECOVERABLE
        sealed_irh = open_seal(
            keyring.shared_key, SEALED_IRRECOVERABLE, eid, metas[eid].enc_irrecoverable_tag
        )
        assert record.deletion_proof.proof == sealed_irh
        assert record.deletion_proof.proof == irrecoverable_tag(cts, eid)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"cross-check took {elapsed:.1f}s"
    _note("test_criterion_3_tag_proof_equality", f"n=1..64 in {elapsed:.1f} s")


def _mutate_bundle(bundle, rng):
    """One random single mutation over the checked bundle fields."""
    choices = ["digest_flip", "crypto_time", "prev_crypto_time", "enc_tag", "enc_ct"]
    if len(bundle.digests) >= 2:
        choices += ["digest_drop", "digest_swap", "digest_dup"]
    if bundle.ciphertexts is not None:
        choices += ["ct_flip", "ct_drop"]
        if len(bundle.ciphertexts) >= 2:
            choices.append("ct_swap")
    if bundle.deletion_proof is not None:
        choices.append("proof_flip")
    kind = rng.choice(choices)

    def flip(data: bytes) -> bytes:
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]

    d = list(bundle.digests)
    if kind == "digest_flip":
        i = rng.randrange(len(d))
        d[i] = flip(d[i])
        return dataclasses.replace(bundle, digests=tuple(d))
    if kind == "digest_drop":
        d.pop(rng.randrange(len(d)))
        return dataclasses.replace(bundle, digests=tuple(d))
    if kind == "digest_dup":
        d.append(d[rng.randrange(len(d))])
        return dataclasses.replace(bundle, digests=tuple(d))
    if kind == "digest_swap":
        i = rng.randrange(len(d) - 1)
        d[i], d[i + 1] = d[i + 1], d[i]
        return dataclasses.replace(bundle, digests=tuple(d))
    if kind == "ct_flip":
        c = list(bundle.ciphertexts)
        i = rng.randrange(len(c))
        c[i] = flip(c[i])
        return dataclasses.replace(bundle, ciphertexts=tuple(c))
    if kind == "ct_drop":
        c = list(bundle.ciphertexts)
        c.pop(rng.randrange(len(c)))
        return dataclasses.replace(bundle, ciphertexts=tuple(c))
    if kind == "ct_swap":
        c = list(bundle.ciphertexts)
        i = rng.randrange(len(c) - 1)
        c[i], c[i + 1] = c[i + 1], c[i]
        return dataclasses.replace(bundle, ciphertexts=tuple(c))
    if kind == "crypto_time":
        return dataclasses.replace(
            bundle,
            crypto_time=dataclasses.replace(
                bundle.crypto_time, value=bundle.crypto_time.value + 1
            ),
        )
    if kind == "prev_crypto_time" and bundle.prev_crypto_time is not None:
        return dataclasses.replace(
            bundle,
            prev_crypto_time=dataclasses.replace(
                bundle.prev_crypto_time, value=bundle.prev_crypto_time.value + 1
            ),
        )
    if kind == "prev_crypto_time":  # first epoch: forge a predecessor claim
        return dataclasses.replace(bundle, first_epoch=False)
    if kind == "enc_tag":
        return dataclasses.replace(bundle, enc_state_tag=flip(bundle.enc_state_tag))
    if kind == "enc_ct":
        return dataclasses.replace(bundle, enc_crypto_time=flip(bundle.enc_crypto_time))
    if kind == "proof_flip":
        return dataclasses.replace(
            bundle,
            deletion_proof=dataclasses.replace(
                bundle.deletion_proof, proof=flip(bundle.deletion_proof.proof)
            ),
        )
    raise AssertionError(kind)


def test_criterion_4_tamper_campaigns(keyring, small_params):
    """10^3 single mutations each on bundles and blocks: 100% detection."""
    rng = random.Random(1337)
    policy = RetentionPolicy(p_del=2, p_ver=10, delta=1000)
    store = CloudStore(policy)
    prev = small_params.seed
    devices = [bytes([0x02, i]) + b"-dev" for i in range(4)]
    for k in range(3):
        window = EpochWindow(k * 1000, (k + 1) * 1000)
        readings = [
            SensorReading(device_id=devices[i % 4], time=window.bt + i, payload=b"p" * 24)
            for i in range(6)
        ]
        sensor, meta = build_outsource_payload(
            window, readings, prev, keyring, small_params
        )
        prev = sensor.crypto_time
        store.ingest(sensor, meta)
    store.tick(3500)  # epoch 0 deleted
    bundles = [store.fetch_bundle(at, now=3500) for at in (0, 1000, 2000)]

    def verdict(bundle) -> bool:
        try:
            report = verify_bundle(
                bundle,
                keyring.shared_key,
                small_params,
                policy,
                role="user",
                device_id=devices[0],
                response_time=0.001,
                time_bound=10.0,
            )
        except IntegrityError:
            return False  # unopenable tag: tampering evidence
        except Exception:
            return False
        return report.verified

    # controls: unmutated bundles verify
    assert all(verdict(b) for b in bundles)
    detected = 0
    trials = 10**3
    for _ in range(trials):
        mutated = _mutate_bundle(rng.choice(bundles), rng)
        detected += not verdict(mutated)
    assert detected == trials, f"bundle campaign: {trials - detected} missed"

    # -- sealed query blocks --------------------------------------------------
    ring = generate_keyring([b"u0", b"u1", b"u2"])
    registry = ring.user_public_keys()
    records = [
        make_query_record(b"q%d" % i, 50 + i, [b"u0", b"u1", b"u2"][i % 3],
                          ring.user_signing_keys[[b"u0", b"u1", b"u2"][i % 3]])
        for i in range(6)
    ]
    logger = QueryLogger(
        capacity=6, time_limit=10**9, params=small_params,
        sdp_public=ring.sdp_box_public, registry=registry,
    )
    for r in records:
        logger.log(r, now=99)
    (sealed,) = logger.sealed_blocks

    def audit_ok(candidate) -> bool:
        return audit_block(
            candidate, small_params.seed, ring.sdp_box_private, small_params, registry
        ).ok

    assert audit_ok(sealed)  # control

    def mutate_block(rng):
        encs = list(sealed.encrypted_records)
        kind = rng.choice(["drop", "dup", "swap", "flip", "forge", "proof"])
        if kind == "drop":
            encs.pop(rng.randrange(len(encs)))
        elif kind == "dup":
            encs.append(encs[rng.randrange(len(encs))])
        elif kind == "swap":
            i = rng.randrange(len(encs) - 1)
            encs[i], encs[i + 1] = encs[i + 1], encs[i]
        elif kind == "flip":
            i = rng.randrange(len(encs))
            j = rng.randrange(len(encs[i]))
            encs[i] = encs[i][:j] + bytes([encs[i][j] ^ 1]) + encs[i][j + 1 :]
        elif kind == "forge":
            forged = dataclasses.replace(records[rng.randrange(len(records))], query=b"forged")
            encs[rng.randrange(len(encs))] = hybrid_encrypt(
                forged.to_bytes(), ring.sdp_box_public
            )
        elif kind == "proof":
            return dataclasses.replace(
                sealed,
                block_proof=dataclasses.replace(
                    sealed.block_proof, value=sealed.block_proof.value + 1
                ),
            )
        return dataclasses.replace(sealed, encrypted_records=tuple(encs))

    block_detected = 0
    for _ in range(trials):
        block_detected += not audit_ok(mutate_block(rng))
    assert block_detected == trials, f"block campaign: {trials - block_detected} missed"
    assert audit_ok(sealed) and all(verdict(b) for b in bundles)  # controls again
    _note("test_criterion_4_tamper_campaigns", "2000/2000 detected, controls clean")


def test_criterion_5_butterfly_conformance():
    """n=8 pairing trace equals the reference three-iteration pattern."""
    reference = {
        1: [(1, 2), (3, 4), (5, 6), (7, 8)],
        2: [(1, 3), (2, 4), (5, 7), (6, 8)],
        3: [(1, 5), (2, 6), (3, 7), (4, 8)],
    }
    rng = random.Random(5)
    array = CellArray(
        epoch_id=8, cell_size=64, cells=tuple(rng.randbytes(64) for _ in range(8))
    )
    trace: dict[int, list] = {}
    expunge(array, on_pair=lambda it, i, j: trace.setdefault(it, []).append((i + 1, j + 1)))
    assert trace == reference
    _note("test_criterion_5_butterfly_conformance", "engine trace == reference table")


def test_criterion_6_storage_overhead():
    """10^5 readings, 1-hour epochs: outsourced/raw <= 1.5, under 2 min."""
    config = ScenarioConfig(
        delta_ms=MS_PER_HOUR,
        arrival_epochs=50,
        day_rate_per_hour=2000.0,
        night_rate_per_hour=2000.0,
        modulus_bits=1024,
        device_count=40,
        seed=606,
    )
    start = time.perf_counter()
    report = bench(config, 2)
    elapsed = time.perf_counter() - start
    readings = report.entries[0].params["readings"]
    (ratio,) = report.values("storage_ratio")
    assert readings > 9.5e4, f"only {readings} readings generated"
    assert ratio <= 1.5, f"storage ratio {ratio:.3f} exceeds 1.5"
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    _note(
        "test_criterion_6_storage_overhead",
        f"ratio {ratio:.2f} over {readings} readings in {elapsed:.0f} s",
    )


def test_criterion_7_verification_latency():
    """One synthetic day (24 epochs, ~5e4 readings) verifies, each epoch at its close, in < 4 s."""
    config = ScenarioConfig(
        delta_ms=MS_PER_HOUR,
        arrival_epochs=24,
        day_rate_per_hour=2083.0,
        night_rate_per_hour=2083.0,
        modulus_bits=2048,
        device_count=40,
        seed=707,
    )
    report = bench(config, 3)
    (day_seconds,) = report.values("verify_day")
    (verified,) = report.values("verified_epochs")
    readings = report.entries[0].params["readings"]
    assert readings > 4.5e4
    assert verified == 24, f"{verified} of 24 epochs verified"
    assert day_seconds < 4.0, f"verification took {day_seconds:.2f}s (target 2 s, 2x tolerance)"
    _note(
        "test_criterion_7_verification_latency",
        f"24/24 epochs verified in {day_seconds:.2f} s for {readings} readings"
        " (target 2 s, pass < 4 s)",
    )


def test_criterion_8_deletion_time_asymmetry(keyring):
    """Recompute >= 20x transfer at 2^15 x 1 KiB; lazy cloud flagged >= 95%."""
    params = setup(modulus_bits=1024)
    rng = random.Random(808)
    policy = RetentionPolicy(p_del=2, p_ver=100, delta=1000)

    # --- 20x asymmetry at 2^15 cells of 1 KiB -------------------------------
    n_big = 2**15
    window = EpochWindow(0, 1000)
    cts = tuple(rng.randbytes(1020) for _ in range(n_big))
    digests = tuple(
        reading_digest(bytes([0x02, i % 250]) + b"-big", window.id, i + 1)
        for i in range(n_big)
    )
    crypto_time = epoch_timestamp(params.seed, digests, params)

    start = time.perf_counter()
    irh = irrecoverable_tag(cts, window.id)  # the full overwrite transform
    recompute_seconds = time.perf_counter() - start

    sensor = SensorDataRow(
        epoch_id=window.id, digests=digests, crypto_time=crypto_time, ciphertexts=cts
    )
    key = keyring.shared_key
    meta = MetaDataRow(
        epoch_id=window.id,
        bt=window.bt,
        et=window.et,
        enc_crypto_time=seal(key, SEALED_TIME, window.id, timestamp_anchor(crypto_time)),
        enc_accessible_tag=seal(key, SEALED_ACCESSIBLE, window.id, accessible_tag(cts)),
        enc_irrecoverable_tag=seal(key, SEALED_IRRECOVERABLE, window.id, irh),
    )
    store = CloudStore(policy)
    store.ingest(sensor, meta)
    store.tick(3000)  # runs the transform honestly; stores the proof
    assert store.state_of(0) is DataState.IRRECOVERABLE
    transport = LoopbackTransport(CloudService(store).handle)
    transfers = []
    for _ in range(3):
        bundle, elapsed = CloudService.fetch_bundle_via(transport, 0, 3000)
        transfers.append(elapsed)
    transfer_seconds = min(transfers)
    assert bundle.deletion_proof.proof == irh
    ratio = recompute_seconds / transfer_seconds
    assert ratio >= 20.0, (
        f"recompute {recompute_seconds:.2f}s vs transfer {transfer_seconds:.3f}s: {ratio:.1f}x"
    )

    # --- lazy cloud flagged by the time bound -------------------------------
    def build_store(lazy: bool) -> CloudStore:
        s = (LazyCloudStore if lazy else CloudStore)(policy)
        prev = params.seed
        # epoch 2000, still accessible at 3000, is the verifier's reference fetch
        for k in range(3):
            w = EpochWindow(k * 1000, (k + 1) * 1000)
            readings = [
                SensorReading(
                    device_id=bytes([0x02, i % 250, k]) + b"dev",
                    time=w.bt + (i % 1000),
                    payload=rng.randbytes(220),
                )
                for i in range(2048)
            ]
            sensor_row, meta_row = build_outsource_payload(
                w, readings, prev, keyring, params
            )
            prev = sensor_row.crypto_time
            s.ingest(sensor_row, meta_row)
        s.tick(2000)  # nothing due yet; epoch 0 due at 3000
        return s

    def run_trials(s: CloudStore, trials: int) -> list[bool]:
        verifier = EpochVerifier(LoopbackTransport(CloudService(s).handle), keyring, params, policy)
        flagged = []
        for _ in range(trials):
            report = verifier.verify(0, 3000, "sdp")
            assert report.state_claimed is DataState.IRRECOVERABLE
            assert report.time_bound_applies, "trial epochs must be large enough for the bound"
            assert report.completeness_ok and report.tag_match  # no unrelated failure
            flagged.append(report.time_bound_ok is False)
        return flagged

    honest_store = build_store(lazy=False)
    honest_store.tick(3000)  # deletes on schedule
    lazy_store = build_store(lazy=True)
    lazy_store.tick(3000)  # pretends; nothing deleted

    lazy_flags = run_trials(lazy_store, 100)
    lazy_rate = sum(lazy_flags) / len(lazy_flags)
    honest_flags = run_trials(honest_store, 20)
    assert lazy_rate >= 0.95, f"lazy cloud flagged in only {lazy_rate:.0%} of trials"
    assert not any(honest_flags), "honest cloud falsely accused"
    _note(
        "test_criterion_8_deletion_time_asymmetry",
        f"{ratio:.0f}x asymmetry; lazy flagged {lazy_rate:.0%}, honest clean",
    )


def test_criterion_9_benchmark_trends():
    """Per-epoch control and expunge times rise with epoch duration."""
    config = ScenarioConfig(
        day_rate_per_hour=120.0, night_rate_per_hour=120.0, modulus_bits=1024, seed=909
    )
    exp1 = bench(config, 1)
    control = exp1.values("control_per_epoch")
    assert len(control) == 3 and control[0] < control[1] < control[2], (
        f"control_per_epoch {control}"
    )
    tags_per_day = exp1.values("tags_per_day")
    assert len(tags_per_day) == 3 and tags_per_day[0] < tags_per_day[1] < tags_per_day[2], (
        f"tags_per_day {tags_per_day}"
    )

    exp4 = bench(config, 4)
    expunge_times = exp4.values("expunge_per_epoch")
    assert len(expunge_times) == 3
    assert expunge_times[0] < expunge_times[1] < expunge_times[2], (
        f"expunge_per_epoch {expunge_times}"
    )
    _note(
        "test_criterion_9_benchmark_trends",
        "control, per-day tags, and expunge all rise with epoch duration",
    )
