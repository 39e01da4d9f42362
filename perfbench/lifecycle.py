"""One deployment and the rounds of its retention lifecycle.

A round replays a workload end to end on a virtual clock with one
closed-loop client: the provider outsources each epoch to the cloud,
users sign queries that the service provider logs, the cloud's scheduler
deletes and purges on policy, users and the provider verify epochs in
both states, and at each epoch boundary the provider audits the query
blocks sealed since the last one. Every role is driven through its
public API over ``wire.LoopbackTransport``, in this one process, with
no extra threads.

Only the calls named in a phase are inside its timer; the correctness
checks, and the re-encoding the benchmark does to count bytes, are not.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field, replace

from expunge import accumulator, engine
from expunge.attestation import (
    calibrate_time_bound,
    recompute_estimate_for_bundle,
    verify_bundle,
    verify_completeness,
)
from expunge.cloud import CloudStore
from expunge.control import build_outsource_payload
from expunge.core import NEVER, DataState, EpochWindow, RetentionPolicy
from expunge.crypto import generate_keyring
from expunge.errors import DataExpiredError, UnavailableError
from expunge.querylog import QueryLogger, audit_block, make_query_record
from expunge.wire import CloudService, LoopbackTransport, SpService

import checks
from hostspeed import HostSpeed
from tracing import COUNT
from workloads import Inputs, Shape, make_inputs

#: Accumulator parameters are public deployment constants: every run
#: searches the same primes, so set-up time does not depend on --seed.
PARAMS_SEED = 2003_04969
MODULUS_BITS = 2048
SP_ID = b"sp-main"
#: Fetched bundles a traced run keeps for its layer probes.
KEEP_BUNDLES = 16


@dataclass
class Deployment:
    shape: Shape
    inputs: Inputs
    params: accumulator.AccumulatorParams
    keyring: object
    registry: dict
    policy: RetentionPolicy


def deploy(shape: Shape, seed: int) -> Deployment:
    params = accumulator.setup(MODULUS_BITS, rng=random.Random(PARAMS_SEED))
    inputs = make_inputs(shape, seed)
    keyring = generate_keyring(list(inputs.user_ids))
    return Deployment(
        shape=shape,
        inputs=inputs,
        params=params,
        keyring=keyring,
        registry=keyring.user_public_keys(),
        policy=RetentionPolicy(p_del=shape.p_del, p_ver=shape.p_ver, delta=shape.delta_ms),
    )


@dataclass
class Stack:
    """The roles of one round: an empty store and query log behind loopbacks."""

    store: CloudStore
    logger: QueryLogger
    cloud: LoopbackTransport
    sp: LoopbackTransport


def new_stack(dep: Deployment) -> Stack:
    store = CloudStore(dep.policy, root=None, sp_allowlist=frozenset({SP_ID}))
    logger = QueryLogger(
        capacity=dep.shape.block_capacity,
        time_limit=dep.shape.block_time_limit_ms,
        params=dep.params,
        sdp_public=dep.keyring.sdp_box_public,
        registry=dep.registry,
        start_time=0,
    )
    return Stack(
        store=store,
        logger=logger,
        cloud=LoopbackTransport(CloudService(store).handle),
        sp=LoopbackTransport(SpService(logger).handle),
    )


@dataclass
class Totals:
    """Work and phase time summed over all rounds of a run."""

    outsource_s: float = 0.0
    outsourced_readings: int = 0
    tick_s: float = 0.0
    expunged_readings: int = 0
    verify_s: float = 0.0
    verified_epochs: int = 0
    log_s: float = 0.0
    logged_queries: int = 0
    audit_s: float = 0.0
    audited_queries: int = 0
    bundle_bytes: int = 0
    bundle_readings: int = 0
    peak_stored_bytes: int = 0
    raw_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    time_bound_trips: int = 0
    host: HostSpeed = field(default_factory=HostSpeed)
    problems: list[str] = field(default_factory=list)

    @property
    def phase_s(self) -> float:
        return self.outsource_s + self.tick_s + self.verify_s + self.log_s + self.audit_s

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)


@dataclass
class Material:
    """Rows and bundles of the last round, the traced run's probe inputs."""

    rows: list = field(default_factory=list)
    bundles: list = field(default_factory=list)


def _flip_first_digest(bundle):
    first = bytes([bundle.digests[0][0] ^ 0x01]) + bundle.digests[0][1:]
    return replace(bundle, digests=(first,) + bundle.digests[1:])


class Round:
    def __init__(self, dep: Deployment, stack: Stack, totals: Totals, spans, material: Material | None, deep_checks: bool):
        self.dep = dep
        self.stack = stack
        self.totals = totals
        self.spans = spans
        self.material = material
        self.deep_checks = deep_checks
        self.rtt_ref: tuple[int, float] | None = None
        self.sample_bundle = None
        self.sample_block = None
        self.audited_blocks = 0
        self.audited_records = 0

    # -- phases ---------------------------------------------------------------

    def log_queries(self, k: int, first_index: int) -> None:
        t, dep, spans = self.totals, self.dep, self.spans
        logger = self.stack.logger
        for i, q in enumerate(dep.inputs.queries[k]):
            t.host.sample()
            t.attempted += 1
            sealed_before = len(logger.sealed_blocks)
            start = time.perf_counter()
            try:
                with spans.span("query", first_index + i):
                    with spans.span("querylog.make_query_record", first_index + i):
                        record = make_query_record(
                            q.query, q.time, q.user_id, dep.keyring.user_signing_keys[q.user_id]
                        )
                    with spans.span("sp.query_via", first_index + i) as row:
                        SpService.query_via(self.stack.sp, record, q.time)
                        row[COUNT] = len(logger.sealed_blocks) - sealed_before
            except Exception as exc:
                t.fail(f"query {first_index + i}: {exc!r}")
                continue
            t.log_s += time.perf_counter() - start
            t.logged_queries += 1

    def outsource(self, k: int, prev_ct, expected_ct: int):
        """Outsource epoch ``k``; returns (timestamp, independently chained value)."""
        t, dep, spans = self.totals, self.dep, self.spans
        delta = dep.shape.delta_ms
        readings = list(dep.inputs.readings[k])
        window = EpochWindow(bt=k * delta, et=(k + 1) * delta)
        t.attempted += 1
        start = time.perf_counter()
        try:
            with spans.span("control.build_outsource_payload", k, len(readings)):
                sensor_row, meta_row = build_outsource_payload(
                    window, readings, prev_ct, dep.keyring, dep.params
                )
            with spans.span("cloud.ingest_via", k):
                CloudService.ingest_via(self.stack.cloud, sensor_row, meta_row)
        except Exception as exc:
            t.fail(f"outsource epoch {k}: {exc!r}")
            return prev_ct, expected_ct, None
        t.outsource_s += time.perf_counter() - start
        t.outsourced_readings += len(readings)
        expected_ct = checks.chain_step(
            expected_ct, [r.device_id for r in readings], window.id, dep.params.modulus
        )
        t.check(sensor_row.crypto_time.value == expected_ct, f"crypto_time of epoch {k}")
        if self.material is not None:
            self.material.rows.append((sensor_row, meta_row, readings))
        return sensor_row.crypto_time, expected_ct, sensor_row

    def tick(self, k: int, now: int):
        t = self.totals
        t.attempted += 1
        start = time.perf_counter()
        try:
            with self.spans.span("cloud.tick_via", k):
                transitions = CloudService.tick_via(self.stack.cloud, now)
        except Exception as exc:
            t.fail(f"tick at {now}: {exc!r}")
            return []
        t.tick_s += time.perf_counter() - start
        delta = self.dep.shape.delta_ms
        for tr in transitions:
            if tr.to_state is DataState.IRRECOVERABLE:
                t.expunged_readings += len(self.dep.inputs.readings[tr.epoch_id // delta])
        return transitions

    def verify(self, j: int, now: int, role: str, device: bytes | None) -> None:
        t, dep, spans = self.totals, self.dep, self.spans
        shape = dep.shape
        bt = j * shape.delta_ms
        t.attempted += 1
        try:
            with spans.span("verify", j):
                start = time.perf_counter()
                with spans.span("wire.fetch_bundle_via", j):
                    bundle, elapsed = CloudService.fetch_bundle_via(self.stack.cloud, bt, now)
                fetched = time.perf_counter()
                raw = bundle.to_bytes()  # the size the verifier received; not timed
                resumed = time.perf_counter()
                if bundle.state is DataState.ACCESSIBLE or self.rtt_ref is None:
                    rtt = elapsed
                else:
                    ref_bytes, ref_s = self.rtt_ref
                    rtt = ref_s * max(0.25, len(raw) / ref_bytes)
                with spans.span("attestation.recompute_estimate_for_bundle", j):
                    estimate = recompute_estimate_for_bundle(bundle)
                with spans.span("attestation.calibrate_time_bound", j):
                    tau, applicable = calibrate_time_bound(rtt, estimate)
                with spans.span("attestation.verify_bundle", j):
                    report = verify_bundle(
                        bundle,
                        dep.keyring.shared_key,
                        dep.params,
                        dep.policy,
                        role=role,
                        device_id=device,
                        response_time=elapsed,
                        time_bound=tau,
                        time_bound_applicable=applicable,
                    )
                t.verify_s += (fetched - start) + (time.perf_counter() - resumed)
        except Exception as exc:
            t.fail(f"verify epoch {j} as {role}: {exc!r}")
            return
        t.verified_epochs += 1
        if bundle.state is DataState.ACCESSIBLE:
            self.rtt_ref = (len(raw), elapsed)
        readings = dep.inputs.readings[j]
        t.bundle_bytes += len(raw)
        t.bundle_readings += len(readings)
        state = checks.expected_state(bt, shape.delta_ms, shape.p_del, shape.p_ver, now)
        t.check(int(bundle.state) == state, f"state of epoch {j} at {now}")
        # The time bound compares wall-clock times, so its verdict is not
        # repeatable; trips are counted apart from the gated verdicts.
        if report.time_bound_ok is False:
            t.time_bound_trips += 1
        t.check(report.completeness_ok and report.state_ok, f"{role} verification of epoch {j}")
        if device is not None:
            expected = checks.positions_of(device, [r.device_id for r in readings])
            t.check(report.membership_positions == expected, f"membership in epoch {j}")
        self.sample_bundle = bundle
        if self.material is not None and len(self.material.bundles) < KEEP_BUNDLES:
            self.material.bundles.append((raw, device))

    def audit(self) -> None:
        """Audit every block sealed since the last call, as the provider would."""
        t, dep, spans = self.totals, self.dep, self.spans
        sealed = len(self.stack.logger.sealed_blocks)
        for block_id in range(self.audited_blocks + 1, sealed + 1):
            t.host.sample()
            t.attempted += 1
            start = time.perf_counter()
            try:
                with spans.span("audit", block_id):
                    with spans.span("sp.audit_fetch_via", block_id):
                        block, prev = SpService.audit_fetch_via(self.stack.sp, block_id)
                    prev = dep.params.seed if prev is None else prev
                    with spans.span("querylog.audit_block", block_id, len(block.encrypted_records)):
                        report = audit_block(
                            block, prev, dep.keyring.sdp_box_private, dep.params, dep.registry
                        )
            except Exception as exc:
                t.fail(f"audit block {block_id}: {exc!r}")
                continue
            t.audit_s += time.perf_counter() - start
            t.audited_queries += len(block.encrypted_records)
            self.audited_records += len(block.encrypted_records)
            t.check(report.ok, f"audit of block {block_id}")
            if block.encrypted_records and self.sample_block is None:
                self.sample_block = (block, prev)
        self.audited_blocks = sealed

    # -- the lifecycle ----------------------------------------------------------

    def run(self) -> None:
        t, dep, spans = self.totals, self.dep, self.spans
        shape = dep.shape
        store, cloud = self.stack.store, self.stack.cloud
        delta = shape.delta_ms
        drain = shape.p_del if shape.p_ver is NEVER else shape.p_ver
        prev_ct = expected_ct = dep.params.seed
        sizes: dict[int, int] = {}
        raw_bytes = stored = peak_stored = 0
        originals: dict[int, tuple[bytes, ...]] = {}
        query_index = 0
        now = 0

        def store_size(eid: int) -> None:
            nonlocal stored
            size = len(store.record(eid).to_bytes())
            stored += size - sizes.get(eid, 0)
            sizes[eid] = size

        for k in range(shape.epochs + drain):
            now = (k + 1) * delta
            t.host.sample()
            with spans.span("epoch", k):
                if k < shape.epochs:
                    self.log_queries(k, query_index)
                    query_index += len(dep.inputs.queries[k])
                    prev_ct, expected_ct, sensor_row = self.outsource(k, prev_ct, expected_ct)
                    if sensor_row is not None:
                        raw_bytes += sum(len(r.to_bytes()) for r in dep.inputs.readings[k])
                        store_size(k * delta)
                        if self.deep_checks:
                            originals[k * delta] = sensor_row.ciphertexts
                for tr in self.tick(k, now):
                    store_size(tr.epoch_id)
                    if tr.to_state is DataState.IRRECOVERABLE and tr.epoch_id in originals:
                        segment = store.record(tr.epoch_id).to_bytes()
                        t.check(
                            checks.residue_free(originals.pop(tr.epoch_id), segment),
                            f"ciphertext residue in deleted epoch {tr.epoch_id // delta}",
                        )
                peak_stored = max(peak_stored, stored)

                if k < shape.epochs:
                    try:
                        CloudService.fetch_sp_via(cloud, k * delta, SP_ID, now)
                        t.check(True, "")
                    except Exception as exc:
                        t.check(False, f"provider fetch of fresh epoch {k}: {exc!r}")
                expired = k - shape.p_del
                if 0 <= expired < shape.epochs:
                    try:
                        CloudService.fetch_sp_via(cloud, expired * delta, SP_ID, now)
                        t.check(False, f"provider fetch of deleted epoch {expired} served")
                    except DataExpiredError:
                        t.check(True, "")

                if k < shape.epochs and k % shape.verify_every == 0:
                    self.verify(k, now, "user", dep.inputs.lookups[k])
                    if shape.provider_verifies:
                        self.verify(k, now, "sdp", None)
                if 0 <= expired < shape.epochs and expired % shape.verify_every == 0:
                    self.verify(expired, now, "user", dep.inputs.lookups[expired])
                    if shape.provider_verifies:
                        self.verify(expired, now, "sdp", None)

                purged = k - shape.p_ver if shape.p_ver is not NEVER else -1
                if 0 <= purged < shape.epochs and purged % shape.verify_every == 0:
                    try:
                        CloudService.fetch_bundle_via(cloud, purged * delta, now)
                        t.check(False, f"purged epoch {purged} still served")
                    except UnavailableError:
                        t.check(True, "")
            self.audit()

        t.check(not originals, f"{len(originals)} epochs never deleted")
        t.peak_stored_bytes = max(t.peak_stored_bytes, peak_stored)
        t.raw_bytes = raw_bytes
        t.attempted += 1
        sealed_before = len(self.stack.logger.sealed_blocks)
        start = time.perf_counter()
        with spans.span("querylog.flush") as row:
            self.stack.logger.flush(now)
            row[COUNT] = len(self.stack.logger.sealed_blocks) - sealed_before
        t.log_s += time.perf_counter() - start
        self.audit()
        sent = sum(len(qs) for qs in dep.inputs.queries)
        t.check(self.audited_records == sent, f"{self.audited_records} sealed records for {sent} queries")
        if self.sample_block is not None:
            block, prev = self.sample_block
            dropped = replace(block, encrypted_records=block.encrypted_records[1:])
            report = audit_block(dropped, prev, dep.keyring.sdp_box_private, dep.params, dep.registry)
            t.check(not report.ok, "audit of a block with one record dropped")
        if self.sample_bundle is not None:
            ok, _ = verify_completeness(_flip_first_digest(self.sample_bundle), dep.params)
            t.check(not ok, "completeness of a bundle with one digest flipped")


def fresh_verifier() -> None:
    """Start each round as a fresh verifier process would: no calibrations cached."""
    cache = getattr(engine, "_calibration_cache", None)
    if isinstance(cache, dict):
        cache.clear()
