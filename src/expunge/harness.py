"""Multi-role simulation harness.

Generates synthetic WiFi-connectivity readings, wires the four roles
(provider, cloud, service provider, users) together over the wire
protocol, replays scenarios against a virtual clock, and reproduces the
desk-scale benchmark suite.

A scenario run is one ``_Run`` advanced through its phases in order:
arrival epochs (outsource, tick, SP fetches, queries, periodic checks),
drain, purged-bundle probe, final SDP check, tamper injection, audit and
save. One generator chains the outsourcing of every epoch for the
scenario and for benchmark experiments 2 and 3. Every verification, in
a run and in experiment 3, goes through ``attestation.EpochVerifier``,
the same step the CLI's ``verify`` takes.

Protocol logic runs entirely on the virtual clock so state timelines
replay identically; wall time is measured only where a benchmark or the
deletion time bound needs it. A run keeps its wall-clock values in one
record, its measurements: each epoch's control-phase and SP-fetch
seconds, and the report fields of each verification that are wall-clock
values or verdicts resting on them (``attestation.WALL_CLOCK_FIELDS``),
so a transcript replays byte for byte. ``StateDir`` alone knows the
files of a saved run. Fault injection runs the cloud as
``LazyCloudStore`` (skips deletion, fabricates proofs on demand) or
makes the service provider tamper with a sealed query block, so tests
can show that exactly the right check catches each.
"""

from __future__ import annotations

import base64
import gc
import json
import math
import platform
import random
import time
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from .accumulator import AccumulatorParams, setup
from .attestation import WALL_CLOCK_FIELDS, EpochVerifier
from .cloud import CloudStore, EpochRecord
from .control import (
    accessible_tag,
    build_outsource_payload,
    encrypt_epoch,
    irrecoverable_tag,
)
from .core import (
    NEVER,
    DataState,
    EpochWindow,
    RetentionPolicy,
    SensorReading,
    deletion_due,
    epoch_of,
    state_at,
)
from .crypto import SYMMETRIC_KEY_BYTES, KeyRing, generate_keyring
from .engine import CellArray, expunge, expunge_ciphertexts
from .errors import DataExpiredError, DomainError, IntegrityError, UnavailableError, WireError
from .messages import AttestationBundle, SealedBlock
from .querylog import AuditReport, QueryLogger, audit_block, make_query_record
from .wire import CloudService, LoopbackTransport, SocketTransport, SpService, serve

MS_PER_HOUR = 3_600_000
MS_PER_DAY = 24 * MS_PER_HOUR


# a type each of these config fields accepts besides its default's (a bool is never an int)
_ALSO_ACCEPTS = {"day_rate_per_hour": int, "night_rate_per_hour": int, "drain_epochs": int}


@dataclass
class ScenarioConfig:
    """Everything a scenario or benchmark run needs, JSON-serializable."""

    delta_ms: int = MS_PER_HOUR
    p_del: int = 2
    p_ver: int | float = 4
    arrival_epochs: int = 8
    drain_epochs: int | None = None
    device_count: int = 20
    user_count: int = 8
    day_rate_per_hour: float = 120.0
    night_rate_per_hour: float = 30.0
    day_hours: tuple[int, int] = (8, 20)
    payload_mean_bytes: int = 230
    payload_jitter_bytes: int = 40
    modulus_bits: int = 2048
    seed: int = 7
    queries_per_epoch: int = 2
    block_capacity: int = 4
    verify_every_epochs: int = 2
    sp_id: str = "sp-main"
    lazy_cloud: bool = False
    tampering_sp: bool = False
    transport: str = "loopback"

    def __post_init__(self):
        if self.day_rate_per_hour < 0 or self.night_rate_per_hour < 0:
            raise DomainError("arrival rates must be non-negative")
        if self.arrival_epochs < 1:
            raise DomainError("need at least one arrival epoch")
        if self.user_count < 1 or self.device_count < 1:
            raise DomainError("need at least one registered user and device")
        if self.transport not in ("loopback", "socket"):
            raise DomainError(f"unknown transport {self.transport!r}")
        if self.drain_epochs is None:
            horizon = self.p_del + 2 if self.p_ver is NEVER else int(self.p_ver) + 2
            self.drain_epochs = horizon
        if self.verify_every_epochs < 1:
            raise DomainError("verify_every_epochs must be at least 1")
        if self.queries_per_epoch < 0 or self.drain_epochs < 0:
            raise DomainError("queries_per_epoch and drain_epochs must be non-negative")

    def require_state_machine_coverage(self) -> None:
        """Scenario runs must cover p_ver + 1 epochs to exercise every state."""
        if self.p_ver is not NEVER:
            covered = self.arrival_epochs + self.drain_epochs
            if covered < self.p_ver + 1:
                raise DomainError(
                    "scenario must cover at least p_ver + 1 epochs for full"
                    " state-machine coverage"
                )

    @property
    def policy(self) -> RetentionPolicy:
        return RetentionPolicy(p_del=self.p_del, p_ver=self.p_ver, delta=self.delta_ms)

    def open_store(self, root: Path | None) -> CloudStore:
        """The cloud this config runs, lazy or honest, kept under ``root`` (None: in memory)."""
        return (LazyCloudStore if self.lazy_cloud else CloudStore)(
            self.policy, root=root, sp_allowlist=frozenset({self.sp_id.encode()})
        )

    def to_dict(self) -> dict:
        doc = {
            k: v for k, v in self.__dict__.items() if not k.startswith("_")
        }
        doc["p_ver"] = "inf" if self.p_ver is NEVER else self.p_ver
        doc["day_hours"] = list(self.day_hours)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        """A config from its JSON object, each value of its default's type (or as README allows)."""
        if not isinstance(doc, dict):
            raise DomainError("config must be a JSON object")
        doc = dict(doc)
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise DomainError(f"unknown config field(s): {', '.join(unknown)}")
        for name, value in doc.items():
            if name == "p_ver" and value == "inf":
                doc[name] = NEVER
            elif name == "day_hours":
                if not isinstance(value, (list, tuple)) or [type(h) for h in value] != [int, int]:
                    raise DomainError(f"config field day_hours must be two ints, not {value!r}")
                doc[name] = tuple(value)
            elif type(value) not in (type(defaults[name]), _ALSO_ACCEPTS.get(name)):
                raise DomainError(f"config field {name} cannot be {value!r}")
        return cls(**doc)

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Path) -> "ScenarioConfig":
        return cls.from_dict(json.loads(path.read_text()))


# -- synthetic readings -------------------------------------------------------


def device_pool(config: ScenarioConfig) -> list[bytes]:
    """Fixed synthetic MAC pool; locally-administered, seed-deterministic."""
    rng = random.Random(config.seed ^ 0x5EED)
    return [
        bytes([0x02]) + rng.randbytes(5) for _ in range(config.device_count)
    ]


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam < 30:
        threshold = math.exp(-lam)
        k = 0
        product = rng.random()
        while product > threshold:
            k += 1
            product *= rng.random()
        return k
    return max(0, round(rng.gauss(lam, math.sqrt(lam))))


def _payload(rng: random.Random, config: ScenarioConfig) -> bytes:
    ap = f"ap-{rng.randrange(max(4, config.device_count // 4)):04d}".encode()
    size = max(0, round(rng.gauss(config.payload_mean_bytes, config.payload_jitter_bytes)))
    return ap + b"|" + rng.randbytes(size)


def hourly_rate(config: ScenarioConfig, hour_of_day: int) -> float:
    start, end = config.day_hours
    return (
        config.day_rate_per_hour
        if start <= hour_of_day < end
        else config.night_rate_per_hour
    )


def generate_readings(config: ScenarioConfig) -> list[SensorReading]:
    """Deterministic-for-seed stream over the arrival window.

    Arrival counts are Poisson per hour with a day/night rate profile;
    payloads look like connectivity traps: an access-point id plus an
    opaque body.
    """
    rng = random.Random(config.seed)
    devices = device_pool(config)
    end = config.arrival_epochs * config.delta_ms
    readings: list[SensorReading] = []
    for hour_start in range(0, end, MS_PER_HOUR):
        window_end = min(end, hour_start + MS_PER_HOUR)
        rate = hourly_rate(config, (hour_start // MS_PER_HOUR) % 24)
        lam = rate * (window_end - hour_start) / MS_PER_HOUR
        count = _poisson(rng, lam)
        times = sorted(rng.randrange(hour_start, window_end) for _ in range(count))
        for t in times:
            readings.append(
                SensorReading(
                    device_id=rng.choice(devices),
                    time=t,
                    payload=_payload(rng, config),
                )
            )
    return readings


# -- benchmark reporting -------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    value: float
    unit: str
    params: dict


@dataclass
class BenchmarkReport:
    label: str
    metadata: dict = field(default_factory=dict)
    entries: list[BenchmarkEntry] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, **params) -> None:
        self.entries.append(BenchmarkEntry(name, value, unit, params))

    def values(self, name: str) -> list[float]:
        return [e.value for e in self.entries if e.name == name]

    def table(self) -> str:
        lines = [f"# {self.label}"]
        width = max((len(e.name) for e in self.entries), default=0)
        for e in self.entries:
            params = " ".join(f"{k}={v}" for k, v in e.params.items())
            lines.append(f"{e.name:<{width}}  {e.value:>12.6f} {e.unit:<8} {params}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "metadata": self.metadata,
            "entries": [
                {"name": e.name, "value": e.value, "unit": e.unit, "params": e.params}
                for e in self.entries
            ],
        }


# -- scenario ------------------------------------------------------------------


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    transcript: list[dict]
    summary: dict
    measurements: list[dict]  # wall-clock values: control, sp_fetch and verify entries


def _outsource_epochs(
    config: ScenarioConfig,
    readings: list[SensorReading],
    keyring: KeyRing,
    params: AccumulatorParams,
):
    """Yield ``(window, readings, sensor_row, meta_row)`` per arrival epoch.

    Readings are grouped by epoch and each epoch's rows chain from the
    previous epoch's timestamp (the seed for the first).
    """
    by_epoch: dict[int, list[SensorReading]] = {}
    for reading in readings:
        window = epoch_of(reading.time, config.delta_ms)
        by_epoch.setdefault(window.id, []).append(reading)
    prev = params.seed
    for k in range(config.arrival_epochs):
        window = epoch_of(k * config.delta_ms, config.delta_ms)
        epoch_readings = by_epoch.get(window.id, [])
        sensor_row, meta_row = build_outsource_payload(
            window, epoch_readings, prev, keyring, params
        )
        prev = sensor_row.crypto_time
        yield window, epoch_readings, sensor_row, meta_row


class LazyCloudStore(CloudStore):
    """A dishonest cloud that never deletes and fabricates each proof on request.

    A tick changes no record. A due epoch is served irrecoverable, with a
    proof that is correct but late, which the deletion time bound catches.
    """

    def _schedule(self, record: EpochRecord) -> None:
        pass

    def fetch_bundle(self, at: int, now: int) -> AttestationBundle:
        bundle = super().fetch_bundle(at, now)
        record = self.record(bundle.epoch_id)
        if bundle.state is DataState.ACCESSIBLE and deletion_due(record.window, self.policy) <= now:
            # nothing was overwritten: the proof is computed now, from the kept ciphertexts
            return replace(
                bundle,
                state=DataState.IRRECOVERABLE,
                ciphertexts=None,
                enc_state_tag=record.enc_irrecoverable_tag,
                deletion_proof=expunge_ciphertexts(record.ciphertexts, record.epoch_id, now),
            )
        return bundle


class StateDir:
    """The files of one saved run, named here and nowhere else.

    ``run --state`` writes them all, the cloud store writing its own
    segments under ``cloud/``; ``verify``, ``tick`` and ``audit`` read
    them back. A file read here is input from outside the program: one
    that does not hold what a run saves there raises ``DomainError``,
    and a missing one ``OSError``.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.cloud = self.root / "cloud"

    def _block_path(self, block_id: int) -> Path:
        return self.root / "blocks" / f"{block_id:06d}.blk"

    def save(self, run: _Run, summary: dict) -> None:
        """Write every file of ``run`` but the cloud segments."""
        run.config.save(self.root / "config.json")
        self.save_keyring(run.keyring)
        (self.root / "params.bin").write_bytes(run.params.to_bytes())
        (self.root / "blocks").mkdir(exist_ok=True)
        for block in run.logger.sealed_blocks:
            self._block_path(block.block_id).write_bytes(block.to_bytes())
        self.save_clock(run.now)
        (self.root / "transcript.json").write_text(json.dumps(run.transcript, indent=1))
        (self.root / "measurements.json").write_text(json.dumps(run.measurements, indent=1))
        (self.root / "summary.json").write_text(json.dumps(summary, indent=1))

    def save_keyring(self, keyring: KeyRing) -> None:
        """Plaintext JSON, so that a run can be resumed; not a key-management scheme."""

        def b64(raw: bytes) -> str:
            return base64.b64encode(raw).decode()

        doc = {
            "enclave_private": b64(keyring.enclave_private.private_bytes_raw()),
            "sdp_box_private": b64(keyring.sdp_box_private.private_bytes_raw()),
            "shared_key": b64(keyring.shared_key),
            "user_signing_keys": {
                uid.hex(): b64(key.private_bytes_raw())
                for uid, key in keyring.user_signing_keys.items()
            },
        }
        (self.root / "keyring.json").write_text(json.dumps(doc, indent=2))

    def keyring(self) -> KeyRing:
        doc = json.loads((self.root / "keyring.json").read_text())
        b64 = partial(base64.b64decode, validate=True)
        try:
            keyring = KeyRing(
                enclave_private=X25519PrivateKey.from_private_bytes(b64(doc["enclave_private"])),
                sdp_box_private=X25519PrivateKey.from_private_bytes(b64(doc["sdp_box_private"])),
                shared_key=b64(doc["shared_key"]),
                user_signing_keys={
                    bytes.fromhex(uid): Ed25519PrivateKey.from_private_bytes(b64(raw))
                    for uid, raw in doc["user_signing_keys"].items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DomainError(f"keyring.json holds no keyring: {exc!r}") from exc
        if len(keyring.shared_key) != SYMMETRIC_KEY_BYTES:
            raise DomainError(f"keyring.json: shared_key is not {SYMMETRIC_KEY_BYTES} bytes")
        return keyring

    def config(self) -> ScenarioConfig:
        return ScenarioConfig.load(self.root / "config.json")

    def params(self) -> AccumulatorParams:
        return AccumulatorParams.from_bytes((self.root / "params.bin").read_bytes())

    def clock(self) -> int:
        """The virtual clock at the end of the run, or at the last ``tick``."""
        meta = json.loads((self.root / "meta.json").read_text())
        if not isinstance(meta, dict) or type(meta.get("clock")) is not int:
            raise DomainError("meta.json holds no integer clock")
        return meta["clock"]

    def save_clock(self, now: int) -> None:
        (self.root / "meta.json").write_text(json.dumps({"clock": now}))

    def store(self, config: ScenarioConfig) -> CloudStore:
        """The saved cloud store; opening a missing one would create an empty one."""
        if not (self.cloud / "segments").is_dir():
            raise FileNotFoundError(f"no cloud store: {self.cloud / 'segments'} is missing")
        return config.open_store(self.cloud)

    def block(self, block_id: int) -> SealedBlock | None:
        """Sealed block ``block_id`` as saved, or None if it has no file."""
        path = self._block_path(block_id)
        return SealedBlock.from_bytes(path.read_bytes()) if path.exists() else None


class _Run:
    """State of one scenario run, advanced phase by phase."""

    def __init__(self, config: ScenarioConfig, state_dir: Path | None):
        self.config = config
        self.policy = config.policy
        self.rng = random.Random(config.seed ^ 0xC0FFEE)
        self.devices = device_pool(config)
        user_ids = [f"user-{i:02d}".encode() for i in range(config.user_count)]
        self.device_owner = {d: user_ids[i % len(user_ids)] for i, d in enumerate(self.devices)}
        self.keyring = generate_keyring(user_ids)
        self.registry = self.keyring.user_public_keys()
        self.params = setup(config.modulus_bits)
        self.sp_id = config.sp_id.encode()

        self.state = StateDir(state_dir) if state_dir is not None else None
        self.store = config.open_store(self.state and self.state.cloud)
        self.logger = QueryLogger(
            capacity=config.block_capacity,
            time_limit=config.delta_ms,
            params=self.params,
            sdp_public=self.keyring.sdp_box_public,
            registry=self.registry,
        )
        handlers = (CloudService(self.store).handle, SpService(self.logger).handle)
        self.servers = [serve(h) for h in handlers] if config.transport == "socket" else []
        if self.servers:
            self.cloud, self.sp = (
                SocketTransport("127.0.0.1", s.server_address[1]) for s in self.servers
            )
        else:
            self.cloud, self.sp = (LoopbackTransport(h) for h in handlers)
        self.verifier = EpochVerifier(self.cloud, self.keyring, self.params, self.policy)
        self.now = 0  # the virtual clock; each phase only moves it forward
        self.transcript: list[dict] = []
        self.measurements: list[dict] = []
        self.arrived: list[EpochWindow] = []
        self.verifications = 0
        self.verification_failures = 0
        self.audits_failed = 0

    def close(self) -> None:
        self.cloud.close()
        self.sp.close()
        for server in self.servers:
            server.shutdown()
            server.server_close()

    # -- helpers shared by the phases -------------------------------------

    def emit(self, actor: str, event: str, **fields) -> None:
        self.transcript.append({"t": self.now, "actor": actor, "event": event, **fields})

    def measure(self, event: str, epoch_id: int, **values) -> None:
        self.measurements.append({"t": self.now, "event": event, "epoch_id": epoch_id, **values})

    def epochs_in(self, state: DataState) -> list[int]:
        return [eid for eid in self.store.epoch_ids() if self.store.state_of(eid) is state]

    def tick(self) -> None:
        for transition in CloudService.tick_via(self.cloud, self.now):
            self.emit(
                "cloud", "transition", epoch_id=transition.epoch_id,
                **{"from": transition.from_state.name, "to": transition.to_state.name},
            )

    def sp_fetch(self, epoch_id: int, ok_event: str, **ok_fields) -> float | None:
        """Service-provider fetch, logged as ``ok_event`` or as refused."""
        try:
            _, elapsed = CloudService.fetch_sp_via(self.cloud, epoch_id, self.sp_id, self.now)
        except DataExpiredError:
            self.emit("sp", "sp_fetch_denied", epoch_id=epoch_id)
            return None
        self.emit("sp", ok_event, epoch_id=epoch_id, **ok_fields)
        return elapsed

    def verify(self, at: int, role: str, device_id: bytes | None, expect: DataState) -> None:
        self.verifications += 1
        try:
            vreport = self.verifier.verify(at, self.now, role, device_id)
        except (IntegrityError, DomainError, UnavailableError) as exc:
            # a seal that does not open, a bundle that breaks the protocol or a
            # refused epoch that the policy holds verifiable fails the check
            self.verification_failures += 1
            self.emit(
                role, "verify_rejected", epoch_id=at, expected_state=expect.name, error=str(exc)
            )
            return
        self.verification_failures += not vreport.verified
        fields = vreport.to_dict()
        self.measure(
            "verify", vreport.epoch_id, role=role, state_claimed=vreport.state_claimed.name,
            **{k: fields.pop(k) for k in WALL_CLOCK_FIELDS},
        )
        self.emit(role, "verify", expected_state=expect.name, **fields)

    # -- phases, in run order ----------------------------------------------

    def arrival_epoch(self, window, readings, sensor_row, meta_row, control_seconds) -> None:
        """Outsource one epoch; SP fetches, user queries, periodic checks."""
        k = len(self.arrived)
        self.arrived.append(window)
        self.now = window.et
        self.measure("control", window.id, seconds=control_seconds)
        CloudService.ingest_via(self.cloud, sensor_row, meta_row)
        self.emit("sdp", "ingest", epoch_id=window.id, readings=len(readings))
        self.tick()

        elapsed = self.sp_fetch(window.id, "sp_fetch", ok=True)
        if elapsed is not None:
            self.measure("sp_fetch", window.id, seconds=elapsed)
        first = self.arrived[0].id
        if k >= 1 and self.store.state_of(first) is not DataState.ACCESSIBLE:
            self.sp_fetch(first, "sp_fetch_unexpectedly_ok")

        for _ in range(self.config.queries_per_epoch):
            device = self.rng.choice(self.devices)
            user_id = self.device_owner[device]
            record = make_query_record(
                query=f"occupancy:{device.hex()}:{window.id}".encode(),
                time=self.now,
                user_id=user_id,
                signing_key=self.keyring.user_signing_keys[user_id],
            )
            SpService.query_via(self.sp, record, self.now)
            self.emit("user", "query", user=user_id.decode())

        if k % self.config.verify_every_epochs == 0:
            self.verify(window.id, "user", self.rng.choice(self.devices), DataState.ACCESSIBLE)
            self.verify(window.id, "sdp", None, DataState.ACCESSIBLE)
            # judged by the policy, not by what the cloud reports deleted
            deleted = [
                w.id for w in self.arrived
                if state_at(w, self.policy, self.now) is DataState.IRRECOVERABLE
            ]
            if deleted:
                self.verify(
                    deleted[-1], "user", self.rng.choice(self.devices), DataState.IRRECOVERABLE
                )

    def drain(self) -> None:
        """Advance past the arrivals so late transitions fire; seal the log."""
        for _ in range(self.config.drain_epochs):
            self.now += self.config.delta_ms
            self.tick()
            self.logger.advance(self.now)
        self.logger.flush(self.now)

    def probe_purged(self) -> None:
        """The oldest purged epoch must refuse its bundle."""
        purged = self.epochs_in(DataState.PURGED)
        if purged:
            try:
                CloudService.fetch_bundle_via(self.cloud, purged[0], self.now)
            except UnavailableError:
                self.emit("user", "bundle_unavailable", epoch_id=purged[0])
            else:
                self.emit("user", "bundle_unexpectedly_available", epoch_id=purged[0])

    def final_sdp_check(self) -> None:
        """The provider verifies the newest epoch still verifiable."""
        still_verifiable = self.epochs_in(DataState.IRRECOVERABLE)
        if still_verifiable:
            self.verify(still_verifiable[-1], "sdp", None, DataState.IRRECOVERABLE)

    def inject_tamper(self) -> None:
        """The service provider drops a record from its fullest sealed block."""
        blocks = self.logger.sealed_blocks
        if not blocks:
            return
        victim = max(range(len(blocks)), key=lambda i: len(blocks[i].encrypted_records))
        block = blocks[victim]
        if block.encrypted_records:
            blocks[victim] = replace(block, encrypted_records=block.encrypted_records[1:])
            self.emit("sp", "tamper_injected", block_id=block.block_id)

    def audit(self) -> None:
        """The provider audits every sealed query block."""
        for sealed in self.logger.sealed_blocks:
            try:
                fetched, prev = SpService.audit_fetch_via(self.sp, sealed.block_id)
            except (UnavailableError, WireError):  # refused, or another block came back
                audit = AuditReport(sealed.block_id, False, False, ())
            else:
                audit = audit_block(
                    fetched,
                    prev if prev is not None else self.params.seed,
                    self.keyring.sdp_box_private,
                    self.params,
                    self.registry,
                )
            self.audits_failed += not audit.ok
            self.emit(
                "sdp", "audit", block_id=sealed.block_id, ok=audit.ok,
                impersonation_suspected=audit.impersonation_suspected,
            )


def run_scenario(config: ScenarioConfig, state_dir: Path | None = None) -> ScenarioResult:
    """Drive the full dataflow end to end and return the transcript.

    Readings flow provider -> cloud; the scheduler expunges and purges
    as the virtual clock crosses policy deadlines; the service provider
    fetches fresh epochs and logs signed user queries; users and the
    provider verify epochs in both states; the provider audits the query
    log at the end.
    """
    config.require_state_machine_coverage()
    readings = generate_readings(config)
    run = _Run(config, state_dir)  # after the readings: only ``close`` stops its servers
    try:
        epochs = _outsource_epochs(config, readings, run.keyring, run.params)
        for _ in range(config.arrival_epochs):
            start = time.perf_counter()
            epoch = next(epochs)
            run.arrival_epoch(*epoch, control_seconds=time.perf_counter() - start)
        run.drain()
        run.probe_purged()
        run.final_sdp_check()
        if config.tampering_sp:
            run.inject_tamper()
        run.audit()
    finally:
        run.close()

    summary = {
        "readings": len(readings),
        "epochs": config.arrival_epochs,
        "verifications": run.verifications,
        "verification_failures": run.verification_failures,
        "sealed_blocks": len(run.logger.sealed_blocks),
        "audits_failed": run.audits_failed,
        "final_clock": run.now,
        "states": {str(eid): run.store.state_of(eid).name for eid in run.store.epoch_ids()},
    }
    if run.state is not None:
        run.state.save(run, summary)
    return ScenarioResult(config, run.transcript, summary, run.measurements)


# -- benchmarks ----------------------------------------------------------------

BENCH_DELTAS_MS = (15 * 60_000, MS_PER_HOUR, MS_PER_DAY)
#: Timed passes over the inputs of experiments 1 and 4; each duration keeps its minimum.
BENCH_DAY_PASSES = 3


def _flat_rate_epoch(
    config: ScenarioConfig, window: EpochWindow, rng: random.Random
) -> list[SensorReading]:
    """One epoch of readings inside ``window`` at the configured day rate, flat profile."""
    count = max(1, round(config.day_rate_per_hour * window.delta / MS_PER_HOUR))
    devices = device_pool(config)
    times = sorted(rng.randrange(window.bt, window.et) for _ in range(count))
    return [
        SensorReading(
            device_id=rng.choice(devices), time=t, payload=_payload(rng, config)
        )
        for t in times
    ]


def _fastest(jobs: list) -> list[float]:
    """Each job's fastest time in seconds over ``BENCH_DAY_PASSES`` interleaved passes.

    Noise on a shared host only adds time, so the minimum is kept. As in
    ``timeit``, the cyclic garbage collector is off while a job runs, so
    a collection of garbage made elsewhere in the process is not timed.
    """
    best = [math.inf] * len(jobs)
    for _ in range(BENCH_DAY_PASSES):
        for i, job in enumerate(jobs):
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                job()
                best[i] = min(best[i], time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
    return best


def bench(config: ScenarioConfig, experiment: int) -> BenchmarkReport:
    """Reproduce one of the five desk-scale experiments.

    1: provider control-phase time per epoch and per day across epoch
    durations; 2: storage ratio outsourced/raw; 3: verification wall
    time for one day (+ year projection); 4: cloud expunge time per
    epoch size; 5: bundle transfer time, measured and at nominal link
    speeds. Each time in experiments 1 and 4 is the fastest of
    ``BENCH_DAY_PASSES`` interleaved passes over the same inputs.
    """
    if experiment not in (1, 2, 3, 4, 5):
        raise DomainError("experiment must be 1..5")

    rng = random.Random(config.seed)
    report = BenchmarkReport(f"exp{experiment}", metadata={
        "python": platform.python_version(), "machine": platform.machine(),
        "modulus_bits": config.modulus_bits, "seed": config.seed,
    })
    keyring = generate_keyring([])
    params = setup(config.modulus_bits)

    if experiment in (1, 4):
        windows = [epoch_of(0, delta_ms) for delta_ms in BENCH_DELTAS_MS]
        epochs = [(window, _flat_rate_epoch(config, window, rng)) for window in windows]

    if experiment == 1:
        seconds = _fastest([
            partial(build_outsource_payload, window, readings, params.seed, keyring, params)
            for window, readings in epochs
        ])
        for (w, readings), best in zip(epochs, seconds):
            report.add("control_per_epoch", best, "s", delta_ms=w.delta, readings=len(readings))

        def encrypt(day):
            return [encrypt_epoch(r, w.id, keyring.enclave_public) for w, r in day]

        def tag(day, sealed):
            for (w, _), cts in zip(day, sealed):
                accessible_tag(cts)
                irrecoverable_tag(cts, w.id)

        jobs = []
        for delta_ms in BENCH_DELTAS_MS:
            windows = [epoch_of(t, delta_ms) for t in range(0, MS_PER_DAY, delta_ms)]
            day = [(window, _flat_rate_epoch(config, window, rng)) for window in windows]
            jobs += [partial(encrypt, day), partial(tag, day, encrypt(day))]
        seconds = _fastest(jobs)
        for delta_ms, encrypt_s, tags_s in zip(BENCH_DELTAS_MS, seconds[::2], seconds[1::2]):
            report.add("encrypt_per_day", encrypt_s, "s", delta_ms=delta_ms)
            report.add("tags_per_day", tags_s, "s", delta_ms=delta_ms)

    elif experiment == 2:
        readings = generate_readings(config)
        raw_bytes = sum(len(reading.to_bytes()) for reading in readings)
        outsourced_bytes = sum(
            len(sensor_row.to_bytes()) + len(meta_row.to_bytes())
            for _, _, sensor_row, meta_row in _outsource_epochs(config, readings, keyring, params)
        )
        report.add("raw_bytes", raw_bytes, "B", readings=len(readings))
        report.add("outsourced_bytes", outsourced_bytes, "B")
        report.add(
            "storage_ratio", outsourced_bytes / raw_bytes if raw_bytes else math.inf, "x"
        )

    elif experiment == 3:
        # each epoch is verified at its own close, while the policy holds it accessible
        day_config = replace(
            config, delta_ms=MS_PER_HOUR, arrival_epochs=24,
            night_rate_per_hour=config.day_rate_per_hour, transport="loopback",
            p_del=max(1, config.p_del),
        )
        store = CloudStore(day_config.policy)
        verifier = EpochVerifier(
            LoopbackTransport(CloudService(store).handle), keyring, params, day_config.policy
        )
        readings = generate_readings(day_config)
        for _, _, sensor_row, meta_row in _outsource_epochs(day_config, readings, keyring, params):
            store.ingest(sensor_row, meta_row)
        device = device_pool(day_config)[0]
        start = time.perf_counter()
        verified = sum(
            verifier.verify(k * MS_PER_HOUR, (k + 1) * MS_PER_HOUR, "user", device).verified
            for k in range(24)
        )
        day_seconds = time.perf_counter() - start
        report.add("verify_day", day_seconds, "s", readings=len(readings))
        report.add("verified_epochs", verified, "epochs")
        report.add("verify_year_projected", day_seconds * 365, "s")

    elif experiment == 4:
        sealed = [encrypt_epoch(r, window.id, keyring.enclave_public) for window, r in epochs]
        arrays = [CellArray.from_ciphertexts(cts, w.id) for (w, _), cts in zip(epochs, sealed)]
        seconds = _fastest([partial(expunge, array) for array in arrays])
        for (window, _), cts, best in zip(epochs, sealed, seconds):
            report.add("expunge_per_epoch", best, "s", delta_ms=window.delta, cells=len(cts))

    elif experiment == 5:
        for delta_ms in (MS_PER_HOUR, MS_PER_DAY):
            window = epoch_of(0, delta_ms)
            readings = _flat_rate_epoch(config, window, rng)
            store = CloudStore(replace(config.policy, delta=delta_ms))
            sensor_row, meta_row = build_outsource_payload(
                window, readings, params.seed, keyring, params
            )
            store.ingest(sensor_row, meta_row)
            # over a socket on 127.0.0.1: the loopback would time the handler alone
            server = serve(CloudService(store).handle)
            try:
                with closing(SocketTransport("127.0.0.1", server.server_address[1])) as transport:
                    bundle, elapsed = CloudService.fetch_bundle_via(transport, window.id, window.et)
            finally:
                server.shutdown()
                server.server_close()
            size = len(bundle.to_bytes())
            report.add(
                "bundle_transfer_measured", elapsed, "s",
                delta_ms=delta_ms, bytes=size,
            )
            for label, rate in (("100MBps", 100e6), ("500MBps", 500e6), ("1GBps", 1e9)):
                report.add(
                    "bundle_transfer_nominal", size / rate, "s",
                    delta_ms=delta_ms, link=label, bytes=size,
                )
    return report
