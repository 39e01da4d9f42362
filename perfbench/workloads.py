"""Workload shapes and the seeded inputs each one runs on.

A workload fixes the policy, the epoch grid, how many readings and
queries each epoch carries, and which epochs are verified. ``--seed``
draws the actual readings, devices, payloads and queries; the same seed
always gives the same inputs. Only the generated inputs reach the
program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from expunge.core import NEVER, SensorReading

MS_PER_MINUTE = 60_000
MS_PER_HOUR = 60 * MS_PER_MINUTE


@dataclass(frozen=True)
class Shape:
    name: str
    delta_ms: int
    epochs: int
    #: inclusive range of readings per epoch, drawn uniformly
    readings: tuple[int, int]
    p_del: int
    p_ver: int | float
    devices: int
    users: int
    queries_per_epoch: int
    block_capacity: int
    #: a query block also seals when it has been open this long
    block_time_limit_ms: int
    #: verify every k-th epoch, once in each state
    verify_every: int
    #: the provider verifies too, beside the user
    provider_verifies: bool
    payload_mean: int = 230
    payload_jitter: int = 40


SHAPES = {
    shape.name: shape
    for shape in (
        # One busy building day: ~2k-cell transforms, hybrid encryption
        # and hashing dominate; the store never holds more than 24 records.
        Shape(
            name="dense-day",
            delta_ms=MS_PER_HOUR,
            epochs=24,
            readings=(1400, 1600),
            p_del=2,
            p_ver=4,
            devices=200,
            users=20,
            queries_per_epoch=20,
            block_capacity=16,
            block_time_limit_ms=MS_PER_HOUR,
            verify_every=1,
            provider_verifies=False,
        ),
        # Thousands of quarter-hour epochs with at most 8 readings, some
        # empty; proofs outlive the run, so the store only grows.
        Shape(
            name="long-retention",
            delta_ms=15 * MS_PER_MINUTE,
            epochs=2000,
            readings=(0, 8),
            p_del=4,
            p_ver=NEVER,
            devices=40,
            users=8,
            queries_per_epoch=1,
            block_capacity=16,
            block_time_limit_ms=4 * MS_PER_HOUR,
            verify_every=12,
            provider_verifies=False,
        ),
        # Three days of hourly epochs read back by users and the provider,
        # with hundreds of signed queries per epoch in small blocks.
        Shape(
            name="verify-audit",
            delta_ms=MS_PER_HOUR,
            epochs=72,
            readings=(104, 128),
            p_del=2,
            p_ver=6,
            devices=60,
            users=30,
            queries_per_epoch=200,
            block_capacity=8,
            block_time_limit_ms=MS_PER_HOUR,
            verify_every=1,
            provider_verifies=True,
        ),
    )
}


@dataclass(frozen=True)
class Query:
    user_id: bytes
    query: bytes
    time: int


@dataclass(frozen=True)
class Inputs:
    shape: Shape
    devices: tuple[bytes, ...]
    user_ids: tuple[bytes, ...]
    #: readings per epoch, in arrival order (position i+1 is element i)
    readings: tuple[tuple[SensorReading, ...], ...]
    queries: tuple[tuple[Query, ...], ...]
    #: device a user looks for when verifying each epoch
    lookups: tuple[bytes, ...]


def make_inputs(shape: Shape, seed: int) -> Inputs:
    rng = random.Random(f"{shape.name}/{seed}")
    devices = tuple(bytes([0x02]) + rng.randbytes(5) for _ in range(shape.devices))
    user_ids = tuple(f"user-{i:03d}".encode() for i in range(shape.users))
    readings = []
    queries = []
    lookups = []
    for k in range(shape.epochs):
        bt = k * shape.delta_ms
        count = rng.randint(*shape.readings)
        times = sorted(rng.randrange(bt, bt + shape.delta_ms) for _ in range(count))
        epoch = []
        for t in times:
            size = min(512, max(16, round(rng.gauss(shape.payload_mean, shape.payload_jitter))))
            ap = f"ap-{rng.randrange(64):04d}|".encode()
            epoch.append(
                SensorReading(device_id=rng.choice(devices), time=t, payload=ap + rng.randbytes(size))
            )
        readings.append(tuple(epoch))
        qtimes = sorted(rng.randrange(bt, bt + shape.delta_ms) for _ in range(shape.queries_per_epoch))
        queries.append(
            tuple(
                Query(
                    user_id=rng.choice(user_ids),
                    query=f"presence ap-{rng.randrange(64):04d} since {t - shape.delta_ms}".encode(),
                    time=t,
                )
                for t in qtimes
            )
        )
        lookups.append(rng.choice(devices))
    return Inputs(
        shape=shape,
        devices=devices,
        user_ids=user_ids,
        readings=tuple(readings),
        queries=tuple(queries),
        lookups=tuple(lookups),
    )
