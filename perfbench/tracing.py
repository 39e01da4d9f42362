"""Spans for the traced run, and the per-layer metrics derived from them.

A span records one call the benchmark makes into a layer's public
function: name, start and end (``perf_counter_ns``), the index of the
enclosing span, a key (epoch index, query index or block id) and a
work count. Spans stay in memory and are written out when the run ends.
Untraced runs use :data:`NO_SPANS`, which records nothing.

Layers that the lifecycle reaches only through another layer are timed
by :func:`probe_layers`, which calls their public functions directly on
the workload's own inputs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from expunge import accumulator, attestation, crypto, engine
from expunge.cloud import AttestationBundle
from expunge.control import timestamp_exponent
from expunge.hashing import DEFAULT_HASHER
from expunge.querylog import signed_payload

NAME, START, END, PARENT, KEY, COUNT = range(6)


class Spans:
    def __init__(self):
        self.rows: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, key=None, count: int = 0) -> "_Span":
        return _Span(self, [name, 0, 0, self._open[-1] if self._open else -1, key, count])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "key", "count"]
        path.write_text(json.dumps({"fields": fields, "spans": self.rows}))


class _Span:
    __slots__ = ("_spans", "row")

    def __init__(self, spans: Spans, row: list):
        self._spans = spans
        self.row = row

    def __enter__(self) -> list:
        spans = self._spans
        spans._open.append(len(spans.rows))
        spans.rows.append(self.row)
        self.row[START] = time.perf_counter_ns()
        return self.row

    def __exit__(self, *exc) -> None:
        self.row[END] = time.perf_counter_ns()
        self._spans._open.pop()


class _NoSpan:
    __slots__ = ()
    row = [None, 0, 0, -1, None, 0]

    def __enter__(self) -> list:
        return self.row

    def __exit__(self, *exc) -> None:
        pass


class _NoSpans:
    _span = _NoSpan()

    def span(self, name: str, key=None, count: int = 0) -> _NoSpan:
        return self._span


NO_SPANS = _NoSpans()


#: Every per-layer metric of a traced run, with its unit.
UNITS = {
    "control.build_payload_us_per_reading": "us",
    "crypto.hybrid_encrypt_us": "us",
    "crypto.sign_us": "us",
    "hashing.expand_us_per_kib": "us",
    "engine.expunge_us_per_cell": "us",
    "engine.combines_per_reading": "count",
    "engine.estimate_ms_per_bundle": "ms",
    "accumulator.step_ms": "ms",
    "encoding.row_encode_us_per_kib": "us",
    "encoding.bundle_decode_us_per_kib": "us",
    "cloud.ingest_ms_per_epoch": "ms",
    "cloud.tick_ms_per_call": "ms",
    "cloud.epoch_cost_growth": "x",
    "wire.fetch_bundle_ms": "ms",
    "attestation.membership_us_per_digest": "us",
    "attestation.completeness_ms": "ms",
    "attestation.verify_bundle_ms": "ms",
    "querylog.log_us_per_query": "us",
    "querylog.seal_ms_per_block": "ms",
    "querylog.audit_ms_per_block": "ms",
    "trace.overhead_pct": "%",
}


def _seconds(rows: list[list]) -> float:
    return sum(r[END] - r[START] for r in rows) / 1e9


def _per(total: float, count: float) -> float:
    return total / count if count else float("nan")


def _timed(fn, args_list, budget_s: float = 0.4) -> tuple[float, int]:
    """Call ``fn(*args)`` over ``args_list`` until it is spent or the budget is."""
    elapsed = 0.0
    calls = 0
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        elapsed += time.perf_counter() - start
        calls += 1
        if elapsed >= budget_s:
            break
    return elapsed, calls


def span_metrics(spans: Spans, p_del: int, epochs: int) -> dict[str, float]:
    by_name: dict[str, list[list]] = {}
    for row in spans.rows:
        by_name.setdefault(row[NAME], []).append(row)

    def rows(name):
        return by_name.get(name, [])

    build = rows("control.build_outsource_payload")
    queries = rows("sp.query_via")
    logs = [r for r in queries if not r[COUNT]]
    seals = [r for r in queries + rows("querylog.flush") if r[COUNT]]

    # ingest+tick cost per arrival epoch, from the epoch where deletion starts
    cost: dict[int, float] = {}
    for row in rows("cloud.ingest_via") + rows("cloud.tick_via"):
        if p_del <= row[KEY] < epochs:
            cost[row[KEY]] = cost.get(row[KEY], 0.0) + (row[END] - row[START]) / 1e9
    series = [cost[k] for k in sorted(cost)]
    tenth = max(1, len(series) // 10)
    growth = _per(sum(series[-tenth:]), sum(series[:tenth]))

    return {
        "control.build_payload_us_per_reading": 1e6 * _per(_seconds(build), sum(r[COUNT] for r in build)),
        "engine.estimate_ms_per_bundle": 1e3 * _per(
            _seconds(rows("attestation.recompute_estimate_for_bundle")),
            len(rows("attestation.recompute_estimate_for_bundle")),
        ),
        "cloud.ingest_ms_per_epoch": 1e3 * _per(_seconds(rows("cloud.ingest_via")), len(rows("cloud.ingest_via"))),
        "cloud.tick_ms_per_call": 1e3 * _per(_seconds(rows("cloud.tick_via")), len(rows("cloud.tick_via"))),
        "cloud.epoch_cost_growth": growth,
        "wire.fetch_bundle_ms": 1e3 * _per(_seconds(rows("wire.fetch_bundle_via")), len(rows("wire.fetch_bundle_via"))),
        "attestation.verify_bundle_ms": 1e3 * _per(
            _seconds(rows("attestation.verify_bundle")), len(rows("attestation.verify_bundle"))
        ),
        "querylog.log_us_per_query": 1e6 * _per(_seconds(logs), len(logs)),
        "querylog.seal_ms_per_block": 1e3 * _per(_seconds(seals), sum(r[COUNT] for r in seals)),
        "querylog.audit_ms_per_block": 1e3 * _per(
            _seconds(rows("querylog.audit_block")), len(rows("querylog.audit_block"))
        ),
    }


def probe_layers(dep, material) -> dict[str, float]:
    """Time the layers the lifecycle reaches only through other layers."""
    rows = material.rows
    readings = [r for _, _, epoch in rows for r in epoch]
    step_size = max(1, len(readings) // 2000)
    sample = readings[::step_size]
    params = dep.params
    hasher = DEFAULT_HASHER

    enc_s, enc_n = _timed(
        crypto.hybrid_encrypt, [(r.to_bytes(), dep.keyring.enclave_public) for r in sample]
    )
    queries = [q for epoch in dep.inputs.queries for q in epoch][:2000]
    sign_s, sign_n = _timed(
        crypto.sign,
        [(dep.keyring.user_signing_keys[q.user_id], signed_payload(q.query, q.time)) for q in queries],
    )

    # the cell size each epoch's transform runs at, expanded from its digests
    def cell_size(sensor_row) -> int:
        cts = sensor_row.ciphertexts
        return 4 + max(len(ct) for ct in cts) if cts else engine.EMPTY_EPOCH_CELL_SIZE

    expand_args = [(d, cell_size(s)) for s, _, _ in rows for d in s.digests[:64]]
    expand_s, expand_n = _timed(hasher.expand, expand_args)
    expand_kib = sum(size for _, size in expand_args[:expand_n]) / 1024

    spread = rows[:: max(1, len(rows) // 24)]
    expunge_s = 0.0
    cells = 0
    combines = [0]
    expunge_readings = 0

    def count_pair(iteration, i, j):
        combines[0] += 1

    for sensor_row, _, epoch in spread:
        array = engine.CellArray.from_ciphertexts(list(sensor_row.ciphertexts), sensor_row.epoch_id)
        start = time.perf_counter()
        overwritten, _ = engine.expunge(array, on_pair=count_pair)
        expunge_s += time.perf_counter() - start
        cells += len(overwritten.cells)
        expunge_readings += len(epoch)
        if expunge_s >= 1.0:
            break

    step_args = [(params.seed, timestamp_exponent(s.digests), params) for s, _, _ in rows]
    step_s, step_n = _timed(accumulator.step, step_args)

    encode_s = 0.0
    encode_bytes = 0
    for sensor_row, meta_row, _ in rows:
        start = time.perf_counter()
        encoded = sensor_row.to_bytes() + meta_row.to_bytes()
        encode_s += time.perf_counter() - start
        encode_bytes += len(encoded)
        if encode_s >= 0.4:
            break

    bundles = material.bundles
    decode_s, decode_n = _timed(AttestationBundle.from_bytes, [(raw,) for raw, _ in bundles])
    decode_kib = sum(len(raw) for raw, _ in bundles[:decode_n]) / 1024
    decoded = [(AttestationBundle.from_bytes(raw), device) for raw, device in bundles]
    lookups = [(device, b) for b, device in decoded if device is not None]
    member_s, member_n = _timed(attestation.verify_membership, lookups)
    member_digests = sum(len(b.digests) for _, b in lookups[:member_n])
    complete_s, complete_n = _timed(attestation.verify_completeness, [(b, params) for b, _ in decoded])

    return {
        "crypto.hybrid_encrypt_us": 1e6 * _per(enc_s, enc_n),
        "crypto.sign_us": 1e6 * _per(sign_s, sign_n),
        "hashing.expand_us_per_kib": 1e6 * _per(expand_s, expand_kib),
        "engine.expunge_us_per_cell": 1e6 * _per(expunge_s, cells),
        "engine.combines_per_reading": _per(combines[0], expunge_readings),
        "accumulator.step_ms": 1e3 * _per(step_s, step_n),
        "encoding.row_encode_us_per_kib": 1e6 * _per(encode_s, encode_bytes / 1024),
        "encoding.bundle_decode_us_per_kib": 1e6 * _per(decode_s, decode_kib),
        "attestation.membership_us_per_digest": 1e6 * _per(member_s, member_digests),
        "attestation.completeness_ms": 1e3 * _per(complete_s, complete_n),
    }
