"""Why a lazy cloud cannot fake deletion proofs in time.

The deletion transform walks the whole epoch through log2(n) sequential
one-way iterations, so recomputing a proof on demand costs orders of
magnitude more time than transmitting a stored one. This demo measures
both sides on this machine and then shows the time-bounded check
catching a cloud that skipped deletion.

Run:  python demos/deletion_proof_asymmetry.py
"""

import random
import time

from expunge import (
    CellArray,
    CloudStore,
    DataState,
    EpochVerifier,
    RetentionPolicy,
    EpochWindow,
    SensorReading,
    build_outsource_payload,
    expunge,
    generate_keyring,
    setup,
)
from expunge.harness import LazyCloudStore
from expunge.wire import CloudService, LoopbackTransport

rng = random.Random(7)

# --- raw asymmetry: recompute vs transfer -------------------------------------
n, cell_size = 4096, 1024
cells = CellArray(
    epoch_id=0, cell_size=cell_size,
    cells=tuple(rng.randbytes(cell_size) for _ in range(n)),
)
start = time.perf_counter()
_, proof = expunge(cells)
recompute = time.perf_counter() - start

start = time.perf_counter()
proof.to_bytes()  # the cloud ships the stored proof, never the cells
transfer = time.perf_counter() - start

print(f"epoch of {n} cells x {cell_size} B:")
print(f"  recompute proof (full transform): {recompute * 1000:8.1f} ms")
print(f"  serialize stored proof:           {transfer * 1000:8.4f} ms")
print(f"  asymmetry: {recompute / transfer:.0f}x\n")

# --- the time bound in action -------------------------------------------------
policy = RetentionPolicy(p_del=1, p_ver=10, delta=1000)
keyring = generate_keyring([])
params = setup(modulus_bits=1024)

def build(lazy: bool) -> CloudStore:
    store = (LazyCloudStore if lazy else CloudStore)(policy)
    prev = params.seed
    for k in range(2):
        window = EpochWindow(k * 1000, (k + 1) * 1000)
        readings = [
            SensorReading(
                device_id=bytes([0x02, i % 250, k, 0, 0, 0]),
                time=window.bt + i % 1000,
                payload=rng.randbytes(200),
            )
            for i in range(1024)
        ]
        rows = build_outsource_payload(window, readings, prev, keyring, params)
        prev = rows[0].crypto_time
        store.ingest(*rows)
    store.tick(2000)  # honest clouds delete epoch 0 here (due at 2000)
    return store

for label, lazy in (("honest cloud", False), ("lazy cloud  ", True)):
    transport = LoopbackTransport(CloudService(build(lazy)).handle)
    # the verifier's reference is the newest closed epoch, now - delta = 1000
    report = EpochVerifier(transport, keyring, params, policy).verify(
        0, 2000, "sdp"
    )
    assert report.state_claimed is DataState.IRRECOVERABLE
    print(f"{label}: responded in {report.response_time * 1000:7.2f} ms "
          f"(bound {report.time_bound * 1000:6.2f} ms) -> "
          f"{'VERIFIED' if report.verified else 'FLAGGED: proof generated on demand'}")
