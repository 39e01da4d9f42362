"""Walk one epoch's data through its whole retention lifecycle.

Five tiny epochs are outsourced under the policy <delete after 2 epochs,
verifiable for 4>. We then advance the scheduler clock step by step and
watch the first epochs turn irrecoverable and finally purge, verifying
the data state from the user's side at each stage.

Run:  python demos/retention_lifecycle.py
"""

from expunge import (
    CloudStore,
    DataState,
    EpochWindow,
    RetentionPolicy,
    SensorReading,
    build_outsource_payload,
    generate_keyring,
    setup,
    verify_bundle,
)

DEVICE = b"\x02\xaa\xbb\xcc\xdd\x01"

policy = RetentionPolicy(p_del=2, p_ver=4, delta=1)
keyring = generate_keyring([b"alice"])
params = setup(modulus_bits=1024)
store = CloudStore(policy)

print(f"policy: delete after {policy.p_del} epochs, verifiable for {policy.p_ver}\n")

# --- outsource five single-reading epochs -----------------------------------
prev = params.seed
for k in range(5):
    window = EpochWindow(1 + k, 2 + k)
    reading = SensorReading(device_id=DEVICE, time=window.bt, payload=b"snmp trap")
    sensor_row, meta_row = build_outsource_payload(
        window, [reading], prev, keyring, params
    )
    prev = sensor_row.crypto_time
    store.ingest(sensor_row, meta_row)
    print(f"t={window.et}: outsourced epoch {window.id} "
          f"(timestamp ...{sensor_row.crypto_time.value % 10**8:08d})")

# --- advance the clock and watch states change -------------------------------
print()
for now in range(4, 8):
    for tr in store.tick(now):
        print(f"t={now}: epoch {tr.epoch_id} {tr.from_state.name} -> {tr.to_state.name}")

print("\nfinal states:", {eid: store.state_of(eid).name for eid in store.epoch_ids()})

# --- verify an irrecoverable epoch as the user --------------------------------
# The pure checks of one bundle; timing the fetch against the deletion time
# bound is EpochVerifier's job (see demos/deletion_proof_asymmetry.py).
target = next(e for e in store.epoch_ids() if store.state_of(e) is DataState.IRRECOVERABLE)
bundle = store.fetch_bundle(target, now=7)
report = verify_bundle(bundle, keyring.shared_key, params, policy, role="user", device_id=DEVICE)
print(f"\nverify epoch {target}: verified={report.verified}")
print(f"  my readings found at positions: {list(report.membership_positions)}")
print(f"  completeness (timestamp chain): {report.completeness_ok}")
print(f"  deletion proof matches sealed tag: {report.deletion_proof_match}")
print(f"  served state matches the policy at t=7: {report.policy_ok}")

# --- purged epochs are gone even for verification -----------------------------
purged = [e for e in store.epoch_ids() if store.state_of(e) is DataState.PURGED]
try:
    store.fetch_bundle(purged[0], now=7)
except Exception as exc:
    print(f"\nepoch {purged[0]} is purged: {exc}")
