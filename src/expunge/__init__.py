"""Verifiable retention enforcement for outsourced sensor data.

A provider batches sensor readings into epochs, gives every epoch a
chained cryptographic timestamp, encrypts the readings, and outsources
them together with sealed verifiable tags. The cloud must delete each
epoch on schedule by running a memory-hard overwrite transform whose
output proof any third party can check against the provider's tag,
under a time bound that catches proofs fabricated on demand. Query
activity at the service provider is chained into tamper-evident,
auditable blocks.
"""

from .accumulator import AccumulatorParams, AccumulatorValue, setup, step
from .attestation import (
    EpochVerifier,
    VerificationReport,
    verify_bundle,
    verify_completeness,
    verify_membership,
)
from .cloud import AttestationBundle, CloudStore, EpochRecord, Transition
from .control import (
    MetaDataRow,
    SensorDataRow,
    accessible_tag,
    batch_epoch,
    build_outsource_payload,
    encrypt_epoch,
    epoch_timestamp,
    irrecoverable_tag,
    open_seal,
    reading_digest,
    seal,
    timestamp_anchor,
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
    verification_expiry,
)
from .crypto import KeyRing, generate_keyring
from .engine import (
    CellArray,
    DeletionProof,
    combine,
    expunge,
    expunge_duration_estimate,
)
from .harness import BenchmarkReport, ScenarioConfig, bench, generate_readings, run_scenario
from .querylog import (
    AuditReport,
    QueryLogger,
    QueryRecord,
    SealedBlock,
    audit_block,
    make_query_record,
)

__version__ = "0.1.0"
