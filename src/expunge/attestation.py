"""Verifier-side checks over attestation bundles.

A verifier holds only public accumulator parameters, the broadcast
retention policy, and (for tag checks) the shared key. From one
epoch's bundle it can establish three independent facts:

* membership: whether its own device appears in the epoch, by
  recomputing position-salted digests; nothing is learned about other
  devices because every digest is salted by position and keyed by a
  device id the verifier does not know;
* completeness: that the received digest list is exactly the one that
  produced the epoch's chained timestamp, by replaying the accumulator
  step from the previous timestamp (or the seed). The cleartext
  timestamp's digest is additionally matched against the
  provider-sealed anchor riding in the bundle: without that anchor a
  dishonest cloud could serve a pruned digest list with a
  self-consistent forged chain;
* state: that the data is in the policy-mandated state: the hash of
  the received ciphertexts must open the sealed accessible tag, or the
  deletion proof must open the sealed irrecoverable tag.

On the irrecoverable path the verifier additionally applies a time
bound: a proof that arrives slower than a calibrated threshold is
evidence the cloud computed it on demand instead of having deleted the
data on schedule. The bound is meaningless for tiny epochs whose
recompute time approaches transport time, so it reports not-applicable
below a calibrated floor.

``verify_bundle`` is the pure check of one bundle, given whatever timing
its caller measured. ``EpochVerifier`` is the one place that measures:
it fetches the bundle, times a reference fetch, estimates the honest
recompute time, derives the bound and whether it applies, and returns a
report that carries every input of that verdict. Those inputs and the
verdicts resting on them are wall-clock values, named by
``WALL_CLOCK_FIELDS``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import compress
from operator import eq

from .accumulator import AccumulatorParams, AccumulatorValue, PendingStep, start_step
from .cloud import AttestationBundle
from .control import (
    SEALED_ACCESSIBLE,
    SEALED_IRRECOVERABLE,
    SEALED_TIME,
    accessible_tag,
    open_seal,
    reading_digests,
    sentinel_digest,
    timestamp_anchor,
    timestamp_exponent,
)
from .core import DataState, RetentionPolicy, state_at, window_for_id
from .crypto import KeyRing
from .engine import cell_geometry, expunge_duration_estimate
from .errors import DomainError, UnavailableError
from .hashing import DIGEST_SIZE
from .wire import CloudService

#: Below this multiple of the round trip, the recompute estimate is too
#: small for the time bound to separate honest from lazy clouds.
TIME_BOUND_FLOOR_ROUND_TRIPS = 4.0

#: Report fields that are wall-clock values or verdicts resting on them;
#: they differ from run to run and host to host.
WALL_CLOCK_FIELDS = (
    "reference_round_trip",
    "recompute_estimate",
    "time_bound",
    "response_time",
    "time_bound_ok",
    "time_bound_applies",
    "verified",
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one epoch's bundle."""

    epoch_id: int
    role: str
    state_claimed: DataState
    membership_positions: tuple[int, ...] | None
    completeness_ok: bool
    tag_match: bool
    policy_ok: bool
    deletion_proof_match: bool | None
    response_time: float | None
    time_bound: float | None
    time_bound_ok: bool | None
    reference_round_trip: float | None = None
    recompute_estimate: float | None = None

    @property
    def time_bound_applies(self) -> bool | None:
        """Whether the bound judged the response; ``None`` when no bound was set."""
        if self.time_bound is None:
            return None
        return self.time_bound_ok is not None

    @property
    def state_ok(self) -> bool:
        return self.tag_match and self.policy_ok

    @property
    def verified(self) -> bool:
        """Completeness and state must hold; the time bound, where it applies."""
        return self.completeness_ok and self.state_ok and self.time_bound_ok is not False

    def to_dict(self) -> dict:
        return {
            "epoch_id": self.epoch_id,
            "role": self.role,
            "state_claimed": self.state_claimed.name,
            "membership_positions": (
                None
                if self.membership_positions is None
                else list(self.membership_positions)
            ),
            "completeness_ok": self.completeness_ok,
            "tag_match": self.tag_match,
            "policy_ok": self.policy_ok,
            "state_ok": self.state_ok,
            "deletion_proof_match": self.deletion_proof_match,
            "reference_round_trip": self.reference_round_trip,
            "recompute_estimate": self.recompute_estimate,
            "time_bound": self.time_bound,
            "response_time": self.response_time,
            "time_bound_ok": self.time_bound_ok,
            "time_bound_applies": self.time_bound_applies,
            "verified": self.verified,
        }


def verify_membership(device_id: bytes, bundle: AttestationBundle) -> list[int]:
    """All 1-based positions at which the device appears in the epoch.

    A linear scan of hash evaluations, by construction: the verifier
    asks the cloud for no index and reveals nothing about who it is
    looking for. A list of another width than a digest's holds no
    reading digest and is not scanned, so the scan's expansion never
    outgrows the list's own bytes.
    """
    digests = bundle.digests
    count = len(digests)
    if count and len(digests[0]) != DIGEST_SIZE:  # a decoded digest list has one width
        return []
    candidates = reading_digests(device_id, bundle.epoch_id, count)
    return list(compress(range(1, count + 1), map(eq, candidates, digests)))


def verify_completeness(
    bundle: AttestationBundle, params: AccumulatorParams
) -> tuple[bool, AccumulatorValue | None]:
    """Replay the timestamp link from the digests exactly as received.

    Any omission, addition, or reorder of digests changes the exponent
    and lands the replay on a different group element.
    """
    with _start_replay(bundle, params, in_worker=False) as replay:
        alpha = _replayed(replay)
    return alpha == bundle.crypto_time, alpha


#: Ciphertexts from which a bundle's own checks repay sending the
#: replay's step to the worker; a bundle with fewer replays in-process.
#: Through the worker, ``verify_bundle`` took 12-14% longer on bundles of
#: 0-8 and 120 readings and 29% less on 1,560-reading ones (randomized
#: per-call comparison, 2-CPU x86-64 virtual machine): hashing the
#: ciphertexts and a user's membership scan must outlast the round trip.
REPLAY_OVERLAP_MIN_CIPHERTEXTS = 512


def _start_replay(bundle: AttestationBundle, params: AccumulatorParams, in_worker: bool):
    """The replay's step, begun; a context that enters as None where no replay can run."""
    base = params.seed if bundle.first_epoch else bundle.prev_crypto_time
    if base is None:
        return nullcontext()
    try:  # an empty digest list, or a base out of range for the modulus
        return start_step(base, timestamp_exponent(bundle.digests), params, in_worker)
    except DomainError:
        return nullcontext()


def _replayed(replay: PendingStep | None) -> AccumulatorValue | None:
    try:  # a degenerate step
        return None if replay is None else replay()
    except DomainError:
        return None


def calibrate_time_bound(round_trip: float, recompute_estimate: float) -> tuple[float, bool]:
    """Threshold for the deletion time bound, and whether it applies.

    The bound must sit far below the recompute estimate (to catch lazy
    clouds) but comfortably above honest transport jitter (to avoid
    false accusations).
    """
    tau = max(2.0 * round_trip, recompute_estimate / 10.0)
    applicable = recompute_estimate >= TIME_BOUND_FLOOR_ROUND_TRIPS * round_trip
    return tau, applicable


def verify_bundle(
    bundle: AttestationBundle,
    shared_key: bytes,
    params: AccumulatorParams,
    policy: RetentionPolicy,
    role: str = "user",
    device_id: bytes | None = None,
    response_time: float | None = None,
    time_bound: float | None = None,
    time_bound_applicable: bool = True,
) -> VerificationReport:
    """Run every check the role is entitled to and report each outcome.

    Seal opening failures raise IntegrityError: a sealed value served
    under another field, epoch or key is tampering evidence, not a mere
    mismatch. An irrecoverable bundle without a proof, or with
    ciphertexts, breaks the protocol and raises DomainError.
    """
    # the replay's step runs while membership, the seals and the state tag are checked
    in_worker = len(bundle.ciphertexts or ()) >= REPLAY_OVERLAP_MIN_CIPHERTEXTS
    with _start_replay(bundle, params, in_worker) as replay:
        membership = None
        if role == "user" and device_id is not None:
            membership = tuple(verify_membership(device_id, bundle))

        # anchor the cleartext timestamp to the provider-sealed digest of it
        sealed_anchor = open_seal(shared_key, SEALED_TIME, bundle.epoch_id, bundle.enc_crypto_time)

        window = window_for_id(bundle.epoch_id, policy.delta)
        policy_ok = state_at(window, policy, bundle.served_at) is bundle.state

        # the seal names its field, so a tag opens only for the state it attests
        label = SEALED_ACCESSIBLE if bundle.state is DataState.ACCESSIBLE else SEALED_IRRECOVERABLE
        expected_tag = open_seal(shared_key, label, bundle.epoch_id, bundle.enc_state_tag)
        proof_match = None
        time_bound_ok = None
        if bundle.state is DataState.ACCESSIBLE:
            tag_match = accessible_tag(bundle.ciphertexts or ()) == expected_tag
        else:
            if bundle.deletion_proof is None:
                raise DomainError("irrecoverable bundle carries no deletion proof")
            if bundle.ciphertexts is not None:
                raise DomainError("irrecoverable bundle still carries ciphertexts")
            proof_match = bundle.deletion_proof.proof == expected_tag
            tag_match = proof_match
            if response_time is not None and time_bound is not None:
                time_bound_ok = (response_time <= time_bound) if time_bound_applicable else None

        completeness_ok = (
            _replayed(replay) == bundle.crypto_time
            and sealed_anchor == timestamp_anchor(bundle.crypto_time)
        )

    return VerificationReport(
        epoch_id=bundle.epoch_id,
        role=role,
        state_claimed=bundle.state,
        membership_positions=membership,
        completeness_ok=completeness_ok,
        tag_match=tag_match,
        policy_ok=policy_ok,
        deletion_proof_match=proof_match,
        response_time=response_time,
        time_bound=time_bound,
        time_bound_ok=time_bound_ok,
    )


def recompute_estimate_for_bundle(bundle: AttestationBundle) -> float:
    """Estimated honest-deletion recompute time for this epoch's cells.

    Without ciphertexts, the cell count is the digest list's length (two
    pad cells for a sentinel-only epoch) and the cell size is the one the
    proof states, so both states of an epoch get the same estimate.
    """
    proof = bundle.deletion_proof
    if proof is None:
        return expunge_duration_estimate(*cell_geometry(bundle.ciphertexts or ()))
    cell_count = len(bundle.digests)
    if bundle.digests == (sentinel_digest(bundle.epoch_id),):
        cell_count = cell_geometry(())[0]
    return expunge_duration_estimate(cell_count, proof.cell_size)


@dataclass(frozen=True)
class EpochVerifier:
    """One verifier's per-epoch step: fetch a bundle, bound the fetch, verify.

    Stateless. The policy is judged at the verifier's own ``now``, never
    at the ``served_at`` the cloud states. An irrecoverable fetch is
    judged against the round trip of one reference fetch that no proof
    computation can inflate, chosen from the verifier's own clock and the
    public policy alone. With ``p_del >= 1`` that is the newest closed
    epoch, ``now - delta``, which the policy still holds accessible; it
    counts only if it comes back accessible. Otherwise, or when no such
    epoch was stored, it is the judged epoch as of its own begin, before
    its deletion was due: an honest cloud serves the stored proof, a lazy
    one the ciphertexts it kept, and neither computes a proof. The
    reference is used as measured, unscaled by bundle size (an
    irrecoverable bundle is smaller but pays the same fixed costs).
    """

    transport: object
    keyring: KeyRing
    params: AccumulatorParams
    policy: RetentionPolicy

    def reference_seconds(self, epoch_id: int, now: int) -> float:
        """Round trip of the reference fetch for judging ``epoch_id`` at ``now``."""
        delta = self.policy.delta
        if self.policy.p_del >= 1 and now >= delta:
            try:
                bundle, elapsed = CloudService.fetch_bundle_via(self.transport, now - delta, now)
            except UnavailableError:
                pass
            else:
                if bundle.state is DataState.ACCESSIBLE:
                    return elapsed
        return CloudService.fetch_bundle_via(self.transport, epoch_id, epoch_id)[1]

    def verify(
        self, at: int, now: int, role: str, device_id: bytes | None = None
    ) -> VerificationReport:
        bundle, elapsed = CloudService.fetch_bundle_via(self.transport, at, now)
        rtt = estimate = time_bound = None
        applicable = True
        if bundle.state is not DataState.ACCESSIBLE:
            estimate = recompute_estimate_for_bundle(bundle)
            rtt = self.reference_seconds(bundle.epoch_id, now)
            time_bound, applicable = calibrate_time_bound(rtt, estimate)
        report = verify_bundle(
            replace(bundle, served_at=now),
            self.keyring.shared_key,
            self.params,
            self.policy,
            role=role,
            device_id=device_id,
            response_time=elapsed,
            time_bound=time_bound,
            time_bound_applicable=applicable,
        )
        return replace(report, reference_round_trip=rtt, recompute_estimate=estimate)
