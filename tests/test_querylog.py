import dataclasses
import hashlib
import random

import pytest

from expunge.accumulator import exponent_from_bytes, step
from expunge.crypto import (
    EPHEMERAL_PUBLIC_BYTES,
    NONCE_BYTES,
    generate_keyring,
    hybrid_encrypt,
    hybrid_encrypt_many,
)
from expunge.encoding import vbytes
from expunge.errors import DomainError, SignatureRejected, UnavailableError, WireError
from expunge.querylog import (
    QueryLogger,
    QueryRecord,
    SealedBlock,
    audit_block,
    chain_digest,
    empty_block_digest,
    make_query_record,
    seed_link,
)
from expunge.wire import EXCHANGES, LoopbackTransport, MessageType, SpService

from conftest import needs_two_cpus

USERS = [b"user-00", b"user-01", b"user-02"]


@pytest.fixture(scope="module")
def ring():
    return generate_keyring(USERS)


@pytest.fixture()
def registry(ring):
    return ring.user_public_keys()


def _record(ring, i, query=None, t=None):
    user = USERS[i % len(USERS)]
    return make_query_record(
        query=query or b"q-%d" % i,
        time=t if t is not None else 100 + i,
        user_id=user,
        signing_key=ring.user_signing_keys[user],
    )


def _logger(ring, registry, params, capacity, time_limit=10**9):
    return QueryLogger(
        capacity=capacity, time_limit=time_limit, params=params,
        sdp_public=ring.sdp_box_public, registry=registry,
    )


def _sealed_block(ring, registry, params, n):
    """Block 1 of a fresh logger, sealed full with records 0..n-1 (empty if n is 0)."""
    logger = _logger(ring, registry, params, capacity=max(n, 1), time_limit=1000)
    for i in range(n):
        logger.log(_record(ring, i), now=10)
    logger.advance(now=1000)
    return logger.sealed_blocks[0]


def _fold(params, records):
    """The block's last link, chained record by record from the seed."""
    link = seed_link(params)
    for record in records:
        link = chain_digest(record, link)
    return link


def _resealed(ring, params, records):
    """Block 1 as the service provider can forge it, from public keys and steps alone."""
    return SealedBlock(
        block_id=1, created_at=0, sealed_at=1000,
        block_proof=step(params.seed, _fold(params, records), params),
        encrypted_records=hybrid_encrypt_many(
            [record.to_bytes() for record in records], ring.sdp_box_public
        ),
    )


def _with_flipped_signature(record):
    return dataclasses.replace(
        record, signature=bytes([record.signature[0] ^ 1]) + record.signature[1:]
    )


def _raised(base, link, params) -> int:
    return pow(base, exponent_from_bytes(link), params.modulus)


class TestHashChain:
    def test_first_record_chains_from_seed(self, ring, registry, tiny_params):
        record = _record(ring, 0)
        logger = _logger(ring, registry, tiny_params, capacity=1)
        logger.log(record, now=10)
        expected = hashlib.sha256(
            record.to_bytes() + vbytes(seed_link(tiny_params))
        ).digest()
        assert logger.sealed_blocks[0].block_proof.value == _raised(
            tiny_params.seed, expected, tiny_params
        )

    def test_same_record_different_prefix_changes_digest(self, ring, registry, tiny_params):
        record = _record(ring, 5)
        d1 = chain_digest(record, _fold(tiny_params, [_record(ring, 0)]))
        d2 = chain_digest(record, _fold(tiny_params, [_record(ring, i) for i in range(2)]))
        assert d1 != d2

    def test_three_record_chain_matches_scripted_fold(self, ring, registry, tiny_params):
        records = [_record(ring, i) for i in range(3)]
        logger = _logger(ring, registry, tiny_params, capacity=3)
        for r in records:
            logger.log(r, now=10)
        link = vbytes(seed_link(tiny_params))
        for r in records:
            head = hashlib.sha256(r.to_bytes() + link).digest()
            link = vbytes(head)
        assert logger.sealed_blocks[0].block_proof.value == _raised(
            tiny_params.seed, head, tiny_params
        )

    def test_invalid_signature_rejected(self, ring, registry, tiny_params):
        good = _record(ring, 0)
        forged = dataclasses.replace(good, signature=bytes(64))
        logger = _logger(ring, registry, tiny_params, capacity=2)
        with pytest.raises(SignatureRejected):
            logger.log(forged, now=10)
        unknown = dataclasses.replace(good, user_id=b"user-99")
        with pytest.raises(SignatureRejected):
            logger.log(unknown, now=10)

    def test_record_round_trip(self, ring):
        record = _record(ring, 3)
        assert QueryRecord.from_bytes(record.to_bytes()) == record


class TestSealing:
    def test_first_block_proof_is_seed_raised_to_head(self, ring, registry, tiny_params):
        records = [_record(ring, i) for i in range(3)]
        logger = _logger(ring, registry, tiny_params, capacity=3)
        for r in records:
            logger.log(r, now=50)
        assert len(logger.sealed_blocks) == 1
        head = _fold(tiny_params, records)
        assert logger.sealed_blocks[0].block_proof.value == _raised(
            tiny_params.seed, head, tiny_params
        )

    def test_second_block_chains_off_first_proof(self, ring, registry, tiny_params):
        records = [_record(ring, i) for i in range(4)]
        logger = _logger(ring, registry, tiny_params, capacity=2)
        for r in records:
            logger.log(r, now=10)
        s1, s2 = logger.sealed_blocks
        expected = _raised(s1.block_proof.value, _fold(tiny_params, records[2:]), tiny_params)
        assert s2.block_proof.value == expected

    def test_empty_block_seals_with_sentinel(self, ring, registry, tiny_params):
        logger = _logger(ring, registry, tiny_params, capacity=4, time_limit=10)
        logger.advance(now=70)
        assert [b.block_id for b in logger.sealed_blocks] == list(range(1, 8))
        prev = tiny_params.seed
        for sealed in logger.sealed_blocks:
            expected = _raised(prev, empty_block_digest(sealed.block_id), tiny_params)
            assert sealed.block_proof.value == expected
            assert sealed.encrypted_records == ()
            prev = expected

    def test_sealed_block_round_trip(self, ring, registry, tiny_params):
        sealed = _sealed_block(ring, registry, tiny_params, 2)
        assert SealedBlock.from_bytes(sealed.to_bytes()) == sealed

    @pytest.mark.parametrize("capacity, time_limit", [(0, 10), (1, 0), (1, -5)])
    def test_bad_capacity_or_time_limit_refused(
        self, ring, registry, tiny_params, capacity, time_limit
    ):
        with pytest.raises(DomainError):
            _logger(ring, registry, tiny_params, capacity, time_limit)


class TestAudit:
    def test_honest_block_passes(self, ring, registry, small_params):
        sealed = _sealed_block(ring, registry, small_params, 4)
        report = audit_block(
            sealed, small_params.seed, ring.sdp_box_private, small_params, registry
        )
        assert report.ok and not report.impersonation_suspected

    def test_resealed_record_with_a_flipped_signature_fails_the_audit(
        self, ring, registry, small_params
    ):
        # the proof of a re-sealed block matches, so only the signature can
        # tell: the logger admits signed records alone
        records = [_record(ring, 0), _record(ring, 1), _record(ring, 2)]
        honest = _resealed(ring, small_params, records)
        assert audit_block(honest, small_params.seed, ring.sdp_box_private, small_params, registry).ok
        records[1] = _with_flipped_signature(records[1])
        report = audit_block(
            _resealed(ring, small_params, records),
            small_params.seed, ring.sdp_box_private, small_params, registry,
        )
        assert report.decrypt_ok and report.proof_match
        assert report.invalid_signature_positions == (2,) and report.impersonation_suspected
        assert not report.ok

    def test_record_deletion_campaign_fully_detected(self, ring, registry, small_params):
        rng = random.Random(31)
        detected = 0
        trials = 10**3
        sealed = _sealed_block(ring, registry, small_params, 6)
        for _ in range(trials):
            drop = rng.randrange(len(sealed.encrypted_records))
            tampered = dataclasses.replace(
                sealed,
                encrypted_records=sealed.encrypted_records[:drop]
                + sealed.encrypted_records[drop + 1 :],
            )
            report = audit_block(
                tampered, small_params.seed, ring.sdp_box_private, small_params, registry
            )
            detected += not report.ok
        assert detected == trials

    def test_block_suppression_breaks_chain(self, ring, registry, small_params):
        logger = _logger(ring, registry, small_params, capacity=2)
        for bid in (1, 2, 3):
            for i in range(2):
                logger.log(_record(ring, i), now=bid * 10)
        blocks = logger.sealed_blocks
        # suppress block 2: auditing block 3 against block 1's proof fails
        report = audit_block(
            blocks[2], blocks[0].block_proof, ring.sdp_box_private, small_params, registry
        )
        assert not report.ok

    def test_garbled_record_is_tamper_verdict(self, ring, registry, small_params):
        sealed = _sealed_block(ring, registry, small_params, 2)
        garbled = dataclasses.replace(
            sealed,
            encrypted_records=(sealed.encrypted_records[0][:-1] + b"\x00",)
            + sealed.encrypted_records[1:],
        )
        report = audit_block(
            garbled, small_params.seed, ring.sdp_box_private, small_params, registry
        )
        assert not report.decrypt_ok and not report.ok

    def test_one_key_agreement_per_sealed_and_audited_block(
        self, ring, registry, small_params, agreements
    ):
        sealed = _sealed_block(ring, registry, small_params, 5)
        assert agreements.generated == agreements.exchanges == 1
        assert len({blob[:EPHEMERAL_PUBLIC_BYTES] for blob in sealed.encrypted_records}) == 1
        recipient = agreements.watch(ring.sdp_box_private)
        assert audit_block(sealed, small_params.seed, recipient, small_params, registry).ok
        assert agreements.exchanges == 2

    def test_empty_block_makes_no_key_agreement(self, ring, registry, small_params, agreements):
        sealed = _sealed_block(ring, registry, small_params, 0)
        recipient = agreements.watch(ring.sdp_box_private)
        assert audit_block(sealed, small_params.seed, recipient, small_params, registry).ok
        assert agreements.generated == agreements.exchanges == 0

    def test_low_order_ephemeral_key_is_decrypt_failure(self, ring, registry, small_params):
        sealed = _sealed_block(ring, registry, small_params, 2)
        zero_key = bytes(EPHEMERAL_PUBLIC_BYTES) + bytes(NONCE_BYTES) + bytes(40)
        tampered = dataclasses.replace(
            sealed, encrypted_records=(zero_key,) + sealed.encrypted_records[1:]
        )
        report = audit_block(
            tampered, small_params.seed, ring.sdp_box_private, small_params, registry
        )
        assert not report.decrypt_ok and not report.ok

    def test_block_mixing_per_record_and_batch_envelopes_audits_ok(
        self, ring, registry, small_params
    ):
        # blocks sealed one agreement per record still audit
        sealed = _sealed_block(ring, registry, small_params, 4)
        records = [_record(ring, i) for i in range(4)]
        per_record = tuple(hybrid_encrypt(r.to_bytes(), ring.sdp_box_public) for r in records)
        mixed = dataclasses.replace(
            sealed, encrypted_records=per_record[:2] + sealed.encrypted_records[2:]
        )
        report = audit_block(mixed, small_params.seed, ring.sdp_box_private, small_params, registry)
        assert report.ok

    def test_exhaustive_single_mutations_on_small_blocks(self, ring, registry, small_params):
        # every single-record modification, deletion, insertion, and
        # adjacent reorder on blocks of up to 8 records
        base_records = [_record(ring, i) for i in range(8)]
        intruder = _record(ring, 77)
        for n in (1, 2, 4, 8):
            records = base_records[:n]
            logger = _logger(ring, registry, small_params, capacity=n)
            for r in records:
                logger.log(r, now=10)
            (sealed,) = logger.sealed_blocks

            def reseal(mutated_records):
                # the adversary cannot recompute a valid proof (no enclave
                # key), so the proof stays; only the records change
                return dataclasses.replace(
                    sealed,
                    encrypted_records=tuple(
                        hybrid_encrypt(r.to_bytes(), ring.sdp_box_public)
                        for r in mutated_records
                    ),
                )

            candidates = []
            for i in range(n):  # modify one record's query text
                mutated = records.copy()
                mutated[i] = dataclasses.replace(mutated[i], query=b"forged")
                candidates.append(mutated)
            for i in range(n):  # delete one
                candidates.append(records[:i] + records[i + 1 :])
            for i in range(n + 1):  # insert one
                candidates.append(records[:i] + [intruder] + records[i:])
            for i in range(n - 1):  # swap adjacent
                mutated = records.copy()
                mutated[i], mutated[i + 1] = mutated[i + 1], mutated[i]
                candidates.append(mutated)

            for mutated in candidates:
                report = audit_block(
                    reseal(mutated),
                    small_params.seed,
                    ring.sdp_box_private,
                    small_params,
                    registry,
                )
                assert not report.ok

            honest = audit_block(
                sealed, small_params.seed, ring.sdp_box_private, small_params, registry
            )
            assert honest.ok


class TestLogger:
    def test_seals_on_capacity(self, ring, registry, tiny_params):
        logger = QueryLogger(
            capacity=2, time_limit=1000, params=tiny_params,
            sdp_public=ring.sdp_box_public, registry=registry,
        )
        for i in range(5):
            logger.log(_record(ring, i), now=10 + i)
        assert len(logger.sealed_blocks) == 2
        logger.flush(now=20)
        assert [len(b.encrypted_records) for b in logger.sealed_blocks] == [2, 2, 1]

    def test_seals_on_time_limit_even_empty(self, ring, registry, tiny_params):
        logger = QueryLogger(
            capacity=10, time_limit=100, params=tiny_params,
            sdp_public=ring.sdp_box_public, registry=registry,
        )
        logger.advance(now=350)
        # three full time windows elapsed with no traffic
        assert len(logger.sealed_blocks) == 3
        assert all(b.encrypted_records == () for b in logger.sealed_blocks)

    def test_chain_is_auditable_end_to_end(self, ring, registry, small_params):
        logger = QueryLogger(
            capacity=3, time_limit=10**9, params=small_params,
            sdp_public=ring.sdp_box_public, registry=registry,
        )
        for i in range(7):
            logger.log(_record(ring, i), now=10 + i)
        logger.flush(now=100)
        prev = small_params.seed
        for sealed in logger.sealed_blocks:
            report = audit_block(
                sealed, prev, ring.sdp_box_private, small_params, registry
            )
            assert report.ok
            prev = sealed.block_proof

    def test_rejected_signature_becomes_security_event(self, ring, registry, tiny_params):
        logger = QueryLogger(
            capacity=4, time_limit=1000, params=tiny_params,
            sdp_public=ring.sdp_box_public, registry=registry,
        )
        forged = dataclasses.replace(_record(ring, 0), signature=bytes(64))
        with pytest.raises(SignatureRejected):
            logger.log(forged, now=5)
        logger.flush(now=6)
        assert logger.sealed_blocks == []  # nothing chained

    def test_block_ids_count_on_across_time_limit_seals(self, ring, registry, small_params):
        logger = _logger(ring, registry, small_params, capacity=2, time_limit=100)
        for i in range(2):
            logger.log(_record(ring, i), now=10 + i)
        logger.advance(now=11 + 2 * 100)
        for i in range(2, 4):
            logger.log(_record(ring, i), now=220 + i)
        blocks = logger.sealed_blocks
        assert [b.block_id for b in blocks] == [1, 2, 3, 4]
        assert [len(b.encrypted_records) for b in blocks] == [2, 0, 0, 2]
        prev = small_params.seed
        for sealed in blocks:
            report = audit_block(sealed, prev, ring.sdp_box_private, small_params, registry)
            assert report.ok
            prev = sealed.block_proof
        skipped = audit_block(
            blocks[3], blocks[1].block_proof, ring.sdp_box_private, small_params, registry
        )
        assert not skipped.ok
        # the id comes from the logger's own counter, whatever the
        # service provider does to the list it holds
        blocks.clear()
        logger.advance(now=223 + 100)
        assert [b.block_id for b in logger.sealed_blocks] == [5]


class TestAuditFetch:
    """``SpService`` answers AUDIT_FETCH by block id, not by list position."""

    def _service(self, ring, registry, params):
        logger = _logger(ring, registry, params, capacity=1)
        for i in range(3):
            logger.log(_record(ring, i), now=10 + i)
        return logger, LoopbackTransport(SpService(logger).handle)

    def test_fetch_finds_blocks_by_id_after_one_is_gone(self, ring, registry, small_params):
        logger, sp = self._service(ring, registry, small_params)
        block_2, block_3 = logger.sealed_blocks[1:]
        del logger.sealed_blocks[0]
        assert SpService.audit_fetch_via(sp, 3) == (block_3, block_2.block_proof)
        for block_id in (1, 2, 4):  # block 1 is gone, and with it block 2's predecessor
            with pytest.raises(UnavailableError):
                SpService.audit_fetch_via(sp, block_id)

    def test_reply_with_another_block_refused(self, ring, registry, small_params):
        logger, _ = self._service(ring, registry, small_params)
        handle = SpService(logger).handle
        # a provider that answers every fetch with block 3
        request, _, _ = EXCHANGES[MessageType.AUDIT_FETCH]
        sp = LoopbackTransport(lambda msg_type, payload: handle(msg_type, request.pack(3)))
        assert SpService.audit_fetch_via(sp, 3)[0] == logger.sealed_blocks[2]
        with pytest.raises(WireError):
            SpService.audit_fetch_via(sp, 2)


@needs_two_cpus
def test_audit_agrees_on_both_paths(ring, registry, small_params, steps_in_worker):
    block = _sealed_block(ring, registry, small_params, 8)
    assert not steps_in_worker  # a seal's step runs in-process
    report = audit_block(block, small_params.seed, ring.sdp_box_private, small_params, registry)
    assert report.ok and len(steps_in_worker) == 1
    forged = dataclasses.replace(block, block_proof=step(small_params.seed, b"\x03", small_params))
    report = audit_block(forged, small_params.seed, ring.sdp_box_private, small_params, registry)
    assert not report.proof_match and len(steps_in_worker) == 2
    empty = _sealed_block(ring, registry, small_params, 0)
    report = audit_block(empty, small_params.seed, ring.sdp_box_private, small_params, registry)
    assert report.ok and len(steps_in_worker) == 2  # nothing to check beside its step
