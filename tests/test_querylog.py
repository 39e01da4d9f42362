import dataclasses
import hashlib
import random

import pytest

from expunge.accumulator import exponent_from_bytes
from expunge.crypto import (
    EPHEMERAL_PUBLIC_BYTES,
    NONCE_BYTES,
    generate_keyring,
    hybrid_encrypt,
)
from expunge.encoding import vbytes
from expunge.errors import SealedBlockError, SignatureRejected
from expunge.querylog import (
    QueryBlock,
    QueryLogger,
    QueryRecord,
    append_query,
    audit_block,
    chain_digest,
    empty_block_digest,
    make_query_record,
    seal_block,
    seed_link,
)

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


def _filled_block(ring, registry, params, n, capacity=None, block_id=1):
    block = QueryBlock(block_id=block_id, created_at=0, capacity=capacity or max(n, 1))
    for i in range(n):
        append_query(block, _record(ring, i), registry, params)
    return block


class TestHashChain:
    def test_first_record_chains_from_seed(self, ring, registry, tiny_params):
        record = _record(ring, 0)
        block = _filled_block(ring, registry, tiny_params, 0, capacity=4)
        append_query(block, record, registry, tiny_params)
        expected = hashlib.sha256(
            record.to_bytes() + vbytes(seed_link(tiny_params))
        ).digest()
        assert block.running_digest == expected

    def test_same_record_different_prefix_changes_digest(self, ring, registry, tiny_params):
        record = _record(ring, 5)
        b1 = _filled_block(ring, registry, tiny_params, 1, capacity=4)
        b2 = _filled_block(ring, registry, tiny_params, 2, capacity=4)
        d1 = chain_digest(record, b1.running_digest)
        d2 = chain_digest(record, b2.running_digest)
        assert d1 != d2

    def test_three_record_chain_matches_scripted_fold(self, ring, registry, tiny_params):
        records = [_record(ring, i) for i in range(3)]
        block = QueryBlock(block_id=1, created_at=0, capacity=3)
        for r in records:
            append_query(block, r, registry, tiny_params)
        link = vbytes(seed_link(tiny_params))
        for r in records:
            link = vbytes(hashlib.sha256(r.to_bytes() + link).digest())
        assert vbytes(block.running_digest) == link

    def test_invalid_signature_rejected(self, ring, registry, tiny_params):
        good = _record(ring, 0)
        forged = dataclasses.replace(good, signature=bytes(64))
        block = QueryBlock(block_id=1, created_at=0, capacity=2)
        with pytest.raises(SignatureRejected):
            append_query(block, forged, registry, tiny_params)
        unknown = dataclasses.replace(good, user_id=b"user-99")
        with pytest.raises(SignatureRejected):
            append_query(block, unknown, registry, tiny_params)

    def test_full_block_must_seal_first(self, ring, registry, tiny_params):
        block = _filled_block(ring, registry, tiny_params, 2, capacity=2)
        with pytest.raises(SealedBlockError):
            append_query(block, _record(ring, 9), registry, tiny_params)

    def test_record_round_trip(self, ring):
        record = _record(ring, 3)
        assert QueryRecord.from_bytes(record.to_bytes()) == record


class TestSealing:
    def test_first_block_proof_is_seed_raised_to_head(self, ring, registry, tiny_params):
        block = _filled_block(ring, registry, tiny_params, 3)
        head = block.running_digest
        sealed = seal_block(
            block, tiny_params.seed, tiny_params, ring.sdp_box_public, sealed_at=50
        )
        expected = pow(
            tiny_params.seed, exponent_from_bytes(head), tiny_params.modulus
        )
        assert sealed.block_proof.value == expected
        assert block.sealed

    def test_second_block_chains_off_first_proof(self, ring, registry, tiny_params):
        b1 = _filled_block(ring, registry, tiny_params, 2, block_id=1)
        s1 = seal_block(b1, tiny_params.seed, tiny_params, ring.sdp_box_public, 10)
        b2 = _filled_block(ring, registry, tiny_params, 2, block_id=2)
        s2 = seal_block(b2, s1.block_proof, tiny_params, ring.sdp_box_public, 20)
        expected = pow(
            s1.block_proof.value,
            exponent_from_bytes(b2.running_digest),
            tiny_params.modulus,
        )
        assert s2.block_proof.value == expected

    def test_sealed_block_rejects_appends_and_reseal(self, ring, registry, tiny_params):
        block = _filled_block(ring, registry, tiny_params, 1)
        seal_block(block, tiny_params.seed, tiny_params, ring.sdp_box_public, 10)
        with pytest.raises(SealedBlockError):
            append_query(block, _record(ring, 4), registry, tiny_params)
        with pytest.raises(SealedBlockError):
            seal_block(block, tiny_params.seed, tiny_params, ring.sdp_box_public, 11)

    def test_empty_block_seals_with_sentinel(self, ring, registry, tiny_params):
        block = QueryBlock(block_id=7, created_at=0, capacity=4)
        sealed = seal_block(block, tiny_params.seed, tiny_params, ring.sdp_box_public, 10)
        expected = pow(
            tiny_params.seed,
            exponent_from_bytes(empty_block_digest(7)),
            tiny_params.modulus,
        )
        assert sealed.block_proof.value == expected
        assert sealed.encrypted_records == ()

    def test_sealed_block_round_trip(self, ring, registry, tiny_params):
        block = _filled_block(ring, registry, tiny_params, 2)
        sealed = seal_block(block, tiny_params.seed, tiny_params, ring.sdp_box_public, 10)
        from expunge.querylog import SealedBlock

        assert SealedBlock.from_bytes(sealed.to_bytes()) == sealed


class TestAudit:
    def test_honest_block_passes(self, ring, registry, small_params):
        block = _filled_block(ring, registry, small_params, 4)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
        report = audit_block(
            sealed, small_params.seed, ring.sdp_box_private, small_params, registry
        )
        assert report.ok and not report.impersonation_suspected

    def test_record_deletion_campaign_fully_detected(self, ring, registry, small_params):
        rng = random.Random(31)
        detected = 0
        trials = 10**3
        block = _filled_block(ring, registry, small_params, 6)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
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
        blocks = []
        prev = small_params.seed
        for bid in (1, 2, 3):
            block = _filled_block(ring, registry, small_params, 2, block_id=bid)
            sealed = seal_block(block, prev, small_params, ring.sdp_box_public, bid * 10)
            blocks.append(sealed)
            prev = sealed.block_proof
        # suppress block 2: auditing block 3 against block 1's proof fails
        report = audit_block(
            blocks[2], blocks[0].block_proof, ring.sdp_box_private, small_params, registry
        )
        assert not report.ok

    def test_garbled_record_is_tamper_verdict(self, ring, registry, small_params):
        block = _filled_block(ring, registry, small_params, 2)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
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
        block = _filled_block(ring, registry, small_params, 5)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
        assert agreements.generated == agreements.exchanges == 1
        assert len({blob[:EPHEMERAL_PUBLIC_BYTES] for blob in sealed.encrypted_records}) == 1
        recipient = agreements.watch(ring.sdp_box_private)
        assert audit_block(sealed, small_params.seed, recipient, small_params, registry).ok
        assert agreements.exchanges == 2

    def test_empty_block_makes_no_key_agreement(self, ring, registry, small_params, agreements):
        block = QueryBlock(block_id=1, created_at=0, capacity=4)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
        recipient = agreements.watch(ring.sdp_box_private)
        assert audit_block(sealed, small_params.seed, recipient, small_params, registry).ok
        assert agreements.generated == agreements.exchanges == 0

    def test_low_order_ephemeral_key_is_decrypt_failure(self, ring, registry, small_params):
        block = _filled_block(ring, registry, small_params, 2)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
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
        block = _filled_block(ring, registry, small_params, 4)
        sealed = seal_block(block, small_params.seed, small_params, ring.sdp_box_public, 10)
        per_record = tuple(hybrid_encrypt(r.to_bytes(), ring.sdp_box_public) for r in block.records)
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
            block = QueryBlock(block_id=1, created_at=0, capacity=n)
            for r in records:
                append_query(block, r, registry, small_params)
            sealed = seal_block(
                block, small_params.seed, small_params, ring.sdp_box_public, 10
            )

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
        assert len(logger.open_block.records) == 1

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
        assert logger.security_events and logger.security_events[0]["event"] == "signature_rejected"
        assert logger.open_block.records == []
