"""Message types, canonical encoding, and digest tests."""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import struct

import pytest
from hypothesis import given, strategies as st

from coopverif.core import (
    BASE_FRAME_BYTES,
    MAX_CLAIMED,
    Cam,
    Digest80,
    NodeId,
    Role,
    VerificationJob,
    compute_digest,
    encode_signed_cam,
)

from conftest import DATA_DIR
from _sha256_reference import sha256 as reference_sha256


def make_message(
    sender_id=1,
    role=Role.BENIGN,
    ts=1.5,
    pos=(100.0, 100.0),
    seq=7,
    valid=True,
    digests=(),
):
    sender = NodeId(sender_id, role)
    return Cam(
        sender=sender,
        gen_timestamp=ts,
        position=pos,
        seq=seq,
        claimed_digests=tuple(digests),
        valid=valid,
    )


def random_message(rng: random.Random) -> Cam:
    digests = tuple(
        Digest80(rng.getrandbits(80).to_bytes(10, "big")) for _ in range(rng.randint(0, 8))
    )
    return make_message(
        sender_id=rng.randint(0, 2**32),
        role=rng.choice((Role.BENIGN, Role.ADVERSARY)),
        ts=rng.uniform(0, 1000),
        pos=(rng.uniform(0, 200), rng.uniform(0, 200)),
        seq=rng.randint(0, 2**31),
        valid=rng.random() < 0.5,
        digests=digests,
    )


class TestDigest80:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            Digest80(b"\x00" * 9)
        with pytest.raises(ValueError):
            Digest80(b"\x00" * 11)
        assert Digest80(b"\x00" * 10).hex() == "00" * 10

    def test_bitwise_equality(self):
        a = Digest80(bytes(range(10)))
        b = Digest80(bytes(range(10)))
        c = Digest80(bytes(range(1, 11)))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_is_its_own_bytes(self):
        raw = bytes(range(10))
        d = Digest80(raw)
        assert isinstance(d, bytes) and d == raw and hash(d) == hash(raw)
        assert {raw: 1}[d] == 1 and {d: 1}[raw] == 1

    def test_value_is_the_digest_itself(self):
        d = Digest80(b"\x07" * 10)
        assert d.value is d

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_deepcopy_keep_an_equal_digest(self, protocol):
        raw = bytes(range(5, 15))
        d = Digest80(raw)
        for copied in (pickle.loads(pickle.dumps(d, protocol)), copy.deepcopy(d)):
            assert type(copied) is Digest80 and copied == d == raw


class TestEncoding:
    def test_plain_frame_is_300_bytes(self):
        assert len(encode_signed_cam(make_message())) == 300

    def test_five_digests_make_350_bytes(self):
        digests = [Digest80(bytes([i]) * 10) for i in range(5)]
        assert len(encode_signed_cam(make_message(digests=digests))) == 350

    def test_encoded_length_formula(self):
        for n in range(0, 9):
            digests = [Digest80(bytes([i]) * 10) for i in range(n)]
            msg = make_message(digests=digests)
            assert len(encode_signed_cam(msg)) == 300 + 10 * n

    def test_deterministic(self):
        msg = make_message(seq=42)
        assert encode_signed_cam(msg) == encode_signed_cam(msg)

    @given(st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 8))
    def test_injective_over_sender_seq_and_count(self, sender, seq, n_digests):
        digests = [Digest80(i.to_bytes(10, "big")) for i in range(n_digests)]
        msg = make_message(sender_id=sender, seq=seq, digests=digests)
        other = make_message(sender_id=sender + 1, seq=seq, digests=digests)
        assert encode_signed_cam(msg) != encode_signed_cam(other)
        bumped = make_message(sender_id=sender, seq=seq + 1, digests=digests)
        assert encode_signed_cam(msg) != encode_signed_cam(bumped)

    def test_structurally_distinct_messages_encode_distinctly(self):
        rng = random.Random(20260810)
        seen = {}
        for _ in range(2000):
            msg = random_message(rng)
            enc = encode_signed_cam(msg)
            if enc in seen:
                assert seen[enc] == msg
            seen[enc] = msg
        assert len(seen) == 2000

    def test_validity_is_the_beacons_last_field_and_byte_49(self):
        fields = [f.name for f in dataclasses.fields(Cam)]
        assert fields[-2:] == ["claimed_digests", "valid"]
        for valid in (True, False):
            cam = make_message(valid=valid)
            assert encode_signed_cam(cam)[49] == cam.valid

    def test_field_offsets_match_documented_layout(self):
        msg = make_message(
            sender_id=9, ts=2.25, pos=(30.5, 40.5), seq=77, valid=True,
            digests=[Digest80(b"\xaa" * 10)],
        )
        enc = encode_signed_cam(msg)
        sender_id, role, ts, x, y, seq, signer, valid, count = struct.unpack(
            ">QBdddQQBB", enc[:51]
        )
        assert (sender_id, role, ts, x, y, seq, signer, valid, count) == (
            9, 0, 2.25, 30.5, 40.5, 77, 9, 1, 1,
        )
        assert enc[51:61] == b"\xaa" * 10
        assert enc[61:] == b"\x00" * 249

    def test_claim_count_byte_holds_at_most_max_claimed(self):
        digests = [Digest80(i.to_bytes(10, "big")) for i in range(MAX_CLAIMED)]
        enc = encode_signed_cam(make_message(digests=digests))
        assert len(enc) == 300 + 10 * MAX_CLAIMED and enc[50] == MAX_CLAIMED == 255
        with pytest.raises(struct.error):
            encode_signed_cam(make_message(digests=[*digests, digests[0]]))


class TestComputeDigest:
    def test_deterministic(self):
        msg = make_message()
        assert compute_digest(msg) == compute_digest(msg)

    def test_is_truncated_sha256_of_encoding(self):
        msg = make_message(seq=3)
        expected = hashlib.sha256(encode_signed_cam(msg)).digest()[:10]
        assert compute_digest(msg).value == expected

    def test_golden_vectors(self):
        """Frozen digests, generated with an independent encoder + SHA-256."""
        vectors = json.loads((DATA_DIR / "golden_digests.json").read_text())
        assert len(vectors) >= 4
        for v in vectors:
            msg = make_message(
                sender_id=v["sender_id"],
                role=Role(v["role"]),
                ts=v["ts"],
                pos=(v["x"], v["y"]),
                seq=v["seq"],
                valid=v["valid"],
                digests=[Digest80(bytes.fromhex(h)) for h in v["digests_hex"]],
            )
            enc = encode_signed_cam(msg)
            assert len(enc) == v["encoded_len"]
            assert compute_digest(msg).hex() == v["digest_hex"]
            # full independent pipeline: reference hash over the same bytes
            assert reference_sha256(enc)[:10].hex() == v["digest_hex"]

    def test_no_collisions_on_single_byte_variations(self):
        """10^5 random message pairs differing in one field byte: all digests
        distinct (sanity for the 80-bit truncation)."""
        rng = random.Random(99)
        collisions = 0
        for i in range(100_000):
            seq = rng.randint(0, 2**31)
            a = make_message(seq=seq, sender_id=i)
            b = make_message(seq=seq ^ (1 << rng.randint(0, 7)), sender_id=i)
            if compute_digest(a) == compute_digest(b):
                collisions += 1
        assert collisions == 0


class TestVerificationJob:
    def test_fresh_job_is_unchecked(self):
        """A job holds no spot-check state: its receivers' queues keep the flags."""
        msg = make_message()
        job = VerificationJob(cam=msg, digest=compute_digest(msg), enqueue_time=1.0)
        assert [f.name for f in dataclasses.fields(job)] == ["cam", "digest", "enqueue_time"]

    def test_identity_equality(self):
        msg = make_message()
        d = compute_digest(msg)
        j1 = VerificationJob(cam=msg, digest=d, enqueue_time=1.0)
        j2 = VerificationJob(cam=msg, digest=d, enqueue_time=1.0)
        assert j1 != j2 and j1 == j1
