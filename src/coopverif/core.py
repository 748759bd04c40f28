"""Core message types, canonical byte encoding, and the 80-bit digest.

Every other module builds on these.  A beacon is one :class:`Cam`: the
sender's state, up to ``alpha`` digests of messages the sender has already
signature-verified, and the ground-truth validity of its signature.  A
digest is one :class:`Digest80`, its own 10 bytes.  Each delivered beacon
becomes one :class:`VerificationJob`, queued by all its receivers.

The byte layout of the canonical encoding is documented in
``docs/message_encoding.md``; digests and frame airtimes are both defined
over that encoding, so it must stay bit-stable.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

DIGEST_BYTES = 10  # 80-bit truncated SHA-256
MAX_CLAIMED = 255  # the encoding stores the claimed-digest count in one byte

# Frame size accounting: a plain beacon (signature and certificate included)
# occupies 300 bytes on air; each appended digest adds 10 bytes.
BASE_FRAME_BYTES = 300
_HEADER = struct.Struct(">QBdddQQBB")  # fixed-width fields, see docs/message_encoding.md
_PAD = b"\x00" * (BASE_FRAME_BYTES - _HEADER.size)


class Role(Enum):
    BENIGN = 0
    ADVERSARY = 1


@dataclass(frozen=True, slots=True)
class NodeId:
    """Stable per-run identity of a vehicle (stands in for a pseudonym)."""

    id: int
    role: Role = Role.BENIGN

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"node id must be non-negative, got {self.id}")


class Digest80(bytes):
    """Opaque 80-bit message identifier: its own 10 bytes, equal and hashed as them."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> Digest80:
        if len(value) != DIGEST_BYTES:
            raise ValueError(f"digest must be exactly {DIGEST_BYTES} bytes, got {len(value)}")
        return super().__new__(cls, value)

    @property
    def value(self) -> Digest80:
        # Only perfbench/checks.py reads this; it goes with ROADMAP items 5 and 6.
        return self


@dataclass(frozen=True, slots=True)
class Cam:
    """A signed beacon: sender state plus digests claimed as verified.

    ``claimed_digests`` lists the sender's latest signature-verified
    messages (newest generation timestamp first); length is bounded by the
    scenario's ``alpha``.  The beacon is signed by its sender.  Real
    cryptography is out of scope; verification cost is modelled by the
    scenario's per-message delay, and ``valid`` is a ground-truth flag
    (benign senders always sign validly, bogus messages never verify).
    """

    sender: NodeId
    gen_timestamp: float
    position: Tuple[float, float]
    seq: int
    claimed_digests: Tuple[Digest80, ...]
    valid: bool


@dataclass(frozen=True, eq=False, slots=True)
class VerificationJob:
    """Work item for one delivered beacon, shared by all its receivers.

    The kernel builds one job per frame: the beacon, its digest and the
    delivery instant it was enqueued at.  Every receiver queues that same
    object; nothing changes it after.  Whether a receiver spot-checks it is
    that receiver's own fact, kept in its queue
    (``VerificationQueue.checked``).  Identity (not value) equality: each
    delivered frame is its own job.
    """

    cam: Cam
    digest: Digest80
    enqueue_time: float


def encode_signed_cam(cam: Cam) -> bytes:
    """Serialize a signed beacon to its canonical on-air byte string.

    Fixed-width big-endian fields followed by the claimed digests in list
    order, zero-padded so the total length is exactly
    ``300 + 10 * len(claimed_digests)`` bytes.  The encoding is injective:
    every field sits at a fixed offset and the digest count is explicit.
    """
    head = _HEADER.pack(
        cam.sender.id,
        cam.sender.role.value,
        cam.gen_timestamp,
        cam.position[0],
        cam.position[1],
        cam.seq,
        cam.sender.id,  # signer: a beacon is signed by its sender
        1 if cam.valid else 0,
        len(cam.claimed_digests),
    )
    return b"".join((head, *cam.claimed_digests, _PAD))


def compute_digest(cam: Cam) -> Digest80:
    """First 80 bits of SHA-256 over the canonical encoding."""
    return Digest80(hashlib.sha256(encode_signed_cam(cam)).digest()[:DIGEST_BYTES])
