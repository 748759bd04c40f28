"""Core message types, canonical byte encoding, and the 80-bit digest.

Every other module builds on these: beacons (CAMs) carry up to ``alpha``
80-bit digests of messages the sender has already signature-verified, and
each received beacon becomes a verification job in the receiver's queue.

The byte layout of the canonical encoding is documented in
``docs/message_encoding.md``; digests and frame airtimes are both defined
over that encoding, so it must stay bit-stable.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

DIGEST_BYTES = 10  # 80-bit truncated SHA-256
MAX_CLAIMED = 255  # the encoding stores the claimed-digest count in one byte

# Frame size accounting: a plain beacon (signature and certificate included)
# occupies 300 bytes on air; each appended digest adds 10 bytes.
BASE_FRAME_BYTES = 300
HEADER_BYTES = 51  # fixed-width fields, see docs/message_encoding.md
_PAD = b"\x00" * (BASE_FRAME_BYTES - HEADER_BYTES)

_HEADER = struct.Struct(">QBdddQQBB")


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


@dataclass(frozen=True, slots=True)
class Digest80:
    """Opaque 80-bit message identifier; equality is bitwise."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != DIGEST_BYTES:
            raise ValueError(
                f"digest must be exactly {DIGEST_BYTES} bytes, got {len(self.value)}"
            )

    def hex(self) -> str:
        return self.value.hex()


@dataclass(frozen=True, slots=True)
class Cam:
    """Beacon payload: sender state plus digests claimed as verified.

    ``claimed_digests`` lists the sender's latest signature-verified
    messages (newest generation timestamp first); length is bounded by the
    scenario's ``alpha``.
    """

    sender: NodeId
    gen_timestamp: float
    position: Tuple[float, float]
    seq: int
    claimed_digests: Tuple[Digest80, ...] = ()


@dataclass(frozen=True, slots=True)
class SignedCam:
    """A beacon signed by its sender, ``cam.sender``.

    Real cryptography is out of scope; verification cost is modelled by the
    scenario's per-message delay, and ``valid`` is a ground-truth flag
    (benign senders always sign validly, bogus messages never verify).
    """

    cam: Cam
    valid: bool


@dataclass(eq=False, slots=True)
class VerificationJob:
    """Queued work item for one received message.

    ``b`` marks the job as selected for a signature spot check; it starts
    False and flips to True at most once.  ``checked_by`` remembers which
    accepted claim triggered the spot check so a failed check can be
    attributed to the claimant.  Identity (not value) equality: each
    reception is its own job.
    """

    message: SignedCam
    digest: Digest80
    enqueue_time: float
    b: bool = False
    checked_by: Optional[Tuple[NodeId, Digest80]] = field(default=None)


def encode_signed_cam(message: SignedCam) -> bytes:
    """Serialize a signed beacon to its canonical on-air byte string.

    Fixed-width big-endian fields followed by the claimed digests in list
    order, zero-padded so the total length is exactly
    ``300 + 10 * len(claimed_digests)`` bytes.  The encoding is injective:
    every field sits at a fixed offset and the digest count is explicit.
    """
    cam = message.cam
    head = _HEADER.pack(
        cam.sender.id,
        cam.sender.role.value,
        cam.gen_timestamp,
        cam.position[0],
        cam.position[1],
        cam.seq,
        cam.sender.id,  # signer: a beacon is signed by its sender
        1 if message.valid else 0,
        len(cam.claimed_digests),
    )
    parts = [head]
    parts.extend(d.value for d in cam.claimed_digests)
    parts.append(_PAD)
    return b"".join(parts)


def encoded_length(n_claimed: int) -> int:
    """Frame length in bytes for a beacon carrying ``n_claimed`` digests."""
    return BASE_FRAME_BYTES + DIGEST_BYTES * n_claimed


def compute_digest(message: SignedCam) -> Digest80:
    """First 80 bits of SHA-256 over the canonical encoding."""
    return Digest80(hashlib.sha256(encode_signed_cam(message)).digest()[:DIGEST_BYTES])
