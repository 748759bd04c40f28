"""Per-node verification machinery.

Each node owns a single verification thread: one signature check at a time,
each costing the configured delay ``tau``.  Messages received while the
thread is busy wait in a :class:`VerificationQueue`.  The cooperative loop
works head-first:

1. pop the head job and verify its signature (``tau`` seconds);
2. if valid, accept the message and scan its claimed digests against the
   queue: each matching unchecked job is either spot-checked (probability
   ``pr_check``: flag it ``b=True`` and move it up, right behind the other
   flagged jobs) or accepted cooperatively and removed;
3. record the digest of every message this node signature-verified itself
   in a bounded cache, which feeds the claims of its own outgoing beacons.

Spot-checked (``b=True``) jobs form a contiguous queue prefix; new arrivals
insert at a uniformly random position within the unchecked suffix, which
keeps the prefix intact while decorrelating verification order across
neighbours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .core import Cam, Digest80, NodeId, SignedCam, VerificationJob


class DispositionKind(Enum):
    """Terminal fate of a received message."""

    SIGNATURE_ACCEPTED = "signature_accepted"
    COOPERATIVELY_ACCEPTED = "cooperatively_accepted"
    REJECTED_INVALID = "rejected_invalid"
    UNPROCESSED_AT_END = "unprocessed_at_end"
    # Not part of the base outcome set: jobs flushed when their sender is
    # revoked mid-run.  Kept separate so revocation damage is not mistaken
    # for ordinary rejections.
    PURGED_REVOKED = "purged_revoked"

    # Members are singletons; identity hashing keeps counter updates cheap.
    __hash__ = object.__hash__


ACCEPTED_KINDS = (
    DispositionKind.SIGNATURE_ACCEPTED,
    DispositionKind.COOPERATIVELY_ACCEPTED,
)


@dataclass(slots=True)
class Disposition:
    """Ledger row of one received, non-duplicate message.

    Built (by :meth:`MetricsLedger.record_disposition`) only for the nodes
    whose rows the ledger keeps; the other nodes only count outcomes.
    ``leave_queue_time`` is the moment the job permanently left the queue:
    the pop instant for signature-verified jobs (the ``tau`` spent verifying
    is not waiting), or the cooperative acceptance instant.  A spot-checked
    job keeps waiting until its final pop.
    """

    outcome: DispositionKind
    digest: Digest80
    sender: NodeId
    enqueue_time: float
    leave_queue_time: float
    signature_valid: bool

    @classmethod
    def of(cls, outcome: DispositionKind, job: VerificationJob, left_at: float) -> "Disposition":
        """The record of ``job`` leaving its queue for good at ``left_at``."""
        return cls(
            outcome,
            job.digest,
            job.message.cam.sender,
            job.enqueue_time,
            left_at,
            job.message.valid,
        )

    @property
    def waiting_time(self) -> float:
        """Interval from enqueueing to leaving the queue for good."""
        return self.leave_queue_time - self.enqueue_time


class QueueInvariantError(AssertionError):
    """Raised by audits when the queue state is internally inconsistent."""


class VerificationQueue:
    """Pending jobs, spot-checked prefix first, with a digest index.

    The index is keyed by the digest's raw bytes; these lookups sit on the
    simulator's hottest path.
    """

    __slots__ = ("jobs", "_index", "checked_count", "duplicates_dropped")

    def __init__(self) -> None:
        self.jobs: List[VerificationJob] = []
        self._index: dict[bytes, VerificationJob] = {}
        self.checked_count = 0
        self.duplicates_dropped = 0

    def __len__(self) -> int:
        return len(self.jobs)

    def find(self, digest: Digest80) -> Optional[VerificationJob]:
        return self._index.get(digest.value)

    def insert_random(self, job: VerificationJob, rng: random.Random) -> bool:
        """Insert at a uniform position within the unchecked suffix.

        All ``len - checked_count + 1`` slots from just after the checked
        prefix through the tail are equally likely.  Returns False (and
        counts a duplicate) if the digest is already queued.
        """
        key = job.digest.value
        if key in self._index:
            self.duplicates_dropped += 1
            return False
        checked = self.checked_count
        pos = checked + int(rng.random() * (len(self.jobs) - checked + 1))
        self.jobs.insert(pos, job)
        self._index[key] = job
        return True

    def append(self, job: VerificationJob) -> bool:
        """FCFS insertion at the tail (baseline discipline)."""
        key = job.digest.value
        if key in self._index:
            self.duplicates_dropped += 1
            return False
        self.jobs.append(job)
        self._index[key] = job
        return True

    def pop_head(self) -> VerificationJob:
        job = self.jobs.pop(0)
        if job.b:
            self.checked_count -= 1
        del self._index[job.digest.value]
        return job

    def promote(self, digest: Digest80, checked_by: Tuple[NodeId, Digest80]) -> VerificationJob:
        """Flag a queued job for a spot check and move it up.

        The job's check flag flips False -> True (exactly once) and the job
        is reinserted immediately after the last already-flagged job, so
        spot checks are served before ordinary arrivals.
        """
        job = self._index[digest.value]
        if job.b:
            raise QueueInvariantError("promote() on an already-checked job")
        idx = self.jobs.index(job, self.checked_count)
        self.jobs.pop(idx)
        job.b = True
        job.checked_by = checked_by
        self.jobs.insert(self.checked_count, job)
        self.checked_count += 1
        return job

    def remove(self, digest: Digest80) -> VerificationJob:
        """Remove a queued job (cooperative acceptance path)."""
        job = self._index.pop(digest.value)
        start = 0 if job.b else self.checked_count
        idx = self.jobs.index(job, start)
        self.jobs.pop(idx)
        if job.b:
            self.checked_count -= 1
        return job

    def drain(self) -> List[VerificationJob]:
        """Empty the queue in one step; the jobs come back in queue order."""
        jobs = self.jobs
        self.jobs = []
        self._index = {}
        self.checked_count = 0
        return jobs

    def purge_sender(self, sender_id: int) -> List[VerificationJob]:
        """Drop every queued job from one sender (revocation cleanup)."""
        purged = [j for j in self.jobs if j.message.cam.sender.id == sender_id]
        if purged:
            self.jobs = [j for j in self.jobs if j.message.cam.sender.id != sender_id]
            for job in purged:
                del self._index[job.digest.value]
                if job.b:
                    self.checked_count -= 1
        return purged

    def audit(self) -> None:
        """Assert the partition and index invariants; audit runs only."""
        flags = [j.b for j in self.jobs]
        if flags != [True] * self.checked_count + [False] * (len(flags) - self.checked_count):
            raise QueueInvariantError(
                f"checked jobs not a contiguous prefix: {flags}, count={self.checked_count}"
            )
        if len(self._index) != len(self.jobs):
            raise QueueInvariantError("digest index size mismatch")
        for job in self.jobs:
            if self._index.get(job.digest.value) is not job:
                raise QueueInvariantError("digest index points at a different job")


class VerifiedCache:
    """Digests of the latest self-verified messages, newest timestamp first.

    Ordering and eviction follow the messages' generation timestamps, not
    reception or verification order.  Only messages this node
    signature-verified itself may enter; cooperatively accepted ones never
    do.
    """

    __slots__ = ("capacity", "entries", "_present")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.entries: List[Tuple[float, Digest80]] = []  # gen timestamp desc
        self._present: set[bytes] = set()

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, digest: Digest80, cam_timestamp: float) -> None:
        if self.capacity == 0 or digest.value in self._present:
            return
        entries = self.entries
        if len(entries) == self.capacity and cam_timestamp <= entries[-1][0]:
            return  # older than everything cached
        pos = 0
        while pos < len(entries) and entries[pos][0] >= cam_timestamp:
            pos += 1
        entries.insert(pos, (cam_timestamp, digest))
        self._present.add(digest.value)
        if len(entries) > self.capacity:
            self._present.discard(entries.pop()[1].value)

    def digests(self) -> Tuple[Digest80, ...]:
        return tuple(d for _, d in self.entries)


@dataclass(slots=True)
class ClaimApplication:
    """Effects of scanning one accepted message's claims over the queue."""

    accepted_jobs: List[VerificationJob]  # cooperatively accepted, claim order
    matched: int  # queued, unchecked jobs hit by a claim
    spot_checked: int  # matches that drew the check branch
    blacklist_hits: List[Tuple[NodeId, Digest80, Digest80]]  # claimant, claim, bogus


class NodeState:
    """Everything one vehicle owns: queue, cache, RNG stream, verifier clock."""

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        *,
        cooperative: bool,
        pr_check: float,
        alpha: int,
        tau: float,
        rng: random.Random,
        audit: bool = False,
        blacklist_rejected: bool = False,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.cooperative = cooperative
        self.pr_check = pr_check
        self.alpha = alpha
        self.tau = tau
        self.rng = rng
        self.audit = audit
        self.blacklist_rejected = blacklist_rejected

        self.queue = VerificationQueue()
        # Baseline nodes never claim, so they keep no verified digests.
        self.cache = VerifiedCache(alpha if cooperative else 0)
        self.in_flight: Optional[VerificationJob] = None  # popped, signature check running
        self.popped_at = 0.0  # when ``in_flight`` left the queue
        self.seq = 0
        self.receptions = 0
        self.verifications_completed = 0
        self.rejected_digests: set[Digest80] = set()
        self._coop_accepted: set[Digest80] = set()  # audit provenance only

    # -- reception ---------------------------------------------------------

    def receive(self, message: SignedCam, digest: Digest80, now: float) -> Optional[VerificationJob]:
        """Queue one delivered frame; returns None for a duplicate digest."""
        job = VerificationJob(message=message, digest=digest, enqueue_time=now)
        if self.cooperative:
            accepted = self.queue.insert_random(job, self.rng)
        else:
            accepted = self.queue.append(job)
        if accepted:
            self.receptions += 1
            if self.audit:
                self.queue.audit()
            return job
        return None

    # -- verification ------------------------------------------------------

    def pop_and_verify(self, now: float) -> VerificationJob:
        """Pop the head job and occupy the verifier for ``tau`` seconds.

        The signature outcome is revealed (and all acceptance side effects
        applied via :meth:`finish_verification`) at ``now + tau``; waiting
        time is measured up to the pop instant.
        """
        if self.in_flight is not None:
            raise RuntimeError("verifier is busy")
        job = self.queue.pop_head()
        self.in_flight = job
        self.popped_at = now
        if self.audit:
            self.queue.audit()
        return job

    def finish_verification(self, job: VerificationJob, *, revoked: bool = False) -> DispositionKind:
        """Apply the revealed signature result at completion time.

        Returns the job's outcome; the job left the queue at ``popped_at``.
        With ``revoked`` (the sender was revoked while the check ran) the
        result is discarded: the job is purged, nothing enters the cache and
        the caller scans no claims and files no report.
        """
        if self.in_flight is not job:
            raise RuntimeError("finishing a verification that is not in flight")
        self.in_flight = None
        self.verifications_completed += 1
        if revoked:
            outcome = DispositionKind.PURGED_REVOKED
        elif job.message.valid:
            outcome = DispositionKind.SIGNATURE_ACCEPTED
            if self.audit and job.digest in self._coop_accepted:
                raise QueueInvariantError("cooperatively accepted digest re-verified")
            self.cache.record(job.digest, job.message.cam.gen_timestamp)
        else:
            outcome = DispositionKind.REJECTED_INVALID
            if self.blacklist_rejected:
                self.rejected_digests.add(job.digest)
        return outcome

    # -- cooperative acceptance --------------------------------------------

    def apply_claims(self, accepted: SignedCam, claim_digest: Digest80) -> ClaimApplication:
        """Scan an accepted message's claimed digests over the queue.

        For each claimed digest, in list order: a queued unchecked job is
        either flagged for a spot check (probability ``pr_check``, recording
        the claimant for later attribution) or accepted cooperatively and
        removed, its waiting ending at the caller's current time.  Digests
        that are absent or already flagged are ignored.
        """
        claimant = accepted.cam.sender
        result = ClaimApplication([], 0, 0, [])
        for claimed in accepted.cam.claimed_digests:
            job = self.queue.find(claimed)
            if job is not None:
                if job.b:
                    continue
                result.matched += 1
                if self.rng.random() < self.pr_check:
                    self.queue.promote(claimed, (claimant, claim_digest))
                    result.spot_checked += 1
                else:
                    self.queue.remove(claimed)
                    if self.audit:
                        self._coop_accepted.add(claimed)
                    result.accepted_jobs.append(job)
            elif self.blacklist_rejected and claimed in self.rejected_digests:
                result.blacklist_hits.append((claimant, claim_digest, claimed))
        if self.audit:
            self.queue.audit()
        return result

    # -- beacon generation ---------------------------------------------------

    def build_own_cam(self, now: float) -> SignedCam:
        """Assemble this node's next beacon, claiming the cached digests.

        The cache holds at most ``alpha`` digests; whatever is present is
        claimed, without padding.  Baseline nodes claim nothing.
        """
        claimed = self.cache.digests() if self.cooperative else ()
        return self.sign(now, self.position, claimed, True)

    def sign(
        self, now: float, position: Tuple[float, float], claimed: Tuple[Digest80, ...], valid: bool
    ) -> SignedCam:
        """This node's next frame, signed by it: it takes the next ``seq``."""
        cam = Cam(self.node_id, now, position, self.seq, claimed)
        self.seq += 1
        return SignedCam(cam, valid)

    # -- revocation support --------------------------------------------------

    def purge_sender(self, sender_id: int) -> List[VerificationJob]:
        """Drop the revoked sender's queued jobs and return them."""
        purged = self.queue.purge_sender(sender_id)
        if self.audit and purged:
            self.queue.audit()
        return purged
