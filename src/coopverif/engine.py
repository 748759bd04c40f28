"""Per-node verification machinery.

Each node owns a single verification thread: one signature check at a time,
each costing the configured delay ``tau``.  Messages received while the
thread is busy wait in a :class:`VerificationQueue`.  The cooperative loop
works head-first:

1. pop the head job and verify its signature (``tau`` seconds);
2. if valid, accept the message and scan its claimed digests against the
   queue: each matching unchecked job is either spot-checked (probability
   ``pr_check``: the queue flags it with the claim and moves it up, right
   behind the other flagged jobs) or accepted cooperatively and removed;
3. record the digest of every message this node signature-verified itself
   in a bounded cache, which feeds the claims of its own outgoing beacons.

A job is one frame's, shared by all its receivers and never changed; each
queue keeps its own spot-check flags.  Flagged jobs form a contiguous
queue prefix; new arrivals insert at a uniformly random position within
the unchecked suffix, which keeps the prefix intact while decorrelating
verification order across neighbours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .core import Cam, Digest80, NodeId, VerificationJob


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


# The per-event path compares outcomes against these module names: on
# Python 3.11 looking a member up on its Enum class costs about 0.1 us.
SIGNATURE_ACCEPTED = DispositionKind.SIGNATURE_ACCEPTED
COOPERATIVELY_ACCEPTED = DispositionKind.COOPERATIVELY_ACCEPTED
REJECTED_INVALID = DispositionKind.REJECTED_INVALID
PURGED_REVOKED = DispositionKind.PURGED_REVOKED

ACCEPTED_KINDS = (SIGNATURE_ACCEPTED, COOPERATIVELY_ACCEPTED)


@dataclass(slots=True)
class Disposition:
    """Ledger row of one received, non-duplicate message, decoded on read.

    The ledger keeps its rows packed and builds one of these only when a
    reader asks (``MetricsLedger.records``); rows exist only for the nodes
    whose rows the ledger keeps, the other nodes only count outcomes.
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

    @property
    def waiting_time(self) -> float:
        """Interval from enqueueing to leaving the queue for good."""
        return self.leave_queue_time - self.enqueue_time


class QueueInvariantError(AssertionError):
    """Raised by audits when the queue state is internally inconsistent."""


class VerificationQueue:
    """Pending jobs, spot-checked prefix first, with a digest index.

    ``index`` maps each queued job's digest to the job; claim scans read
    it directly, on the simulator's hottest path.  ``checked`` maps
    each job flagged for a spot check to the ``(claimant, claim digest)``
    that flagged it; those jobs are ``jobs[:len(checked)]``, in order.
    """

    __slots__ = ("jobs", "index", "checked", "duplicates_dropped")

    def __init__(self) -> None:
        self.jobs: List[VerificationJob] = []
        self.index: dict[Digest80, VerificationJob] = {}
        self.checked: dict[Digest80, Tuple[NodeId, Digest80]] = {}
        self.duplicates_dropped = 0

    def __len__(self) -> int:
        return len(self.jobs)

    def insert_random(self, job: VerificationJob, rng: random.Random) -> bool:
        """Insert at a uniform position within the unchecked suffix.

        All ``len - len(checked) + 1`` slots from just after the checked
        prefix through the tail are equally likely.  Returns False (and
        counts a duplicate) if the digest is already queued.
        """
        digest = job.digest
        if digest in self.index:
            self.duplicates_dropped += 1
            return False
        checked = len(self.checked)
        pos = checked + int(rng.random() * (len(self.jobs) - checked + 1))
        self.jobs.insert(pos, job)
        self.index[digest] = job
        return True

    def append(self, job: VerificationJob) -> bool:
        """FCFS insertion at the tail (baseline discipline)."""
        digest = job.digest
        if digest in self.index:
            self.duplicates_dropped += 1
            return False
        self.jobs.append(job)
        self.index[digest] = job
        return True

    def pop_head(self) -> Tuple[VerificationJob, Optional[Tuple[NodeId, Digest80]]]:
        """Remove the head job; returns it with its flag (None if unchecked)."""
        job = self.jobs.pop(0)
        digest = job.digest
        del self.index[digest]
        return job, self.checked.pop(digest, None)

    def promote(self, digest: Digest80, checked_by: Tuple[NodeId, Digest80]) -> VerificationJob:
        """Flag a queued job for a spot check and move it up.

        ``checked_by`` becomes the job's entry in ``checked`` (at most
        once) and the job is reinserted right after the last flagged job,
        so spot checks are served before ordinary arrivals.
        """
        job = self.index[digest]
        checked = self.checked
        if digest in checked:
            raise QueueInvariantError("promote() on an already-checked job")
        jobs = self.jobs
        jobs.pop(jobs.index(job, len(checked)))
        jobs.insert(len(checked), job)
        checked[digest] = checked_by
        return job

    def remove(self, digest: Digest80) -> VerificationJob:
        """Remove a queued job (cooperative acceptance path)."""
        job = self.index.pop(digest)
        flagged = self.checked.pop(digest, None) is not None
        self.jobs.pop(self.jobs.index(job, 0 if flagged else len(self.checked)))
        return job

    def drain(self) -> List[VerificationJob]:
        """Empty the queue in one step; the jobs come back in queue order."""
        jobs = self.jobs
        self.jobs = []
        self.index = {}
        self.checked = {}
        return jobs

    def purge_sender(self, sender_id: int) -> List[VerificationJob]:
        """Drop every queued job from one sender (revocation cleanup)."""
        purged = [j for j in self.jobs if j.cam.sender.id == sender_id]
        if purged:
            self.jobs = [j for j in self.jobs if j.cam.sender.id != sender_id]
            for job in purged:
                del self.index[job.digest]
                self.checked.pop(job.digest, None)
        return purged

    def audit(self) -> None:
        """Assert the partition and index invariants; audit runs only."""
        if [j.digest for j in self.jobs[: len(self.checked)]] != list(self.checked):
            raise QueueInvariantError(f"checked jobs not the queue prefix: {len(self.checked)} flags")
        if len(self.index) != len(self.jobs):
            raise QueueInvariantError("digest index size mismatch")
        for job in self.jobs:
            if self.index.get(job.digest) is not job:
                raise QueueInvariantError("digest index points at a different job")


class VerifiedCache:
    """Digests of the latest self-verified messages, newest timestamp first.

    Ordering and eviction follow the messages' generation timestamps, not
    reception or verification order.  Only messages this node
    signature-verified itself may enter; cooperatively accepted ones never
    do.  ``record`` inserts a message behind every entry at least as new,
    so among equal timestamps the earlier record wins, and then evicts the
    oldest entry past ``capacity``; a message no newer than the oldest entry
    of a full cache is dropped.  A digest recorded twice is the same
    encoding, hence the same timestamp, so the repeat is found among the
    entries at least as new and changes nothing.
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.entries: List[Tuple[float, Digest80]] = []  # gen timestamp desc

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, digest: Digest80, cam_timestamp: float) -> None:
        entries = self.entries
        if len(entries) == self.capacity and (not entries or cam_timestamp <= entries[-1][0]):
            return  # no room, or older than everything cached
        pos = 0
        for ts, cached in entries:
            if ts < cam_timestamp:
                break
            if cached == digest:
                return
            pos += 1
        entries.insert(pos, (cam_timestamp, digest))
        if len(entries) > self.capacity:
            entries.pop()

    def digests(self) -> Tuple[Digest80, ...]:
        return tuple(d for _, d in self.entries)


@dataclass(slots=True)
class ClaimApplication:
    """Effects of scanning one accepted message's claims over the queue."""

    accepted_jobs: List[VerificationJob]  # cooperatively accepted, claim order
    matched: int  # queued, unchecked jobs hit by a claim
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
        rng: random.Random,
        audit: bool = False,
        blacklist_rejected: bool = False,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.cooperative = cooperative
        self.pr_check = pr_check
        self.alpha = alpha
        self.rng = rng
        self.audit = audit
        self.blacklist_rejected = blacklist_rejected

        self.queue = VerificationQueue()
        # Baseline nodes never claim, so they keep no verified digests.
        self.cache = VerifiedCache(alpha if cooperative else 0)
        self.in_flight: Optional[VerificationJob] = None  # popped, signature check running
        self.in_flight_flag: Optional[Tuple[NodeId, Digest80]] = None  # its spot-check claim
        self.popped_at = 0.0  # when ``in_flight`` left the queue
        self.seq = 0
        self.receptions = 0
        self.verifications_completed = 0
        self.claims_matched = 0  # queued, unchecked jobs hit by a claim
        self.spot_checks_set = 0  # matches that drew the check branch
        self.rejected_digests: set[Digest80] = set()
        self._coop_accepted: set[Digest80] = set()  # audit provenance only

    # -- reception ---------------------------------------------------------

    def receive(self, job: VerificationJob) -> bool:
        """Queue one delivered frame's shared job; False for a duplicate digest."""
        if self.cooperative:
            queued = self.queue.insert_random(job, self.rng)
        else:
            queued = self.queue.append(job)
        if queued:
            self.receptions += 1
            if self.audit:
                self.queue.audit()
        return queued

    # -- verification ------------------------------------------------------

    def pop_and_verify(self, now: float) -> VerificationJob:
        """Pop the head job and occupy the verifier for ``tau`` seconds.

        The signature outcome is revealed (and all acceptance side effects
        applied via :meth:`finish_verification`) at ``now + tau``; waiting
        time is measured up to the pop instant.  The job's spot-check flag
        leaves the queue with it, into ``in_flight_flag``.
        """
        if self.in_flight is not None:
            raise RuntimeError("verifier is busy")
        job, self.in_flight_flag = self.queue.pop_head()
        self.in_flight = job
        self.popped_at = now
        if self.audit:
            self.queue.audit()
        return job

    def finish_verification(self, *, revoked: bool = False) -> DispositionKind:
        """Apply the revealed signature result of ``in_flight`` at completion time.

        Returns the job's outcome; the job left the queue at ``popped_at``.
        With ``revoked`` (the sender was revoked while the check ran) the
        result is discarded: the job is purged, nothing enters the cache and
        the caller scans no claims and files no report.
        """
        job = self.in_flight
        if job is None:
            raise RuntimeError("no verification in flight")
        self.in_flight = self.in_flight_flag = None
        self.verifications_completed += 1
        if revoked:
            outcome = PURGED_REVOKED
        elif job.cam.valid:
            outcome = SIGNATURE_ACCEPTED
            if self.audit and job.digest in self._coop_accepted:
                raise QueueInvariantError("cooperatively accepted digest re-verified")
            self.cache.record(job.digest, job.cam.gen_timestamp)
        else:
            outcome = REJECTED_INVALID
            if self.blacklist_rejected:
                self.rejected_digests.add(job.digest)
        return outcome

    # -- cooperative acceptance --------------------------------------------

    def apply_claims(self, accepted: VerificationJob) -> ClaimApplication:
        """Scan an accepted job's claimed digests over the queue.

        The claimant is the job's sender and the claim digest the job's
        digest.  For each claimed digest, in list order: a queued unchecked
        job is either flagged for a spot check (probability ``pr_check``,
        recording the claimant for later attribution) or accepted
        cooperatively and removed, its waiting ending at the caller's
        current time.  Digests that are absent or already flagged are
        ignored.  The node's ``claims_matched`` grows by the returned
        ``matched``, and its ``spot_checks_set`` by the matches that drew
        the check branch.
        """
        claimant, claim_digest = accepted.cam.sender, accepted.digest
        queue = self.queue
        queued = queue.index.get
        checked = queue.checked
        accepted_jobs: List[VerificationJob] = []
        blacklist_hits: List[Tuple[NodeId, Digest80, Digest80]] = []
        matched = 0
        for claimed in accepted.cam.claimed_digests:
            job = queued(claimed)
            if job is not None:
                if claimed in checked:
                    continue
                matched += 1
                if self.rng.random() < self.pr_check:
                    queue.promote(claimed, (claimant, claim_digest))
                    self.spot_checks_set += 1
                else:
                    queue.remove(claimed)
                    if self.audit:
                        self._coop_accepted.add(claimed)
                    accepted_jobs.append(job)
            elif self.blacklist_rejected and claimed in self.rejected_digests:
                blacklist_hits.append((claimant, claim_digest, claimed))
        if self.audit:
            queue.audit()
        self.claims_matched += matched
        return ClaimApplication(accepted_jobs, matched, blacklist_hits)

    # -- beacon generation ---------------------------------------------------

    def build_own_cam(self, now: float) -> Cam:
        """Assemble this node's next beacon, claiming the cached digests.

        The cache holds at most ``alpha`` digests; whatever is present is
        claimed, without padding.  A baseline node's cache holds none, so it
        claims nothing.
        """
        return self.sign(now, self.position, self.cache.digests(), True)

    def sign(
        self, now: float, position: Tuple[float, float], claimed: Tuple[Digest80, ...], valid: bool
    ) -> Cam:
        """This node's next frame, signed by it: it takes the next ``seq``."""
        cam = Cam(self.node_id, now, position, self.seq, claimed, valid)
        self.seq += 1
        return cam

    # -- revocation support --------------------------------------------------

    def purge_sender(self, sender_id: int) -> List[VerificationJob]:
        """Drop the revoked sender's queued jobs and return them."""
        purged = self.queue.purge_sender(sender_id)
        if self.audit and purged:
            self.queue.audit()
        return purged
