"""Adversary behaviour and the report/revocation machinery.

The modelled adversary holds valid credentials and alternates between
flooding unsigned (bogus) beacons and sending one properly signed beacon
whose claim list marks those bogus messages as verified.  A receiver that
spot-checks such a claimed message finds an invalid signature backed by a
signed claim: hard evidence against the claimant.  Reports land in an
omniscient registry (transport is out of scope); once ``votes_needed``
distinct reporters accuse a node it is revoked for the rest of the run,
its frames dropped at reception and its queued jobs purged everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .core import Digest80, NodeId, SignedCam, VerificationJob, compute_digest
from .engine import NodeState


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    """Attack shape: emission rate, aggressiveness, start time.

    ``bogus_per_claim`` is the number of bogus digests packed into each
    signed claim (the worst case equals ``alpha``; smaller values model a
    stealthier attacker that pads with genuinely verified digests).
    """

    gamma_adv: float = 10.0
    bogus_per_claim: int = 5
    start_time: float = 0.0

    def validate(self, alpha: int) -> None:
        if not (math.isfinite(self.gamma_adv) and self.gamma_adv > 0):
            raise ValueError(f"gamma_adv must be positive and finite, got {self.gamma_adv}")
        if not 0 <= self.bogus_per_claim <= alpha:
            raise ValueError("bogus_per_claim must be in [0, alpha]")
        if not (math.isfinite(self.start_time) and self.start_time >= 0):
            raise ValueError(f"start_time must be >= 0 and finite, got {self.start_time}")


@dataclass(frozen=True, slots=True)
class MisbehaviorReport:
    """Evidence pair: a signed claim vouching for an invalid message."""

    reporter: NodeId
    accused: NodeId
    claim_digest: Digest80  # the validating beacon
    bogus_digest: Digest80  # the message that failed its spot check
    time: float

    def __post_init__(self) -> None:
        if self.reporter == self.accused:
            raise ValueError("a node cannot report itself")


class RevocationRegistry:
    """Omniscient vote counter: ``votes_needed`` distinct reporters revoke.

    Stands in for a distributed eviction protocol; reports arrive instantly
    and reliably.  Revocation is permanent within a run.  The reports
    themselves and the revocation times are kept by the run's ledger.
    """

    __slots__ = ("votes_needed", "reporters", "revoked")

    def __init__(self, votes_needed: int) -> None:
        if votes_needed < 1:
            raise ValueError("votes_needed must be >= 1")
        self.votes_needed = votes_needed
        self.reporters: Dict[int, Set[int]] = {}
        self.revoked: Set[int] = set()

    def add_report(self, report: MisbehaviorReport) -> bool:
        """Record a report; True when it just triggered a revocation.

        Duplicate (reporter, accused) pairs count once toward the threshold.
        """
        accused = report.accused.id
        voters = self.reporters.setdefault(accused, set())
        voters.add(report.reporter.id)
        if accused not in self.revoked and len(voters) >= self.votes_needed:
            self.revoked.add(accused)
            return True
        return False


def detect_false_claim(
    node_id: NodeId, job: VerificationJob, now: float
) -> Optional[MisbehaviorReport]:
    """Turn a failed spot check into a report against the claimant.

    Applies only when the finished job was flagged by an accepted claim
    (``checked_by`` set) and its signature turned out invalid.  A bogus
    message popped in the ordinary course is rejected without a report:
    there is no claimant to attribute it to.
    """
    if job.message.valid or job.checked_by is None:
        return None
    claimant, claim_digest = job.checked_by
    return MisbehaviorReport(
        reporter=node_id,
        accused=claimant,
        claim_digest=claim_digest,
        bogus_digest=job.digest,
        time=now,
    )


@dataclass(slots=True)
class AdversaryDriver:
    """Builds the adversary's frames, one emission cycle after another.

    The kernel schedules the adversary like any other sender, at
    ``start_time + k / gamma_adv``.  With claim width
    ``k = bogus_per_claim`` and the node's ``alpha``, each cycle of
    ``alpha + 1`` emissions holds ``alpha`` bogus messages followed by one
    validly signed claim carrying the last ``k`` bogus digests of the cycle,
    padded with up to ``alpha - k`` genuinely verified digests from the
    adversary's own cache (fewer if it has not verified that many).  The
    node's ``seq`` counts the emissions, since only this driver signs for it.
    """

    node: NodeState
    config: AdversaryConfig
    area_side: float
    _cycle_digests: List[Digest80] = field(default_factory=list)

    def emit(self, now: float) -> SignedCam:
        alpha = self.node.alpha
        if self.node.seq % (alpha + 1) < alpha:
            return self._emit_bogus(now)
        return self._emit_claim(now)

    def _emit_bogus(self, now: float) -> SignedCam:
        """A well-formed beacon with arbitrary content and a bad signature."""
        rng = self.node.rng
        position = (rng.uniform(0.0, self.area_side), rng.uniform(0.0, self.area_side))
        message = self.node.sign(now, position, (), False)
        self._cycle_digests.append(compute_digest(message))
        return message

    def _emit_claim(self, now: float) -> SignedCam:
        k = self.config.bogus_per_claim
        alpha = self.node.alpha
        claimed: List[Digest80] = self._cycle_digests[alpha - k :] if k else []
        self._cycle_digests = []
        if k < alpha:
            pad = [d for d in self.node.cache.digests() if d not in claimed]
            claimed = claimed + pad[: alpha - k]
        return self.node.sign(now, self.node.position, tuple(claimed), True)
