"""Per-run measurement ledger and replication-level aggregation.

A run produces one :class:`MetricsLedger`: per-message disposition records
for the evaluated node (every node with ``record_all``), per-node counters
for conservation checks, node 0's queue length per second, and the
report/revocation event log.  The evaluated node's waiting samples and its
per-second time series are read from its rows.  ``summarize`` flattens a
ledger into the scalar row exported to ``summary.csv``;
:func:`pool_replications` merges several seeded runs the way the
experiments are reported (pooled waiting samples, averaged scalars).
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from .core import VerificationJob
from .engine import ACCEPTED_KINDS, Disposition, DispositionKind
from .threat import MisbehaviorReport

SUMMARY_COLUMNS = [
    "run",
    "seed",
    "scheme",
    "receptions",
    "duplicates",
    "lost_frames",
    "dropped_revoked_frames",
    "signature_accepted",
    "cooperatively_accepted",
    "rejected_invalid",
    "unprocessed_at_end",
    "purged_revoked",
    "accepted_total",
    "cooperative_ratio",
    "waiting_mean",
    "waiting_median",
    "waiting_p90",
    "waiting_p99",
    "waiting_max",
    "final_queue_len",
    "verifier_utilization",
    "verifications_completed",
    "claims_matched",
    "spot_checks_set",
    "bogus_accepted",
    "bogus_accepted_all_nodes",
    "reports_filed",
    "revoked",
    "revocation_time",
]


def quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of pre-sorted samples (q in [0, 1])."""
    n = len(sorted_samples)
    if n == 0:
        return math.nan
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    idx = max(0, min(n - 1, math.ceil(q * n) - 1))
    return sorted_samples[idx]


@dataclass(slots=True)
class MetricsLedger:
    """Everything measured in one simulation run."""

    seed: int
    scheme: str
    duration: float
    record_all: bool = False
    evaluated_node: ClassVar[int] = 0

    # Per-message rows: (node_id, Disposition).  Always kept for the
    # evaluated node; for every node when record_all is set.
    records: List[Tuple[int, Disposition]] = field(default_factory=list)
    # Per-node outcome counts, kept for all nodes (conservation audits).
    outcome_counts: Dict[int, Counter] = field(default_factory=dict)
    receptions: Dict[int, int] = field(default_factory=dict)
    duplicates: Dict[int, int] = field(default_factory=dict)
    claims_matched: Dict[int, int] = field(default_factory=dict)
    spot_checks_set: Dict[int, int] = field(default_factory=dict)
    verifications_completed: Dict[int, int] = field(default_factory=dict)

    # Evaluated-node queue length sampled at integer seconds 0..duration.
    queue_len_samples: List[int] = field(default_factory=list)

    busy_time: float = 0.0
    final_queue_len: int = 0
    lost_frames: int = 0
    dropped_revoked_frames: int = 0
    bogus_accepted: Dict[int, int] = field(default_factory=dict)

    reports: List[MisbehaviorReport] = field(default_factory=list)
    revocations: List[Tuple[int, float]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def record_disposition(
        self, node_id: int, outcome: DispositionKind, job: VerificationJob, left_at: float
    ) -> None:
        """Count ``job`` leaving ``node_id``'s queue for good at ``left_at``.

        Every node's outcome is counted; a :class:`Disposition` row is built
        only for the evaluated node, or for every node with ``record_all``.
        """
        waiting = left_at - job.enqueue_time
        if waiting < -1e-12:
            raise ValueError(f"negative waiting time: {waiting}")
        counts = self.outcome_counts.get(node_id)
        if counts is None:
            counts = self.outcome_counts[node_id] = Counter()
        counts[outcome] += 1
        if outcome is DispositionKind.COOPERATIVELY_ACCEPTED and not job.message.valid:
            self.bogus_accepted[node_id] = self.bogus_accepted.get(node_id, 0) + 1
        if self.record_all or node_id == self.evaluated_node:
            self.records.append((node_id, Disposition.of(outcome, job, left_at)))

    def record_claims(self, node_id: int, matched: int, spot_checked: int) -> None:
        self.claims_matched[node_id] = self.claims_matched.get(node_id, 0) + matched
        self.spot_checks_set[node_id] = self.spot_checks_set.get(node_id, 0) + spot_checked

    # -- derived views ---------------------------------------------------------

    def _accepted_rows(self) -> List[Disposition]:
        """The evaluated node's rows of accepted messages, in record order."""
        nid = self.evaluated_node
        return [d for node, d in self.records if node == nid and d.outcome in ACCEPTED_KINDS]

    @property
    def waiting_samples(self) -> List[float]:
        """Evaluated-node waiting times of accepted messages, in record order."""
        return [d.waiting_time for d in self._accepted_rows()]

    def node_counts(self, node_id: int) -> Counter:
        return self.outcome_counts.get(node_id, Counter())

    def count(self, kind: DispositionKind, node_id: Optional[int] = None) -> int:
        nid = self.evaluated_node if node_id is None else node_id
        return self.node_counts(nid)[kind]

    def accepted_total(self, node_id: Optional[int] = None) -> int:
        nid = self.evaluated_node if node_id is None else node_id
        counts = self.node_counts(nid)
        return sum(counts[k] for k in ACCEPTED_KINDS)

    def cooperative_ratio(self, node_id: Optional[int] = None) -> float:
        nid = self.evaluated_node if node_id is None else node_id
        counts = self.node_counts(nid)
        coop = counts[DispositionKind.COOPERATIVELY_ACCEPTED]
        sig = counts[DispositionKind.SIGNATURE_ACCEPTED]
        return coop / (coop + sig) if coop + sig else math.nan

    def first_revocation_time(self) -> Optional[float]:
        return self.revocations[0][1] if self.revocations else None

    def timeseries(self) -> List[Tuple[int, float, int]]:
        """(second, mean accepted waiting that second, queue length) rows."""
        sums: Dict[int, float] = {}
        counts: Counter = Counter()
        for d in self._accepted_rows():
            sec = int(d.leave_queue_time)
            sums[sec] = sums.get(sec, 0.0) + d.waiting_time
            counts[sec] += 1
        rows = []
        for sec, qlen in enumerate(self.queue_len_samples):
            count = counts[sec]
            mean = sums[sec] / count if count else math.nan
            rows.append((sec, mean, qlen))
        return rows

    def summarize(self, run_index: int = 0) -> Dict[str, object]:
        nid = self.evaluated_node
        counts = self.node_counts(nid)
        waits = sorted(self.waiting_samples)
        n = len(waits)
        revocation = self.first_revocation_time()
        return {
            "run": run_index,
            "seed": self.seed,
            "scheme": self.scheme,
            "receptions": self.receptions.get(nid, 0),
            "duplicates": self.duplicates.get(nid, 0),
            "lost_frames": self.lost_frames,
            "dropped_revoked_frames": self.dropped_revoked_frames,
            "signature_accepted": counts[DispositionKind.SIGNATURE_ACCEPTED],
            "cooperatively_accepted": counts[DispositionKind.COOPERATIVELY_ACCEPTED],
            "rejected_invalid": counts[DispositionKind.REJECTED_INVALID],
            "unprocessed_at_end": counts[DispositionKind.UNPROCESSED_AT_END],
            "purged_revoked": counts[DispositionKind.PURGED_REVOKED],
            "accepted_total": self.accepted_total(),
            "cooperative_ratio": self.cooperative_ratio(),
            "waiting_mean": math.fsum(waits) / n if n else math.nan,
            "waiting_median": quantile(waits, 0.5),
            "waiting_p90": quantile(waits, 0.9),
            "waiting_p99": quantile(waits, 0.99),
            "waiting_max": waits[-1] if n else math.nan,
            "final_queue_len": self.final_queue_len,
            "verifier_utilization": self.busy_time / self.duration if self.duration else math.nan,
            "verifications_completed": self.verifications_completed.get(nid, 0),
            "claims_matched": self.claims_matched.get(nid, 0),
            "spot_checks_set": self.spot_checks_set.get(nid, 0),
            "bogus_accepted": self.bogus_accepted.get(nid, 0),
            "bogus_accepted_all_nodes": sum(self.bogus_accepted.values()),
            "reports_filed": len(self.reports),
            "revoked": 1 if self.revocations else 0,
            "revocation_time": revocation if revocation is not None else math.nan,
        }


@dataclass(slots=True)
class ReplicationResult:
    """Several seeded runs of one scenario, reported together."""

    runs: List[MetricsLedger]
    pooled_waiting: List[float]  # sorted, accepted messages, all runs

    def per_run_summaries(self) -> List[Dict[str, object]]:
        return [ledger.summarize(i) for i, ledger in enumerate(self.runs)]

    def mean_summary(self, rows: Optional[List[Dict[str, object]]] = None) -> Dict[str, object]:
        """Scalar averages across runs; non-numeric fields from run 0.

        ``rows`` are the runs' ``per_run_summaries()`` when the caller has
        them already; otherwise they are computed here.
        ``revocation_time`` averages only the runs that actually revoked.
        """
        if rows is None:
            rows = self.per_run_summaries()
        out: Dict[str, object] = {}
        for key in SUMMARY_COLUMNS:
            values = [r[key] for r in rows]
            if key == "run":
                out[key] = "mean"
            elif key in ("seed", "scheme"):
                out[key] = values[0]
            elif key == "revocation_time":
                present = [v for v in values if isinstance(v, float) and not math.isnan(v)]
                out[key] = math.fsum(present) / len(present) if present else math.nan
            else:
                nums = [float(v) for v in values]
                out[key] = math.fsum(nums) / len(nums)
        return out

    def pooled_quantile(self, q: float) -> float:
        return quantile(self.pooled_waiting, q)

    def pooled_fraction_below(self, threshold: float) -> float:
        if not self.pooled_waiting:
            return math.nan
        return bisect.bisect_left(self.pooled_waiting, threshold) / len(self.pooled_waiting)


def pool_replications(runs: List[MetricsLedger]) -> ReplicationResult:
    pooled: List[float] = []
    for ledger in runs:
        pooled.extend(ledger.waiting_samples)
    pooled.sort()
    return ReplicationResult(runs=runs, pooled_waiting=pooled)
