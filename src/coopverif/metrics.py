"""Per-run measurement ledger and replication-level aggregation.

A run produces one :class:`MetricsLedger`: per-message disposition rows
for the evaluated node (every node with ``record_all``), per-node counters
for conservation checks, node 0's queue length per second, and the
report/revocation event log.  Each kept row is packed by :data:`ROW` into
one ``bytearray``, 35 bytes a row and no object per row; ``records``
decodes them to :class:`~coopverif.engine.Disposition` rows on read.  The
evaluated node's waiting samples and its per-second time series are read
from its accepted rows, whose row numbers the ledger indexes as it records
them.  ``summarize`` flattens a ledger into the scalar row exported to
``summary.csv``; its keys, in order, are that file's columns.
:func:`pool_replications` merges several seeded runs the way the
experiments are reported (pooled waiting samples, averaged scalars).
"""

from __future__ import annotations

import bisect
import math
import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from .core import Digest80, NodeId, VerificationJob
from .engine import ACCEPTED_KINDS, COOPERATIVELY_ACCEPTED, Disposition, DispositionKind
from .threat import MisbehaviorReport

# One kept row: node id, outcome code (its index in OUTCOMES), sender id,
# enqueue time, leave-queue time and the 10 digest bytes.  The times are
# IEEE doubles, so they read back bit for bit.
ROW = struct.Struct("<IBIdd10s")
OUTCOMES = tuple(DispositionKind)
_CODES = {kind: code for code, kind in enumerate(OUTCOMES)}
MAX_NODE_ID = 2**32 - 1  # the row's unsigned 32-bit id fields


def quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of pre-sorted samples (q in [0, 1])."""
    n = len(sorted_samples)
    if n == 0:
        return math.nan
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    idx = max(0, min(n - 1, math.ceil(q * n) - 1))
    return sorted_samples[idx]


def _decode(fields: tuple, senders: Dict[int, NodeId]) -> Tuple[int, Disposition]:
    node, code, sender, enqueue, left, digest = fields
    return node, Disposition(OUTCOMES[code], Digest80(digest), senders[sender], enqueue, left)


class Records:
    """A ledger's kept rows as ``(node_id, Disposition)`` pairs, decoded on read.

    Iteration and ``len`` read the packed rows; ``pop()`` and
    ``append(row)`` edit them the way recording does, so the ledger's index
    of accepted rows stays in step.  A row's ``sender`` is the run's
    :class:`NodeId` for its id.
    """

    __slots__ = ("_ledger",)

    def __init__(self, ledger: "MetricsLedger") -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self._ledger.rows) // ROW.size

    def __iter__(self) -> Iterator[Tuple[int, Disposition]]:
        senders = self._ledger.senders
        for fields in ROW.iter_unpack(self._ledger.rows):
            yield _decode(fields, senders)

    def append(self, row: Tuple[int, Disposition]) -> None:
        node, d = row
        self._ledger._keep(node, d.outcome, d.digest, d.sender, d.enqueue_time, d.leave_queue_time)

    def pop(self) -> Tuple[int, Disposition]:
        """Remove and return the last row, and its accepted-index entry."""
        ledger = self._ledger
        last = len(self) - 1
        if last < 0:
            raise IndexError("pop from empty records")
        row = _decode(ROW.unpack_from(ledger.rows, last * ROW.size), ledger.senders)
        del ledger.rows[last * ROW.size :]
        if ledger.accepted and ledger.accepted[-1] == last:
            ledger.accepted.pop()
        return row


@dataclass(slots=True)
class MetricsLedger:
    """Everything measured in one simulation run."""

    seed: int
    scheme: str
    duration: float
    record_all: bool = False
    evaluated_node: ClassVar[int] = 0

    # Per-message rows, packed by ROW in record order (``records`` decodes
    # them).  Always kept for the evaluated node; for every node when
    # record_all is set.
    rows: bytearray = field(default_factory=bytearray)
    # Row numbers of the evaluated node's accepted rows, in record order:
    # the rows its waiting samples and time series are read from.
    accepted: array = field(default_factory=lambda: array("L"))
    # The NodeId of each sender id in the rows, for decoding.
    senders: Dict[int, NodeId] = field(default_factory=dict)
    # Per-node outcome counts, kept for all nodes (conservation audits).
    outcome_counts: Dict[int, Counter] = field(default_factory=dict)
    receptions: Dict[int, int] = field(default_factory=dict)
    duplicates: Dict[int, int] = field(default_factory=dict)
    claims_matched: Dict[int, int] = field(default_factory=dict)  # copied at the run end
    spot_checks_set: Dict[int, int] = field(default_factory=dict)  # copied at the run end
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

        Every node's outcome is counted; a row is kept only for the
        evaluated node, or for every node with ``record_all``.
        """
        waiting = left_at - job.enqueue_time
        if waiting < -1e-12:
            raise ValueError(f"negative waiting time: {waiting}")
        counts = self.outcome_counts.get(node_id)
        if counts is None:
            counts = self.outcome_counts[node_id] = Counter()
        counts[outcome] += 1
        if outcome is COOPERATIVELY_ACCEPTED and not job.cam.valid:
            self.bogus_accepted[node_id] = self.bogus_accepted.get(node_id, 0) + 1
        if self.record_all or node_id == self.evaluated_node:
            sender = job.cam.sender
            self._keep(node_id, outcome, job.digest, sender, job.enqueue_time, left_at)

    def _keep(self, node_id: int, outcome: DispositionKind, digest: Digest80, sender: NodeId,
              enqueue_time: float, left_at: float) -> None:
        """Pack one row, indexing it if it is an evaluated-node acceptance."""
        if node_id == self.evaluated_node and outcome in ACCEPTED_KINDS:
            self.accepted.append(len(self.rows) // ROW.size)
        sender_id = sender.id
        if sender_id not in self.senders:
            self.senders[sender_id] = sender
        self.rows += ROW.pack(node_id, _CODES[outcome], sender_id, enqueue_time, left_at, digest)

    # -- derived views ---------------------------------------------------------

    @property
    def records(self) -> Records:
        """The kept rows as ``(node_id, Disposition)`` pairs, in record order."""
        return Records(self)

    def _accepted_times(self) -> Iterator[Tuple[float, float]]:
        """(enqueue, leave-queue) times of the evaluated node's accepted rows."""
        rows, unpack, size = self.rows, ROW.unpack_from, ROW.size
        for index in self.accepted:
            _, _, _, enqueue, left, _ = unpack(rows, index * size)
            yield enqueue, left

    @property
    def waiting_samples(self) -> List[float]:
        """Evaluated-node waiting times of accepted messages, in record order."""
        return [left - enqueue for enqueue, left in self._accepted_times()]

    def node_counts(self, node_id: int) -> Counter:
        return self.outcome_counts.get(node_id, Counter())

    def accepted_total(self, node_id: Optional[int] = None) -> int:
        nid = self.evaluated_node if node_id is None else node_id
        counts = self.node_counts(nid)
        return sum(counts[k] for k in ACCEPTED_KINDS)

    def cooperative_ratio(self, node_id: Optional[int] = None) -> float:
        nid = self.evaluated_node if node_id is None else node_id
        accepted = self.accepted_total(nid)
        return self.node_counts(nid)[COOPERATIVELY_ACCEPTED] / accepted if accepted else math.nan

    def first_revocation_time(self) -> Optional[float]:
        return self.revocations[0][1] if self.revocations else None

    def timeseries(self) -> List[Tuple[int, float, int]]:
        """(second, mean accepted waiting that second, queue length) rows."""
        sums: Dict[int, float] = {}
        counts: Counter = Counter()
        for enqueue, left in self._accepted_times():
            sec = int(left)
            sums[sec] = sums.get(sec, 0.0) + (left - enqueue)
            counts[sec] += 1
        rows = []
        for sec, qlen in enumerate(self.queue_len_samples):
            count = counts[sec]
            mean = sums[sec] / count if count else math.nan
            rows.append((sec, mean, qlen))
        return rows

    def summarize(self, run_index: int = 0) -> Dict[str, object]:
        """The run's ``summary.csv`` row; its keys, in order, are the columns."""
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
            **{kind.value: counts[kind] for kind in OUTCOMES},
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
        """Scalar averages across runs, keyed like the runs' rows;
        non-numeric fields from run 0.

        ``rows`` are the runs' ``per_run_summaries()`` when the caller has
        them already; otherwise they are computed here.
        ``revocation_time`` averages only the runs that actually revoked.
        """
        if rows is None:
            rows = self.per_run_summaries()
        out: Dict[str, object] = {}
        for key in rows[0]:
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
