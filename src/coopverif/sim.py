"""Discrete-event kernel, broadcast channel, and scenario orchestration.

The channel is deliberately simple: every frame reaches every other node
after its airtime (frame bits over the bitrate), with optional independent
loss; there is no contention, no retransmission, and nodes are static for
the run.  The queueing behaviour under study is driven entirely by arrival
rates and the verification delay ``tau``, so the kernel's job is exact
bookkeeping: one run is fully determined by its configuration and seed,
with event ties broken by (time, event-kind rank, sequence number).

Each transmitted frame is one heap event: its delivery carries the ids of
every node that receives it, and the kernel hands the frame to them in
ascending id order.  A run ends by checking that every node gave each of
its receptions exactly one outcome.

Two verification schemes are wired in: ``cooperative`` (random queue
insertion, claim scanning, probabilistic spot checks) and ``baseline``
(verify every message first-come-first-served, no claims).
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, replace
from enum import IntEnum
from heapq import heappop, heappush
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .core import MAX_CLAIMED, Digest80, NodeId, Role, SignedCam, compute_digest, encode_signed_cam
from .engine import DispositionKind, NodeState
from .metrics import MetricsLedger, ReplicationResult, pool_replications
from .threat import AdversaryConfig, AdversaryDriver, MisbehaviorReport, RevocationRegistry, detect_false_claim

SCHEMES = ("baseline", "cooperative")


class ConfigError(ValueError):
    """Invalid scenario configuration; raised before any simulation work."""


class ConservationError(AssertionError):
    """A node's outcome counts do not add up to its receptions (a kernel bug)."""


@dataclass(frozen=True, slots=True)
class DetectionConfig:
    """Revocation threshold and optional detection extensions."""

    votes_needed: int = 5
    # Off by default: remember rejected bogus digests and report any later
    # accepted claim that references one.  The base scheme credits
    # detection to spot checks alone.
    blacklist_rejected: bool = False


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One scenario: default values are the evaluation's default setting."""

    n_nodes: int = 30
    pr_check: float = 0.2
    alpha: int = 5
    tau: float = 0.005
    gamma: float = 10.0
    scheme: str = "cooperative"
    duration: float = 120.0
    area_side: float = 200.0
    bitrate: float = 6_000_000.0
    seed: int = 1
    loss_prob: float = 0.0
    adversary: Optional[AdversaryConfig] = None
    detection: DetectionConfig = DetectionConfig()
    record_all_nodes: bool = False
    audit: bool = False

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 0.0 <= self.pr_check <= 1.0:
            raise ConfigError(f"pr_check must be in [0, 1], got {self.pr_check}")
        if not 0 <= self.alpha <= MAX_CLAIMED:
            raise ConfigError(f"alpha must be in [0, {MAX_CLAIMED}], got {self.alpha}")
        for name in ("tau", "gamma", "duration", "area_side", "bitrate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError(f"loss_prob must be in [0, 1], got {self.loss_prob}")
        if self.detection.votes_needed < 1:
            raise ConfigError("detection.votes_needed must be >= 1")
        if self.adversary is not None:
            try:
                self.adversary.validate(self.alpha)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


class EventKind(IntEnum):
    """Tie-break rank is the enum value: generations before deliveries
    before verification completions, run end last."""

    CAM_GENERATION = 0
    FRAME_DELIVERY = 1
    VERIFICATION_COMPLETE = 2
    RUN_END = 3


class Event(NamedTuple):
    """One heap entry.  Payloads by kind: ``(node_id,)`` for a generation,
    ``(receivers, frame, digest)`` for a frame's delivery to all its
    receivers, ``(node_id, job)`` for a completion, ``()`` for the run end."""

    time: float
    kind: EventKind
    seq: int
    payload: tuple


def place_nodes(config: ScenarioConfig, rng: random.Random) -> List[Tuple[float, float]]:
    """Evaluated node at the area centre, the rest (adversary last) i.i.d. uniform."""
    side = config.area_side
    positions = [(side / 2.0, side / 2.0)]
    others = config.n_nodes - 1 + (1 if config.adversary is not None else 0)
    for _ in range(others):
        positions.append((rng.uniform(0.0, side), rng.uniform(0.0, side)))
    return positions


def beacon_times(phase: float, gamma: float, duration: float) -> Iterator[float]:
    """Generation instants: ``phase + k/gamma`` for every k within the run.

    Computed by index, not by accumulation; the kernel schedules every
    node's frames from this iterator, the adversary's at ``gamma_adv`` from
    its ``start_time``.
    """
    k = 0
    while True:
        t = phase + k / gamma
        if t >= duration:
            return
        yield t
        k += 1


def airtime(n_bytes: int, bitrate: float) -> float:
    """Seconds a frame of ``n_bytes`` occupies the channel."""
    return 8.0 * n_bytes / bitrate


def broadcast(
    frame: SignedCam,
    now: float,
    config: ScenarioConfig,
    total_nodes: int,
    channel_rng: random.Random,
) -> Tuple[List[int], float, Digest80]:
    """Receivers, delivery time and digest of one transmitted frame.

    Every node except the frame's sender receives it one airtime after
    ``now``; with ``loss_prob`` set, each delivery is dropped independently
    (one ``channel_rng`` draw per non-sender, in ascending id order).  The
    receiver ids come back in ascending order; the caller counts the
    ``total_nodes - 1 - len(receivers)`` losses.
    """
    sender_id = frame.cam.sender.id
    encoded = encode_signed_cam(frame)
    digest = compute_digest(frame)
    deliver_at = now + airtime(len(encoded), config.bitrate)
    loss = config.loss_prob
    if loss > 0.0:
        draw = channel_rng.random
        receivers = [rid for rid in range(total_nodes) if rid != sender_id and draw() >= loss]
    else:
        receivers = list(range(total_nodes))
        del receivers[sender_id]
    return receivers, deliver_at, digest


class SimulationKernel:
    """Single-threaded event loop owning every node and the registry."""

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.adversary_id = config.n_nodes if config.adversary is not None else None

        base = str(config.seed)
        positions = place_nodes(config, random.Random(f"{base}:placement"))
        self.total_nodes = len(positions)

        cooperative = config.scheme == "cooperative"
        period = 1.0 / config.gamma
        self.nodes: List[NodeState] = []
        self._phase: List[float] = []
        for i in range(self.total_nodes):
            role = Role.ADVERSARY if i == self.adversary_id else Role.BENIGN
            rng = random.Random(f"{base}:node:{i}")
            node = NodeState(
                NodeId(i, role),
                positions[i],
                cooperative=cooperative,
                pr_check=config.pr_check,
                alpha=config.alpha,
                tau=config.tau,
                rng=rng,
                audit=config.audit,
                blacklist_rejected=config.detection.blacklist_rejected,
            )
            self.nodes.append(node)
            if role is Role.BENIGN:
                self._phase.append(rng.uniform(0.0, period))
        # Node i's generation instants; the adversary, the last node, sends at its own rate.
        self._beacons = [beacon_times(p, config.gamma, config.duration) for p in self._phase]

        self.driver: Optional[AdversaryDriver] = None
        adv = config.adversary
        if adv is not None:
            self._beacons.append(beacon_times(adv.start_time, adv.gamma_adv, config.duration))
            self.driver = AdversaryDriver(
                node=self.nodes[self.adversary_id],
                config=adv,
                area_side=config.area_side,
            )

        self.registry = RevocationRegistry(config.detection.votes_needed)
        self.channel_rng = random.Random(f"{base}:channel")
        self.ledger = MetricsLedger(
            seed=config.seed,
            scheme=config.scheme,
            duration=config.duration,
            record_all=config.record_all_nodes,
        )
        self._seq = itertools.count()
        self._heap: List[Event] = []
        for i, times in enumerate(self._beacons):
            first = next(times, config.duration)
            if first < config.duration:
                heappush(self._heap, Event(first, EventKind.CAM_GENERATION, next(self._seq), (i,)))
        heappush(
            self._heap,
            Event(config.duration, EventKind.RUN_END, next(self._seq), ()),
        )

    # -- event handlers ------------------------------------------------------

    def _handle_generation(self, node_id: int, now: float) -> None:
        cfg = self.config
        if node_id == self.adversary_id:
            frame = self.driver.emit(now)
        else:
            frame = self.nodes[node_id].build_own_cam(now)
        nxt = next(self._beacons[node_id], cfg.duration)
        if nxt < cfg.duration:
            heappush(self._heap, Event(nxt, EventKind.CAM_GENERATION, next(self._seq), (node_id,)))
        receivers, deliver_at, digest = broadcast(frame, now, cfg, self.total_nodes, self.channel_rng)
        self.ledger.lost_frames += self.total_nodes - 1 - len(receivers)
        if receivers:
            heappush(
                self._heap,
                Event(deliver_at, EventKind.FRAME_DELIVERY, next(self._seq),
                      (receivers, frame, digest)),
            )

    def _start_verification(self, node: NodeState, now: float) -> None:
        job = node.pop_and_verify(now)
        heappush(
            self._heap,
            Event(
                now + node.tau, EventKind.VERIFICATION_COMPLETE, next(self._seq),
                (node.node_id.id, job),
            ),
        )

    def _handle_completion(self, node_id: int, job, now: float) -> None:
        node = self.nodes[node_id]
        ledger = self.ledger
        revoked = job.message.cam.sender.id in self.registry.revoked
        outcome = node.finish_verification(job, revoked=revoked)
        if node_id == 0:
            ledger.busy_time += node.tau
        ledger.record_disposition(node_id, outcome, job, node.popped_at)
        if outcome is DispositionKind.SIGNATURE_ACCEPTED:
            if node.cooperative:
                app = node.apply_claims(job.message, job.digest)
                for accepted in app.accepted_jobs:
                    ledger.record_disposition(
                        node_id, DispositionKind.COOPERATIVELY_ACCEPTED, accepted, now
                    )
                ledger.record_claims(node_id, app.matched, app.spot_checked)
                if node.node_id.role is Role.BENIGN:
                    for claimant, claim_digest, bogus_digest in app.blacklist_hits:
                        self._submit_report(
                            MisbehaviorReport(
                                reporter=node.node_id,
                                accused=claimant,
                                claim_digest=claim_digest,
                                bogus_digest=bogus_digest,
                                time=now,
                            )
                        )
        elif outcome is DispositionKind.REJECTED_INVALID:
            report = detect_false_claim(node.node_id, job, now)
            if report is not None and node.node_id.role is Role.BENIGN:
                self._submit_report(report)
        if len(node.queue):
            self._start_verification(node, now)

    def _submit_report(self, report: MisbehaviorReport) -> None:
        self.ledger.reports.append(report)
        if self.registry.add_report(report):
            self._apply_revocation(report.accused.id, report.time)

    def _apply_revocation(self, accused_id: int, now: float) -> None:
        self.ledger.revocations.append((accused_id, now))
        for node in self.nodes:
            for job in node.purge_sender(accused_id):
                self.ledger.record_disposition(
                    node.node_id.id, DispositionKind.PURGED_REVOKED, job, now
                )

    # -- main loop -------------------------------------------------------------

    def run(self) -> MetricsLedger:
        cfg = self.config
        heap = self._heap
        nodes = self.nodes
        node0_jobs = nodes[0].queue.jobs
        revoked = self.registry.revoked
        dropped = 0
        pop = heappop
        last_second = int(math.floor(cfg.duration))
        next_sample = 0
        samples = self.ledger.queue_len_samples
        delivery = EventKind.FRAME_DELIVERY
        generation = EventKind.CAM_GENERATION
        run_end = EventKind.RUN_END
        while heap:
            ev = pop(heap)
            kind = ev.kind
            if kind is run_end:
                break
            t = ev.time
            while next_sample <= t and next_sample <= last_second:
                samples.append(len(node0_jobs))
                next_sample += 1
            if kind is delivery:
                receivers, frame, digest = ev.payload
                if frame.cam.sender.id in revoked:
                    dropped += len(receivers)
                    continue
                # Nothing can pop between one frame's deliveries: whatever
                # a reception schedules lands at t + tau or at a later kind.
                for rid in receivers:
                    node = nodes[rid]
                    if node.receive(frame, digest, t) is not None and node.in_flight is None:
                        self._start_verification(node, t)
            elif kind is generation:
                self._handle_generation(ev.payload[0], t)
            else:
                nid, job = ev.payload
                self._handle_completion(nid, job, t)
        while next_sample <= last_second:
            samples.append(len(node0_jobs))
            next_sample += 1
        self.ledger.dropped_revoked_frames += dropped
        self._finalize()
        return self.ledger

    def _finalize(self) -> None:
        cfg = self.config
        ledger = self.ledger
        ledger.final_queue_len = len(self.nodes[0].queue)
        for node in self.nodes:
            nid = node.node_id.id
            job = node.in_flight
            if job is not None:
                # The pop happened inside the run; the check is allowed to
                # finish (its outcome is already determined), but no claims
                # or reports fire past the end of the run.
                popped = node.popped_at
                ledger.record_disposition(nid, node.finish_verification(job), job, popped)
                if nid == 0:
                    ledger.busy_time += max(0.0, min(popped + node.tau, cfg.duration) - popped)
            for job in node.queue.drain():
                ledger.record_disposition(nid, DispositionKind.UNPROCESSED_AT_END, job, cfg.duration)
            ledger.receptions[nid] = node.receptions
            ledger.duplicates[nid] = node.queue.duplicates_dropped
            ledger.verifications_completed[nid] = node.verifications_completed
            outcomes = sum(ledger.node_counts(nid).values())
            if outcomes != node.receptions:
                raise ConservationError(
                    f"node {nid}: {node.receptions} receptions but {outcomes} outcomes"
                )


def run_scenario(config: ScenarioConfig) -> MetricsLedger:
    """Execute one seeded run and return its ledger."""
    return SimulationKernel(config).run()


def run_replications(config: ScenarioConfig, n_runs: int, workers: int = 1) -> ReplicationResult:
    """Run ``n_runs`` seeds (``seed .. seed+n_runs-1``) and pool the results.

    With ``workers > 1`` the runs execute on a process pool of at most
    ``min(workers, n_runs, cpu count)`` processes; results are merged in run
    order either way, so the output is identical.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    configs = [replace(config, seed=config.seed + i) for i in range(n_runs)]
    workers = min(workers, n_runs, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs load multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ledgers = list(pool.map(run_scenario, configs))
    else:
        ledgers = [run_scenario(c) for c in configs]
    return pool_replications(ledgers)
