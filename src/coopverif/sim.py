"""Discrete-event kernel, broadcast channel, and scenario orchestration.

The channel is deliberately simple: every frame reaches every other node
after its airtime (frame bits over the bitrate), with optional independent
loss; there is no contention, no retransmission, and nodes are static for
the run.  The queueing behaviour under study is driven entirely by arrival
rates and the verification delay ``tau``, so the kernel's job is exact
bookkeeping: one run is fully determined by its configuration and seed,
with event ties broken by (time, event-kind rank, sequence number).

Events are plain ``(time, kind, seq, payload)`` tuples, unpacked once
per pop; the kind is one of the module ints ``CAM_GENERATION``,
``FRAME_DELIVERY``, ``VERIFICATION_COMPLETE`` and ``RUN_END`` (their
comment gives the payloads).  Generations, deliveries and the run end
live on a heap.  Verification completions live on a FIFO, which is
already sorted: every node's check takes the one ``config.tau``, a check
starts at the current event time, which never decreases, and IEEE
addition rounds monotonically, so ``now + tau`` never decreases in push
order while ``seq`` grows with it.  The loop pops whichever of the FIFO's
head and the heap's top is smaller.  A generation or completion entry
carries only its node's id; the job a completion finishes is the node's
``in_flight``.  Each transmitted frame is one entry: its delivery
carries the ids of every node that receives it and the frame's one
:class:`VerificationJob`, which the kernel hands to them in ascending id
order.  A run ends by checking that every node gave each of its
receptions exactly one outcome, that no node verified faster than
``tau`` allows, that the ledger's revocations are the registry's, and
that no revoked sender's job was still queued.

Two verification schemes are wired in: ``cooperative`` (random queue
insertion, claim scanning, probabilistic spot checks) and ``baseline``
(verify every message first-come-first-served, no claims).

A baseline run queues node 0 alone, unless ``record_all_nodes`` puts every
node on the full queue path.  Every other node is a *counted* node: no
output reads its queue, so each delivery advances it by the FCFS (Lindley)
recursion ``start = max(t, free_at)``; a frame whose ``start`` falls
within the run is verified (``free_at = start + tau``), any other is left
unprocessed at the end.  A counted node queues no job, puts no completion
on the FIFO and records no disposition; the run end writes its counts into
the ledger and checks them like any node's.  The counts equal the full
path's, for these reasons:

- a delivery runs before a completion at the same instant, and
  completions at ``duration`` run before the run end, so the full path
  pops a job at ``s`` exactly when ``s <= duration``;
- ``start + tau`` is the float the FIFO entry would hold (``now + tau``);
- ``append`` draws no RNG, so skipping it moves no random stream;
- a baseline cache has capacity 0, so nothing a node verifies reaches
  another node's frames;
- baseline runs never revoke: reports need a spot-check flag or a
  blacklist hit, and only ``apply_claims`` makes those, so no counted job
  is ever purged (the run end raises :class:`ConservationError` if one
  was revoked anyway);
- a counted node keeps no digest index, so it drops no duplicates; a
  duplicate on the full path would need two frames with different
  ``(sender, seq)`` to collide in 80 bits.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter, deque
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Deque, Iterator, List, Optional, Tuple

from .core import MAX_CLAIMED, Cam, Digest80, NodeId, Role, VerificationJob, compute_digest, encode_signed_cam
from .engine import (
    COOPERATIVELY_ACCEPTED,
    REJECTED_INVALID,
    SIGNATURE_ACCEPTED,
    DispositionKind,
    NodeState,
)
from .metrics import MAX_NODE_ID, MetricsLedger, ReplicationResult, pool_replications
from .threat import AdversaryConfig, AdversaryDriver, MisbehaviorReport, RevocationRegistry, detect_false_claim

SCHEMES = ("baseline", "cooperative")


class ConfigError(ValueError):
    """Invalid scenario configuration; raised before any simulation work."""


class ConservationError(AssertionError):
    """A run-end invariant failed (a kernel bug)."""


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
        # Ledger rows hold node ids in 32 bits; an adversary takes id n_nodes.
        if not 1 <= self.n_nodes <= MAX_NODE_ID:
            raise ConfigError(f"n_nodes must be in [1, {MAX_NODE_ID}], got {self.n_nodes}")
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


# Kind slot of an event ``(time, kind, seq, payload)``.  Events order by
# time, then by kind (generations before deliveries before verification
# completions, run end last), then by the push sequence number.  Payloads by
# kind: the sending node's id for a generation, ``(receivers, job)`` for a
# frame's delivery to all its receivers, the verifying node's id for a
# completion, ``()`` for the run end.  Completions go on the kernel's FIFO,
# every other kind on its heap (the module docstring says why the FIFO is
# sorted).
CAM_GENERATION, FRAME_DELIVERY, VERIFICATION_COMPLETE, RUN_END = range(4)


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
    frame: Cam,
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
    sender_id = frame.sender.id
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
    """Single-threaded event loop owning every node and the registry.

    A kernel runs once: its nodes, heap, completion FIFO and ledger hold
    the state one run leaves behind.
    """

    _ran = False

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

        # Counted nodes (module docstring), by node id: when each verifier is
        # next free, then receptions, checks of valid and of invalid frames,
        # and frames left unprocessed at the end.  Node 0's slots stay unused.
        self._counted = config.scheme == "baseline" and not config.record_all_nodes
        width = self.total_nodes if self._counted else 0
        self._free_at = [0.0] * width
        self._tally = tuple([0] * width for _ in range(4))

        self.registry = RevocationRegistry(config.detection.votes_needed)
        self.channel_rng = random.Random(f"{base}:channel")
        self.ledger = MetricsLedger(
            seed=config.seed,
            scheme=config.scheme,
            duration=config.duration,
            record_all=config.record_all_nodes,
        )
        self._seq = itertools.count()
        self._heap: List[tuple] = []
        self._completions: Deque[tuple] = deque()
        for i, times in enumerate(self._beacons):
            first = next(times, config.duration)
            if first < config.duration:
                heappush(self._heap, (first, CAM_GENERATION, next(self._seq), i))
        heappush(self._heap, (config.duration, RUN_END, next(self._seq), ()))

    # -- event handlers ------------------------------------------------------

    def _handle_generation(self, node_id: int, now: float) -> None:
        cfg = self.config
        if node_id == self.adversary_id:
            frame = self.driver.emit(now)
        else:
            frame = self.nodes[node_id].build_own_cam(now)
        nxt = next(self._beacons[node_id], cfg.duration)
        if nxt < cfg.duration:
            heappush(self._heap, (nxt, CAM_GENERATION, next(self._seq), node_id))
        receivers, deliver_at, digest = broadcast(frame, now, cfg, self.total_nodes, self.channel_rng)
        self.ledger.lost_frames += self.total_nodes - 1 - len(receivers)
        if receivers:
            job = VerificationJob(frame, digest, deliver_at)
            heappush(self._heap, (deliver_at, FRAME_DELIVERY, next(self._seq), (receivers, job)))

    def _start_verification(self, node: NodeState, now: float) -> None:
        node.pop_and_verify(now)
        self._completions.append((now + self.config.tau, VERIFICATION_COMPLETE, next(self._seq), node.node_id.id))

    def _handle_completion(self, node_id: int, now: float) -> None:
        node = self.nodes[node_id]
        job, checked_by = node.in_flight, node.in_flight_flag
        ledger = self.ledger
        revoked = job.cam.sender.id in self.registry.revoked
        outcome = node.finish_verification(revoked=revoked)
        if node_id == 0:
            ledger.busy_time += self.config.tau
        ledger.record_disposition(node_id, outcome, job, node.popped_at)
        if outcome is SIGNATURE_ACCEPTED:
            if node.cooperative:
                app = node.apply_claims(job)
                for accepted in app.accepted_jobs:
                    ledger.record_disposition(node_id, COOPERATIVELY_ACCEPTED, accepted, now)
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
        elif outcome is REJECTED_INVALID:
            report = detect_false_claim(node.node_id, job, checked_by, now)
            if report is not None:
                self._submit_report(report)
        if node.queue.jobs:
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
        """Run the scenario to its end, check the run-end invariants and
        return the ledger.  A second call raises :class:`RuntimeError`.
        """
        if self._ran:
            raise RuntimeError("this kernel has already run; build a new one")
        self._ran = True
        self._run_events()
        self._finalize()
        return self.ledger

    def _run_events(self) -> None:
        cfg = self.config
        heap = self._heap
        done = self._completions
        nodes = self.nodes
        node0_jobs = nodes[0].queue.jobs
        revoked = self.registry.revoked
        dropped = 0
        pop = heappop
        popleft = done.popleft
        last_second = int(math.floor(cfg.duration))
        next_sample = 0
        samples = self.ledger.queue_len_samples
        completion = VERIFICATION_COMPLETE
        delivery = FRAME_DELIVERY
        generation = CAM_GENERATION
        handle_completion = self._handle_completion
        start_verification = self._start_verification
        counted, node0 = self._counted, nodes[0]
        end, tau, free_at = cfg.duration, cfg.tau, self._free_at
        got, valid, invalid, late = self._tally
        while heap or done:
            if done and (not heap or done[0] < heap[0]):
                t, kind, _, payload = popleft()
            else:
                t, kind, _, payload = pop(heap)
            while next_sample <= t and next_sample <= last_second:
                samples.append(len(node0_jobs))
                next_sample += 1
            if kind == completion:
                handle_completion(payload, t)
            elif kind == delivery:
                receivers, job = payload
                if job.cam.sender.id in revoked:
                    dropped += len(receivers)
                    continue
                # Nothing can pop between one frame's deliveries: whatever
                # a reception schedules lands at t + tau or at a later kind.
                if counted:
                    verified = valid if job.cam.valid else invalid
                    for rid in receivers:
                        if rid:
                            start = free_at[rid]
                            if start < t:
                                start = t
                            if start <= end:
                                free_at[rid] = start + tau
                                verified[rid] += 1
                            else:
                                late[rid] += 1
                            got[rid] += 1
                        elif node0.receive(job) and node0.in_flight is None:  # the queued node
                            start_verification(node0, t)
                    continue
                for rid in receivers:
                    node = nodes[rid]
                    if node.receive(job) and node.in_flight is None:
                        start_verification(node, t)
            elif kind == generation:
                self._handle_generation(payload, t)
            else:
                break  # the run end
        self.ledger.dropped_revoked_frames += dropped

    def _finalize(self) -> None:
        cfg = self.config
        ledger = self.ledger
        revoked = self.registry.revoked
        if self._counted:
            if ledger.revocations:
                raise ConservationError(
                    f"a baseline run revoked {ledger.revocations}, but its counted nodes "
                    "cannot purge what they never queued"
                )
            # Each counted node's tallies become its counters and outcome
            # counts, so the checks below cover it like any other node.
            got, valid, invalid, late = self._tally
            for nid in range(1, self.total_nodes):
                node = self.nodes[nid]
                node.receptions = got[nid]
                node.verifications_completed = valid[nid] + invalid[nid]
                # Unary + drops zero counts, which the full path never makes.
                counts = +Counter({
                    SIGNATURE_ACCEPTED: valid[nid],
                    REJECTED_INVALID: invalid[nid],
                    DispositionKind.UNPROCESSED_AT_END: late[nid],
                })
                if counts:
                    ledger.outcome_counts[nid] = counts
        revoked_ids = sorted(accused for accused, _ in ledger.revocations)
        if revoked_ids != sorted(revoked):
            raise ConservationError(
                f"ledger revoked {revoked_ids} but the registry revoked {sorted(revoked)}"
            )
        # Verifications start at least tau apart, from time 0 through the end.
        max_verifications = math.floor(cfg.duration / cfg.tau + 1e-9) + 1
        ledger.final_queue_len = len(self.nodes[0].queue)
        for node in self.nodes:
            nid = node.node_id.id
            job = node.in_flight
            if job is not None:
                # The pop happened inside the run; the check is allowed to
                # finish (its outcome is already determined, and purged if
                # its sender was revoked), but no claims or reports fire past
                # the end of the run.
                popped = node.popped_at
                outcome = node.finish_verification(revoked=job.cam.sender.id in revoked)
                ledger.record_disposition(nid, outcome, job, popped)
                if nid == 0:
                    ledger.busy_time += max(0.0, min(popped + cfg.tau, cfg.duration) - popped)
            for job in node.queue.drain():
                sender = job.cam.sender.id
                if sender in revoked:
                    raise ConservationError(
                        f"node {nid}: revoked sender {sender} still queued at the end"
                    )
                ledger.record_disposition(nid, DispositionKind.UNPROCESSED_AT_END, job, cfg.duration)
            if node.verifications_completed > max_verifications:
                raise ConservationError(
                    f"node {nid}: {node.verifications_completed} verifications, "
                    f"more than {max_verifications} fit in the run"
                )
            ledger.receptions[nid] = node.receptions
            ledger.duplicates[nid] = node.queue.duplicates_dropped
            ledger.verifications_completed[nid] = node.verifications_completed
            ledger.claims_matched[nid] = node.claims_matched
            ledger.spot_checks_set[nid] = node.spot_checks_set
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
