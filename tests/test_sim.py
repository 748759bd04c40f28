"""Kernel tests: placement, beaconing, channel timing, scheme behaviour."""

import concurrent.futures
import dataclasses
import gc
import math
import os
import random
from collections import deque
from dataclasses import replace
from heapq import heappush

import pytest
from scipy import stats

from coopverif.cli import export_replication
from coopverif.core import Digest80, NodeId, Role, VerificationJob, compute_digest
from coopverif.engine import DispositionKind, NodeState, VerificationQueue
from coopverif.metrics import MAX_NODE_ID, OUTCOMES, ROW, MetricsLedger
from coopverif import sim
from coopverif.analytic import baseline_wait_tail
from coopverif.sim import (
    FRAME_DELIVERY,
    RUN_END,
    VERIFICATION_COMPLETE,
    AdversaryConfig,
    ConfigError,
    ConservationError,
    DetectionConfig,
    ScenarioConfig,
    SimulationKernel,
    airtime,
    beacon_times,
    broadcast,
    place_nodes,
    run_replications,
    run_scenario,
)
from coopverif.threat import AdversaryDriver

from test_core import make_message

ACCEPTED = (DispositionKind.SIGNATURE_ACCEPTED, DispositionKind.COOPERATIVELY_ACCEPTED)


def short_config(**kw):
    defaults = dict(n_nodes=5, duration=3.0, seed=11)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestPlacement:
    def test_single_node_at_center(self):
        cfg = ScenarioConfig(n_nodes=1)
        assert place_nodes(cfg, random.Random(0)) == [(100.0, 100.0)]

    def test_thirty_nodes_in_bounds(self):
        cfg = ScenarioConfig(n_nodes=30)
        pos = place_nodes(cfg, random.Random(5))
        assert len(pos) == 30
        assert pos[0] == (100.0, 100.0)
        others = pos[1:]
        assert len(others) == 29
        assert all(0.0 <= x <= 200.0 and 0.0 <= y <= 200.0 for x, y in others)

    def test_uniform_coordinates_by_decile(self):
        """10^4 placements: per-decile frequency within 2% of 0.1."""
        cfg = ScenarioConfig(n_nodes=2)
        rng = random.Random(77)
        decile_counts = [0] * 10
        n = 10_000
        for _ in range(n):
            (_, _), (x, y) = place_nodes(cfg, rng)
            decile_counts[min(9, int(x / 20.0))] += 1
            decile_counts[min(9, int(y / 20.0))] += 1
        total = 2 * n
        for c in decile_counts:
            assert abs(c / total - 0.1) < 0.02
        chi2 = sum((c - total / 10) ** 2 / (total / 10) for c in decile_counts)
        assert chi2 < stats.chi2.ppf(0.999, df=9)

    def test_center_scales_with_area(self):
        cfg = ScenarioConfig(n_nodes=3, area_side=500.0)
        pos = place_nodes(cfg, random.Random(1))
        assert pos[0] == (250.0, 250.0)

    def test_adversary_placed_last_after_the_benign_draws(self):
        cfg = ScenarioConfig(n_nodes=4)
        benign = place_nodes(cfg, random.Random(3))
        pos = place_nodes(replace(cfg, adversary=AdversaryConfig()), random.Random(3))
        assert pos[:4] == benign
        assert len(pos) == 5
        assert len(SimulationKernel(replace(cfg, adversary=AdversaryConfig())).nodes) == 5


class TestBeaconing:
    def test_twenty_generations_in_two_seconds(self):
        times = list(beacon_times(0.03, 10.0, 2.0))
        assert len(times) == 20

    def test_arithmetic_progression(self):
        times = list(beacon_times(0.03, 10.0, 0.5))
        assert times == pytest.approx([0.03, 0.13, 0.23, 0.33, 0.43])

    def test_phases_differ_across_nodes(self):
        kernel = SimulationKernel(short_config(n_nodes=6))
        phases = kernel._phase
        assert len(set(phases)) == len(phases)
        assert all(0.0 <= p < 0.1 for p in phases)

    def test_phase_independence_across_seeds(self):
        """Phases of two nodes over many seeds are uncorrelated and spread."""
        xs, ys = [], []
        for seed in range(300):
            k = SimulationKernel(ScenarioConfig(n_nodes=2, duration=1.0, seed=seed))
            xs.append(k._phase[0])
            ys.append(k._phase[1])
        r = stats.pearsonr(xs, ys).statistic
        assert abs(r) < 0.15
        assert max(xs) - min(xs) > 0.05  # phases sweep the whole period


class TestChannelTiming:
    def test_plain_frame_airtime_is_400_microseconds(self):
        assert airtime(300, 6e6) == pytest.approx(400e-6, abs=1e-12)

    def test_five_digest_overhead(self):
        delta = airtime(350, 6e6) - airtime(300, 6e6)
        assert delta == pytest.approx(50 * 8 / 6e6, rel=1e-12)
        assert delta == pytest.approx(66.667e-6, abs=1e-9)

    def test_broadcast_reaches_everyone_but_sender(self):
        cfg = ScenarioConfig(n_nodes=6)
        msg = make_message(sender_id=2)
        receivers, deliver_at, digest = broadcast(msg, 1.0, cfg, 6, random.Random(0))
        lost = 6 - 1 - len(receivers)
        assert lost == 0
        assert len(receivers) == 5
        assert receivers == sorted(receivers)
        assert set(receivers) == {0, 1, 3, 4, 5}
        assert deliver_at == pytest.approx(1.0 + 400e-6)
        assert digest == compute_digest(msg)

    def test_full_loss_drops_every_delivery(self):
        cfg = ScenarioConfig(n_nodes=6, loss_prob=1.0)
        msg = make_message(sender_id=0)
        receivers, _, _ = broadcast(msg, 1.0, cfg, 6, random.Random(0))
        lost = 6 - 1 - len(receivers)
        assert receivers == [] and lost == 5


class TestFanOut:
    @staticmethod
    def _deliveries(kernel):
        return [e for e in kernel._heap if e[1] == FRAME_DELIVERY]

    def test_one_delivery_event_per_generation(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=12, duration=1.0, loss_prob=0.5, seed=4))
        before = len(kernel._heap)
        kernel._handle_generation(3, 0.05)
        (delivery,) = self._deliveries(kernel)
        assert len(kernel._heap) == before + 2  # the delivery and node 3's next beacon
        deliver_at, _, _, (receivers, job) = delivery
        assert 0 < len(receivers) < 11 and 3 not in receivers
        assert receivers == sorted(receivers)
        assert len(receivers) + kernel.ledger.lost_frames == 12 - 1
        assert job.digest == compute_digest(job.cam)
        assert job.enqueue_time == deliver_at

    def test_receivers_share_one_frozen_job(self):
        """Every receiver of a frame queues the frame's one job; a spot-check
        flag set at one receiver stays in that receiver's queue."""
        kernel = SimulationKernel(ScenarioConfig(n_nodes=4, duration=1.0, seed=4))
        kernel._handle_generation(3, 0.05)
        (delivery,) = self._deliveries(kernel)
        receivers, job = delivery[3]
        assert receivers == [0, 1, 2]
        # Each receiver is busy and has one job queued, so the frame's job
        # stays queued next to it.
        for rid in receivers:
            node = kernel.nodes[rid]
            for seq in (100 + 2 * rid, 101 + 2 * rid):
                msg = make_message(sender_id=3, seq=seq)
                assert node.receive(VerificationJob(msg, compute_digest(msg), 0.0))
            node.pop_and_verify(0.0)
        kernel._heap[:] = [delivery]
        kernel._run_events()
        queues = [kernel.nodes[rid].queue for rid in receivers]
        for queue in queues:
            assert len(queue) == 2 and job in queue.jobs
            assert queue.index[job.digest.value] is job
        orders = [list(queue.jobs) for queue in queues]
        flag = (NodeId(9), Digest80(b"\x09" * 10))
        queues[0].promote(job.digest, flag)
        assert queues[0].checked == {job.digest.value: flag}
        assert queues[0].jobs[0] is job
        for queue, order in zip(queues[1:], orders[1:]):
            assert queue.checked == {}
            assert queue.jobs == order
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.enqueue_time = 0.0

    def test_fully_lost_frame_pushes_no_delivery(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=5, duration=1.0, loss_prob=1.0))
        kernel._handle_generation(0, 0.05)
        assert self._deliveries(kernel) == []
        assert kernel.ledger.lost_frames == 4

    def test_frame_from_revoked_sender_dropped_at_every_receiver(self):
        cfg = ScenarioConfig(n_nodes=5, duration=0.2, seed=3, record_all_nodes=True)
        kernel = SimulationKernel(cfg)
        kernel.registry.revoked.add(2)
        kernel._apply_revocation(2, 0.0)  # the ledger must list what the registry revoked
        ledger = kernel.run()
        frames = len(list(beacon_times(kernel._phase[2], cfg.gamma, cfg.duration)))
        assert frames > 0
        assert ledger.dropped_revoked_frames == 4 * frames
        assert ledger.records and all(d.sender.id != 2 for _, d in ledger.records)


class TestDeterminism:
    def test_identical_seeds_identical_ledgers(self):
        cfg = short_config(n_nodes=6, adversary=AdversaryConfig(), record_all_nodes=True)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.summarize(0) == b.summarize(0)
        assert list(a.records) == list(b.records)
        assert a.queue_len_samples == b.queue_len_samples
        assert a.reports == b.reports
        assert a.revocations == b.revocations

    def test_different_seed_changes_outcome(self):
        a = run_scenario(short_config(seed=1))
        b = run_scenario(short_config(seed=2))
        assert a.waiting_samples != b.waiting_samples

    def test_replications_match_single_runs(self):
        cfg = short_config()
        rep = run_replications(cfg, 3)
        for i in range(3):
            single = run_scenario(replace(cfg, seed=cfg.seed + i))
            assert rep.runs[i].summarize(0) == single.summarize(0)
        assert len(rep.pooled_waiting) == sum(len(r.waiting_samples) for r in rep.runs)
        assert rep.pooled_waiting == sorted(rep.pooled_waiting)

    def test_parallel_equals_sequential(self):
        cfg = short_config(n_nodes=8, duration=4.0)
        seq = run_replications(cfg, 3, workers=1)
        par = run_replications(cfg, 3, workers=2)
        assert seq.pooled_waiting == par.pooled_waiting
        assert seq.mean_summary() == par.mean_summary()

    def test_pool_never_exceeds_runs_or_cpus(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_replications imports the pool from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = short_config(n_nodes=2, duration=0.5)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for n_runs, workers in ((3, 64), (3, 2), (6, 64), (3, 1)):
            run_replications(cfg, n_runs, workers=workers)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_replications(cfg, 3, workers=64)
        assert sizes == [3, 2, 4]


class TestConservation:
    def test_every_reception_gets_one_disposition(self):
        cfg = short_config(
            n_nodes=6,
            duration=4.0,
            adversary=AdversaryConfig(),
            audit=True,
            record_all_nodes=True,
            loss_prob=0.1,
        )
        kernel = SimulationKernel(cfg)
        ledger = kernel.run()
        total_nodes = kernel.total_nodes
        for nid in range(total_nodes):
            outcomes = sum(ledger.node_counts(nid).values())
            assert outcomes == ledger.receptions[nid], f"node {nid}"
        per_node_records = {}
        for nid, disp in ledger.records:
            per_node_records[nid] = per_node_records.get(nid, 0) + 1
            assert disp.waiting_time >= 0.0
        for nid, n_records in per_node_records.items():
            assert n_records == ledger.receptions[nid]

    def test_utilization_and_throughput_bounds(self):
        cfg = ScenarioConfig(n_nodes=25, scheme="baseline", duration=10.0, seed=3)
        ledger = run_scenario(cfg)
        s = ledger.summarize(0)
        assert s["verifier_utilization"] <= 1.0 + 1e-9
        assert s["verifications_completed"] <= 10.0 / cfg.tau + 1

    def test_causality_of_waiting(self):
        ledger = run_scenario(short_config(record_all_nodes=True))
        for _, disp in ledger.records:
            assert disp.leave_queue_time >= disp.enqueue_time - 1e-12

    def test_dropped_outcome_fails_the_run(self, monkeypatch):
        record = MetricsLedger.record_disposition
        dropped = []

        def drop_first(ledger, node_id, outcome, job, left_at):
            if not dropped and node_id == 2:
                dropped.append(job)
                return
            record(ledger, node_id, outcome, job, left_at)

        monkeypatch.setattr(MetricsLedger, "record_disposition", drop_first)
        with pytest.raises(ConservationError, match="node 2") as caught:
            run_scenario(short_config())
        assert dropped
        # An internal fault: the CLI must not turn it into exit code 2.
        assert not isinstance(caught.value, ConfigError)


class TestLazyRecords:
    def test_rows_for_every_node_change_no_count(self):
        cfg = short_config(n_nodes=8, duration=5.0, tau=0.02, loss_prob=0.2, seed=31,
                           adversary=AdversaryConfig(), detection=DetectionConfig(votes_needed=2))
        lean = run_scenario(cfg)
        full = run_scenario(replace(cfg, record_all_nodes=True))
        assert full.revocations and full.bogus_accepted  # the attack did happen
        assert lean.outcome_counts == full.outcome_counts
        assert lean.bogus_accepted == full.bogus_accepted
        assert lean.receptions == full.receptions
        assert list(lean.records) == [row for row in full.records if row[0] == 0]
        assert {nid for nid, _ in lean.records} == {0}
        assert len(full.records) == sum(full.receptions.values())

    def test_accepted_row_index_equals_a_scan_of_the_rows(self):
        cfg = short_config(n_nodes=8, duration=5.0, tau=0.02, seed=31, adversary=AdversaryConfig(),
                           detection=DetectionConfig(votes_needed=2))
        for record_all in (False, True):
            ledger = run_scenario(replace(cfg, record_all_nodes=record_all))
            scanned = [i for i, (nid, code, *_) in enumerate(ROW.iter_unpack(ledger.rows))
                       if nid == 0 and OUTCOMES[code] in ACCEPTED]
            assert scanned and ledger.accepted.tolist() == scanned
            assert ledger.waiting_samples == [
                d.waiting_time for nid, d in ledger.records if nid == 0 and d.outcome in ACCEPTED
            ]

    def test_pop_and_append_keep_the_accepted_index_in_step(self):
        ledger = run_scenario(short_config(n_nodes=4, duration=2.0, seed=5))
        rows = list(ledger.records)
        last = max(i for i, (nid, d) in enumerate(rows) if nid == 0 and d.outcome in ACCEPTED)
        samples = ledger.waiting_samples
        tail = rows[last:]
        for row in reversed(tail[1:]):
            assert ledger.records.pop() == row
        assert ledger.waiting_samples == samples  # no accepted row popped yet
        assert ledger.records.pop() == rows[last]
        assert ledger.waiting_samples == samples[:-1]
        for row in tail:
            ledger.records.append(row)
        assert ledger.waiting_samples == samples
        assert list(ledger.records) == rows

    def test_negative_waiting_raises_for_a_node_without_rows(self):
        ledger = MetricsLedger(seed=0, scheme="cooperative", duration=1.0)
        msg = make_message(sender_id=1)
        job = VerificationJob(cam=msg, digest=compute_digest(msg), enqueue_time=0.5)
        with pytest.raises(ValueError, match="negative waiting"):
            ledger.record_disposition(3, DispositionKind.SIGNATURE_ACCEPTED, job, 0.25)
        assert not ledger.outcome_counts and not ledger.records


class TestClaimCounters:
    def test_node_counters_sum_every_claim_application(self, monkeypatch):
        apply_claims, promote = NodeState.apply_claims, VerificationQueue.promote
        matched, spot_checked = {}, {}

        def summing(node, accepted):
            app = apply_claims(node, accepted)
            nid = node.node_id.id
            matched[nid] = matched.get(nid, 0) + app.matched
            return app

        def counting(queue, digest, checked_by):
            nid = owner[queue]
            spot_checked[nid] = spot_checked.get(nid, 0) + 1
            return promote(queue, digest, checked_by)

        monkeypatch.setattr(NodeState, "apply_claims", summing)
        monkeypatch.setattr(VerificationQueue, "promote", counting)
        cfg = short_config(n_nodes=8, duration=5.0, tau=0.02, seed=31, pr_check=0.3,
                           adversary=AdversaryConfig(), record_all_nodes=True,
                           detection=DetectionConfig(votes_needed=2))
        kernel = SimulationKernel(cfg)
        owner = {node.queue: node.node_id.id for node in kernel.nodes}
        ledger = kernel.run()
        assert ledger.revocations and sum(spot_checked.values()) > 0
        for nid in range(kernel.total_nodes):
            assert ledger.claims_matched[nid] == matched.get(nid, 0), f"node {nid}"
            assert ledger.spot_checks_set[nid] == spot_checked.get(nid, 0), f"node {nid}"
        assert ledger.summarize(0)["claims_matched"] == matched[0]

    def test_kernel_hands_apply_claims_the_accepted_job(self, monkeypatch):
        apply_claims = NodeState.apply_claims
        given = []

        def recording(node, accepted):
            given.append((node.node_id, accepted))
            return apply_claims(node, accepted)

        monkeypatch.setattr(NodeState, "apply_claims", recording)
        run_scenario(short_config(n_nodes=6, duration=2.0, seed=3, adversary=AdversaryConfig()))
        assert given and any(job.cam.claimed_digests for _, job in given)
        for node_id, job in given:
            assert isinstance(job, VerificationJob) and job.cam.valid
            assert job.digest == compute_digest(job.cam) and job.cam.sender != node_id


class TestSchemes:
    def test_alpha_zero_cooperative_matches_baseline_verification_counts(self):
        base = dict(n_nodes=8, duration=6.0, seed=21)
        coop = run_scenario(ScenarioConfig(alpha=0, scheme="cooperative", **base))
        fcfs = run_scenario(ScenarioConfig(alpha=0, scheme="baseline", **base))
        for nid in range(8):
            assert coop.verifications_completed[nid] == fcfs.verifications_completed[nid]
            assert coop.receptions[nid] == fcfs.receptions[nid]
        assert coop.node_counts(0)[DispositionKind.COOPERATIVELY_ACCEPTED] == 0
        assert coop.accepted_total() == fcfs.accepted_total()

    def test_baseline_ignores_claims(self):
        cfg = ScenarioConfig(n_nodes=6, scheme="baseline", duration=4.0, seed=2)
        ledger = run_scenario(cfg)
        assert ledger.node_counts(0)[DispositionKind.COOPERATIVELY_ACCEPTED] == 0
        assert ledger.claims_matched.get(0, 0) == 0

    def test_overloaded_baseline_grows_linearly(self):
        """24 neighbors offer 240 msg/s against 200 msg/s capacity: backlog
        grows by ~40 jobs per second."""
        cfg = ScenarioConfig(n_nodes=25, scheme="baseline", duration=20.0, seed=4)
        ledger = run_scenario(cfg)
        growth = [ledger.queue_len_samples[t] for t in (5, 10, 15, 20)]
        assert all(b > a for a, b in zip(growth, growth[1:]))
        assert ledger.final_queue_len == pytest.approx(40 * 20, abs=60)

    def test_node0_waits_follow_the_nd_d_1_tail(self):
        """Baseline node 0 is an nD/D/1 queue: 14 periodic senders with
        uniform phases and a deterministic ``tau``.  A frame waits on the
        other 13, so its wait exceeds ``x * tau`` with chance ``Q_13(x)``.

        Seeds, run length, window and tolerance were fixed before the test
        was first run: seeds 1-200, 3 s runs, frames enqueued in [1, 2.9) s
        (after the first second, and all of them popped before the end),
        and 4 seed-level standard errors at x = 0..4.
        """
        n_nodes, tau, period, duration = 15, 0.005, 0.1, 3.0
        xs = range(5)
        accepted = OUTCOMES.index(DispositionKind.SIGNATURE_ACCEPTED)
        fractions = []
        for seed in range(1, 201):
            cfg = ScenarioConfig(n_nodes=n_nodes, scheme="baseline", tau=tau, gamma=1 / period,
                                 duration=duration, seed=seed)
            waits = []
            for _, code, _, enqueue, left, _ in ROW.iter_unpack(run_scenario(cfg).rows):
                if 1.0 <= enqueue < 2.9:
                    assert code == accepted
                    waits.append(left - enqueue)
            fractions.append([sum(w > x * tau for w in waits) / len(waits) for x in xs])
        for x, column in zip(xs, zip(*fractions)):
            mean = sum(column) / len(column)
            stderr = stats.tstd(column) / math.sqrt(len(column))
            expected = baseline_wait_tail(n_nodes - 2, period, tau, x)
            assert abs(mean - expected) <= 4 * stderr, (x, mean, expected, stderr)

    def test_loss_reduces_receptions(self):
        clear = run_scenario(short_config(seed=9))
        lossy = run_scenario(short_config(seed=9, loss_prob=0.4))
        assert lossy.receptions[0] < clear.receptions[0]
        assert lossy.lost_frames > 0


# At 8 * 2**21 bit/s a 300-byte frame takes 300 * 2**-21 s, so the
# adversary's unclaimed frames land exactly on 1/32 + k/16 s.  Checks
# chained from them end on multiples of tau = 1/32: node 1 pops a job at
# exactly the run's end (2.0 s, 64 tau), and a frame reaches it at the
# instant a check completes.
_TIES = ScenarioConfig(
    n_nodes=2,
    scheme="baseline",
    tau=1 / 32,
    gamma=4.0,
    bitrate=8.0 * 2**21,
    duration=2.0,
    seed=2,
    adversary=AdversaryConfig(gamma_adv=16.0, start_time=(2**16 - 300) * 2**-21),
)


class TestCountedNodes:
    """A baseline run without ``record_all_nodes`` queues node 0 alone and
    counts every other node by the FCFS recursion; the same run with
    ``record_all_nodes=True`` keeps every node on the queue path and is the
    oracle."""

    PER_NODE = ("receptions", "outcome_counts", "verifications_completed", "duplicates",
                "claims_matched", "spot_checks_set")
    SCALARS = ("queue_len_samples", "busy_time", "final_queue_len", "lost_frames", "bogus_accepted")

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(n_nodes=8, scheme="baseline", tau=0.02, duration=3.0, loss_prob=0.3, seed=5),
            ScenarioConfig(n_nodes=12, scheme="baseline", tau=0.01, duration=2.5, seed=7),
            short_config(scheme="baseline", tau=0.02, loss_prob=0.1, adversary=AdversaryConfig(), seed=3),
            short_config(
                scheme="baseline",
                tau=0.02,
                adversary=AdversaryConfig(gamma_adv=20.0),
                detection=DetectionConfig(votes_needed=1, blacklist_rejected=True),
                seed=8,
            ),
            short_config(n_nodes=1, scheme="baseline", adversary=AdversaryConfig(), seed=2),
            short_config(n_nodes=1, scheme="baseline", seed=2),
            _TIES,
        ],
        ids=["loss", "overload", "adversary", "adversary-blacklist", "one-node-adversary", "one-node",
             "ties"],
    )
    def test_counted_run_matches_the_full_path(self, cfg):
        counted = run_scenario(cfg)
        full = run_scenario(replace(cfg, record_all_nodes=True))
        for name in self.PER_NODE + self.SCALARS:
            assert getattr(counted, name) == getattr(full, name), name
        assert list(counted.records) == [row for row in full.records if row[0] == 0]
        assert set(counted.receptions) == set(range(cfg.n_nodes + (cfg.adversary is not None)))
        assert counted.revocations == [] and counted.reports == []

    def test_the_ties_happen_at_a_counted_node(self):
        """The ``ties`` config of the grid above reaches both boundary cases."""
        cfg = replace(_TIES, record_all_nodes=True)
        checked = (DispositionKind.SIGNATURE_ACCEPTED, DispositionKind.REJECTED_INVALID)
        ends, enqueues, pops = set(), set(), set()
        for node, disp in run_scenario(cfg).records:
            if node == 1:
                enqueues.add(disp.enqueue_time)
                if disp.outcome in checked:
                    pops.add(disp.leave_queue_time)
                    ends.add(disp.leave_queue_time + cfg.tau)
        assert cfg.duration in pops
        assert enqueues & ends

    def test_only_node_0_is_queued(self, monkeypatch):
        cfg = short_config(n_nodes=6, scheme="baseline", tau=0.02, adversary=AdversaryConfig(), seed=4)
        plain = run_scenario(cfg)
        received, completions = set(), []
        receive = NodeState.receive

        def recording(node, job):
            received.add(node.node_id.id)
            return receive(node, job)

        class RecordedFifo(deque):
            def append(self, entry):
                completions.append(entry)
                super().append(entry)

        monkeypatch.setattr(NodeState, "receive", recording)
        kernel = SimulationKernel(cfg)
        kernel._completions = RecordedFifo()
        ledger = kernel.run()
        assert received == {0}
        assert completions and {entry[3] for entry in completions} == {0}
        assert ledger == plain
        assert sum(ledger.receptions.values()) > ledger.receptions[0] > 0

    @pytest.mark.parametrize("record_all_nodes", [False, True])
    def test_a_revocation_fails_a_run_with_counted_nodes(self, record_all_nodes):
        """Counted nodes cannot purge what they never queued, so a baseline
        run that revokes fails unless every node is on the queue path."""
        cfg = ScenarioConfig(n_nodes=4, scheme="baseline", duration=1.0, record_all_nodes=record_all_nodes)
        kernel = SimulationKernel(cfg)
        kernel.registry.revoked.add(2)
        kernel._apply_revocation(2, 0.0)
        if record_all_nodes:
            assert kernel.run().revocations == [(2, 0.0)]
        else:
            with pytest.raises(ConservationError, match="counted nodes"):
                kernel.run()


class TestRunEnd:
    def test_unprocessed_jobs_get_terminal_records(self):
        # tau of half a second: almost everything is still queued at the end
        cfg = ScenarioConfig(n_nodes=3, duration=2.0, tau=0.5, seed=6, record_all_nodes=True)
        ledger = run_scenario(cfg)
        counts = ledger.node_counts(0)
        assert counts[DispositionKind.UNPROCESSED_AT_END] > 0
        total = sum(counts.values())
        assert total == ledger.receptions[0]
        for _, disp in ledger.records:
            if disp.outcome is DispositionKind.UNPROCESSED_AT_END:
                assert disp.leave_queue_time == pytest.approx(2.0)

    def test_queue_samples_cover_every_second(self):
        ledger = run_scenario(short_config(duration=5.0))
        assert len(ledger.queue_len_samples) == 6  # seconds 0..5

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: run() samples the node-0 job list it bound at start, "
        "and purge_sender replaces that list, so samples after a purge are stale",
    )
    def test_queue_samples_follow_a_purge(self):
        cfg = ScenarioConfig(
            n_nodes=10,
            duration=4.0,
            tau=0.015,
            seed=2,
            adversary=AdversaryConfig(gamma_adv=10.0),
            detection=DetectionConfig(votes_needed=2),
        )
        ledger = run_scenario(cfg)
        assert ledger.revocations
        assert ledger.queue_len_samples[-1] == ledger.final_queue_len


    @staticmethod
    def _revoked_mid_check(seed):
        """The seed's adversary config, cut half a ``tau`` after its revocation.

        Events before the cut do not depend on the run length, so the
        revocation falls at the same instant in the cut run.
        """
        cfg = ScenarioConfig(
            n_nodes=12,
            tau=0.03,
            seed=seed,
            duration=6.0,
            record_all_nodes=True,
            adversary=AdversaryConfig(),
            detection=DetectionConfig(votes_needed=3),
        )
        ((accused, revoked_at),) = run_scenario(cfg).revocations
        return replace(cfg, duration=revoked_at + cfg.tau / 2), accused, revoked_at

    @pytest.mark.parametrize("seed", [30, 33, 35, 36, 37])
    def test_no_check_of_a_revoked_sender_completes_after_its_revocation(self, seed):
        cfg, accused, revoked_at = self._revoked_mid_check(seed)
        ledger = run_scenario(cfg)
        assert ledger.revocations == [(accused, revoked_at)]
        checked = (DispositionKind.SIGNATURE_ACCEPTED, DispositionKind.REJECTED_INVALID)
        for node, disp in ledger.records:
            if disp.sender.id == accused and disp.outcome in checked:
                assert disp.leave_queue_time + cfg.tau <= revoked_at, f"node {node}"

    def test_check_in_flight_at_the_end_from_a_revoked_sender_is_purged(self):
        # Node 12 is revoked at 2.0704 s, just after node 1 popped its signed
        # claim, and the run ends at 2.0854 s, before that check completes.
        cfg = self._revoked_mid_check(36)[0]
        kernel = SimulationKernel(cfg)
        kernel._run_events()
        node = kernel.nodes[1]
        job = node.in_flight
        assert job.cam.valid and job.cam.sender.id == 12
        assert node.popped_at <= kernel.ledger.revocations[0][1] < cfg.duration < node.popped_at + cfg.tau
        kernel._finalize()
        ledger = kernel.ledger
        rows = [d.outcome for n, d in ledger.records if n == 1 and d.digest == job.digest]
        assert rows == [DispositionKind.PURGED_REVOKED]
        assert job.digest not in node.cache.digests()
        counts = ledger.node_counts(1)
        assert counts[DispositionKind.SIGNATURE_ACCEPTED] == 62
        assert counts[DispositionKind.PURGED_REVOKED] == 13


class TestEventOrder:
    def test_ties_run_generation_delivery_completion_then_the_end(self):
        """At one instant a generation runs first, then a delivery, then a
        completion; the run end comes last and nothing after it is handled.

        The entries are pushed in the opposite order, so only their kinds
        order them.  A frame delivered to node 0 at the instant its check
        completes is queued before that completion pops the next job.
        """
        tau = 0.005
        end = 0.25 + tau
        kernel = SimulationKernel(ScenarioConfig(n_nodes=3, duration=end, tau=tau, seed=1))
        heap = kernel._heap
        (generation,) = {e[1] for e in heap if e[3] != ()}
        heap[:] = [e for e in heap if e[3] == ()]  # the run end alone
        node = kernel.nodes[0]
        for seq in (1, 2):
            msg = make_message(seq=seq)
            node.receive(VerificationJob(msg, compute_digest(msg), 0.0))
        kernel._start_verification(node, 0.25)
        (completion,) = [e for e in kernel._completions if e[3] == 0]
        assert completion[0] == end
        kernel._handle_generation(2, 0.0)
        (delivery,) = {e[1] for e in heap if isinstance(e[3], tuple) and e[3]}
        heap[:] = [e for e in heap if e[3] == ()]  # the completion waits in the FIFO
        frame = make_message(seq=3)
        digest = compute_digest(frame)
        heappush(heap, (end, delivery, next(kernel._seq), ([0], VerificationJob(frame, digest, end))))
        heappush(heap, (end, generation, next(kernel._seq), 1))
        heappush(heap, (end + 0.001, generation, next(kernel._seq), 2))

        handled = []
        kernel._handle_generation = lambda node_id, now: handled.append(("generation", node_id))
        receive, complete = node.receive, kernel._handle_completion

        def receiving(job):
            handled.append(("delivery", job.cam.seq))
            return receive(job)

        def completing(node_id, now):
            handled.append(("completion", node_id, digest.value in node.queue.index))
            complete(node_id, now)

        node.receive, kernel._handle_completion = receiving, completing
        kernel.run()
        assert handled == [("generation", 1), ("delivery", 3), ("completion", 0, True)]
        # Node 0's next completion (in the FIFO) and node 2's generation (in
        # the heap) are left over.
        assert sorted(e[0] for e in [*heap, *kernel._completions]) == [end + 0.001, end + tau]


class TestCompletionFifo:
    """Verification completions run from the kernel's FIFO, merged with the
    heap in ``(time, kind, seq)`` order."""

    @pytest.mark.parametrize(
        "cfg",
        [
            short_config(n_nodes=6, adversary=AdversaryConfig(), record_all_nodes=True, seed=3),
            short_config(n_nodes=8, scheme="baseline", tau=0.02, seed=4),
        ],
        ids=["cooperative", "baseline"],
    )
    def test_no_completion_is_pushed_on_the_heap(self, cfg, monkeypatch):
        plain = run_scenario(cfg)
        pushed = []
        push = sim.heappush

        def recording(heap, entry):
            pushed.append(entry[1])
            push(heap, entry)

        monkeypatch.setattr(sim, "heappush", recording)
        kernel = SimulationKernel(cfg)
        ledger = kernel.run()
        assert VERIFICATION_COMPLETE not in pushed
        assert pushed.count(RUN_END) == 1 and FRAME_DELIVERY in pushed
        assert all(e[1] != VERIFICATION_COMPLETE for e in kernel._heap)
        assert sum(ledger.verifications_completed.values()) > 0
        assert ledger == plain

    def test_completions_at_one_instant_run_in_push_order(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=3, duration=1.0, seed=2))
        kernel._heap[:] = []
        for nid in (2, 0, 1):
            msg = make_message(seq=nid)
            kernel.nodes[nid].receive(VerificationJob(msg, compute_digest(msg), 0.5))
            kernel._start_verification(kernel.nodes[nid], 0.5)
        assert len({e[0] for e in kernel._completions}) == 1
        handled = []
        complete = kernel._handle_completion

        def completing(node_id, now):
            handled.append(node_id)
            complete(node_id, now)

        kernel._handle_completion = completing
        kernel._run_events()
        assert handled == [2, 0, 1]

    def test_completions_run_after_the_heap_empties(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=2, duration=1.0, seed=2))
        node = kernel.nodes[0]
        for seq in (1, 2, 3):
            msg = make_message(seq=seq)
            node.receive(VerificationJob(msg, compute_digest(msg), 0.5))
        kernel._start_verification(node, 0.5)
        kernel._heap[:] = []
        kernel._run_events()
        assert node.verifications_completed == 3
        assert len(node.queue) == 0 and node.in_flight is None
        assert not kernel._completions and not kernel._heap


class TestRunOnce:
    def test_second_run_raises_before_any_work(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=6, duration=2.0, seed=3))
        ledger = kernel.run()
        samples, receptions = list(ledger.queue_len_samples), dict(ledger.receptions)
        assert len(samples) == 3
        with pytest.raises(RuntimeError, match="already run"):
            kernel.run()
        assert ledger.queue_len_samples == samples
        assert ledger.receptions == receptions


class TestRunEndInvariants:
    """Each run-end check, fed a broken state built by hand on a fresh kernel."""

    def test_more_verifications_than_fit_in_the_run(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=4, duration=1.0, tau=0.01))
        kernel._finalize()  # an unbroken fresh kernel passes
        kernel.nodes[2].verifications_completed = 101  # floor(1.0 / 0.01) + 1 = 101 fit
        kernel._finalize()
        kernel.nodes[2].verifications_completed = 102
        with pytest.raises(ConservationError, match="node 2: 102 verifications, more than 101"):
            kernel._finalize()

    @pytest.mark.parametrize("where", ["ledger", "registry"])
    def test_revocations_differ_between_ledger_and_registry(self, where):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=4, duration=1.0))
        if where == "ledger":
            kernel.ledger.revocations.append((2, 0.5))
        else:
            kernel.registry.revoked.add(2)
        with pytest.raises(ConservationError, match="revoked"):
            kernel._finalize()

    def test_revoked_sender_still_queued_at_the_end(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=4, duration=1.0))
        msg = make_message(sender_id=2)
        assert kernel.nodes[0].receive(VerificationJob(msg, compute_digest(msg), 0.0))
        kernel.registry.revoked.add(2)
        kernel.ledger.revocations.append((2, 0.5))
        with pytest.raises(ConservationError, match="node 0: revoked sender 2 still queued"):
            kernel._finalize()


_ADVERSARY = dict(
    n_nodes=10,
    duration=4.0,
    tau=0.015,
    seed=2,
    adversary=AdversaryConfig(gamma_adv=10.0),
    record_all_nodes=True,
)


@pytest.fixture
def collector_off():
    """Collect once, then hold the cyclic collector off; restore it after."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


class TestCollectorPause:
    """Why run() needs no collector pause: a run makes no reference cycles,
    and the rows it keeps are not objects the collector tracks, so the
    collector's passes during a run have little to walk and nothing to free."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(duration=5.0),
            ScenarioConfig(n_nodes=40, scheme="baseline", duration=5.0),
            ScenarioConfig(**_ADVERSARY, detection=DetectionConfig(votes_needed=2)),
            ScenarioConfig(
                **_ADVERSARY, detection=DetectionConfig(votes_needed=2, blacklist_rejected=True)
            ),
            ScenarioConfig(n_nodes=12, duration=5.0, loss_prob=0.3, audit=True),
        ],
        ids=["cooperative", "baseline-n40", "adversary", "adversary-blacklist", "loss-audit"],
    )
    def test_a_run_leaves_no_cyclic_garbage(self, cfg, collector_off):
        kernel = SimulationKernel(cfg)
        ledger = kernel.run()
        if cfg.adversary is not None:  # the revocation and purge paths ran
            assert ledger.revocations
            purged = DispositionKind.PURGED_REVOKED
            assert sum(ledger.node_counts(n)[purged] for n in range(kernel.total_nodes))
        del kernel, ledger
        assert gc.collect() == 0

    def test_replications_and_export_leave_no_cyclic_garbage(self, collector_off, tmp_path):
        result = run_replications(short_config(), 2)
        export_replication(result, tmp_path / "bundle")
        del result
        assert gc.collect() == 0

    def test_kept_rows_leave_nothing_for_the_collector(self, collector_off):
        # One record_all_nodes adversary scenario at two durations: the
        # longer run keeps 40,000 more rows, but no more tracked objects.
        cfg = ScenarioConfig(n_nodes=20, tau=0.008, seed=2, record_all_nodes=True,
                             adversary=AdversaryConfig(gamma_adv=10.0),
                             detection=DetectionConfig(votes_needed=2))
        tracked, rows = [], []
        for duration in (2.0, 12.0):
            ledger = run_scenario(replace(cfg, duration=duration))
            tracked.append(len(gc.get_objects()))
            rows.append(len(ledger.records))
            assert ledger.revocations
            del ledger
        assert rows[1] - rows[0] == 40_000
        assert abs(tracked[1] - tracked[0]) < 1_000

    @pytest.mark.parametrize("was_on", [True, False])
    def test_run_leaves_the_callers_setting(self, was_on, monkeypatch):
        finalize = SimulationKernel._finalize
        during = []

        def recording(kernel):
            during.append(gc.isenabled())
            finalize(kernel)

        monkeypatch.setattr(SimulationKernel, "_finalize", recording)
        before = gc.isenabled()
        try:
            if was_on:
                gc.enable()
            else:
                gc.disable()
            run_scenario(short_config())
            assert gc.isenabled() is was_on
        finally:
            if before:
                gc.enable()
            else:
                gc.disable()
        assert during == [was_on]

    def test_run_that_raises_turns_the_collector_back_on(self, monkeypatch):
        def broken(kernel):
            raise ConservationError("broken on purpose")

        monkeypatch.setattr(SimulationKernel, "_finalize", broken)
        assert gc.isenabled()
        with pytest.raises(ConservationError, match="on purpose"):
            run_scenario(short_config())
        assert gc.isenabled()


class TestAdversaryRuns:
    def _adversary_config(self, **kw):
        # tau=20ms -> 50 msg/s capacity against 120 msg/s offered: queues
        # stay loaded, so claimed bogus messages are still queued when the
        # claims are verified and the spot-check chain engages.
        defaults = dict(
            n_nodes=12,
            duration=5.0,
            seed=31,
            tau=0.02,
            adversary=AdversaryConfig(gamma_adv=10.0, bogus_per_claim=5),
            detection=DetectionConfig(votes_needed=3),
            record_all_nodes=True,
        )
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_adversary_gets_revoked(self):
        ledger = run_scenario(self._adversary_config())
        assert ledger.revocations, "adversary was never revoked"
        accused, when = ledger.revocations[0]
        assert accused == 12  # the extra node appended after the benign ones
        assert when < 5.0
        assert ledger.summarize(0)["revoked"] == 1

    def test_no_acceptance_after_revocation(self):
        ledger = run_scenario(self._adversary_config())
        _, revoked_at = ledger.revocations[0]
        for _, disp in ledger.records:
            if disp.sender.id == 12 and disp.outcome in ACCEPTED:
                assert disp.leave_queue_time <= revoked_at + 1e-12

    def test_bogus_acceptance_window_precedes_revocation(self, monkeypatch):
        emit, bogus = AdversaryDriver.emit, set()

        def collecting(driver, now):
            frame = emit(driver, now)
            if not frame.valid:
                bogus.add(compute_digest(frame))
            return frame

        monkeypatch.setattr(AdversaryDriver, "emit", collecting)
        ledger = run_scenario(self._adversary_config())
        _, revoked_at = ledger.revocations[0]
        assert bogus
        for _, disp in ledger.records:
            if disp.outcome is DispositionKind.COOPERATIVELY_ACCEPTED and disp.digest in bogus:
                assert disp.leave_queue_time <= revoked_at + 1e-12

    @pytest.mark.parametrize("blacklist_rejected", [False, True])
    def test_no_false_positive_reports(self, blacklist_rejected):
        detection = DetectionConfig(votes_needed=3, blacklist_rejected=blacklist_rejected)
        ledger = run_scenario(self._adversary_config(duration=8.0, detection=detection))
        assert ledger.reports
        for report in ledger.reports:
            assert report.accused.role is Role.ADVERSARY
            assert report.reporter.role is Role.BENIGN

    def test_purged_jobs_recorded(self):
        ledger = run_scenario(self._adversary_config())
        purged = sum(
            ledger.node_counts(nid)[DispositionKind.PURGED_REVOKED] for nid in range(13)
        )
        assert purged > 0

    def test_k_zero_adversary_never_reported(self):
        cfg = self._adversary_config(
            adversary=AdversaryConfig(gamma_adv=10.0, bogus_per_claim=0), duration=6.0
        )
        ledger = run_scenario(cfg)
        assert not ledger.reports
        assert not ledger.revocations


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_nodes=0),
            dict(pr_check=1.5),
            dict(tau=0.0),
            dict(gamma=-1.0),
            dict(scheme="fancy"),
            dict(duration=0.0),
            dict(loss_prob=-0.1),
            dict(alpha=-1),
            dict(adversary=AdversaryConfig(bogus_per_claim=9)),
            dict(detection=DetectionConfig(votes_needed=0)),
            dict(alpha=256),  # the claimed-digest count has one byte
        ],
    )
    def test_invalid_configs_rejected_before_any_work(self, bad):
        cfg = ScenarioConfig(**bad)
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(tau=math.inf),
            dict(gamma=math.nan),
            dict(duration=math.inf),
            dict(duration=math.nan),
            dict(area_side=math.nan),
            dict(bitrate=math.inf),
            dict(adversary=AdversaryConfig(gamma_adv=math.nan)),
            dict(adversary=AdversaryConfig(start_time=math.inf)),
        ],
    )
    def test_non_finite_floats_rejected(self, bad):
        # Through validate() only: a run with duration=inf would never end.
        with pytest.raises(ConfigError):
            ScenarioConfig(**bad).validate()

    def test_node_ids_must_fit_the_ledger_row(self):
        # Through validate() only: no kernel of this size is ever built.
        for adversary in (None, AdversaryConfig()):
            ScenarioConfig(n_nodes=MAX_NODE_ID, adversary=adversary).validate()
            with pytest.raises(ConfigError, match="n_nodes"):
                ScenarioConfig(n_nodes=MAX_NODE_ID + 1, adversary=adversary).validate()

    def test_n45_supported(self):
        cfg = ScenarioConfig(n_nodes=45, duration=0.5, seed=1)
        assert run_scenario(cfg).receptions[0] > 0
