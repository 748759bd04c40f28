"""Kernel tests: placement, beaconing, channel timing, scheme behaviour."""

import concurrent.futures
import gc
import math
import os
import random
from dataclasses import replace

import pytest
from scipy import stats

from coopverif.cli import export_replication
from coopverif.core import Role, VerificationJob, compute_digest
from coopverif.engine import DispositionKind, NodeState
from coopverif.metrics import MetricsLedger
from coopverif.sim import (
    AdversaryConfig,
    ConfigError,
    ConservationError,
    DetectionConfig,
    EventKind,
    ScenarioConfig,
    SimulationKernel,
    airtime,
    beacon_times,
    broadcast,
    place_nodes,
    run_replications,
    run_scenario,
)

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
        return [e for e in kernel._heap if e[1] is EventKind.FRAME_DELIVERY]

    def test_one_delivery_event_per_generation(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=12, duration=1.0, loss_prob=0.5, seed=4))
        before = len(kernel._heap)
        kernel._handle_generation(3, 0.05)
        (delivery,) = self._deliveries(kernel)
        assert len(kernel._heap) == before + 2  # the delivery and node 3's next beacon
        _, _, _, (receivers, frame, digest) = delivery
        assert 0 < len(receivers) < 11 and 3 not in receivers
        assert receivers == sorted(receivers)
        assert len(receivers) + kernel.ledger.lost_frames == 12 - 1
        assert digest == compute_digest(frame)

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
        assert a.records == b.records
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
        assert lean.records == [row for row in full.records if row[0] == 0]
        assert {nid for nid, _ in lean.records} == {0}
        assert len(full.records) == sum(full.receptions.values())

    def test_accepted_row_index_equals_a_scan_of_the_rows(self):
        cfg = short_config(n_nodes=8, duration=5.0, tau=0.02, seed=31, adversary=AdversaryConfig(),
                           detection=DetectionConfig(votes_needed=2))
        for record_all in (False, True):
            ledger = run_scenario(replace(cfg, record_all_nodes=record_all))
            scanned = [d for nid, d in ledger.records if nid == 0 and d.outcome in ACCEPTED]
            assert scanned and ledger.accepted_rows == scanned
            assert all(a is b for a, b in zip(ledger.accepted_rows, scanned))

    def test_negative_waiting_raises_for_a_node_without_rows(self):
        ledger = MetricsLedger(seed=0, scheme="cooperative", duration=1.0)
        msg = make_message(sender_id=1)
        job = VerificationJob(message=msg, digest=compute_digest(msg), enqueue_time=0.5)
        with pytest.raises(ValueError, match="negative waiting"):
            ledger.record_disposition(3, DispositionKind.SIGNATURE_ACCEPTED, job, 0.25)
        assert not ledger.outcome_counts and not ledger.records


class TestClaimCounters:
    def test_node_counters_sum_every_claim_application(self, monkeypatch):
        apply_claims = NodeState.apply_claims
        matched, spot_checked = {}, {}

        def summing(node, accepted, claim_digest):
            app = apply_claims(node, accepted, claim_digest)
            nid = node.node_id.id
            matched[nid] = matched.get(nid, 0) + app.matched
            spot_checked[nid] = spot_checked.get(nid, 0) + app.spot_checked
            return app

        monkeypatch.setattr(NodeState, "apply_claims", summing)
        cfg = short_config(n_nodes=8, duration=5.0, tau=0.02, seed=31, pr_check=0.3,
                           adversary=AdversaryConfig(), record_all_nodes=True,
                           detection=DetectionConfig(votes_needed=2))
        kernel = SimulationKernel(cfg)
        ledger = kernel.run()
        assert ledger.revocations and sum(spot_checked.values()) > 0
        for nid in range(kernel.total_nodes):
            assert ledger.claims_matched[nid] == matched.get(nid, 0), f"node {nid}"
            assert ledger.spot_checks_set[nid] == spot_checked.get(nid, 0), f"node {nid}"
        assert ledger.summarize(0)["claims_matched"] == matched[0]


class TestSchemes:
    def test_alpha_zero_cooperative_matches_baseline_verification_counts(self):
        base = dict(n_nodes=8, duration=6.0, seed=21)
        coop = run_scenario(ScenarioConfig(alpha=0, scheme="cooperative", **base))
        fcfs = run_scenario(ScenarioConfig(alpha=0, scheme="baseline", **base))
        for nid in range(8):
            assert coop.verifications_completed[nid] == fcfs.verifications_completed[nid]
            assert coop.receptions[nid] == fcfs.receptions[nid]
        assert coop.count(DispositionKind.COOPERATIVELY_ACCEPTED) == 0
        assert coop.accepted_total() == fcfs.accepted_total()

    def test_baseline_ignores_claims(self):
        cfg = ScenarioConfig(n_nodes=6, scheme="baseline", duration=4.0, seed=2)
        ledger = run_scenario(cfg)
        assert ledger.count(DispositionKind.COOPERATIVELY_ACCEPTED) == 0
        assert ledger.claims_matched.get(0, 0) == 0

    def test_overloaded_baseline_grows_linearly(self):
        """24 neighbors offer 240 msg/s against 200 msg/s capacity: backlog
        grows by ~40 jobs per second."""
        cfg = ScenarioConfig(n_nodes=25, scheme="baseline", duration=20.0, seed=4)
        ledger = run_scenario(cfg)
        growth = [ledger.queue_len_samples[t] for t in (5, 10, 15, 20)]
        assert all(b > a for a, b in zip(growth, growth[1:]))
        assert ledger.final_queue_len == pytest.approx(40 * 20, abs=60)

    def test_loss_reduces_receptions(self):
        clear = run_scenario(short_config(seed=9))
        lossy = run_scenario(short_config(seed=9, loss_prob=0.4))
        assert lossy.receptions[0] < clear.receptions[0]
        assert lossy.lost_frames > 0


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
        assert kernel.nodes[0].receive(msg, compute_digest(msg), 0.0) is not None
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
    """run() pauses the cyclic collector; that is safe only while a run makes no cycles."""

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
        assert during == [False]

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

    def test_bogus_acceptance_window_precedes_revocation(self):
        ledger = run_scenario(self._adversary_config())
        _, revoked_at = ledger.revocations[0]
        for _, disp in ledger.records:
            if disp.outcome is DispositionKind.COOPERATIVELY_ACCEPTED and not disp.signature_valid:
                assert disp.leave_queue_time <= revoked_at + 1e-12

    def test_no_false_positive_reports(self):
        ledger = run_scenario(self._adversary_config(duration=8.0))
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

    def test_n45_supported(self):
        cfg = ScenarioConfig(n_nodes=45, duration=0.5, seed=1)
        assert run_scenario(cfg).receptions[0] > 0
