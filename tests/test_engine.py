"""Verification queue, cooperative loop, and verified-cache tests."""

import random

import pytest
from scipy import stats

from coopverif.core import Digest80, NodeId, compute_digest
from coopverif.engine import (
    Disposition,
    DispositionKind,
    NodeState,
    QueueInvariantError,
    VerificationJob,
    VerificationQueue,
    VerifiedCache,
)
from coopverif.metrics import MetricsLedger
from coopverif.sim import EventKind, ScenarioConfig, SimulationKernel

from test_core import make_message


def make_node(
    node_id=0,
    *,
    cooperative=True,
    pr_check=0.2,
    alpha=5,
    tau=0.005,
    seed="node-test",
    audit=True,
    blacklist_rejected=False,
):
    return NodeState(
        NodeId(node_id),
        (100.0, 100.0),
        cooperative=cooperative,
        pr_check=pr_check,
        alpha=alpha,
        tau=tau,
        rng=random.Random(seed),
        audit=audit,
        blacklist_rejected=blacklist_rejected,
    )


def make_job(sender_id=1, seq=0, valid=True, ts=0.0, enqueue=0.0):
    msg = make_message(sender_id=sender_id, seq=seq, valid=valid, ts=ts)
    return VerificationJob(message=msg, digest=compute_digest(msg), enqueue_time=enqueue)


def ledger_row(outcome, job, left_at) -> Disposition:
    """The row a ledger keeps for ``job`` leaving node 0's queue at ``left_at``."""
    ledger = MetricsLedger(seed=0, scheme="cooperative", duration=10.0)
    ledger.record_disposition(0, outcome, job, left_at)
    ((_, disp),) = ledger.records
    return disp


class TestRandomInsertion:
    def test_empty_queue_single_position(self):
        q = VerificationQueue()
        job = make_job()
        assert q.insert_random(job, random.Random(1))
        assert q.jobs == [job]

    def test_duplicate_digest_dropped(self):
        q = VerificationQueue()
        rng = random.Random(1)
        job = make_job(seq=1)
        twin = VerificationJob(message=job.message, digest=job.digest, enqueue_time=2.0)
        assert q.insert_random(job, rng)
        assert not q.insert_random(twin, rng)
        assert q.duplicates_dropped == 1
        assert len(q) == 1

    def test_never_inserts_before_checked_prefix(self):
        """With one checked job and one unchecked, a new arrival lands at
        position 1 or 2 (uniformly), never at the head."""
        rng = random.Random(7)
        counts = {1: 0, 2: 0}
        for trial in range(10_000):
            q = VerificationQueue()
            j_checked = make_job(sender_id=1, seq=2 * trial)
            j_plain = make_job(sender_id=2, seq=2 * trial + 1)
            q.insert_random(j_checked, rng)
            q.insert_random(j_plain, rng)
            q.promote(j_checked.digest, (NodeId(9), j_plain.digest))
            newcomer = make_job(sender_id=3, seq=2 * trial)
            q.insert_random(newcomer, rng)
            q.audit()
            pos = q.jobs.index(newcomer)
            assert pos in (1, 2)
            counts[pos] += 1
        chi2 = sum((c - 5000.0) ** 2 / 5000.0 for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, df=1)

    def test_uniform_over_stable_queue(self):
        """10^5 insertions into a queue held at length 9: the landing slot is
        uniform over the 10 possibilities within 1% absolute."""
        rng = random.Random(13)
        length = 9
        q = VerificationQueue()
        residents = [make_job(sender_id=5, seq=i) for i in range(length)]
        for j in residents:
            q.insert_random(j, rng)
        counts = [0] * (length + 1)
        trials = 100_000
        for trial in range(trials):
            newcomer = make_job(sender_id=6, seq=trial)
            q.insert_random(newcomer, rng)
            pos = q.jobs.index(newcomer)
            counts[pos] += 1
            q.remove(newcomer.digest)
        expected = trials / (length + 1)
        for c in counts:
            assert abs(c / trials - 1.0 / (length + 1)) < 0.01
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < stats.chi2.ppf(0.999, df=length)


class TestPopAndVerify:
    def test_valid_head_accepted_and_cached(self):
        node = make_node()
        job = make_job(valid=True, ts=3.5)
        node.receive(job.message, job.digest, now=1.0)
        popped = node.pop_and_verify(now=1.25)
        assert node.in_flight is popped and node.popped_at == 1.25
        outcome = node.finish_verification(popped)
        assert node.in_flight is None
        assert outcome is DispositionKind.SIGNATURE_ACCEPTED
        disp = ledger_row(outcome, popped, node.popped_at)
        assert disp.signature_valid
        assert job.digest.value == disp.digest.value
        assert disp.waiting_time == pytest.approx(0.25)
        assert node.cache.digests() == (disp.digest,)

    def test_kernel_completes_tau_after_pop(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=2, duration=1.0))
        node = kernel.nodes[0]
        job = make_job()
        node.receive(job.message, job.digest, now=0.2)
        kernel._start_verification(node, 0.25)
        (done,) = [e for e in kernel._heap if e.kind is EventKind.VERIFICATION_COMPLETE]
        assert done.time == 0.25 + node.tau
        assert done.payload == (0, node.in_flight)

    def test_revoked_sender_purged_without_side_effects(self):
        node = make_node(blacklist_rejected=True)
        for valid in (True, False):
            job = make_job(valid=valid, seq=int(valid))
            node.receive(job.message, job.digest, now=0.0)
            popped = node.pop_and_verify(0.5)
            with pytest.raises(TypeError):
                node.finish_verification(popped, True)  # revoked is keyword-only
            outcome = node.finish_verification(popped, revoked=True)
            assert outcome is DispositionKind.PURGED_REVOKED
            disp = ledger_row(outcome, popped, node.popped_at)
            assert disp.leave_queue_time == 0.5 and disp.signature_valid is valid
        assert len(node.cache) == 0 and not node.rejected_digests
        assert node.verifications_completed == 2

    def test_invalid_head_rejected_cache_untouched(self):
        node = make_node()
        job = make_job(valid=False)
        node.receive(job.message, job.digest, now=0.0)
        outcome = node.finish_verification(node.pop_and_verify(0.1))
        assert outcome is DispositionKind.REJECTED_INVALID
        assert len(node.cache) == 0

    def test_waiting_time_is_enqueue_to_pop(self):
        node = make_node()
        job = make_job()
        node.receive(job.message, job.digest, now=1.000)
        popped = node.pop_and_verify(1.250)
        disp = ledger_row(node.finish_verification(popped), popped, node.popped_at)
        assert disp.waiting_time == pytest.approx(0.250)
        assert disp.leave_queue_time == pytest.approx(1.250)

    def test_verifier_busy_guard(self):
        node = make_node()
        for seq in range(2):
            job = make_job(seq=seq)
            node.receive(job.message, job.digest, now=0.0)
        node.pop_and_verify(0.0)
        with pytest.raises(RuntimeError):
            node.pop_and_verify(0.001)


class TestApplyClaims:
    def _claim_for(self, jobs, claimant_id=9, ts=10.0):
        digests = [j.digest for j in jobs]
        return make_message(sender_id=claimant_id, ts=ts, digests=digests)

    def test_pr_check_zero_accepts_cooperatively(self):
        node = make_node(pr_check=0.0)
        job = make_job(valid=True)
        node.receive(job.message, job.digest, now=1.0)
        claim = self._claim_for([job])
        app = node.apply_claims(claim, compute_digest(claim))
        assert app.matched == 1 and app.spot_checked == 0
        assert len(node.queue) == 0
        (accepted,) = app.accepted_jobs
        assert accepted.digest == job.digest
        disp = ledger_row(DispositionKind.COOPERATIVELY_ACCEPTED, accepted, 2.0)
        assert disp.waiting_time == pytest.approx(1.0)

    def test_pr_check_one_forces_spot_check(self):
        node = make_node(pr_check=1.0)
        filler = make_job(sender_id=3, seq=50)
        node.receive(filler.message, filler.digest, now=0.5)
        template = make_job(valid=False, seq=51)
        job = node.receive(template.message, template.digest, now=1.0)
        claim = self._claim_for([job])
        claim_digest = compute_digest(claim)
        app = node.apply_claims(claim, claim_digest)
        assert app.matched == 1 and app.spot_checked == 1
        assert not app.accepted_jobs
        assert job.b is True
        assert job.checked_by == (NodeId(9), claim_digest)
        # moved to the head: right after the (empty) checked prefix
        assert node.queue.jobs[0] is job
        assert node.queue.checked_count == 1

    def test_absent_digest_ignored(self):
        node = make_node(pr_check=1.0)
        ghost = make_job(seq=77)
        claim = self._claim_for([ghost])
        app = node.apply_claims(claim, compute_digest(claim))
        assert app.matched == 0 and app.spot_checked == 0
        assert not app.accepted_jobs

    def test_checked_job_not_rematched_and_no_coin_drawn(self):
        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

        node = make_node(pr_check=1.0)
        node.rng = CountingRandom(3)
        template = make_job(seq=5)
        job = node.receive(template.message, template.digest, now=0.0)
        claim = self._claim_for([job])
        node.apply_claims(claim, compute_digest(claim))
        assert job.b is True
        calls_after_first = CountingRandom.calls
        second = self._claim_for([job], claimant_id=8, ts=11.0)
        app = node.apply_claims(second, compute_digest(second))
        assert app.matched == 0
        assert CountingRandom.calls == calls_after_first  # no draw on b=1
        assert job.checked_by[0] == NodeId(9)  # first claimant retained

    def test_claims_processed_in_list_order(self):
        node = make_node(pr_check=0.0)
        jobs = [make_job(sender_id=2, seq=i) for i in range(3)]
        for i, j in enumerate(jobs):
            node.receive(j.message, j.digest, now=float(i))
        claim = self._claim_for(jobs)
        app = node.apply_claims(claim, compute_digest(claim))
        assert [j.digest for j in app.accepted_jobs] == [j.digest for j in jobs]

    def test_spot_check_fraction_tracks_pr_check(self):
        """Across 10^5 matched claims, the checked fraction lands within 1%
        of pr_check."""
        pr_check = 0.3
        node = make_node(pr_check=pr_check, audit=False)
        checked = 0
        trials = 100_000
        for i in range(trials):
            template = make_job(sender_id=4, seq=i)
            job = node.receive(template.message, template.digest, now=0.0)
            claim = self._claim_for([job], ts=float(i + 1))
            app = node.apply_claims(claim, compute_digest(claim))
            checked += app.spot_checked
            if job.b:
                node.finish_verification(node.pop_and_verify(2.0))
        assert abs(checked / trials - pr_check) < 0.01


class TestVerifiedCache:
    def test_insert_into_empty(self):
        cache = VerifiedCache(5)
        d = Digest80(b"\x01" * 10)
        cache.record(d, 5.0)
        assert cache.entries == [(5.0, d)]

    def test_capacity_eviction_of_oldest(self):
        cache = VerifiedCache(5)
        digests = [Digest80(bytes([i]) * 10) for i in range(6)]
        for i in range(5):
            cache.record(digests[i], float(i + 1))  # oldest ts=1
        cache.record(digests[5], 9.0)
        assert len(cache) == 5
        kept = cache.digests()
        assert digests[5] in kept and digests[0] not in kept

    def test_older_than_all_cached_is_dropped_when_full(self):
        cache = VerifiedCache(5)
        for i in range(5):
            cache.record(Digest80(bytes([i + 1]) * 10), float(i + 10))
        before = cache.digests()
        cache.record(Digest80(b"\xff" * 10), 1.0)
        assert cache.digests() == before

    def test_matches_brute_force_latest_by_timestamp(self):
        """Random insertion sequences against a sort-based oracle."""
        rng = random.Random(4242)
        for trial in range(300):
            capacity = rng.randint(0, 6)
            cache = VerifiedCache(capacity)
            inserted = []
            for i in range(rng.randint(0, 40)):
                d = Digest80(rng.getrandbits(80).to_bytes(10, "big"))
                ts = float(rng.randint(0, 12))  # small grid forces ts ties
                cache.record(d, ts)
                inserted.append((ts, i, d))
            # oracle: keep the newest `capacity` by timestamp; on equal
            # timestamps the earlier-recorded entry wins
            ranked = sorted(inserted, key=lambda e: (-e[0], e[1]))
            expected = tuple(d for _, _, d in ranked[:capacity])
            assert cache.digests() == expected

    def test_zero_capacity_never_stores(self):
        cache = VerifiedCache(0)
        cache.record(Digest80(b"\x01" * 10), 1.0)
        assert len(cache) == 0


class TestBuildOwnCam:
    def test_cold_start_claims_nothing(self):
        node = make_node()
        msg = node.build_own_cam(now=0.05)
        assert msg.cam.claimed_digests == ()
        assert msg.valid
        from coopverif.core import encode_signed_cam

        assert len(encode_signed_cam(msg)) == 300

    def test_partial_cache_sends_what_exists(self):
        node = make_node(alpha=5)
        for i in range(3):
            node.cache.record(Digest80(bytes([i]) * 10), float(i))
        msg = node.build_own_cam(now=1.0)
        assert len(msg.cam.claimed_digests) == 3

    def test_full_cache_makes_350_byte_frame(self):
        from coopverif.core import encode_signed_cam

        node = make_node(alpha=5)
        for i in range(5):
            node.cache.record(Digest80(bytes([i]) * 10), float(i))
        msg = node.build_own_cam(now=1.0)
        assert len(encode_signed_cam(msg)) == 350

    def test_seq_and_timestamp_monotone(self):
        node = make_node()
        first = node.build_own_cam(now=0.1)
        second = node.build_own_cam(now=0.2)
        assert second.cam.seq == first.cam.seq + 1
        assert second.cam.gen_timestamp > first.cam.gen_timestamp


class TestQueueInvariants:
    OPS = ("insert", "pop", "claim_zero", "claim_one", "purge")

    def test_partition_invariant_under_random_operations(self):
        """Randomized op soup with the audit enabled after every step."""
        for seed in range(40):
            rng = random.Random(seed)
            node = make_node(pr_check=rng.random(), audit=True, seed=f"ops{seed}")
            live = []
            seq = 0
            now = 0.0
            for _ in range(300):
                now += 0.001
                op = rng.choice(self.OPS)
                if op == "insert" or not live:
                    template = make_job(sender_id=rng.randint(1, 4), seq=seq, ts=now)
                    seq += 1
                    job = node.receive(template.message, template.digest, now)
                    if job is not None:
                        live.append(job)
                elif op == "pop":
                    popped = node.pop_and_verify(now)
                    live.remove(popped)
                    assert popped.b in (True, False)
                    node.finish_verification(popped)
                elif op in ("claim_zero", "claim_one"):
                    target = rng.choice(live)
                    claim = make_message(
                        sender_id=9, ts=now, seq=seq, digests=[target.digest]
                    )
                    seq += 1
                    node.pr_check = 0.0 if op == "claim_zero" else 1.0
                    app = node.apply_claims(claim, compute_digest(claim))
                    if app.accepted_jobs:
                        live.remove(target)
                elif op == "purge":
                    victim = rng.randint(1, 4)
                    for purged in node.purge_sender(victim):
                        live = [j for j in live if j.digest != purged.digest]
                node.queue.audit()
            assert len(node.queue) == len(live)

    def test_b_flag_flips_at_most_once(self):
        node = make_node(pr_check=1.0)
        template = make_job()
        job = node.receive(template.message, template.digest, now=0.0)
        claim = make_message(sender_id=9, ts=1.0, digests=[job.digest])
        node.apply_claims(claim, compute_digest(claim))
        assert job.b
        with pytest.raises(QueueInvariantError):
            node.queue.promote(job.digest, (NodeId(8), job.digest))

    def test_cache_purity_audit_rejects_coop_accepted_digest(self):
        node = make_node(pr_check=0.0, audit=True)
        job = make_job()
        node.receive(job.message, job.digest, now=0.0)
        claim = make_message(sender_id=9, ts=1.0, digests=[job.digest])
        node.apply_claims(claim, compute_digest(claim))
        # the same digest showing up for signature verification again would
        # mean a duplicate slipped in; the audit must catch it
        twin = VerificationJob(message=job.message, digest=job.digest, enqueue_time=2.0)
        node.queue.append(twin)
        with pytest.raises(QueueInvariantError):
            node.finish_verification(node.pop_and_verify(3.0))
