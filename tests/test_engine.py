"""Verification queue, cooperative loop, and verified-cache tests."""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
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
from coopverif.sim import VERIFICATION_COMPLETE, ScenarioConfig, SimulationKernel

from test_core import make_message


def make_node(
    node_id=0,
    *,
    cooperative=True,
    pr_check=0.2,
    alpha=5,
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
        rng=random.Random(seed),
        audit=audit,
        blacklist_rejected=blacklist_rejected,
    )


TAU = 0.005  # the kernel's default verification delay


def make_job(sender_id=1, seq=0, valid=True, ts=0.0, enqueue=0.0):
    msg = make_message(sender_id=sender_id, seq=seq, valid=valid, ts=ts)
    return VerificationJob(cam=msg, digest=compute_digest(msg), enqueue_time=enqueue)


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
        twin = VerificationJob(cam=job.cam, digest=job.digest, enqueue_time=2.0)
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
        job = make_job(valid=True, ts=3.5, enqueue=1.0)
        assert node.receive(job)
        popped = node.pop_and_verify(now=1.25)
        assert node.in_flight is popped and node.popped_at == 1.25
        outcome = node.finish_verification()
        assert node.in_flight is None
        assert outcome is DispositionKind.SIGNATURE_ACCEPTED
        disp = ledger_row(outcome, popped, node.popped_at)
        assert popped.cam.valid
        assert job.digest.value == disp.digest.value
        assert disp.waiting_time == pytest.approx(0.25)
        assert node.cache.digests() == (disp.digest,)

    def test_kernel_completes_tau_after_pop(self):
        kernel = SimulationKernel(ScenarioConfig(n_nodes=2, duration=1.0, tau=TAU))
        node = kernel.nodes[0]
        job = make_job(enqueue=0.2)
        node.receive(job)
        kernel._start_verification(node, 0.25)
        (done,) = [e for e in kernel._completions if e[1] == VERIFICATION_COMPLETE]
        time, _, _, payload = done
        assert time == 0.25 + TAU
        assert payload == 0
        assert node.in_flight.digest == job.digest

    def test_revoked_sender_purged_without_side_effects(self):
        node = make_node(blacklist_rejected=True)
        for valid in (True, False):
            job = make_job(valid=valid, seq=int(valid))
            node.receive(job)
            popped = node.pop_and_verify(0.5)
            with pytest.raises(TypeError):
                node.finish_verification(True)  # revoked is keyword-only
            outcome = node.finish_verification(revoked=True)
            assert outcome is DispositionKind.PURGED_REVOKED
            disp = ledger_row(outcome, popped, node.popped_at)
            assert disp.leave_queue_time == 0.5 and popped.cam.valid is valid
        assert len(node.cache) == 0 and not node.rejected_digests
        assert node.verifications_completed == 2

    def test_invalid_head_rejected_cache_untouched(self):
        node = make_node()
        job = make_job(valid=False)
        node.receive(job)
        node.pop_and_verify(0.1)
        outcome = node.finish_verification()
        assert outcome is DispositionKind.REJECTED_INVALID
        assert len(node.cache) == 0

    def test_waiting_time_is_enqueue_to_pop(self):
        node = make_node()
        job = make_job(enqueue=1.000)
        node.receive(job)
        popped = node.pop_and_verify(1.250)
        disp = ledger_row(node.finish_verification(), popped, node.popped_at)
        assert disp.waiting_time == pytest.approx(0.250)
        assert disp.leave_queue_time == pytest.approx(1.250)

    def test_verifier_busy_guard(self):
        node = make_node()
        for seq in range(2):
            node.receive(make_job(seq=seq))
        node.pop_and_verify(0.0)
        with pytest.raises(RuntimeError):
            node.pop_and_verify(0.001)

    def test_finish_needs_a_verification_in_flight(self):
        node = make_node()
        node.receive(make_job())
        with pytest.raises(RuntimeError, match="no verification in flight"):
            node.finish_verification()
        node.pop_and_verify(0.0)
        node.finish_verification()
        with pytest.raises(RuntimeError, match="no verification in flight"):
            node.finish_verification()
        assert node.verifications_completed == 1


class TestApplyClaims:
    def _claim_for(self, jobs, claimant_id=9, ts=10.0):
        digests = [j.digest for j in jobs]
        return make_message(sender_id=claimant_id, ts=ts, digests=digests)

    def test_pr_check_zero_accepts_cooperatively(self):
        node = make_node(pr_check=0.0)
        job = make_job(valid=True, enqueue=1.0)
        node.receive(job)
        claim = self._claim_for([job])
        app = node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
        assert app.matched == 1 and node.spot_checks_set == 0
        assert len(node.queue) == 0
        (accepted,) = app.accepted_jobs
        assert accepted.digest == job.digest
        disp = ledger_row(DispositionKind.COOPERATIVELY_ACCEPTED, accepted, 2.0)
        assert disp.waiting_time == pytest.approx(1.0)

    def test_pr_check_one_forces_spot_check(self):
        node = make_node(pr_check=1.0)
        node.receive(make_job(sender_id=3, seq=50, enqueue=0.5))
        job = make_job(valid=False, seq=51, enqueue=1.0)
        assert node.receive(job)
        claim = self._claim_for([job])
        claim_digest = compute_digest(claim)
        app = node.apply_claims(VerificationJob(claim, claim_digest, 0.0))
        assert app.matched == 1 and node.spot_checks_set == 1
        assert not app.accepted_jobs
        assert node.queue.checked[job.digest.value] == (NodeId(9), claim_digest)
        # moved to the head: right after the (empty) checked prefix
        assert node.queue.jobs[0] is job
        assert len(node.queue.checked) == 1

    def test_absent_digest_ignored(self):
        node = make_node(pr_check=1.0)
        ghost = make_job(seq=77)
        claim = self._claim_for([ghost])
        app = node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
        assert app.matched == 0 and node.spot_checks_set == 0
        assert not app.accepted_jobs

    def test_checked_job_not_rematched_and_no_coin_drawn(self):
        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

        node = make_node(pr_check=1.0)
        node.rng = CountingRandom(3)
        job = make_job(seq=5)
        node.receive(job)
        claim = self._claim_for([job])
        node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
        assert node.queue.checked[job.digest.value] == (NodeId(9), compute_digest(claim))
        calls_after_first = CountingRandom.calls
        second = self._claim_for([job], claimant_id=8, ts=11.0)
        app = node.apply_claims(VerificationJob(second, compute_digest(second), 0.0))
        assert app.matched == 0
        assert CountingRandom.calls == calls_after_first  # no draw once checked
        assert node.queue.checked[job.digest.value][0] == NodeId(9)  # first claimant retained

    def test_claims_processed_in_list_order(self):
        node = make_node(pr_check=0.0)
        jobs = [make_job(sender_id=2, seq=i, enqueue=float(i)) for i in range(3)]
        for j in jobs:
            node.receive(j)
        claim = self._claim_for(jobs)
        app = node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
        assert [j.digest for j in app.accepted_jobs] == [j.digest for j in jobs]

    def test_spot_check_fraction_tracks_pr_check(self):
        """Across 10^5 matched claims, the checked fraction lands within 1%
        of pr_check."""
        pr_check = 0.3
        node = make_node(pr_check=pr_check, audit=False)
        checked = 0
        trials = 100_000
        for i in range(trials):
            job = make_job(sender_id=4, seq=i)
            node.receive(job)
            claim = self._claim_for([job], ts=float(i + 1))
            before = node.spot_checks_set
            node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
            checked += node.spot_checks_set - before
            if job.digest.value in node.queue.checked:
                node.pop_and_verify(2.0)
                node.finish_verification()
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


class SequentialCache:
    """Insert-and-evict one record at a time, with a set for presence: an
    independent statement of the rule ``VerifiedCache`` keeps, as its oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # gen timestamp desc
        self._present = set()

    def record(self, digest, cam_timestamp):
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

    def digests(self):
        return tuple(d for _, d in self.entries)


class TestVerifiedCacheModel:
    """The cache against the sequential rule, read mid-sequence."""

    @staticmethod
    def _pool(rng, size):
        # A digest always comes with its message's one timestamp; the small
        # timestamp grid makes ties between distinct digests common.
        return [
            (Digest80(rng.getrandbits(80).to_bytes(10, "big")), float(rng.randint(0, 12)))
            for _ in range(size)
        ]

    def test_every_read_matches_the_sequential_rule(self):
        rng = random.Random(20261019)
        for trial in range(400):
            capacity = trial % 7
            cache, oracle = VerifiedCache(capacity), SequentialCache(capacity)
            pool = self._pool(rng, rng.randint(1, 30))  # small pools repeat pairs
            for _ in range(rng.randint(0, 120)):
                digest, ts = rng.choice(pool)
                cache.record(digest, ts)
                oracle.record(digest, ts)
                read = rng.random()
                if read < 0.1:
                    assert cache.digests() == oracle.digests()
                elif read < 0.2:
                    assert cache.entries == oracle.entries
                elif read < 0.3:
                    assert len(cache) == len(oracle.entries)
            assert cache.entries == oracle.entries
            assert cache.digests() == oracle.digests()
            assert len(cache) == len(oracle.entries)

    @pytest.mark.parametrize("capacity", range(7))
    def test_cache_stays_within_capacity_without_reads(self, capacity):
        rng = random.Random(capacity)
        cache, oracle = VerifiedCache(capacity), SequentialCache(capacity)
        pool = self._pool(rng, 500)
        for _ in range(10_000):
            digest, ts = rng.choice(pool)
            cache.record(digest, ts)
            oracle.record(digest, ts)
            assert len(cache.entries) <= capacity
        assert cache.entries == oracle.entries


class TestBuildOwnCam:
    def test_cold_start_claims_nothing(self):
        node = make_node()
        msg = node.build_own_cam(now=0.05)
        assert msg.claimed_digests == ()
        assert msg.valid
        from coopverif.core import encode_signed_cam

        assert len(encode_signed_cam(msg)) == 300

    def test_partial_cache_sends_what_exists(self):
        node = make_node(alpha=5)
        for i in range(3):
            node.cache.record(Digest80(bytes([i]) * 10), float(i))
        msg = node.build_own_cam(now=1.0)
        assert len(msg.claimed_digests) == 3

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
        assert second.seq == first.seq + 1
        assert second.gen_timestamp > first.gen_timestamp


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
                    job = make_job(sender_id=rng.randint(1, 4), seq=seq, ts=now, enqueue=now)
                    seq += 1
                    if node.receive(job):
                        live.append(job)
                elif op == "pop":
                    popped = node.pop_and_verify(now)
                    live.remove(popped)
                    flag = node.in_flight_flag
                    assert flag is None or flag[0] == NodeId(9)
                    node.finish_verification()
                elif op in ("claim_zero", "claim_one"):
                    target = rng.choice(live)
                    claim = make_message(
                        sender_id=9, ts=now, seq=seq, digests=[target.digest]
                    )
                    seq += 1
                    node.pr_check = 0.0 if op == "claim_zero" else 1.0
                    app = node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
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
        job = make_job()
        node.receive(job)
        claim = make_message(sender_id=9, ts=1.0, digests=[job.digest])
        node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
        assert job.digest.value in node.queue.checked
        with pytest.raises(QueueInvariantError):
            node.queue.promote(job.digest, (NodeId(8), job.digest))

    def test_cache_purity_audit_rejects_coop_accepted_digest(self):
        node = make_node(pr_check=0.0, audit=True)
        job = make_job()
        node.receive(job)
        claim = make_message(sender_id=9, ts=1.0, digests=[job.digest])
        node.apply_claims(VerificationJob(claim, compute_digest(claim), 0.0))
        # the same digest showing up for signature verification again would
        # mean a duplicate slipped in; the audit must catch it
        twin = VerificationJob(cam=job.cam, digest=job.digest, enqueue_time=2.0)
        node.queue.append(twin)
        node.pop_and_verify(3.0)
        with pytest.raises(QueueInvariantError):
            node.finish_verification()


class QueueModel(RuleBasedStateMachine):
    """``VerificationQueue`` against a plain list of ``[job, flag]`` entries.

    Jobs come from a small pool of (sender, seq) pairs, so duplicates and
    multi-job purges are common.  Both sides draw insert ranks from equally
    seeded RNGs, and the model applies the queue's rule: rank
    ``checked + int(r * (len - checked + 1))``, behind the flagged prefix.
    """

    @initialize(seed=st.integers(0, 2**32 - 1))
    def start(self, seed):
        self.queue = VerificationQueue()
        self.rng = random.Random(seed)
        self.model_rng = random.Random(seed)
        self.model = []  # [job, flag] in queue order; flagged entries first
        self.duplicates = 0

    def _checked(self):
        return sum(flag is not None for _, flag in self.model)

    def _queued(self, job):
        return any(j.digest == job.digest for j, _ in self.model)

    @rule(sender=st.integers(1, 3), seq=st.integers(0, 5))
    def insert_random(self, sender, seq):
        job = make_job(sender_id=sender, seq=seq)
        if self._queued(job):
            self.duplicates += 1
            assert not self.queue.insert_random(job, self.rng)
            return
        checked = self._checked()
        rank = checked + int(self.model_rng.random() * (len(self.model) - checked + 1))
        self.model.insert(rank, [job, None])
        assert self.queue.insert_random(job, self.rng)

    @rule(sender=st.integers(1, 3), seq=st.integers(0, 5))
    def append(self, sender, seq):
        job = make_job(sender_id=sender, seq=seq)
        if self._queued(job):
            self.duplicates += 1
            assert not self.queue.append(job)
            return
        self.model.append([job, None])
        assert self.queue.append(job)

    @precondition(lambda self: self.model)
    @rule()
    def pop_head(self):
        job, flag = self.model.pop(0)
        popped, popped_flag = self.queue.pop_head()
        assert popped is job and popped_flag == flag

    @precondition(lambda self: any(flag is None for _, flag in self.model))
    @rule(pick=st.integers(0, 2**16), claimant=st.integers(4, 9))
    def promote(self, pick, claimant):
        checked = self._checked()
        entry = self.model.pop(checked + pick % (len(self.model) - checked))
        entry[1] = (NodeId(claimant), Digest80(bytes([claimant]) * 10))
        self.model.insert(checked, entry)
        assert self.queue.promote(entry[0].digest, entry[1]) is entry[0]

    @precondition(lambda self: self._checked())
    @rule(pick=st.integers(0, 2**16))
    def promote_flagged_job(self, pick):
        job, flag = self.model[pick % self._checked()]
        with pytest.raises(QueueInvariantError):
            self.queue.promote(job.digest, (NodeId(8), job.digest))

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 2**16))
    def remove(self, pick):
        job, _ = self.model.pop(pick % len(self.model))
        assert self.queue.remove(job.digest) is job

    @rule(sender=st.integers(1, 3))
    def purge_sender(self, sender):
        purged = [job for job, _ in self.model if job.cam.sender.id == sender]
        self.model = [e for e in self.model if e[0].cam.sender.id != sender]
        got = self.queue.purge_sender(sender)
        assert len(got) == len(purged) and all(a is b for a, b in zip(got, purged))

    @rule()
    def drain(self):
        jobs = [job for job, _ in self.model]
        self.model = []
        got = self.queue.drain()
        assert len(got) == len(jobs) and all(a is b for a, b in zip(got, jobs))

    @invariant()
    def matches_model(self):
        queue = self.queue
        assert len(queue) == len(self.model)
        assert all(a is b for a, (b, _) in zip(queue.jobs, self.model))
        assert queue.index == {job.digest.value: job for job, _ in self.model}
        flags = [(job.digest.value, flag) for job, flag in self.model if flag is not None]
        assert list(queue.checked.items()) == flags
        assert [flag is not None for _, flag in self.model] == (
            [True] * len(flags) + [False] * (len(self.model) - len(flags))
        )
        assert queue.duplicates_dropped == self.duplicates
        queue.audit()


TestQueueModel = QueueModel.TestCase
TestQueueModel.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
