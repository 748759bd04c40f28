"""Adversary emission, false-claim detection, and revocation tests."""

import random

import pytest

from coopverif.analytic import DetectionParams, pr_reveal
from coopverif.core import Digest80, NodeId, Role, compute_digest
from coopverif.engine import NodeState
from coopverif.sim import DetectionConfig, ScenarioConfig, SimulationKernel, beacon_times
from coopverif.threat import (
    AdversaryConfig,
    AdversaryDriver,
    MisbehaviorReport,
    RevocationRegistry,
    detect_false_claim,
)

from test_core import make_message
from test_engine import make_node


def make_driver(k=5, alpha=5, seed="adv"):
    node = NodeState(
        NodeId(99, Role.ADVERSARY),
        (50.0, 50.0),
        cooperative=True,
        pr_check=0.2,
        alpha=alpha,
        tau=0.005,
        rng=random.Random(seed),
    )
    cfg = AdversaryConfig(bogus_per_claim=k)
    cfg.validate(alpha)
    return AdversaryDriver(node=node, config=cfg, area_side=200.0)


class TestAdversaryEmission:
    def test_cycle_structure_alpha_bogus_then_claim(self):
        driver = make_driver(k=5, alpha=5)
        emissions = [driver.emit(i / 10.0) for i in range(12)]
        validity = [m.valid for m in emissions]
        assert validity == [False] * 5 + [True] + [False] * 5 + [True]
        claim = emissions[5]
        assert [d.value for d in claim.cam.claimed_digests] == [
            compute_digest(m).value for m in emissions[:5]
        ]

    @staticmethod
    def _kernel_emissions(monkeypatch, start, duration):
        """(every emission instant, the claims' instants) of one kernel run."""
        times, claim_times = [], []
        emit = AdversaryDriver.emit

        def recording(driver, now):
            frame = emit(driver, now)
            times.append(now)
            if frame.valid:
                claim_times.append(now)
            return frame

        monkeypatch.setattr(AdversaryDriver, "emit", recording)
        adversary = AdversaryConfig(gamma_adv=10.0, start_time=start)
        SimulationKernel(ScenarioConfig(n_nodes=3, duration=duration, adversary=adversary)).run()
        return times, claim_times

    def test_emission_times_follow_gamma_adv(self, monkeypatch):
        times, claim_times = self._kernel_emissions(monkeypatch, start=2.0, duration=3.25)
        assert times == list(beacon_times(2.0, 10.0, 3.25))
        assert times[:7] == pytest.approx([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6])
        # one claim per alpha + 1 emissions: a cycle period of 0.6 s
        assert claim_times == pytest.approx([2.5, 3.1])

    @pytest.mark.parametrize("start", [3.25, 4.0])
    def test_adversary_starting_at_or_after_the_end_never_emits(self, monkeypatch, start):
        assert self._kernel_emissions(monkeypatch, start=start, duration=3.25) == ([], [])

    def test_rates_split_alpha_to_one(self):
        """In 60 emissions at gamma_adv=10 with alpha=5: 50 bogus, 10 claims,
        matching bogus rate alpha/(alpha+1) and claim rate 1/(alpha+1)."""
        driver = make_driver()
        emissions = [driver.emit(i / 10.0) for i in range(60)]
        bogus = sum(1 for m in emissions if not m.valid)
        claims = sum(1 for m in emissions if m.valid)
        assert (bogus, claims) == (50, 10)

    def test_reduced_claim_pads_with_genuine_digests(self):
        driver = make_driver(k=2, alpha=5)
        for i in range(4):  # adversary has verified a few real messages
            driver.node.cache.record(Digest80(bytes([i + 1]) * 10), float(i))
        emissions = [driver.emit(i / 10.0) for i in range(6)]
        claim = emissions[5]
        bogus_digests = {compute_digest(m).value for m in emissions[:5]}
        claimed = [d.value for d in claim.cam.claimed_digests]
        assert len(claimed) == 5
        assert sum(1 for d in claimed if d in bogus_digests) == 2
        # padded from the verified cache
        genuine = {bytes([i + 1]) * 10 for i in range(4)}
        assert sum(1 for d in claimed if d in genuine) == 3

    def test_reduced_claim_with_empty_cache_sends_fewer(self):
        driver = make_driver(k=2, alpha=5)
        emissions = [driver.emit(i / 10.0) for i in range(6)]
        assert len(emissions[5].cam.claimed_digests) == 2

    def test_k_zero_claims_nothing_bogus(self):
        driver = make_driver(k=0, alpha=5)
        emissions = [driver.emit(i / 10.0) for i in range(6)]
        bogus_digests = {compute_digest(m).value for m in emissions[:5]}
        claimed = {d.value for d in emissions[5].cam.claimed_digests}
        assert not claimed & bogus_digests

    def test_bogus_messages_are_well_formed(self):
        driver = make_driver()
        msg = driver.emit(0.0)
        assert not msg.valid
        assert 0.0 <= msg.cam.position[0] <= 200.0
        assert msg.cam.sender.role is Role.ADVERSARY

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdversaryConfig(bogus_per_claim=6).validate(alpha=5)
        with pytest.raises(ValueError):
            AdversaryConfig(gamma_adv=0.0).validate(alpha=5)


class TestDetectFalseClaim:
    def _spot_checked_result(self, valid, with_claimant=True):
        node = make_node(pr_check=1.0)
        template = make_message(sender_id=3, valid=valid, seq=1)
        job = node.receive(template, compute_digest(template), now=0.0)
        if with_claimant:
            claim = make_message(sender_id=7, ts=1.0, seq=2, digests=[job.digest])
            node.apply_claims(claim, compute_digest(claim))
        popped = node.pop_and_verify(1.5)
        return node, popped, node.finish_verification(popped)

    def test_spot_checked_bogus_yields_report(self):
        node, job, _ = self._spot_checked_result(valid=False)
        report = detect_false_claim(node.node_id, job, now=1.505)
        assert report is not None
        assert report.accused == NodeId(7)
        assert report.reporter == node.node_id
        assert report.bogus_digest == job.digest
        assert report.time == pytest.approx(1.505)

    def test_spot_checked_valid_yields_none(self):
        node, job, outcome = self._spot_checked_result(valid=True)
        assert detect_false_claim(node.node_id, job, now=1.505) is None
        assert outcome.value == "signature_accepted"

    def test_unclaimed_bogus_yields_none(self):
        node, job, outcome = self._spot_checked_result(valid=False, with_claimant=False)
        assert outcome.value == "rejected_invalid"
        assert detect_false_claim(node.node_id, job, now=1.505) is None

    def test_self_report_rejected(self):
        with pytest.raises(ValueError):
            MisbehaviorReport(
                reporter=NodeId(1),
                accused=NodeId(1),
                claim_digest=Digest80(b"\x01" * 10),
                bogus_digest=Digest80(b"\x02" * 10),
                time=0.0,
            )


class TestRevocationRegistry:
    def _report(self, reporter, accused=99, t=1.0):
        return MisbehaviorReport(
            reporter=NodeId(reporter),
            accused=NodeId(accused, Role.ADVERSARY),
            claim_digest=Digest80(b"\x0a" * 10),
            bogus_digest=Digest80(b"\x0b" * 10),
            time=t,
        )

    @staticmethod
    def _kernel(votes_needed):
        """A kernel whose ledger logs every report its registry counts."""
        return SimulationKernel(
            ScenarioConfig(n_nodes=2, duration=1.0, detection=DetectionConfig(votes_needed))
        )

    def test_five_distinct_reporters_revoke(self):
        kernel = self._kernel(votes_needed=5)
        reg = kernel.registry
        for i in range(4):
            assert not reg.add_report(self._report(i))
            assert 99 not in reg.revoked
        kernel._submit_report(self._report(4, t=2.5))
        assert 99 in reg.revoked
        assert kernel.ledger.revocations == [(99, 2.5)]

    def test_duplicate_reporter_counts_once(self):
        kernel = self._kernel(votes_needed=5)
        for _ in range(5):
            kernel._submit_report(self._report(1))
        assert 99 not in kernel.registry.revoked
        assert len(kernel.ledger.reports) == 5

    def test_revocation_permanent_and_not_retriggered(self):
        reg = RevocationRegistry(votes_needed=2)
        reg.add_report(self._report(1))
        assert reg.add_report(self._report(2))
        assert not reg.add_report(self._report(3))  # already revoked
        assert 99 in reg.revoked


class TestForcedReceptionRevealRate:
    def _single_claim_trial(self, rng_seed: int, n_benign=15, alpha=5, pr_check=0.1, votes=5):
        """One forced-reception round: every benign node holds all alpha
        bogus messages queued when it processes the adversary's claim."""
        adversary = NodeId(99, Role.ADVERSARY)
        bogus = [
            make_message(sender_id=99, role=Role.ADVERSARY, valid=False, seq=i, ts=float(i))
            for i in range(alpha)
        ]
        digests = [compute_digest(m) for m in bogus]
        claim = make_message(
            sender_id=99, role=Role.ADVERSARY, valid=True, seq=alpha, ts=float(alpha),
            digests=digests,
        )
        claim_digest = compute_digest(claim)
        registry = RevocationRegistry(votes_needed=votes)
        for node_idx in range(n_benign):
            node = NodeState(
                NodeId(node_idx),
                (0.0, 0.0),
                cooperative=True,
                pr_check=pr_check,
                alpha=alpha,
                tau=0.005,
                rng=random.Random(f"forced:{rng_seed}:{node_idx}"),
            )
            for i, m in enumerate(bogus):
                node.receive(m, digests[i], now=0.1 * i)
            node.apply_claims(claim, claim_digest)
            now = 1.0
            while len(node.queue) and node.queue.jobs[0].b:
                now += node.tau
                job = node.pop_and_verify(now)
                node.finish_verification(job)
                report = detect_false_claim(node.node_id, job, now + node.tau)
                if report is not None:
                    assert report.accused == adversary
                    registry.add_report(report)
        return 99 in registry.revoked

    def test_single_claim_reveal_rate_matches_closed_form(self):
        """Empirical reveal rate under forced full reception lands on the
        closed-form signal probability (around 0.80 at this setting)."""
        trials = 1500
        revoked = sum(self._single_claim_trial(s) for s in range(trials))
        rate = revoked / trials
        expected = pr_reveal(DetectionParams(alpha=5, pr_check=0.1, n_neighbors=15, votes_needed=5))
        assert expected == pytest.approx(0.8041228, abs=1e-6)
        # three-sigma band for the Monte Carlo sample
        sigma = (expected * (1 - expected) / trials) ** 0.5
        assert abs(rate - expected) < 3.5 * sigma
        assert abs(rate - 0.80) < 0.05
