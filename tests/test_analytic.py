"""Detection model tests: closed forms against exact-arithmetic oracles."""

import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from coopverif import analytic
from coopverif.analytic import (
    DetectionParams,
    baseline_saturation,
    baseline_wait_tail,
    monte_carlo_reveal,
    pr_reveal,
    pr_reveal_after_n,
    pr_skip,
    wilson_interval,
)


def pr_reveal_exact(pr_check: Fraction, alpha: int, n: int, v: int) -> Fraction:
    """Rational-arithmetic binomial tail, independent of the log-space path."""
    if v == 0:
        return Fraction(1)
    if v > n:
        return Fraction(0)
    skip = (1 - pr_check) ** alpha
    tail = sum(comb(n, i) * skip ** (n - i) * (1 - skip) ** i for i in range(v))
    return 1 - tail


class ShapeRecorder:
    """A generator stand-in that records the shape of every draw."""

    def __init__(self, rng):
        self.rng = rng
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


class TestPrSkip:
    def test_never_checks(self):
        assert pr_skip(0.0, 5) == 1.0
        assert pr_skip(0.0, 1) == 1.0

    def test_always_checks(self):
        assert pr_skip(1.0, 5) == 0.0

    def test_point_one_alpha_five(self):
        # 0.9^5, exact decimal 0.59049
        assert pr_skip(0.1, 5) == pytest.approx(0.59049, rel=1e-12)

    def test_matches_exact_arithmetic(self):
        for pc_num in (1, 2, 5, 9):
            for alpha in (1, 3, 5, 8):
                exact = float((1 - Fraction(pc_num, 10)) ** alpha)
                assert pr_skip(pc_num / 10, alpha) == pytest.approx(exact, rel=1e-12)


class TestPrReveal:
    def test_reference_parameter_point(self):
        """alpha=5, N=15, pr_check=0.1, v=5: exact value 0.804122820508."""
        params = DetectionParams(alpha=5, pr_check=0.1, n_neighbors=15, votes_needed=5)
        value = pr_reveal(params)
        assert value == pytest.approx(0.8041228205076918, abs=5e-13)
        # the figure usually quoted for this setting
        assert abs(value - 0.80) < 0.01
        # spot-check the frozen literal against the rational oracle
        exact = pr_reveal_exact(Fraction(1, 10), 5, 15, 5)
        assert value == pytest.approx(float(exact), abs=5e-13)

    def test_degenerate_votes(self):
        base = dict(alpha=5, pr_check=0.1, n_neighbors=15)
        assert pr_reveal(DetectionParams(votes_needed=0, **base)) == 1.0
        assert pr_reveal(DetectionParams(votes_needed=16, **base)) == 0.0

    def test_extreme_pr_check(self):
        assert pr_reveal(DetectionParams(alpha=3, pr_check=1.0, n_neighbors=10, votes_needed=10)) == 1.0
        assert pr_reveal(DetectionParams(alpha=3, pr_check=0.0, n_neighbors=10, votes_needed=1)) == 0.0

    def test_matches_rational_oracle_on_grid(self):
        for pc_num, alpha, n, v in [
            (1, 5, 15, 5), (2, 5, 29, 5), (2, 5, 30, 5), (5, 3, 10, 4),
            (1, 1, 40, 3), (3, 6, 25, 12), (9, 8, 8, 8), (2, 4, 45, 10),
        ]:
            params = DetectionParams(
                alpha=alpha, pr_check=pc_num / 10, n_neighbors=n, votes_needed=v
            )
            got = pr_reveal(params)
            # the float parameter is not exactly pc_num/10; evaluate the
            # oracle at the float's exact rational value
            exact = pr_reveal_exact(Fraction(pc_num / 10), alpha, n, v)
            assert got == pytest.approx(float(exact), abs=1e-11)

    def test_matches_scipy_binomial_tail(self):
        rng = random.Random(808)
        for _ in range(50):
            alpha = rng.randint(1, 8)
            pc = rng.uniform(0.01, 0.99)
            n = rng.randint(1, 200)
            v = rng.randint(1, n)
            params = DetectionParams(alpha=alpha, pr_check=pc, n_neighbors=n, votes_needed=v)
            detect = 1.0 - (1.0 - pc) ** alpha
            expected = float(stats.binom.sf(v - 1, n, detect))
            assert pr_reveal(params) == pytest.approx(expected, abs=1e-10)

    def test_stable_for_huge_neighborhoods(self):
        params = DetectionParams(alpha=5, pr_check=0.2, n_neighbors=10_000, votes_needed=800)
        value = pr_reveal(params)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-9)  # mean detectors ~6723

    def test_monotonicity(self):
        """Non-decreasing in N, pr_check and alpha; non-increasing in v."""
        base = DetectionParams(alpha=4, pr_check=0.15, n_neighbors=20, votes_needed=6)
        p0 = pr_reveal(base)
        for n in (21, 25, 40):
            assert pr_reveal(DetectionParams(4, 0.15, n, 6)) >= p0 - 1e-12
        for pc in (0.2, 0.5, 0.9):
            assert pr_reveal(DetectionParams(4, pc, 20, 6)) >= p0 - 1e-12
        for alpha in (5, 6, 8):
            assert pr_reveal(DetectionParams(alpha, 0.15, 20, 6)) >= p0 - 1e-12
        for v in (7, 10, 15):
            assert pr_reveal(DetectionParams(4, 0.15, 20, v)) <= p0 + 1e-12

    def test_single_vote_closed_form(self):
        """v=1 collapses to 1 - pr_skip^N."""
        for pc, alpha, n in [(0.1, 5, 15), (0.3, 2, 8), (0.05, 6, 40)]:
            params = DetectionParams(alpha=alpha, pr_check=pc, n_neighbors=n, votes_needed=1)
            expected = 1.0 - pr_skip(pc, alpha) ** n
            assert pr_reveal(params) == pytest.approx(expected, rel=1e-12)


class TestPrRevealAfterN:
    def test_identity_at_one(self):
        assert pr_reveal_after_n(0.37, 1) == pytest.approx(0.37)

    def test_zero_stays_zero(self):
        for n in (1, 2, 10):
            assert pr_reveal_after_n(0.0, n) == 0.0

    def test_three_messages_at_reference_point(self):
        # 1 - (1 - 0.8042)^3, exact arithmetic: 0.992493490088
        assert pr_reveal_after_n(0.8042, 3) == pytest.approx(0.992493490088, abs=1e-9)

    def test_monotone_in_n(self):
        values = [pr_reveal_after_n(0.3, n) for n in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


class TestBaselineSaturation:
    def test_default_point(self):
        assert baseline_saturation(0.005, 10.0) == pytest.approx(20.0, rel=1e-12)

    def test_seven_ms(self):
        assert baseline_saturation(0.007, 10.0) == pytest.approx(100.0 / 7.0, rel=1e-12)
        assert round(baseline_saturation(0.007, 10.0)) == 14  # ~15 once rounded up the load curve

    def test_double_rate_halves_capacity(self):
        assert baseline_saturation(0.005, 20.0) == pytest.approx(10.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            baseline_saturation(0.0, 10.0)
        with pytest.raises(ValueError):
            baseline_saturation(0.005, -1.0)


def wait_tail_exact(n: int, d: Fraction, x: int) -> Fraction:
    """The nD/D/1 tail in rational arithmetic, term by term."""
    return sum(
        comb(n, k) * ((k - x) / d) ** k * (1 - (k - x) / d) ** (n - k) * (d - n + x) / (d - k + x)
        for k in range(x + 1, n + 1)
    )


class TestBaselineWaitTail:
    @pytest.mark.parametrize("senders", [1, 5, 13, 19])
    def test_zero_at_and_past_the_sender_count(self, senders):
        for x in (senders, senders + 0.5, senders + 7):
            assert baseline_wait_tail(senders, 0.1, 0.005, x) == 0.0

    @pytest.mark.parametrize("senders,period,tau", [(1, 0.1, 0.005), (13, 0.1, 0.005),
                                                    (19, 0.1, 0.005), (40, 1.0, 0.02)])
    def test_load_at_zero(self, senders, period, tau):
        assert baseline_wait_tail(senders, period, tau, 0) == pytest.approx(
            senders * tau / period, rel=1e-12
        )

    def test_one_other_sender_is_a_uniform_phase(self):
        for x in (0.0, 0.25, 0.5, 0.9):
            assert baseline_wait_tail(1, 0.1, 0.005, x) == pytest.approx((1 - x) / 20, rel=1e-12)

    @pytest.mark.parametrize("senders", [2, 13, 19])
    def test_matches_rational_arithmetic(self, senders):
        d = Fraction(20)
        for x in range(senders):
            exact = float(wait_tail_exact(senders, d, x))
            assert baseline_wait_tail(senders, 0.1, 0.005, x) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [(20, 0.1, 0.005, 0), (21, 0.1, 0.005, 0), (-1, 0.1, 0.005, 0), (5, 0.0, 0.005, 0),
         (5, 0.1, 0.0, 0), (5, 0.1, math.nan, 0), (5, 0.1, 0.005, -0.5), (5, 0.1, 0.005, math.inf)],
    )
    def test_refuses_unstable_or_invalid_input(self, args):
        with pytest.raises(ValueError):
            baseline_wait_tail(*args)


class TestMonteCarloReveal:
    def test_reference_point_within_ci(self):
        params = DetectionParams(alpha=5, pr_check=0.1, n_neighbors=15, votes_needed=5)
        est = monte_carlo_reveal(params, 100_000, np.random.default_rng(5))
        assert est.contains(0.8041228205076918)
        assert est.ci_high - est.ci_low < 0.01

    def test_certain_reveal(self):
        params = DetectionParams(alpha=2, pr_check=1.0, n_neighbors=6, votes_needed=6)
        est = monte_carlo_reveal(params, 2000, np.random.default_rng(1))
        assert est.estimate == 1.0

    def test_impossible_threshold(self):
        params = DetectionParams(alpha=2, pr_check=1.0, n_neighbors=6, votes_needed=7)
        est = monte_carlo_reveal(params, 2000, np.random.default_rng(1))
        assert est.estimate == 0.0

    def test_agrees_with_closed_form_on_random_grid(self):
        """30+ random parameter points: closed form inside the 95% interval."""
        rng = random.Random(171)
        misses = 0
        for _ in range(30):
            params = DetectionParams(
                alpha=rng.randint(1, 8),
                pr_check=rng.uniform(0.05, 0.95),
                n_neighbors=rng.randint(5, 50),
                votes_needed=rng.randint(1, 10),
            )
            est = monte_carlo_reveal(params, 20_000, np.random.default_rng(rng.randint(0, 2**31)))
            if not est.contains(pr_reveal(params)):
                misses += 1
        # 95% intervals: a stray miss is statistically expected now and then
        assert misses <= 2

    def test_deterministic_given_seed(self):
        params = DetectionParams(alpha=3, pr_check=0.2, n_neighbors=12, votes_needed=3)
        a = monte_carlo_reveal(params, 5000, np.random.default_rng(9))
        b = monte_carlo_reveal(params, 5000, np.random.default_rng(9))
        assert a == b

    def test_batches_bounded_and_estimate_independent_of_batch_size(self, monkeypatch):
        """A large neighbourhood is drawn in batches of at most DRAWS coins,
        and a smaller batch size draws the same coins."""

        # About 10 of 2000 receivers detect per trial, so reveal is a coin flip.
        params = DetectionParams(alpha=50, pr_check=1e-4, n_neighbors=2000, votes_needed=10)
        recorder = ShapeRecorder(np.random.default_rng(4))
        est = monte_carlo_reveal(params, 40, recorder)
        assert len(recorder.shapes) > 1
        assert all(math.prod(shape) <= analytic.DRAWS for shape in recorder.shapes)
        assert sum(shape[0] for shape in recorder.shapes) == 40
        assert 0.0 < est.estimate < 1.0
        monkeypatch.setattr(analytic, "DRAWS", 7 * 2000 * 50)
        assert monte_carlo_reveal(params, 40, np.random.default_rng(4)) == est

    def test_oversized_trial_drawn_in_slices_with_the_same_estimate(self, monkeypatch):
        """A trial of more than DRAWS coins is drawn in receiver slices of at
        most DRAWS coins each, and gives the estimate of one whole draw."""
        params = DetectionParams(alpha=50, pr_check=1e-4, n_neighbors=2000, votes_needed=10)
        whole = monte_carlo_reveal(params, 30, np.random.default_rng(4))
        assert 0.0 < whole.estimate < 1.0
        # 300 receivers per slice: each trial takes six full slices and one of 200.
        monkeypatch.setattr(analytic, "DRAWS", 300 * 50 + 49)
        recorder = ShapeRecorder(np.random.default_rng(4))
        assert monte_carlo_reveal(params, 30, recorder) == whole
        assert len(recorder.shapes) == 30 * 7
        assert all(math.prod(shape) <= analytic.DRAWS for shape in recorder.shapes)
        assert recorder.shapes[:7] == [(1, 300, 50)] * 6 + [(1, 200, 50)]

    def test_alpha_above_draws_rejected(self):
        DetectionParams(alpha=analytic.DRAWS, pr_check=0.1, n_neighbors=1, votes_needed=1)
        with pytest.raises(ValueError, match="alpha"):
            DetectionParams(alpha=analytic.DRAWS + 1, pr_check=0.1, n_neighbors=1, votes_needed=1)


class TestWilsonInterval:
    def test_contains_sample_proportion(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_bounds_clamped(self):
        low, _ = wilson_interval(0, 50)
        _, high = wilson_interval(50, 50)
        assert low == 0.0 and high == 1.0

    def test_shrinks_with_trials(self):
        w1 = wilson_interval(50, 100)
        w2 = wilson_interval(5000, 10000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])
