"""Closed-form detection probabilities and saturation arithmetic.

A compromised sender that claims bogus messages as verified is caught by a
receiver whenever at least one of the claimed digests draws a spot check.
With ``N`` benign receivers and a revocation threshold of ``v`` distinct
reports, the chance of revealing a single false claim is a binomial tail,
evaluated here in log space so large neighbourhoods do not overflow.

These functions double as the oracle that the simulator's measured reveal
rates are validated against.  Note the closed form assumes every receiver
holds all claimed bogus messages, still unverified, when the claim is
processed; the simulator's unconditional rates include timing effects
(bogus messages may already have been popped) and therefore sit below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# Most uniform doubles the Monte Carlo draws in one batch (2 MiB).
DRAWS = 1 << 18


@dataclass(frozen=True, slots=True)
class DetectionParams:
    """Parameter set for the detection model.

    alpha: claimed digests per message (all bogus in the worst case).
    pr_check: per-claim spot-check probability at each receiver.
    n_neighbors: benign receivers of the false claim.
    votes_needed: distinct reports required for revocation.
    n_messages: false claims sent (for the repeated-exposure bound).
    """

    alpha: int
    pr_check: float
    n_neighbors: int
    votes_needed: int
    n_messages: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.pr_check <= 1.0:
            raise ValueError("pr_check must be in [0, 1]")
        if not 1 <= self.alpha <= DRAWS:
            raise ValueError(f"alpha must be in [1, {DRAWS}]")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.votes_needed < 0:
            raise ValueError("votes_needed must be >= 0")
        if self.n_messages < 1:
            raise ValueError("n_messages must be >= 1")


def pr_skip(pr_check: float, alpha: int) -> float:
    """Probability a receiver checks none of the alpha claimed digests."""
    if not 0.0 <= pr_check <= 1.0:
        raise ValueError("pr_check must be in [0, 1]")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    return (1.0 - pr_check) ** alpha

def pr_reveal(params: DetectionParams) -> float:
    """Probability at least ``votes_needed`` receivers each catch the claim.

    One minus the lower binomial tail of the per-receiver detection
    probability ``1 - pr_skip`` over ``n_neighbors`` receivers.  Terms are
    evaluated via log-gamma, so the sum stays finite for neighbourhoods far
    beyond anything a road will produce.  Degenerate thresholds clamp:
    ``votes_needed == 0`` gives 1.0, ``votes_needed > n_neighbors`` gives 0.
    """
    n = params.n_neighbors
    v = params.votes_needed
    if v == 0:
        return 1.0
    if v > n:
        return 0.0
    skip = pr_skip(params.pr_check, params.alpha)
    if skip == 0.0:  # every receiver detects
        return 1.0
    if skip == 1.0:  # nobody ever checks
        return 0.0
    log_skip = math.log(skip)
    log_detect = math.log1p(-skip)
    lgn = math.lgamma(n + 1)
    terms = []
    for i in range(v):
        log_term = (
            lgn
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + (n - i) * log_skip
            + i * log_detect
        )
        terms.append(math.exp(log_term))
    tail = math.fsum(terms)
    return min(1.0, max(0.0, 1.0 - tail))


def pr_reveal_after_n(pr_reveal_single: float, n: int) -> float:
    """Reveal probability after ``n`` false claims, each independent."""
    if not 0.0 <= pr_reveal_single <= 1.0:
        raise ValueError("pr_reveal_single must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 - (1.0 - pr_reveal_single) ** n


def baseline_saturation(tau: float, gamma: float) -> float:
    """Largest neighbour count a verify-everything queue can sustain.

    A single verifier processes ``1/tau`` messages per second while each
    neighbour offers ``gamma``; the boundary is ``1 / (tau * gamma)``.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return 1.0 / (tau * gamma)


@dataclass(frozen=True, slots=True)
class MonteCarloEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    At the boundary proportions the exact Wilson endpoints are 0 and 1;
    they are pinned explicitly so rounding cannot pull them inward.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def monte_carlo_reveal(
    params: DetectionParams,
    trials: int,
    rng: np.random.Generator,
) -> MonteCarloEstimate:
    """Estimate the single-claim reveal probability by direct sampling.

    Per trial, each of the ``n_neighbors`` receivers flips ``alpha``
    independent coins with success probability ``pr_check``; a receiver
    detects if any coin succeeds, and the trial reveals if at least
    ``votes_needed`` receivers detect.  Deliberately does not reuse the
    closed forms above, so it can serve as their independent check.
    Returns the sample fraction with a 95% Wilson interval.  Trials run in
    batches of at most ``DRAWS`` coins; a trial that needs more is drawn in
    slices of at most ``DRAWS // alpha`` receivers.  The generator fills
    every draw from one stream, so the estimate does not depend on the
    batch or slice size.
    """
    import numpy as np  # only the Monte Carlo needs numpy; runs never pay its import

    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, a, v = params.n_neighbors, params.alpha, params.votes_needed
    chunk = max(1, DRAWS // (n * a))  # trials per batch
    per_slice = min(n, DRAWS // a)  # receivers per draw
    successes = 0
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        detectors = np.zeros(batch, dtype=np.int64)
        for start in range(0, n, per_slice):
            coins = rng.random((batch, min(per_slice, n - start), a)) < params.pr_check
            detectors += coins.any(axis=2).sum(axis=1)
        successes += int((detectors >= v).sum())
        done += batch
    low, high = wilson_interval(successes, trials)
    return MonteCarloEstimate(successes / trials, low, high, trials)
