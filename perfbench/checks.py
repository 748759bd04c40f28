"""Checks on a round's outputs, computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
They read the ledgers and CSV files the program produced and compare them
with properties the method must have or with arithmetic done here (the
binomial tail with ``math.comb``).  Nothing here calls into coopverif.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from pathlib import Path
from typing import Dict, List

# Reference point of ``coopverif analyze`` and its published value.
PR_REVEAL_EXPECTED = 0.804
PR_REVEAL_TOLERANCE = 0.005
PR_REVEAL_EXACT_TOLERANCE = 1e-9


def conservation(ledger) -> List[str]:
    """On every node the outcome counts, and the rows recorded for it, sum
    to its non-duplicate receptions."""
    fails = []
    rows = Counter(node for node, _ in ledger.records)
    for node, received in sorted(ledger.receptions.items()):
        outcomes = sum(ledger.outcome_counts.get(node, Counter()).values())
        if outcomes != received:
            fails.append(f"node {node}: {outcomes} outcomes for {received} receptions")
        if (ledger.record_all or node == ledger.evaluated_node) and rows[node] != received:
            fails.append(f"node {node}: {rows[node]} rows for {received} receptions")
    return fails


def receptions(config, ledger) -> List[str]:
    """No duplicates, no lost frames without loss; without loss or an
    adversary, total receptions lie in [N(N-1)(gamma*T-1), N(N-1)*gamma*T]."""
    fails = []
    dups = sum(ledger.duplicates.values())
    if dups:
        fails.append(f"{dups} duplicate receptions")
    if config.loss_prob == 0.0 and ledger.lost_frames:
        fails.append(f"{ledger.lost_frames} lost frames without loss")
    if config.loss_prob == 0.0 and config.adversary is None:
        n = config.n_nodes
        high = n * (n - 1) * config.gamma * config.duration
        low = n * (n - 1) * (config.gamma * config.duration - 1)
        total = sum(ledger.receptions.values())
        if not low <= total <= high:
            fails.append(f"{total} receptions outside [{low:g}, {high:g}]")
    return fails


def verifier(config, ledger) -> List[str]:
    """Node 0 completes at most T/tau + 1 verifications, and is busy at
    least 99% of the run when its benign neighbours offer more than 1/tau."""
    fails = []
    done = ledger.verifications_completed.get(0, 0)
    limit = math.floor(config.duration / config.tau + 1e-9) + 1
    if done > limit:
        fails.append(f"node 0 completed {done} verifications, limit {limit}")
    if (config.n_nodes - 1) * config.gamma > 1.0 / config.tau:
        utilisation = ledger.busy_time / config.duration
        if utilisation < 0.99:
            fails.append(f"node 0 verifier utilisation {utilisation:.6f} < 0.99 under overload")
    return fails


def backlog(config, ledger) -> List[str]:
    """Final FCFS queue within N messages of the D/D/1 backlog
    ((N-1)*gamma - 1/tau) * T."""
    expected = ((config.n_nodes - 1) * config.gamma - 1.0 / config.tau) * config.duration
    if abs(ledger.final_queue_len - expected) > config.n_nodes:
        return [f"final queue {ledger.final_queue_len}, D/D/1 backlog {expected:g}"]
    return []


def adversary(config, ledger) -> List[str]:
    """The adversary (id N) is the only node revoked, at a time in (0, T);
    at least v distinct benign nodes report it; each report's bogus digest
    was rejected as invalid at its reporter; no adversary message is
    enqueued after the revocation."""
    adv = config.n_nodes
    revoked = [node for node, _ in ledger.revocations]
    if revoked != [adv]:
        return [f"revoked {revoked}, expected only the adversary {adv}"]
    fails = []
    when = ledger.revocations[0][1]
    if not 0.0 < when < config.duration:
        fails.append(f"revocation at {when}, outside (0, {config.duration})")
    wrong = [r for r in ledger.reports if r.accused.id != adv or r.reporter.id >= adv]
    if wrong:
        fails.append(f"{len(wrong)} reports not from a benign node against the adversary")
    reporters = {r.reporter.id for r in ledger.reports}
    if len(reporters) < config.detection.votes_needed:
        fails.append(f"{len(reporters)} distinct reporters < {config.detection.votes_needed}")
    if not ledger.record_all:
        return fails + ["adversary checks need every node's rows"]
    rejected = {
        (node, disp.digest.value)
        for node, disp in ledger.records
        if disp.outcome.value == "rejected_invalid"
    }
    unbacked = [r for r in ledger.reports if (r.reporter.id, r.bogus_digest.value) not in rejected]
    if unbacked:
        fails.append(f"{len(unbacked)} reports whose bogus digest was not rejected at the reporter")
    late = sum(
        1 for _, disp in ledger.records if disp.sender.id == adv and disp.enqueue_time > when
    )
    if late:
        fails.append(f"{late} adversary messages enqueued after the revocation at {when}")
    return fails


def ledger_checks(config, ledger) -> List[str]:
    """Every ledger check that applies to the ledger's scenario."""
    fails = conservation(ledger) + receptions(config, ledger) + verifier(config, ledger)
    if config.scheme == "baseline" and config.loss_prob == 0.0:
        fails += backlog(config, ledger)
    if config.adversary is not None:
        fails += adversary(config, ledger)
    return fails


def binomial_reveal(alpha: int, pr_check: float, n: int, votes: int) -> float:
    """Probability that at least ``votes`` of ``n`` receivers catch a claim
    of ``alpha`` bogus digests, each checked with probability ``pr_check``."""
    p = 1.0 - (1.0 - pr_check) ** alpha
    return math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(votes, n + 1))


def read_analysis(path: Path) -> Dict[str, List[float]]:
    """``analysis.csv`` as name -> [value, ci_low, ci_high] (NaN for empty)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {r[0]: [float(x) if x else math.nan for x in r[1:]] for r in rows[1:]}


def analysis(rows: Dict[str, List[float]], alpha: int, pr_check: float, n: int, votes: int) -> List[str]:
    """``pr_reveal`` equals the binomial tail to 1e-9 and the published
    value to 0.005, and the Monte Carlo's 95% interval contains it."""
    exact = binomial_reveal(alpha, pr_check, n, votes)
    fails = []
    reported = rows.get("pr_reveal", [math.nan])[0]
    if not abs(reported - exact) <= PR_REVEAL_EXACT_TOLERANCE:
        fails.append(f"pr_reveal {reported!r}, binomial tail {exact!r}")
    if not abs(reported - PR_REVEAL_EXPECTED) <= PR_REVEAL_TOLERANCE:
        fails.append(f"pr_reveal {reported!r} not {PR_REVEAL_EXPECTED} +- {PR_REVEAL_TOLERANCE}")
    _, low, high = rows.get("monte_carlo_reveal", [math.nan] * 3)
    if not low <= exact <= high:
        fails.append(f"Monte Carlo interval [{low}, {high}] misses {exact!r}")
    return fails


def bundle_fingerprint(bundle: Path) -> str:
    """SHA-256 over the bundle's CSV files, by name, with their bytes."""
    digest = hashlib.sha256()
    for path in sorted(bundle.glob("*.csv")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def fingerprint(actual: str, reference: str) -> List[str]:
    if actual != reference:
        return [f"bundle fingerprint {actual} differs from reference {reference}"]
    return []


def same_outputs(traced, untraced) -> List[str]:
    """A traced round's fingerprint and simulated node-0 values equal the
    untraced round's: the wrappers changed nothing the program computes."""
    if traced != untraced:
        return [f"traced round {traced} differs from untraced round {untraced}"]
    return []
