"""Acceptance suite: one test per release criterion, fixed tolerances.

Each test prints a single PASS/FAIL line (run with ``-s`` to see them
live).  The heavy parameter sweeps are shared through module fixtures and
use two worker processes; every number is pinned here, nothing is
calibrated after the fact.

Two criteria (6a and 11) encode targets that this channel model is known
not to reach: with deterministic, collision-free delivery the verification
queues stay much shorter than behind a contended radio stack, which
compresses the claim-list-size effect on the median wait and closes the
window in which claimed bogus messages are still queued for spot checks.
They run unmodified and report honest failures; see the repository notes
for the quantitative analysis.
"""

import csv
import filecmp
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coopverif.analytic import (
    DetectionParams,
    baseline_saturation,
    monte_carlo_reveal,
    pr_reveal,
)
from coopverif.cli import main
from coopverif.engine import DispositionKind
from coopverif.metrics import ROW
from coopverif.sim import (
    AdversaryConfig,
    DetectionConfig,
    ScenarioConfig,
    SimulationKernel,
    airtime,
    run_replications,
    run_scenario,
)

RUNS = 5
WORKERS = 2
BASE_SEED = 1


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _replicate(config: ScenarioConfig, label: str):
    started = time.perf_counter()
    result = run_replications(config, RUNS, workers=WORKERS)
    print(f"  [{label}] {RUNS} runs, {len(result.pooled_waiting)} pooled samples, "
          f"{time.perf_counter() - started:.0f}s")
    return result


@pytest.fixture(scope="module")
def n_sweep():
    out = {}
    for n in (15, 20, 25, 30, 35, 40):
        out[n] = _replicate(ScenarioConfig(n_nodes=n, seed=BASE_SEED), f"N={n}")
    return out


@pytest.fixture(scope="module")
def alpha_sweep(n_sweep):
    out = {5: n_sweep[30]}  # alpha=5 at defaults is the N=30 point
    for alpha in (3, 6, 7):
        out[alpha] = _replicate(ScenarioConfig(alpha=alpha, seed=BASE_SEED), f"alpha={alpha}")
    return out


@pytest.fixture(scope="module")
def tau_sweep(n_sweep):
    out = {0.005: n_sweep[30]}
    for tau in (0.003, 0.007, 0.008):
        out[tau] = _replicate(ScenarioConfig(tau=tau, seed=BASE_SEED), f"tau={tau}")
    return out


def test_criterion_01_analytic_reference_point(tmp_path):
    """analyze at alpha=5, N=15, pr_check=0.1, v=5: pr_reveal = 0.804 +/- 0.005,
    complete in under a second."""
    started = time.perf_counter()
    rc = main([
        "analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
        "--votes", "5", "--out", str(tmp_path), "--seed", "2",
    ])
    elapsed = time.perf_counter() - started
    assert rc == 0
    with open(tmp_path / "analysis.csv", newline="") as fh:
        table = {row[0]: row[1] for row in csv.reader(fh)}
    reveal = float(table["pr_reveal"])
    ok = abs(reveal - 0.804) <= 0.005 and elapsed < 1.0
    _report(1, ok, f"pr_reveal={reveal:.6f} (target 0.804 +/- 0.005), {elapsed:.2f}s")


def test_criterion_02_monte_carlo_agrees_with_closed_form():
    """30 randomized parameter points: closed form inside the 95% interval
    of a 10^5-trial estimate, all in under 30 seconds."""
    started = time.perf_counter()
    rng = random.Random(20250417)
    misses = []
    for i in range(30):
        params = DetectionParams(
            alpha=rng.randint(1, 8),
            pr_check=rng.uniform(0.05, 0.95),
            n_neighbors=rng.randint(5, 50),
            votes_needed=rng.randint(1, 12),
        )
        est = monte_carlo_reveal(
            params, 100_000, np.random.default_rng(rng.randint(0, 2**31))
        )
        exact = pr_reveal(params)
        if not est.contains(exact):
            misses.append((i, params, exact, est))
    elapsed = time.perf_counter() - started
    ok = not misses and elapsed < 30.0
    _report(2, ok, f"30/{30 - len(misses)} points within CI, {elapsed:.1f}s"
            + (f"; first miss: {misses[0]}" if misses else ""))


def test_criterion_03_baseline_saturation_boundary():
    """Baseline, tau=5ms, gamma=10Hz, 120s: N=15 stationary (final queue
    < 20, p99 wait < 0.5s as the boundedness witness); N=25 backlog >= 3000
    (order of 0.8*(250-200)*120 = 4800); each run under 10 seconds."""
    t0 = time.perf_counter()
    stable = run_scenario(ScenarioConfig(n_nodes=15, scheme="baseline", seed=BASE_SEED))
    t_stable = time.perf_counter() - t0
    t0 = time.perf_counter()
    overloaded = run_scenario(ScenarioConfig(n_nodes=25, scheme="baseline", seed=BASE_SEED))
    t_over = time.perf_counter() - t0

    s15 = stable.summarize(0)
    s25 = overloaded.summarize(0)
    ok = (
        s15["final_queue_len"] < 20
        and s15["waiting_p99"] < 0.5
        and s25["final_queue_len"] >= 3000
        and t_stable < 10.0
        and t_over < 10.0
    )
    assert math.isclose(baseline_saturation(0.005, 10.0), 20.0)
    _report(3, ok,
            f"N=15 finalQ={s15['final_queue_len']} p99={s15['waiting_p99']:.3f}s "
            f"({t_stable:.1f}s); N=25 finalQ={s25['final_queue_len']} ({t_over:.1f}s)")


def test_criterion_04_cooperative_scaling_at_n40(n_sweep):
    """N=40 defaults, 5 pooled runs: at least 85% of accepted messages wait
    under 0.3s."""
    frac = n_sweep[40].pooled_fraction_below(0.3)
    ok = frac >= 0.85
    _report(4, ok, f"fraction below 0.3s = {frac:.4f} (need >= 0.85)")


def test_criterion_05_cooperative_ratio_monotone(n_sweep):
    """Cooperative verification ratio strictly increases with N (5-run
    averages)."""
    ratios = [n_sweep[n].mean_summary()["cooperative_ratio"] for n in (15, 20, 25, 30, 35, 40)]
    ok = all(b > a for a, b in zip(ratios, ratios[1:]))
    _report(5, ok, "ratios " + " ".join(f"{r:.4f}" for r in ratios))


def test_criterion_06_alpha_saturation(alpha_sweep):
    """Pooled median wait improves >= 20% from alpha=3 to alpha=5, while
    alpha=7 vs alpha=6 differ by < 10%."""
    med = {a: alpha_sweep[a].pooled_quantile(0.5) for a in (3, 5, 6, 7)}
    improvement = (med[3] - med[5]) / med[3]
    overlap = abs(med[7] - med[6]) / med[6]
    ok = improvement >= 0.20 and overlap < 0.10
    _report(6, ok,
            f"medians a3={med[3]:.5f} a5={med[5]:.5f} a6={med[6]:.5f} a7={med[7]:.5f}; "
            f"improvement={improvement:.4f} (need >=0.20), a7-vs-a6={overlap:.4f} (need <0.10)")


def test_criterion_07_tau_sensitivity(tau_sweep):
    """Cooperative defaults stable for tau in {3,5,7}ms (mean final queue
    <= 300 as the stationarity witness) and unstable at 8ms (final queue
    > 10x the 7ms case)."""
    finals = {tau: tau_sweep[tau].mean_summary()["final_queue_len"] for tau in tau_sweep}
    ok = (
        all(finals[tau] <= 300 for tau in (0.003, 0.005, 0.007))
        and finals[0.008] > 10 * finals[0.007]
    )
    _report(7, ok, "mean final queue " +
            " ".join(f"tau={tau * 1000:g}ms:{finals[tau]:.1f}" for tau in sorted(finals)))


def test_criterion_08_pr_check_workload_identities():
    """pr_check=1, no adversary: signature verifications == accepted total.
    pr_check=0: cooperative acceptances == claim matches. Exact equalities,
    checked for the evaluated node and network-wide."""
    full = run_scenario(ScenarioConfig(pr_check=1.0, duration=30.0, seed=BASE_SEED))
    never = run_scenario(ScenarioConfig(pr_check=0.0, duration=30.0, seed=BASE_SEED))

    full_ok = (
        full.verifications_completed[0] == full.accepted_total(0)
        and sum(full.verifications_completed.values())
        == sum(full.accepted_total(n) for n in full.outcome_counts)
        and full.node_counts(0)[DispositionKind.COOPERATIVELY_ACCEPTED] == 0
    )
    coop0 = never.node_counts(0)[DispositionKind.COOPERATIVELY_ACCEPTED]
    never_ok = (
        coop0 == never.claims_matched[0]
        and sum(never.spot_checks_set.values()) == 0
        and sum(
            never.node_counts(n)[DispositionKind.COOPERATIVELY_ACCEPTED]
            for n in never.outcome_counts
        )
        == sum(never.claims_matched.values())
    )
    ok = full_ok and never_ok
    _report(8, ok,
            f"pr=1: verified={full.verifications_completed[0]} accepted={full.accepted_total(0)}; "
            f"pr=0: coop={coop0} matched={never.claims_matched[0]}")


def test_criterion_09_engine_invariants_randomized():
    """10^3 randomized short scenarios with state auditing: partition
    invariant, cache purity, disposition conservation, b-flag monotonicity
    all hold (audits raise on violation)."""
    rng = random.Random(424242)
    checked = 0
    for trial in range(1000):
        alpha = rng.randint(0, 6)
        adversary = None
        if rng.random() < 0.5 and alpha >= 1:
            adversary = AdversaryConfig(
                gamma_adv=rng.choice((5.0, 10.0, 20.0)),
                bogus_per_claim=rng.randint(0, alpha),
                start_time=rng.uniform(0.0, 0.3),
            )
        cfg = ScenarioConfig(
            n_nodes=rng.randint(2, 8),
            pr_check=rng.choice((0.0, 0.1, 0.2, 0.5, 1.0)),
            alpha=alpha,
            tau=rng.uniform(0.002, 0.02),
            gamma=rng.choice((5.0, 10.0, 20.0)),
            scheme=rng.choice(("baseline", "cooperative")),
            duration=rng.uniform(0.5, 2.0),
            seed=trial,
            loss_prob=rng.choice((0.0, 0.0, 0.1, 0.3)),
            adversary=adversary,
            detection=DetectionConfig(
                votes_needed=rng.randint(1, 4),
                blacklist_rejected=rng.random() < 0.2,
            ),
            audit=True,
            record_all_nodes=True,
        )
        kernel = SimulationKernel(cfg)
        ledger = kernel.run()  # audits raise QueueInvariantError on violation
        for nid in range(kernel.total_nodes):
            assert sum(ledger.node_counts(nid).values()) == ledger.receptions[nid], (
                f"conservation broken: trial {trial} node {nid}"
            )
        for node in kernel.nodes:
            cached = {entry[1].value for entry in node.cache.entries}
            coop = {d.value for d in node._coop_accepted}
            assert not cached & coop, f"cache purity broken: trial {trial}"
        for _, _, _, enqueue, left, _ in ROW.iter_unpack(ledger.rows):
            assert left - enqueue >= 0.0
        checked += 1
    _report(9, checked == 1000, f"{checked}/1000 randomized scenarios audited clean")


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Identical run and sweep invocations produce byte-identical CSVs."""
    run_args = [
        "run", "--runs", "3", "--seed", "7",
        "--set", "n_nodes=6", "--set", "duration=4",
        "--set", "adversary.gamma_adv=10", "--set", "adversary.bogus_per_claim=5",
        "--set", "detection.votes_needed=3", "--set", "tau=0.015",
    ]
    sweep_args = [
        "sweep", "--param", "tau", "--values", "0.004,0.008", "--runs", "2",
        "--seed", "3", "--set", "n_nodes=5", "--set", "duration=3",
    ]
    dirs = {}
    for tag, args in (("run", run_args), ("sweep", sweep_args)):
        for attempt in ("x", "y"):
            out = tmp_path / f"{tag}-{attempt}"
            assert main([*args, "--out", str(out)]) == 0
            dirs[(tag, attempt)] = out
    mismatches = []
    for tag in ("run", "sweep"):
        a, b = dirs[(tag, "x")], dirs[(tag, "y")]
        for path in sorted(p for p in a.rglob("*") if p.is_file()):
            other = b / path.relative_to(a)
            if not filecmp.cmp(path, other, shallow=False):
                mismatches.append(str(path.relative_to(a)))
    _report(10, not mismatches, f"compared run+sweep trees, mismatches: {mismatches or 'none'}")


def test_criterion_11_adversary_damage_window():
    """Defaults plus one adversary (k=alpha=5, gamma_adv=10Hz, v=5): revoked
    within the first 3 claim cycles (1.8s) in at least 95 of 100 seeded
    runs; cooperatively accepted bogus messages are reported per run."""
    cycle_bound = 3 * (5 + 1) / 10.0
    within = 0
    ever = 0
    bogus_counts = []
    started = time.perf_counter()
    for seed in range(100):
        cfg = ScenarioConfig(
            duration=6.0,
            seed=seed,
            adversary=AdversaryConfig(gamma_adv=10.0, bogus_per_claim=5, start_time=0.0),
            detection=DetectionConfig(votes_needed=5),
        )
        ledger = run_scenario(cfg)
        revoked_at = ledger.first_revocation_time()
        if revoked_at is not None:
            ever += 1
            if revoked_at <= cycle_bound:
                within += 1
        bogus_counts.append(ledger.summarize(0)["bogus_accepted_all_nodes"])
    elapsed = time.perf_counter() - started
    print(f"  [damage] bogus accepted per run: mean={sum(bogus_counts) / 100:.1f} "
          f"min={min(bogus_counts)} max={max(bogus_counts)}; "
          f"revoked ever within 6s: {ever}/100; {elapsed:.0f}s")
    ok = within >= 95
    _report(11, ok,
            f"revoked within 3 claim cycles ({cycle_bound:.1f}s): {within}/100 (need >= 95); "
            f"bogus-accepted mean {sum(bogus_counts) / 100:.1f}/run is recorded above")


def test_criterion_12_frame_timing_exact():
    """300-byte frame: 400.000us at 6Mb/s; five digests add 66.667us."""
    base = airtime(300, 6e6)
    with_five = airtime(350, 6e6)
    delta = with_five - base
    ok = (
        base == pytest.approx(400e-6, abs=1e-12)
        and delta == pytest.approx(400.0 / 6e6, rel=1e-12)
        and abs(delta - 66.667e-6) < 1e-9
    )
    _report(12, ok, f"airtime(300B)={base * 1e6:.3f}us, +5 digests={delta * 1e6:.3f}us")
