"""Tests of the benchmark itself: a one-round run of each workload through
``run.py``, and for each check a perturbed result that it must reject."""

from __future__ import annotations

import copy
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import ANALYZE_POINT, WORKLOADS  # noqa: E402

cv = run.import_coopverif()
from coopverif.sim import AdversaryConfig, DetectionConfig, ScenarioConfig, run_scenario  # noqa: E402

COOP = ScenarioConfig(n_nodes=6, duration=3.0, seed=2)
# (N-1)*gamma = 50/s against 1/tau = 20/s: overloaded, D/D/1 backlog 150.
BASELINE = ScenarioConfig(n_nodes=6, duration=5.0, tau=0.05, scheme="baseline", seed=1)
ADVERSARY = ScenarioConfig(
    n_nodes=8, duration=4.0, tau=0.03, seed=1, record_all_nodes=True,
    adversary=AdversaryConfig(), detection=DetectionConfig(votes_needed=3),
)


@pytest.fixture(scope="module")
def ledgers():
    return {name: run_scenario(cfg) for name, cfg in
            (("coop", COOP), ("baseline", BASELINE), ("adversary", ADVERSARY))}


def run_benchmark(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_round_of_each_workload(workload):
    result = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    wl = WORKLOADS[workload]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == wl.runs + 1 + wl.analyze
    assert set(result["metrics"]) == {"setup_s", "wall_s", "receptions_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_round_reports_every_layer():
    result = run_benchmark("--workload", "coop_default", "--seed", "0", "--seconds", "0",
                           "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True and result["failed"] == 0
    for layer in ("core", "sim", "engine", "threat", "metrics", "cli", "analytic"):
        assert any(k.startswith(layer + ".") for k in metrics), layer
    assert metrics["core.encodes_per_frame"] == 2.0
    assert metrics["sim.deliveries_per_frame"] == 29.0
    assert metrics["engine.queue.append.calls"] == 0
    assert metrics["trace.overhead_s"] > 0


def test_tracer_restores_every_original():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in
              ((cv.sim, "heappush"), (cv.engine.VerificationQueue, "promote"),
               (cv.cli, "monte_carlo_reveal"), (cv.sim.SimulationKernel, "run"))}
    with tracing.Tracer(cv):
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())


def test_checks_pass_on_program_output(ledgers):
    assert checks.ledger_checks(COOP, ledgers["coop"]) == []
    assert checks.ledger_checks(BASELINE, ledgers["baseline"]) == []
    assert checks.ledger_checks(ADVERSARY, ledgers["adversary"]) == []


def test_conservation_rejects_a_dropped_disposition(ledgers):
    ledger = copy.deepcopy(ledgers["coop"])
    ledger.records.pop()
    assert checks.conservation(ledger)
    ledger = copy.deepcopy(ledgers["adversary"])
    ledger.outcome_counts[3][next(iter(ledger.outcome_counts[3]))] -= 1
    assert checks.conservation(ledger)


def test_receptions_reject_duplicates_losses_and_excess(ledgers):
    ledger = copy.deepcopy(ledgers["coop"])
    ledger.duplicates[2] = 1
    assert checks.receptions(COOP, ledger)
    ledger = copy.deepcopy(ledgers["coop"])
    ledger.lost_frames = 1
    assert checks.receptions(COOP, ledger)
    ledger = copy.deepcopy(ledgers["coop"])
    ledger.receptions[1] += COOP.n_nodes * (COOP.n_nodes - 1)
    assert checks.receptions(COOP, ledger)


def test_verifier_rejects_excess_verifications_and_idling(ledgers):
    ledger = copy.deepcopy(ledgers["baseline"])
    ledger.verifications_completed[0] = math.floor(BASELINE.duration / BASELINE.tau) + 2
    assert checks.verifier(BASELINE, ledger)
    ledger = copy.deepcopy(ledgers["baseline"])
    ledger.busy_time *= 0.98
    assert checks.verifier(BASELINE, ledger)


def test_backlog_rejects_a_queue_off_by_more_than_n(ledgers):
    ledger = copy.deepcopy(ledgers["baseline"])
    ledger.final_queue_len += BASELINE.n_nodes + 1
    assert checks.backlog(BASELINE, ledger)


def test_adversary_checks_reject_each_perturbation(ledgers):
    clean = ledgers["adversary"]
    adv, when = clean.revocations[0]

    ledger = copy.deepcopy(clean)
    ledger.revocations.append((1, when))
    assert checks.adversary(ADVERSARY, ledger)

    ledger = copy.deepcopy(clean)
    ledger.revocations[0] = (adv, ADVERSARY.duration)
    assert checks.adversary(ADVERSARY, ledger)

    ledger = copy.deepcopy(clean)
    first = ledger.reports[0].reporter.id
    ledger.reports = [r for r in ledger.reports if r.reporter.id != first]
    assert checks.adversary(ADVERSARY, ledger)

    ledger = copy.deepcopy(clean)
    other = next(d.digest for _, d in ledger.records if d.outcome.value != "rejected_invalid")
    ledger.reports[0] = replace(ledger.reports[0], bogus_digest=other)
    assert checks.adversary(ADVERSARY, ledger)

    ledger = copy.deepcopy(clean)
    node, disp = next((n, d) for n, d in ledger.records if d.sender.id == adv)
    ledger.records.append((node, replace(disp, enqueue_time=when + 0.01)))
    assert checks.adversary(ADVERSARY, ledger)


def test_analysis_rejects_an_off_pr_reveal_and_a_missing_interval(tmp_path):
    with redirect_stdout(io.StringIO()):
        assert cv.cli.main(["analyze", *run.ANALYZE_ARGS, "--out", str(tmp_path)]) == 0
    rows = checks.read_analysis(tmp_path / "analysis.csv")
    assert checks.analysis(rows, **ANALYZE_POINT) == []
    exact = checks.binomial_reveal(**ANALYZE_POINT)

    off = copy.deepcopy(rows)
    off["pr_reveal"][0] += 1e-6
    assert checks.analysis(off, **ANALYZE_POINT)

    missed = copy.deepcopy(rows)
    missed["monte_carlo_reveal"][1:] = [exact + 1e-4, exact + 2e-3]
    assert checks.analysis(missed, **ANALYZE_POINT)


def test_fingerprint_rejects_one_changed_byte(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x,y\n1,2\n")
    reference = checks.bundle_fingerprint(tmp_path)
    assert checks.fingerprint(checks.bundle_fingerprint(tmp_path), reference) == []
    (tmp_path / "a.csv").write_bytes(b"x,y\n1,3\n")
    assert checks.fingerprint(checks.bundle_fingerprint(tmp_path), reference)


def test_same_outputs_rejects_a_changed_simulated_value():
    assert checks.same_outputs(("f", (1.0, 0.1, 0.2)), ("f", (1.0, 0.1, 0.2))) == []
    assert checks.same_outputs(("f", (1.0, 0.1, 0.2)), ("f", (1.0, 0.1, 0.2000001)))
