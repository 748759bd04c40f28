"""Pinned output bundles: every file a small grid of invocations writes.

Each ``GRID`` entry is one ``coopverif run --runs 2`` invocation.  Together
they cover packet loss, the rejected-digest blacklist, audit mode, partial
and empty bogus claims, a late adversary start, the baseline under attack,
``pr_check = 1`` and a saturated verifier (``tau = 0.5``).  The adversary
entries run at ``tau = 15 ms`` so queues are long enough for claims to match
and senders to be revoked while one of their jobs is being verified.

Each ``COMMANDS`` entry is one ``sweep`` or ``analyze`` invocation: a sweep
over the scheme under attack, a sweep over ``tau`` whose second value needs
more than 9 digits in its directory label, and ``analyze`` at the
benchmark's reference point.

``tests/data/golden_bundles.json`` holds the SHA-256 of every file each
invocation writes, keyed by its path under ``--out``.  Regenerate it only
for a change that alters outputs on purpose and says so in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_bundles.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from coopverif.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_bundles.json"
RUNS = 2
_SMALL = ["n_nodes=10", "duration=4", "record_all_nodes=true"]
_ATTACKED = [*_SMALL, "tau=0.015"]

GRID = {
    "loss": [*_SMALL, "loss_prob=0.2"],
    "blacklist": [*_ATTACKED, "adversary.bogus_per_claim=5", "detection.votes_needed=2",
                  "detection.blacklist_rejected=true"],
    "audit": [*_ATTACKED, "audit=true", "adversary.gamma_adv=10", "detection.votes_needed=2"],
    "bogus_per_claim_0": [*_ATTACKED, "adversary.bogus_per_claim=0"],
    "bogus_per_claim_2": [*_ATTACKED, "adversary.bogus_per_claim=2", "detection.votes_needed=2"],
    "start_time_0.7": [*_ATTACKED, "adversary.start_time=0.7", "detection.votes_needed=2"],
    "baseline_adversary": [*_ATTACKED, "scheme=baseline", "adversary.gamma_adv=10"],
    "pr_check_1": [*_ATTACKED, "pr_check=1", "adversary.gamma_adv=10", "detection.votes_needed=2"],
    "tau_0.5": [*_SMALL, "tau=0.5"],
}


def _sets(items) -> list:
    return [arg for item in items for arg in ("--set", item)]


COMMANDS = {
    "sweep_scheme": ["sweep", "--param", "scheme", "--values", "cooperative,baseline",
                     "--runs", str(RUNS), *_sets([*_SMALL, "tau=0.02", "adversary.gamma_adv=10"])],
    "sweep_tau": ["sweep", "--param", "tau", "--values", "0.004,0.00512345678912",
                  "--runs", str(RUNS), *_sets(_SMALL)],
    "analyze": ["analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
                "--votes", "5", "--trials", "20000"],
}


def command(name: str) -> list:
    if name in COMMANDS:
        return COMMANDS[name]
    return ["run", "--runs", str(RUNS), *_sets(GRID[name])]


def bundle_hashes(name: str, out: Path) -> dict:
    assert main([*command(name), "--out", str(out)]) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted([*GRID, *COMMANDS]))
def test_bundle_matches_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert bundle_hashes(name, tmp_path / name) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        names = sorted([*GRID, *COMMANDS])
        golden = {name: bundle_hashes(name, Path(tmp) / name) for name in names}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
