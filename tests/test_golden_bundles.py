"""Pinned output bundles: every CSV and effective_config.ini of a small grid.

Each grid entry is one ``coopverif run --runs 2`` invocation.  Together they
cover packet loss, the rejected-digest blacklist, audit mode, partial and
empty bogus claims, a late adversary start, the baseline under attack,
``pr_check = 1`` and a saturated verifier (``tau = 0.5``).  The adversary
entries run at ``tau = 15 ms`` so queues are long enough for claims to match
and senders to be revoked while one of their jobs is being verified.

``tests/data/golden_bundles.json`` holds the SHA-256 of every file each
invocation writes.  Regenerate it only for a change that alters outputs on
purpose and says so in CHANGES.md::

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


def bundle_hashes(name: str, out: Path) -> dict:
    args = ["run", "--out", str(out), "--runs", str(RUNS)]
    for item in GRID[name]:
        args += ["--set", item]
    assert main(args) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(GRID))
def test_bundle_matches_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert bundle_hashes(name, tmp_path / name) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: bundle_hashes(name, Path(tmp) / name) for name in sorted(GRID)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
