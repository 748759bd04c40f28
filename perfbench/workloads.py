"""The benchmark's workloads: scenario overrides, replications per round,
and the mapping from the benchmark's ``--seed`` to the simulator's seed.

This module imports nothing from coopverif, so the set-up probe can load
it before the package import it times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

# ``--seed n`` selects base seed ``1 + n % SEED_POOL``.  The pool is finite
# so that ``reference.json`` can hold the output fingerprint of every input
# the benchmark can generate, and every one of them is checked.
SEED_POOL = 16

# ``coopverif analyze`` at the reference point, where pr_reveal is 0.804.
# It keeps the CLI's default Monte Carlo seed: a 95% interval misses the
# true value on about one seed in twenty (base seed 2 of the pool does), so
# a seed-dependent interval would fail by chance, not by a fault.
ANALYZE_POINT = {"alpha": 5, "pr_check": 0.1, "n": 15, "votes": 5}
ANALYZE_ARGS = (
    "--alpha", str(ANALYZE_POINT["alpha"]),
    "--pr-check", str(ANALYZE_POINT["pr_check"]),
    "--neighbors", str(ANALYZE_POINT["n"]),
    "--votes", str(ANALYZE_POINT["votes"]),
)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: Tuple[str, ...]  # ``--set key=value`` strings for cli.load_config
    runs: int  # replications per round, seeds base .. base+runs-1
    analyze: bool = False  # also run ``coopverif analyze`` at ANALYZE_POINT

    def set_args(self) -> list:
        """The overrides as ``coopverif run`` arguments."""
        return [arg for item in self.overrides for arg in ("--set", item)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's default point; queues stay near 10, so per-event
        # costs (heap, broadcast, encode + digest, claims, ledger) dominate.
        Workload("coop_default", ("duration=5",), runs=4),
        # Past the cooperative stability point (tau=8 ms): node 0's queue
        # grows to about 500 in 20 s, so random insert, promote and remove
        # work on long lists.  One adversary is caught and revoked, and every
        # node's rows pass through the ledger and the CSV export.
        Workload(
            "coop_overload_adversary",
            (
                "tau=0.008",
                "duration=20",
                "record_all_nodes=true",
                "adversary.bogus_per_claim=5",
                "adversary.gamma_adv=10",
                "detection.votes_needed=5",
            ),
            runs=1,
            analyze=True,
        ),
        # Verify-everything FCFS at twice the saturation point: tail append,
        # head pop, no claims and no cache; 39 receivers per frame.
        Workload("baseline_overload", ("scheme=baseline", "n_nodes=40", "duration=5"), runs=2),
    )
}


def base_seed(seed: int) -> int:
    """Simulator base seed for the benchmark's ``--seed``."""
    return 1 + seed % SEED_POOL
