"""Cooperative verification of signed vehicular safety beacons.

Simulator and analytic toolkit for a scheme where each beacon carries
80-bit digests of messages its sender has already signature-verified:
receivers accept claimed messages without re-verifying, spot-check a
random subset to catch false claims, and revoke claimants caught vouching
for invalid messages.

The package root exports the entry points of the README's library example;
everything else is imported from its module (``coopverif.sim``,
``coopverif.engine``, ...).
"""

from .analytic import DetectionParams, monte_carlo_reveal, pr_reveal, pr_skip
from .sim import AdversaryConfig, DetectionConfig, ScenarioConfig, run_replications, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AdversaryConfig",
    "DetectionConfig",
    "DetectionParams",
    "ScenarioConfig",
    "monte_carlo_reveal",
    "pr_reveal",
    "pr_skip",
    "run_replications",
    "run_scenario",
]
