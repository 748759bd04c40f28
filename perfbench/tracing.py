"""Outside-in span tracing of coopverif's layers.

``Tracer`` replaces the public functions and methods of each layer with
wrappers that record one span per call: name, parent span, start, end and
one integer attribute (a queue or heap length at the call).  Each name is
patched where its caller looks it up, e.g. ``coopverif.sim.compute_digest``
as well as ``coopverif.core.encode_signed_cam``, and class attributes for
methods.  Spans stay in memory until the round ends; ``layer_metrics``
turns them into per-layer counts and self times, and ``save`` writes them
out.  Leaving the ``with`` block restores every original, so untraced
rounds run the program unwrapped.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

QUEUE_OPS = ("insert_random", "promote", "remove", "append", "pop_head")
# Half-decade bands of queue length around 10, 1k and 10k.
LENGTH_BANDS = {"len10": (4, 31), "len1k": (317, 3162), "len10k": (3163, 31622)}


def _length(args) -> int:
    return len(args[0])


def _queue_length(args) -> int:
    return len(args[0].jobs)


class Tracer:
    def __init__(self, cv) -> None:
        self.cv = cv
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.aux = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._originals: List[tuple] = []

    # -- installing ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, aux=None, after=None) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        add_name, add_parent, add_aux = self.name_ids.append, self.parents.append, self.aux.append
        add_start, add_end = self.starts.append, self.ends.append
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_aux(aux(args) if aux is not None else -1)
            add_start(0.0)
            add_end(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return span

    def _patch(self, owner, attr: str, name: str, aux=None, after=None) -> None:
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, aux, after))

    def __enter__(self) -> "Tracer":
        cv, count = self.cv, self.counters
        core, sim, engine, threat = cv.core, cv.sim, cv.engine, cv.threat
        metrics, cli = cv.metrics, cv.cli
        kernel, queue, node = sim.SimulationKernel, engine.VerificationQueue, engine.NodeState

        def deliveries(args, result):
            count["sim.deliveries"] += len(result[0])

        def claims(args, result):
            count["engine.apply_claims.digests_scanned"] += len(args[1].cam.claimed_digests)
            count["engine.apply_claims.matched"] += result.matched

        def trials(args, result):
            count["analytic.mc_trials"] += result.trials

        self._patch(core, "encode_signed_cam", "core.encode_signed_cam")
        self._patch(sim, "encode_signed_cam", "core.encode_signed_cam")
        self._patch(sim, "compute_digest", "core.compute_digest")
        self._patch(threat, "compute_digest", "core.compute_digest")
        self._patch(kernel, "__init__", "sim.kernel_init")
        self._patch(kernel, "run", "sim.loop")
        self._patch(sim, "broadcast", "sim.broadcast", after=deliveries)
        self._patch(sim, "heappush", "sim.heap.push", aux=_length)
        self._patch(sim, "heappop", "sim.heap.pop")
        for op in QUEUE_OPS:
            self._patch(queue, op, f"engine.queue.{op}", aux=_queue_length)
        self._patch(node, "receive", "engine.receive")
        self._patch(node, "finish_verification", "engine.finish_verification")
        self._patch(node, "apply_claims", "engine.apply_claims", after=claims)
        self._patch(node, "purge_sender", "engine.purge_sender")
        self._patch(engine.VerifiedCache, "record", "engine.cache.record")
        self._patch(threat.AdversaryDriver, "emit", "threat.emit")
        self._patch(sim, "detect_false_claim", "threat.detect_false_claim")
        self._patch(threat.RevocationRegistry, "add_report", "threat.add_report")
        self._patch(metrics.MetricsLedger, "record_disposition", "metrics.record_disposition")
        self._patch(metrics.MetricsLedger, "summarize", "metrics.summarize")
        self._patch(metrics, "pool_replications", "metrics.pool_replications")
        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "export_replication", "cli.export_replication")
        self._patch(cli, "cmd_analyze", "cli.analyze")
        self._patch(cli, "pr_reveal", "analytic.pr_reveal")
        self._patch(cli, "monte_carlo_reveal", "analytic.monte_carlo_reveal", after=trials)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- reading ---------------------------------------------------------------

    def _arrays(self):
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        aux = np.frombuffer(self.aux, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return ids, aux, dur - child

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer counts and self times of the spans recorded so far.

        ``wall_s`` is the host time of the traced round; what the spans'
        self times do not cover is reported as ``trace.unattributed_s``.
        """
        ids, aux, self_s = self._arrays()
        calls = np.bincount(ids, minlength=len(self.names))
        total = np.bincount(ids, weights=self_s, minlength=len(self.names))
        nid = self._name_ids

        def n(name: str) -> int:
            return int(calls[nid[name]])

        def s(name: str) -> float:
            return float(total[nid[name]])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def peak(name: str) -> int:
            mask = ids == nid[name]
            return int(aux[mask].max()) + 1 if mask.any() else 0

        m: Dict[str, float] = {}
        for name in ("core.encode_signed_cam", "core.compute_digest", "sim.broadcast",
                     "engine.receive", "engine.finish_verification", "engine.cache.record",
                     "threat.emit", "threat.detect_false_claim", "engine.purge_sender",
                     "metrics.record_disposition"):
            m[f"{name}.calls"] = n(name)
            m[f"{name}.s"] = s(name)
        frames = n("sim.broadcast")
        m["core.encodes_per_frame"] = ratio(n("core.encode_signed_cam"), frames)
        m["sim.kernel_init.s"] = s("sim.kernel_init")
        m["cli.load_config.s"] = s("cli.load_config")
        m["sim.heap.pushes"] = n("sim.heap.push")
        m["sim.heap.pops"] = n("sim.heap.pop")
        m["sim.heap.s"] = s("sim.heap.push") + s("sim.heap.pop")
        m["sim.heap.peak_len"] = peak("sim.heap.push")
        m["sim.deliveries_per_frame"] = ratio(self.counters["sim.deliveries"], frames)
        m["sim.loop.self_s"] = s("sim.loop")
        for op in QUEUE_OPS:
            name = f"engine.queue.{op}"
            m[f"{name}.calls"] = n(name)
            m[f"{name}.s"] = s(name)
            for band, (low, high) in LENGTH_BANDS.items():
                mask = (ids == nid[name]) & (aux >= low) & (aux <= high)
                hits = int(mask.sum())
                m[f"{name}.us.{band}"] = float(self_s[mask].sum()) / hits * 1e6 if hits else 0.0
        m["engine.queue.peak_len"] = max(peak("engine.queue.insert_random"),
                                         peak("engine.queue.append"))
        m["engine.apply_claims.calls"] = n("engine.apply_claims")
        m["engine.apply_claims.s"] = s("engine.apply_claims")
        scanned = self.counters["engine.apply_claims.digests_scanned"]
        m["engine.apply_claims.digests_scanned"] = scanned
        m["engine.apply_claims.match_ratio"] = ratio(
            self.counters["engine.apply_claims.matched"], scanned)
        m["threat.add_report.calls"] = n("threat.add_report")
        m["metrics.summarize.s"] = s("metrics.summarize")
        m["metrics.pool_replications.s"] = s("metrics.pool_replications")
        m["cli.export_replication.s"] = s("cli.export_replication")
        m["analytic.pr_reveal.s"] = s("analytic.pr_reveal")
        mc_s = s("analytic.monte_carlo_reveal")
        m["analytic.monte_carlo_reveal.s"] = mc_s
        m["analytic.mc_trials_per_s"] = ratio(self.counters["analytic.mc_trials"], mc_s)
        m["trace.unattributed_s"] = wall_s - float(self_s.sum())
        return m

    def save(self, path: Path) -> None:
        """Write the recorded spans (one row per call) as ``.npz``."""
        ids, aux, self_s = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            aux=aux,
            self_s=self_s,
        )


def median_metrics(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each metric over the traced rounds; counts stay whole."""
    return {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)(r[k] for r in rounds)
        for k, v in rounds[0].items()
    }
