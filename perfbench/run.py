"""End-to-end and per-layer benchmark for coopverif.

    python3 perfbench/run.py --workload coop_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20 --trace 0    # every workload
    python3 perfbench/run.py --write-reference [--workload NAME]

One process drives the package from ``src/`` through its public API with
``COOPVERIF_WORKERS=1``.  A run repeats whole rounds of its workload until
``--seconds`` have passed.  A round loads the config, builds every kernel,
runs them, pools the ledgers, exports the CSV bundle and, for the adversary
workload, runs ``coopverif analyze``.  Its operations are the replications,
the export and the analyze call, each with its checks (``checks.py``).

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates untraced and traced rounds (``tracing.py``) and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` recomputes ``reference.json``, the SHA-256 of every
bundle the benchmark can produce, through ``coopverif run`` and
``coopverif analyze``.  Only a change that alters outputs on purpose does
this.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 9

sys.path.insert(0, str(HERE))
from workloads import ANALYZE_ARGS, ANALYZE_POINT, SEED_POOL, WORKLOADS, Workload, base_seed  # noqa: E402

import checks  # noqa: E402


def import_coopverif():
    """The coopverif package of this checkout's ``src/``; exits if absent."""
    if not (SRC / "coopverif" / "__init__.py").is_file():
        sys.exit(f"no coopverif sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["COOPVERIF_WORKERS"] = "1"
    import coopverif
    import coopverif.cli

    if Path(coopverif.__file__).resolve().parent != (SRC / "coopverif").resolve():
        sys.exit(f"coopverif imported from {coopverif.__file__}, not from {SRC}")
    return coopverif


@dataclass
class Round:
    wall_s: float  # set-up through export and analysis, checks excluded
    run_s: float  # inside SimulationKernel.run
    receptions: int
    fingerprint: str
    sim: Tuple[float, float, float]  # node-0 busy share, wait median, wait p99
    records: int
    revocations: int
    rows: int
    bytes: int
    ops: List[List[str]]  # failure messages, one list per operation

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op)


def run_round(cv, wl: Workload, seed: int, bundle: Path, reference) -> Round:
    """One round of ``wl`` at base seed ``seed``, checked.

    Every program entry point is looked up on its module at call time, so
    a round under ``tracing.Tracer`` runs the wrapped versions.
    """
    shutil.rmtree(bundle, ignore_errors=True)
    start = time.perf_counter()
    config = cv.cli.load_config(None, wl.overrides, seed)
    configs = [replace(config, seed=config.seed + i) for i in range(wl.runs)]
    kernels = [cv.sim.SimulationKernel(c) for c in configs]
    ledgers, run_s = [], 0.0
    for kernel in kernels:
        t0 = time.perf_counter()
        ledgers.append(kernel.run())
        run_s += time.perf_counter() - t0
    result = cv.metrics.pool_replications(ledgers)
    cv.cli.export_replication(result, bundle)
    analyze_rc = 0
    if wl.analyze:
        with redirect_stdout(io.StringIO()):
            analyze_rc = cv.cli.main(["analyze", *ANALYZE_ARGS, "--out", str(bundle)])
    wall_s = time.perf_counter() - start

    ops = [checks.ledger_checks(c, ledger) for c, ledger in zip(configs, ledgers)]
    fingerprint = checks.bundle_fingerprint(bundle)
    ops.append(checks.fingerprint(fingerprint, reference))
    if wl.analyze:
        if analyze_rc:
            ops.append([f"coopverif analyze exited {analyze_rc}"])
        else:
            ops.append(checks.analysis(checks.read_analysis(bundle / "analysis.csv"), **ANALYZE_POINT))
    files = sorted(bundle.glob("*.csv"))
    return Round(
        wall_s=wall_s,
        run_s=run_s,
        receptions=sum(sum(ledger.receptions.values()) for ledger in ledgers),
        fingerprint=fingerprint,
        sim=(
            statistics.fmean(ledger.busy_time / ledger.duration for ledger in ledgers),
            result.pooled_quantile(0.5),
            result.pooled_quantile(0.99),
        ),
        records=sum(len(ledger.records) for ledger in ledgers),
        revocations=sum(len(ledger.revocations) for ledger in ledgers),
        rows=sum(p.read_bytes().count(b"\n") - 1 for p in files),
        bytes=sum(p.stat().st_size for p in files),
        ops=ops,
    )


def setup_seconds(wl: Workload, seed: int) -> float:
    """Host seconds from starting a fresh process until it has imported
    coopverif, loaded the config and built every kernel of a round."""
    clock = time.CLOCK_MONOTONIC
    started = time.clock_gettime(clock)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - started


def timed_run(cv, wl, seed, seconds, bundle, reference):
    setup = statistics.median(setup_seconds(wl, seed) for _ in range(SETUP_SAMPLES))
    start = time.perf_counter()
    rounds = [run_round(cv, wl, seed, bundle, reference)]
    # Read after the first round: later rounds only add allocator
    # fragmentation, which grows with the number of rounds that fit.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        rounds.append(run_round(cv, wl, seed, bundle, reference))
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "receptions_per_s": statistics.median(r.receptions / r.run_s for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, rounds


def traced_run(cv, wl, seed, seconds, bundle, reference):
    import tracing

    untraced: List[Round] = []
    traced: List[Round] = []
    layers = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain = run_round(cv, wl, seed, bundle, reference)
        tracer = tracing.Tracer(cv)
        with tracer:
            spanned = run_round(cv, wl, seed, bundle, reference)
        layers.append(tracer.layer_metrics(spanned.wall_s))
        spanned.ops.append(checks.same_outputs(
            (spanned.fingerprint, spanned.sim), (plain.fingerprint, plain.sim)))
        untraced.append(plain)
        traced.append(spanned)
    tracer.save(OUT / f"trace-{wl.name}.npz")

    last = traced[-1]
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
    )
    busy, wait_median, wait_p99 = last.sim
    metrics["engine.verifier_busy_frac"] = busy
    metrics["engine.wait_median_sim_s"] = wait_median
    metrics["engine.wait_p99_sim_s"] = wait_p99
    metrics["threat.revocations"] = last.revocations
    metrics["metrics.records"] = last.records
    metrics["cli.rows_written"] = last.rows
    metrics["cli.bytes_written"] = last.bytes
    return metrics, untraced + traced


def write_reference(cv, names: List[str]) -> None:
    """Fingerprint every pool seed's bundle as ``coopverif run`` (and
    ``coopverif analyze``) write it, into ``reference.json``."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table = reference.setdefault("fingerprints", {})
    for name in names:
        wl = WORKLOADS[name]
        bundle = OUT / f"reference-{name}-{os.getpid()}"
        table[name] = {}
        for seed in range(1, SEED_POOL + 1):
            shutil.rmtree(bundle, ignore_errors=True)
            with redirect_stdout(io.StringIO()):
                rc = cv.cli.main(["run", "--out", str(bundle), "--runs", str(wl.runs),
                                  "--seed", str(seed), *wl.set_args()])
                if wl.analyze and rc == 0:
                    rc = cv.cli.main(["analyze", *ANALYZE_ARGS, "--out", str(bundle)])
            if rc:
                sys.exit(f"{name} seed {seed}: coopverif exited {rc}")
            table[name][str(seed)] = checks.bundle_fingerprint(bundle)
            print(f"{name} seed {seed}: {table[name][str(seed)]}", flush=True)
        shutil.rmtree(bundle, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def declared_units(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json (all workloads unless --workload)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        # Every workload, each in a process of its own so that peak RSS
        # and set-up stay per workload.
        for name in WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
            if proc.returncode:
                return proc.returncode
        return 0

    cv = import_coopverif()
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference(cv, [args.workload] if args.workload else list(WORKLOADS))
        return 0

    units = declared_units(bool(args.trace))
    wl = WORKLOADS[args.workload]
    seed = base_seed(args.seed)
    reference = json.loads(REFERENCE.read_text())["fingerprints"][wl.name].get(str(seed))
    bundle = OUT / f"{wl.name}-{os.getpid()}"
    try:
        measure = traced_run if args.trace else timed_run
        metrics, rounds = measure(cv, wl, seed, args.seconds, bundle, reference)
    finally:
        shutil.rmtree(bundle, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    failures = [msg for r in rounds for op in r.ops for msg in op]
    for msg in dict.fromkeys(failures):
        print(f"FAILED CHECK: {msg}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed} (base seed {seed}), {len(rounds)} rounds")
    print(f"fingerprint {rounds[-1].fingerprint} reference {reference} "
          f"{'match' if reference == rounds[-1].fingerprint else 'MISMATCH'}")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
