"""Command-line interface: run scenarios, sweep parameters, analyze.

Subcommands:

* ``run``      one scenario, replicated over consecutive seeds, exported
               as CSV files (see ``docs/output_schemas.md``);
* ``sweep``    one parameter over a list of values, everything else at the
               defaults, with a combined quantile file across values;
* ``analyze``  closed-form detection/saturation numbers plus a Monte Carlo
               confirmation, no simulation involved.

Scenario settings come from an INI-style config file (sections
``[scenario]``, ``[adversary]``, ``[detection]``; see
``docs/config_format.md``) and can be overridden per invocation with
``--set key=value``.  Exit codes: 0 success, 2 configuration error,
3 I/O error.  Outputs contain no timestamps: identical invocations produce
byte-identical files.  ``COOPVERIF_WORKERS`` bounds the process pool used
for replications (default 1, fully sequential; below 1 is a configuration
error); the pool never exceeds the number of replications or of CPUs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .analytic import (
    DetectionParams,
    baseline_saturation,
    monte_carlo_reveal,
    pr_reveal,
    pr_reveal_after_n,
    pr_skip,
)
from .engine import Disposition
from .metrics import SUMMARY_COLUMNS, ReplicationResult
from .sim import AdversaryConfig, ConfigError, DetectionConfig, ScenarioConfig, run_replications

WORKERS_ENV = "COOPVERIF_WORKERS"


def _keys(cls) -> Dict[str, type]:
    """Config keys of one section, typed by their defaults, in field order."""
    return {
        f.name: type(f.default) for f in fields(cls) if f.name not in ("adversary", "detection")
    }


# The config schema: each section's keys, in the order files are written.
_SECTIONS = {
    "scenario": _keys(ScenarioConfig),
    "adversary": _keys(AdversaryConfig),
    "detection": _keys(DetectionConfig),
}

# Sweepable parameter names as used on the command line.
_SWEEP_PARAMS = {
    "N": "n_nodes",
    "n_nodes": "n_nodes",
    "pr_check": "pr_check",
    "alpha": "alpha",
    "tau": "tau",
    "gamma": "gamma",
    "scheme": "scheme",
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _convert(key: str, text: str, type_: type):
    try:
        if type_ is bool:
            return _parse_bool(text)
        return type_(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc


def _find_line(path: Optional[Path], key: str) -> str:
    """Best-effort line locator for diagnostics on a known-bad key."""
    if path is None:
        return ""
    try:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.split(";")[0].split("#")[0].strip()
            if stripped.startswith(key) and "=" in stripped:
                return f" ({path}:{lineno})"
    except OSError:
        pass
    return ""


def load_config(
    path: Optional[Path], overrides: Sequence[str] = (), seed: Optional[int] = None
) -> ScenarioConfig:
    """Build a ScenarioConfig from an INI file plus --set overrides.

    The adversary is enabled exactly when its section appears, in the file
    or in an override.
    """
    # Section -> key -> value, for the sections given.
    values: Dict[str, Dict[str, object]] = {}

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        for section in parser.sections():
            keys = _SECTIONS.get(section)
            if keys is None:
                raise ConfigError(f"unknown config section [{section}] in {path}")
            into = values.setdefault(section, {})
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ConfigError(
                        f"unknown key {key!r} in [{section}]{_find_line(path, key)}"
                    )
                into[key] = _convert(f"{section}.{key}", raw, keys[key])

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        section, _, subkey = key.partition(".")
        if not subkey:
            section, subkey = "scenario", key
        keys = _SECTIONS.get(section, {})
        if subkey not in keys:
            raise ConfigError(f"unknown override key {key!r}")
        values.setdefault(section, {})[subkey] = _convert(key, raw, keys[subkey])

    scenario = values.get("scenario", {})
    if seed is not None:
        scenario["seed"] = seed

    try:
        config = ScenarioConfig(
            adversary=AdversaryConfig(**values["adversary"]) if "adversary" in values else None,
            detection=DetectionConfig(**values.get("detection", {})),
            **scenario,
        )
        config.validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return config


# -- CSV export ---------------------------------------------------------------


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9g}"
    return str(value)


def _fmt_exact(value: object) -> str:
    """Like ``_fmt``, but a float that 9 digits do not reproduce is written
    in full, so the text reads back to the same value."""
    text = _fmt(value)
    if isinstance(value, float) and text and float(text) != value:
        return repr(value)
    return text


# Every CSV is written line by line with ``\r\n`` endings and no quoting,
# which no cell needs: each is an int, a ``_fmt`` float (NaN written empty),
# a hex digest, an outcome or event name, a scheme name or a sweep label.
# The two files that grow with the data use fixed templates, which write
# what ``_csv_line`` would: their floats are finite (the config is
# validated and negative waits are refused).

_WAIT_HEADER = "run,node,msg_id,sender,enqueue_time,outcome,leave_queue_time,waiting_time\r\n"
_WAIT_ROW = "%d,%d,%s,%d,%.9g,%s,%.9g,%.9g\r\n"
_CDF_HEADER = "waiting_time,cum_prob\r\n"
_CDF_ROW = "%.9g,%.9g\r\n"


def _wait_line(run: int, node: int, d: Disposition) -> str:
    """One ``waiting_times.csv`` row."""
    return _WAIT_ROW % (
        run, node, d.digest.value.hex(), d.sender.id, d.enqueue_time,
        d.outcome.value, d.leave_queue_time, d.waiting_time,
    )


def _write_lines(path: Path, header: str, lines: Iterable[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(lines)


def _csv_line(row: Iterable[object]) -> str:
    return ",".join(map(_fmt, row)) + "\r\n"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    _write_lines(path, _csv_line(header), map(_csv_line, rows))


def export_replication(result: ReplicationResult, out_dir: Path) -> Dict[str, object]:
    """Write the full CSV bundle for one replicated scenario.

    Returns the bundle's mean summary row.
    """
    out_dir.mkdir(parents=True, exist_ok=True)

    summaries = result.per_run_summaries()
    mean = result.mean_summary(summaries)
    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_COLUMNS,
        ([s[c] for c in SUMMARY_COLUMNS] for s in [*summaries, mean]),
    )

    _write_lines(
        out_dir / "waiting_times.csv",
        _WAIT_HEADER,
        (
            _wait_line(run_idx, node_id, disp)
            for run_idx, ledger in enumerate(result.runs)
            for node_id, disp in ledger.records
        ),
    )

    pooled = result.pooled_waiting
    n = len(pooled)
    _write_lines(
        out_dir / "cdf.csv",
        _CDF_HEADER,
        (_CDF_ROW % (w, (i + 1) / n) for i, w in enumerate(pooled)),
    )

    ts_rows = []
    for run_idx, ledger in enumerate(result.runs):
        for second, mean_wait, qlen in ledger.timeseries():
            ts_rows.append([run_idx, second, mean_wait, qlen])
    _write_csv(
        out_dir / "timeseries.csv",
        ["run", "second", "mean_waiting", "queue_len"],
        ts_rows,
    )

    event_header = ["run", "time", "kind", "reporter", "accused", "claim_digest", "bogus_digest"]
    event_rows = []
    for run_idx, ledger in enumerate(result.runs):
        for report in ledger.reports:
            event_rows.append(
                [
                    run_idx,
                    report.time,
                    "report",
                    report.reporter.id,
                    report.accused.id,
                    report.claim_digest.hex(),
                    report.bogus_digest.hex(),
                ]
            )
        for accused, when in ledger.revocations:
            event_rows.append([run_idx, when, "revocation", "", accused, "", ""])
    event_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(out_dir / "events.csv", event_header, event_rows)
    return mean


def _write_effective_config(config: ScenarioConfig, n_runs: int, out_dir: Path) -> None:
    lines = []
    for section, keys in _SECTIONS.items():
        settings = config if section == "scenario" else getattr(config, section)
        if settings is not None:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {_fmt_exact(getattr(settings, key))}" for key in keys)
            lines.append("")
    lines.append(f"; replications: {n_runs}")
    (out_dir / "effective_config.ini").write_text("\n".join(lines) + "\n")


def _print_summary(mean: Dict[str, object]) -> None:
    print("scenario summary (mean over runs):")
    for key in SUMMARY_COLUMNS:
        if key in ("run",):
            continue
        print(f"  {key:<28}{_fmt(mean[key])}")


# -- subcommands ----------------------------------------------------------------


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {raw!r}")
    return workers


def cmd_run(args: argparse.Namespace) -> int:
    workers = _workers()
    config = load_config(args.config, args.set, args.seed)
    result = run_replications(config, args.runs, workers=workers)
    out_dir = Path(args.out)
    mean = export_replication(result, out_dir)
    _write_effective_config(config, args.runs, out_dir)
    _print_summary(mean)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    workers = _workers()
    if args.param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {args.param!r}; choose from {sorted(_SWEEP_PARAMS)}"
        )
    field_name = _SWEEP_PARAMS[args.param]
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    if args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    # Every swept config is loaded, and so validated, before any run.
    configs = [
        load_config(args.config, [*args.set, f"{field_name}={v}"], args.seed) for v in values
    ]
    labels = [_fmt_exact(getattr(config, field_name)) for config in configs]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"sweep values repeat: {', '.join(repeated)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    quantile_grid = [round(q / 100.0, 2) for q in range(0, 101)]
    combined_rows: List[List[object]] = []
    for config, label in zip(configs, labels):
        result = run_replications(config, args.runs, workers=workers)
        sub = out_dir / f"{args.param}={label}"
        export_replication(result, sub)
        _write_effective_config(config, args.runs, sub)
        for q in quantile_grid:
            combined_rows.append([args.param, label, q, result.pooled_quantile(q)])
        print(f"{args.param}={label}: done ({len(result.pooled_waiting)} pooled samples)")
    _write_csv(
        out_dir / "combined.csv",
        ["parameter", "value", "quantile", "waiting_time"],
        combined_rows,
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    try:
        params = DetectionParams(
            alpha=args.alpha,
            pr_check=args.pr_check,
            n_neighbors=args.neighbors,
            votes_needed=args.votes,
            n_messages=args.n_messages,
        )
        saturation = baseline_saturation(args.tau, args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    import numpy as np  # only analyze needs numpy; run and sweep never pay its import

    started = time.perf_counter()
    skip = pr_skip(params.pr_check, params.alpha)
    reveal = pr_reveal(params)
    exposure = list(range(1, 11))
    if params.n_messages not in exposure:
        exposure.append(params.n_messages)
    after_n = [(n, pr_reveal_after_n(reveal, n)) for n in exposure]
    mc = monte_carlo_reveal(params, args.trials, np.random.default_rng(args.seed))
    elapsed = time.perf_counter() - started

    rows: List[List[object]] = [
        ["pr_skip", skip, "", ""],
        ["pr_reveal", reveal, "", ""],
    ]
    for n, p in after_n:
        rows.append([f"pr_reveal_after_{n}", p, "", ""])
    rows.append(["baseline_saturation_neighbors", saturation, "", ""])
    rows.append(["monte_carlo_reveal", mc.estimate, mc.ci_low, mc.ci_high])
    rows.append(["monte_carlo_trials", float(mc.trials), "", ""])

    print(f"alpha={params.alpha} pr_check={params.pr_check} "
          f"N={params.n_neighbors} v={params.votes_needed}")
    print(f"  pr_skip                      {skip:.9g}")
    print(f"  pr_reveal                    {reveal:.9g}")
    for n, p in after_n:
        print(f"  pr_reveal_after_{n:<2}           {p:.9g}")
    print(f"  baseline_saturation (tau={args.tau:g}s, gamma={args.gamma:g}Hz)  {saturation:.9g}")
    print(f"  monte_carlo_reveal           {mc.estimate:.9g} "
          f"[{mc.ci_low:.9g}, {mc.ci_high:.9g}] ({mc.trials} trials)")
    print(f"  elapsed                      {elapsed:.3f}s")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "analysis.csv", ["name", "value", "ci_low", "ci_high"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopverif",
        description="Cooperative beacon verification: simulator and analytic toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario with replications")
    run_p.add_argument("--config", type=Path, default=None, help="INI config file")
    run_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--runs", type=int, default=5, help="replications (default 5)")
    run_p.add_argument("--seed", type=int, default=None, help="base seed override")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter, defaults elsewhere")
    sweep_p.add_argument("--config", type=Path, default=None)
    sweep_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sweep_p.add_argument("--param", required=True, help="N, pr_check, alpha, tau, gamma or scheme")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--runs", type=int, default=5)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    an_p = sub.add_parser("analyze", help="closed-form detection and saturation numbers")
    an_p.add_argument("--alpha", type=int, required=True)
    an_p.add_argument("--pr-check", type=float, required=True, dest="pr_check")
    an_p.add_argument("--neighbors", type=int, required=True)
    an_p.add_argument("--votes", type=int, required=True)
    an_p.add_argument("--n-messages", type=int, default=1, dest="n_messages")
    an_p.add_argument("--tau", type=float, default=0.005)
    an_p.add_argument("--gamma", type=float, default=10.0)
    an_p.add_argument("--trials", type=int, default=100_000)
    an_p.add_argument("--seed", type=int, default=1)
    an_p.add_argument("--out", default=".", help="directory for analysis.csv")
    an_p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
