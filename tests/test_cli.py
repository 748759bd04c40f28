"""End-to-end CLI tests: config handling, exports, determinism, exit codes."""

import csv
import filecmp
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coopverif.cli import (
    _CDF_ROW, _SECTIONS, _csv_line, _fmt, _wait_line, _write_effective_config,
    export_replication, load_config, main,
)
from coopverif.core import Digest80, NodeId
from coopverif.engine import ACCEPTED_KINDS, Disposition, DispositionKind
from coopverif.metrics import SUMMARY_COLUMNS, MetricsLedger, pool_replications
from coopverif.sim import ConfigError

SMALL = ["--set", "n_nodes=4", "--set", "duration=3", "--set", "seed=5"]


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigLoading:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert (cfg.n_nodes, cfg.pr_check, cfg.alpha) == (30, 0.2, 5)
        assert (cfg.tau, cfg.gamma, cfg.duration) == (0.005, 10.0, 120.0)
        assert (cfg.area_side, cfg.bitrate) == (200.0, 6e6)
        assert cfg.scheme == "cooperative"
        assert cfg.adversary is None

    def test_file_sections_and_overrides(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text(
            "[scenario]\n"
            "n_nodes = 12\n"
            "tau = 0.003\n"
            "scheme = baseline\n"
            "\n"
            "[adversary]\n"
            "gamma_adv = 5\n"
            "bogus_per_claim = 2\n"
            "\n"
            "[detection]\n"
            "votes_needed = 3\n"
        )
        cfg = load_config(ini, overrides=["n_nodes=20", "adversary.start_time=1.5"], seed=9)
        assert cfg.n_nodes == 20  # override beats file
        assert cfg.tau == 0.003
        assert cfg.scheme == "baseline"
        assert cfg.seed == 9
        assert cfg.adversary.gamma_adv == 5.0
        assert cfg.adversary.start_time == 1.5
        assert cfg.detection.votes_needed == 3

    def test_unknown_key_is_config_error(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[scenario]\nn_noodles = 4\n")
        with pytest.raises(ConfigError, match="n_noodles"):
            load_config(ini)

    def test_bad_value_reports_key(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[scenario]\nn_nodes = many\n")
        with pytest.raises(ConfigError, match="n_nodes"):
            load_config(ini)

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nx = 1\n")
        with pytest.raises(ConfigError, match="experiment"):
            load_config(ini)

    def test_adversary_enabled_by_override_alone(self):
        cfg = load_config(None, overrides=["adversary.gamma_adv=10"])
        assert cfg.adversary is not None

    @pytest.mark.parametrize("text, line", [
        ("[scenario]\nalpha = 5\nalph = 3\n", 3),
        ("[adversary]\ngamma_adv = 5\n[scenario]\ngamma = 5\nduration = 1\n"
         "[detection]\ngamma = 3\n", 7),
        ("[scenario]\nALPH: 3\n", 2),
    ], ids=["after-a-longer-key", "same-key-in-another-section", "upper-case-colon"])
    def test_unknown_key_is_located_by_section_and_name(self, text, line, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(ini)
        assert str(err.value).endswith(f" ({ini}:{line})")

    @pytest.mark.parametrize("items", [
        ["N_NODES=5"],
        ["scheme= baseline "],
        ["scheme=50%"],
        ["n_nodes=3", "seed=%(n_nodes)s"],
    ], ids=["upper-case-key", "padded-value", "percent", "interpolation-syntax"])
    def test_file_and_overrides_read_the_same(self, items, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text("[scenario]\n" + "".join(f"{item}\n" for item in items))

        def read(*args):
            try:
                return load_config(*args)
            except ConfigError:
                return ConfigError

        assert read(ini) == read(None, items)

    @pytest.mark.parametrize("content, named", [
        (b"[scenario]\nn_nodes = 5%\n", "n_nodes"),
        (b"[scenario]\n; caf\xe9\nn_nodes = 5\n", "bad.ini"),
    ], ids=["lone-percent", "latin-1-comment"])
    def test_unreadable_value_or_encoding_exits_2(self, content, named, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(content)
        rc = main(["run", "--config", str(ini), "--out", str(tmp_path / "o"), "--runs", "1"])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_byte_order_mark_is_not_read_as_text(self, tmp_path):
        text = "[scenario]\nn_nodes = 7\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain)
        assert load_config(plain).n_nodes == 7


# Text and typed value of a valid setting for every key of the schema.
def _number(kind, **bounds):
    return kind(**bounds).map(lambda v: (repr(v), v))


_BOOLEANS = st.sampled_from([("true", True), ("False", False), ("1", True), ("off", False)])
_POSITIVE = _number(st.floats, min_value=1e-6, max_value=1e6)
_UNIT = _number(st.floats, min_value=0.0, max_value=1.0)
_SETTINGS = {
    ("scenario", "n_nodes"): _number(st.integers, min_value=1, max_value=500),
    ("scenario", "pr_check"): _UNIT,
    ("scenario", "alpha"): _number(st.integers, min_value=0, max_value=255),
    ("scenario", "tau"): _POSITIVE,
    ("scenario", "gamma"): _POSITIVE,
    ("scenario", "scheme"): st.sampled_from(["baseline", "cooperative"]).map(lambda v: (v, v)),
    ("scenario", "duration"): _POSITIVE,
    ("scenario", "area_side"): _POSITIVE,
    ("scenario", "bitrate"): _POSITIVE,
    ("scenario", "seed"): _number(st.integers, min_value=0, max_value=2**63),
    ("scenario", "loss_prob"): _UNIT,
    ("scenario", "record_all_nodes"): _BOOLEANS,
    ("scenario", "audit"): _BOOLEANS,
    ("adversary", "gamma_adv"): _POSITIVE,
    ("adversary", "bogus_per_claim"): _number(st.integers, min_value=0, max_value=255),
    ("adversary", "start_time"): _number(st.floats, min_value=0.0, max_value=1e6),
    ("detection", "votes_needed"): _number(st.integers, min_value=1, max_value=100),
    ("detection", "blacklist_rejected"): _BOOLEANS,
}


@st.composite
def valid_settings(draw):
    """A random subset of the schema's keys with valid text values."""
    pairs = draw(st.fixed_dictionaries({}, optional=_SETTINGS))
    bogus = ("adversary", "bogus_per_claim")
    alpha = pairs.get(("scenario", "alpha"), (None, 5))[1]
    adversary = any(section == "adversary" for section, _ in pairs)
    if bogus in pairs or (adversary and alpha < 5):  # bogus_per_claim (default 5) <= alpha
        pairs[bogus] = draw(_number(st.integers, min_value=0, max_value=alpha))
    return pairs


class TestOneParsePath:
    def test_settings_cover_the_schema(self):
        assert set(_SETTINGS) == {(sec, key) for sec, keys in _SECTIONS.items() for key in keys}

    @settings(deadline=None, max_examples=200)
    @given(valid_settings(), st.sampled_from(["", " ", "  ", "\t"]))
    def test_file_overrides_and_effective_config_agree(self, pairs, pad):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "scenario.ini"
            ini.write_text("".join(
                f"[{section}]\n" + "".join(
                    f"{key} = {text}\n" for (sec, key), (text, _) in pairs.items() if sec == section
                )
                for section in dict.fromkeys(sec for sec, _ in pairs)
            ))
            from_file = load_config(ini)
            from_set = load_config(None, [
                f"{'' if sec == 'scenario' else sec + '.'}{key.upper()}={pad}{text}{pad}"
                for (sec, key), (text, _) in pairs.items()
            ])
            _write_effective_config(from_file, 1, Path(tmp))
            from_effective = load_config(Path(tmp) / "effective_config.ini")
        assert from_file == from_set == from_effective
        for (section, key), (_, value) in pairs.items():
            holder = from_file if section == "scenario" else getattr(from_file, section)
            assert getattr(holder, key) == value
            assert type(getattr(holder, key)) is type(value)
        assert (from_file.adversary is None) == all(sec != "adversary" for sec, _ in pairs)


class TestRunCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--out", str(out), "--runs", "2", *SMALL])
        assert rc == 0
        for name in (
            "summary.csv",
            "waiting_times.csv",
            "cdf.csv",
            "timeseries.csv",
            "events.csv",
            "effective_config.ini",
        ):
            assert (out / name).exists(), name
        rows = read_csv(out / "summary.csv")
        assert rows[0] == SUMMARY_COLUMNS
        assert len(rows) == 1 + 2 + 1  # header, two runs, mean row
        assert rows[-1][0] == "mean"

    def test_cdf_is_sorted_with_quantiles(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--out", str(out), "--runs", "2", *SMALL])
        rows = read_csv(out / "cdf.csv")[1:]
        values = [float(r[0]) for r in rows]
        probs = [float(r[1]) for r in rows]
        assert values == sorted(values)
        assert probs[-1] == pytest.approx(1.0)
        assert all(0 < p <= 1 for p in probs)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run", "--runs", "2", *SMALL]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        for name in ("summary.csv", "waiting_times.csv", "cdf.csv", "timeseries.csv", "events.csv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--out", str(out1), "--runs", "1", "--seed", "1", *SMALL])
        main(["run", "--out", str(out2), "--runs", "1", "--seed", "2", *SMALL])
        assert not filecmp.cmp(out1 / "cdf.csv", out2 / "cdf.csv", shallow=False)

    def test_short_run_counts(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "run", "--out", str(out), "--runs", "1",
            "--set", "n_nodes=2", "--set", "duration=1", "--set", "seed=3",
        ])
        assert rc == 0
        rows = read_csv(out / "summary.csv")
        header, run0 = rows[0], rows[1]
        receptions = int(run0[header.index("receptions")])
        assert receptions <= 10  # one neighbour at 10 Hz for one second

    def test_effective_config_reproduces_the_run_config(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "run", "--out", str(out), "--runs", "1", "--set", "n_nodes=3",
            "--set", "duration=1", "--set", "tau=0.00512345678912",
            "--set", "adversary.gamma_adv=7.25", "--set", "detection.blacklist_rejected=true",
        ])
        assert rc == 0
        assert "tau = 0.00512345678912\n" in (out / "effective_config.ini").read_text()
        expected = load_config(None, [
            "n_nodes=3", "duration=1", "tau=0.00512345678912",
            "adversary.gamma_adv=7.25", "detection.blacklist_rejected=true",
        ])
        assert load_config(out / "effective_config.ini") == expected

    def test_malformed_config_exits_2(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[scenario]\nn_nodes = -3\n")
        rc = main(["run", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_finite_value_exits_2(self, tmp_path):
        rc = main(["run", "--out", str(tmp_path / "o"), "--runs", "1", "--set", "gamma=nan"])
        assert rc == 2

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal invariant")

        monkeypatch.setattr("coopverif.cli.run_replications", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            main(["run", "--out", str(tmp_path / "o"), "--runs", "1", *SMALL])
        assert "configuration error" not in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["run", "--out", str(blocker / "sub"), "--runs", "1", *SMALL])
        assert rc == 3


class TestSweepCommand:
    def test_sweep_produces_per_value_dirs_and_combined(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--param", "N", "--values", "3,5", "--out", str(out),
            "--runs", "2", "--set", "duration=3", "--set", "seed=5",
        ])
        assert rc == 0
        assert (out / "N=3" / "summary.csv").exists()
        assert (out / "N=5" / "summary.csv").exists()
        rows = read_csv(out / "combined.csv")
        assert rows[0] == ["parameter", "value", "quantile", "waiting_time"]
        assert len(rows) == 1 + 2 * 101
        values = {r[1] for r in rows[1:]}
        assert values == {"3", "5"}

    def test_single_value_sweep_matches_run(self, tmp_path):
        run_out = tmp_path / "run"
        sweep_out = tmp_path / "sweep"
        main(["run", "--out", str(run_out), "--runs", "2", *SMALL])
        main([
            "sweep", "--param", "N", "--values", "4", "--out", str(sweep_out),
            "--runs", "2", "--set", "duration=3", "--set", "seed=5",
        ])
        for name in ("summary.csv", "waiting_times.csv", "cdf.csv", "timeseries.csv", "events.csv"):
            assert filecmp.cmp(run_out / name, sweep_out / "N=4" / name, shallow=False), name

    def test_scheme_sweep(self, tmp_path):
        out = tmp_path / "schemes"
        rc = main([
            "sweep", "--param", "scheme", "--values", "baseline,cooperative",
            "--out", str(out), "--runs", "1", "--set", "duration=2",
            "--set", "n_nodes=4", "--set", "seed=1",
        ])
        assert rc == 0
        assert (out / "scheme=baseline").is_dir()
        assert (out / "scheme=cooperative").is_dir()

    def test_values_are_stripped_of_whitespace(self, tmp_path):
        common = ["--runs", "1", "--set", "duration=2", "--set", "n_nodes=4", "--set", "seed=1"]
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        assert main(["sweep", "--param", "scheme", "--values", "cooperative,baseline",
                     "--out", str(plain), *common]) == 0
        assert main(["sweep", "--param", "scheme", "--values", " cooperative, baseline ",
                     "--out", str(spaced), *common]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == ["combined.csv", "scheme=baseline", "scheme=cooperative"]
        assert sorted(p.name for p in spaced.iterdir()) == names
        assert filecmp.cmp(plain / "combined.csv", spaced / "combined.csv", shallow=False)

    def test_unknown_param_exits_2(self, tmp_path):
        rc = main(["sweep", "--param", "bogosity", "--values", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_every_value_validated_before_any_run(self, tmp_path):
        # alpha=256 does not fit the encoding's one-byte claimed-digest count.
        for param, good, bad in (("tau", "0.005", "0"), ("alpha", "5", "256")):
            out = tmp_path / param
            rc = main([
                "sweep", "--param", param, "--values", f"{good},{bad}", "--out", str(out),
                "--runs", "1", "--set", "n_nodes=3", "--set", "duration=1",
            ])
            assert rc == 2
            assert not (out / f"{param}={good}").exists()

    @pytest.mark.parametrize(
        "bad", [["--values", "0.1,0.10"], ["--values", "0.1,0.2", "--runs", "0"]]
    )
    def test_repeated_values_or_no_runs_write_nothing(self, bad, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--param", "pr_check", "--out", str(out),
            "--set", "n_nodes=3", "--set", "duration=1", *bad,
        ])
        assert rc == 2
        assert not out.exists()

    def test_values_apart_below_nine_digits_get_their_own_dirs(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--param", "pr_check", "--values", "0.1,0.1000000001", "--out", str(out),
            "--runs", "1", "--set", "n_nodes=3", "--set", "duration=1",
        ])
        assert rc == 0
        assert (out / "pr_check=0.1").is_dir()
        assert (out / "pr_check=0.1000000001").is_dir()
        labels = [r[1] for r in read_csv(out / "combined.csv")[1:]]
        assert labels == ["0.1"] * 101 + ["0.1000000001"] * 101


class TestAnalyzeCommand:
    def test_reference_point(self, tmp_path, capsys):
        rc = main([
            "analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
            "--votes", "5", "--out", str(tmp_path), "--trials", "20000", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pr_reveal" in out
        rows = read_csv(tmp_path / "analysis.csv")
        table = {r[0]: r[1:] for r in rows[1:]}
        assert float(table["pr_skip"][0]) == pytest.approx(0.59049, rel=1e-9)
        assert float(table["pr_reveal"][0]) == pytest.approx(0.8041228205, abs=1e-9)
        assert float(table["baseline_saturation_neighbors"][0]) == pytest.approx(20.0)
        mc, lo, hi = (float(x) for x in table["monte_carlo_reveal"])
        assert lo <= 0.8041228205 <= hi
        after3 = float(table["pr_reveal_after_3"][0])
        assert after3 == pytest.approx(0.99248461, abs=1e-6)

    def test_analysis_csv_deterministic(self, tmp_path):
        args = [
            "analyze", "--alpha", "4", "--pr-check", "0.3", "--neighbors", "20",
            "--votes", "4", "--trials", "10000", "--seed", "7",
        ]
        d1, d2 = tmp_path / "x", tmp_path / "y"
        d1.mkdir(), d2.mkdir()
        main([*args, "--out", str(d1)])
        main([*args, "--out", str(d2)])
        assert filecmp.cmp(d1 / "analysis.csv", d2 / "analysis.csv", shallow=False)

    def test_float_format_nine_significant_digits(self, tmp_path):
        main([
            "analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
            "--votes", "5", "--out", str(tmp_path), "--trials", "1000",
        ])
        rows = read_csv(tmp_path / "analysis.csv")
        value = dict((r[0], r[1]) for r in rows[1:])["pr_reveal"]
        assert value == f"{0.8041228205076918:.9g}"

    @pytest.mark.parametrize(
        "bad",
        [["--pr-check", "1.5"], ["--trials", "0"], ["--tau", "0"], ["--tau", "nan"],
         ["--seed", "-1"], ["--alpha", "1500001"]],
    )
    def test_bad_arguments_exit_2_before_computing(self, bad, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before the arguments were checked")

        monkeypatch.setattr("coopverif.cli.pr_reveal", must_not_run)
        args = ["analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
                "--votes", "5", "--out", str(tmp_path), *bad]
        assert main(args) == 2
        assert not (tmp_path / "analysis.csv").exists()

    def test_requested_exposure_count_reported(self, tmp_path):
        main([
            "analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
            "--votes", "5", "--n-messages", "25", "--out", str(tmp_path),
            "--trials", "1000",
        ])
        rows = read_csv(tmp_path / "analysis.csv")
        table = {r[0]: r[1] for r in rows[1:]}
        assert "pr_reveal_after_25" in table
        p1 = float(table["pr_reveal_after_1"])
        p25 = float(table["pr_reveal_after_25"])
        assert p25 == pytest.approx(1 - (1 - p1) ** 25, rel=1e-9)


class TestWorkers:
    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_worker_count_below_one_exits_2_before_any_run(self, raw, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran with a worker count below one")

        monkeypatch.setenv("COOPVERIF_WORKERS", raw)
        monkeypatch.setattr("coopverif.cli.run_replications", must_not_run)
        assert main(["run", "--out", str(tmp_path / "run"), "--runs", "1", *SMALL]) == 2
        assert main(["sweep", "--param", "N", "--values", "3,4", "--out", str(tmp_path / "sweep"),
                     "--runs", "1", *SMALL]) == 2
        assert not (tmp_path / "run").exists() and not (tmp_path / "sweep").exists()


# Finite floats where ``%.9g`` output is easy to get wrong: signed zero,
# subnormals, exponent switches and ties at the ninth significant digit.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-7, 1e-5, 1e-4, 1e16, 1e17,
    1.0000000005, 0.1234567895, 2.5e-9, 99999999.95, 999999999.5, 1e9, 9999999995.0,
    1.7976931348623157e308,
]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
ids = st.integers(min_value=0, max_value=2**63)
# Every kind of cell the CLI writes: NaN (written empty), empty strings,
# ints, floats, hex digests, outcome and event names, scheme names and
# sweep labels.
cells = st.one_of(
    st.just(math.nan), st.just(""), ids, st.integers(), finite_floats,
    st.binary(min_size=10, max_size=10).map(bytes.hex),
    st.sampled_from([k.value for k in DispositionKind]),
    st.sampled_from(["report", "revocation", "baseline", "cooperative", "N", "tau",
                     "pr_reveal_after_3", "0.00512345678912", "1e-05", "mean"]),
)


def csv_line(row) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([_fmt(v) for v in row])
    return buf.getvalue()


def synthetic_result(rows_per_run: int, runs: int = 1):
    """Hand-built ledgers holding every node's rows, as with record_all_nodes."""
    kinds = list(DispositionKind)
    senders = [NodeId(i) for i in range(30)]
    ledgers = []
    for run in range(runs):
        ledger = MetricsLedger(seed=run, scheme="cooperative", duration=10.0, record_all=True)
        ledger.queue_len_samples = [0] * 11
        for i in range(rows_per_run):
            enqueue = i * 1e-4
            disp = Disposition(kinds[i % len(kinds)], Digest80(i.to_bytes(10, "big")),
                               senders[(i + 1) % 30], enqueue, enqueue + (i % 97) * 1e-3, True)
            ledger.records.append((i % 30, disp))
            if i % 30 == 0 and disp.outcome in ACCEPTED_KINDS:
                ledger.accepted_rows.append(disp)  # as record_disposition indexes node 0's
        ledgers.append(ledger)
    return pool_replications(ledgers)


class TestStreamingExport:
    @given(ids, ids, st.binary(min_size=10, max_size=10), ids, finite_floats, finite_floats,
           st.sampled_from(DispositionKind))
    def test_wait_line_matches_csv_writer(self, run, node, digest, sender, enqueue, leave, kind):
        disp = Disposition(kind, Digest80(digest), NodeId(sender), enqueue, leave, True)
        row = [run, node, disp.digest.hex(), disp.sender.id, disp.enqueue_time,
               disp.outcome.value, disp.leave_queue_time, disp.waiting_time]
        assert _wait_line(run, node, disp) == csv_line(row)

    @given(st.lists(cells, min_size=2, max_size=8))
    def test_csv_line_matches_csv_writer(self, row):
        assert _csv_line(row) == csv_line(row)

    @given(finite_floats, finite_floats)
    def test_cdf_row_matches_csv_writer(self, waiting, cum_prob):
        assert _CDF_ROW % (waiting, cum_prob) == csv_line([waiting, cum_prob])

    def test_export_memory_does_not_grow_with_the_row_count(self, tmp_path):
        def traced_peak(result, out):
            tracemalloc.start()
            try:
                export_replication(result, out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(synthetic_result(20_000), tmp_path / "small")
        large = traced_peak(synthetic_result(100_000), tmp_path / "large")
        assert len(read_csv(tmp_path / "large" / "waiting_times.csv")) == 1 + 100_000
        assert large - small < 1 << 20

    def test_export_summarizes_each_run_once(self, tmp_path, monkeypatch):
        calls = []
        summarize = MetricsLedger.summarize

        def counting(ledger, run_index=0):
            calls.append(run_index)
            return summarize(ledger, run_index)

        monkeypatch.setattr(MetricsLedger, "summarize", counting)
        export_replication(synthetic_result(100, runs=3), tmp_path / "export")
        assert calls == [0, 1, 2]
        calls.clear()
        assert main(["run", "--out", str(tmp_path / "run"), "--runs", "2", *SMALL]) == 0
        assert calls == [0, 1]
