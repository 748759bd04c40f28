"""The reference docs match the code: the config block in
``docs/config_format.md`` loads as the defaults and names every key, and
``docs/output_schemas.md`` gives the columns every CSV is written with."""

import configparser
import re
from pathlib import Path

import pytest

from coopverif import AdversaryConfig, ScenarioConfig, run_scenario
from coopverif import cli

DOCS = Path(__file__).resolve().parents[1] / "docs"


def config_block():
    text = (DOCS / "config_format.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def schema_sections():
    """``docs/output_schemas.md`` split at its ``## file.csv`` headings."""
    parts = re.split(r"^## (\S+\.csv)\b.*$", (DOCS / "output_schemas.md").read_text(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def summary_columns(section):
    """The table's first column, ``a_x/y`` expanded to ``a_x, a_y``."""
    columns = []
    for name in re.findall(r"^\| *(\w[\w/]*) *\|", section, re.M)[1:]:  # [0] is the heading
        first, *rest = name.split("/")
        prefix = first.rsplit("_", 1)[0]
        columns += [first, *(f"{prefix}_{suffix}" for suffix in rest)]
    return columns


def documented_headers():
    headers = {}
    for name, section in schema_sections().items():
        if name == "summary.csv":
            headers[name] = summary_columns(section)
        else:
            first_span = re.search(r"`([^`]*)`", section).group(1)
            headers[name] = [col.strip() for col in first_span.split(",")]
    return headers


def test_config_block_loads_as_the_defaults(tmp_path):
    path = tmp_path / "documented.ini"
    path.write_text(config_block())
    assert cli.load_config(path) == ScenarioConfig(adversary=AdversaryConfig())


def test_config_block_names_every_key():
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.read_string(config_block())
    assert parser.sections() == list(cli._SECTIONS)
    for section, keys in cli._SECTIONS.items():
        assert list(parser[section]) == list(keys)


def test_summary_table_lists_the_summary_keys_in_order():
    ledger = run_scenario(ScenarioConfig(n_nodes=3, duration=1.0))
    assert summary_columns(schema_sections()["summary.csv"]) == list(ledger.summarize())


@pytest.fixture(scope="module")
def written_headers(tmp_path_factory):
    """First line of every CSV that ``run``, ``sweep`` and ``analyze`` write."""
    out = tmp_path_factory.mktemp("bundles")
    tiny = ["--runs", "1", "--seed", "1", "--set", "n_nodes=3", "--set", "duration=1"]
    assert cli.main(["run", "--out", str(out / "run"), *tiny]) == 0
    assert cli.main(["sweep", "--out", str(out / "sweep"), "--param", "alpha",
                     "--values", "2", *tiny]) == 0
    assert cli.main(["analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
                     "--votes", "5", "--trials", "100", "--out", str(out / "analyze")]) == 0
    headers = {}
    for path in sorted(out.rglob("*.csv")):
        with open(path, newline="") as fh:
            header = fh.readline().removesuffix("\r\n").split(",")
        assert headers.setdefault(path.name, header) == header  # run and sweep agree
    return headers


def test_every_written_csv_has_its_documented_header(written_headers):
    assert written_headers == documented_headers()
