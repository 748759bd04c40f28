"""The package root exports exactly the names of the README's library example."""

import re
from pathlib import Path

import coopverif

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example_imports():
    section = README.read_text().split("## Library", 1)[1]
    names = re.search(r"from coopverif import \(([^)]*)\)", section).group(1)
    return {name.strip() for name in names.split(",") if name.strip()}


def test_root_exports_the_library_example_names():
    assert set(coopverif.__all__) == library_example_imports()
    for name in coopverif.__all__:
        assert getattr(coopverif, name).__name__ == name
