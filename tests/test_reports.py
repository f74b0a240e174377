"""Every fixture's JSON report, minus timings, matches its committed golden.

The goldens in ``tests/golden/`` pin the analyzer's output byte for byte, so
a refactor that changes any bound, provenance, verdict or diagnostic fails
here.  Regenerate a golden only together with a change that is meant to
alter that report.
"""

import json
from pathlib import Path

import pytest

from polybound.cli import report_json

from conftest import FIXTURE_NAMES, analyzed_fixture

GOLDEN = Path(__file__).resolve().parent / "golden"


def report_text(name: str) -> str:
    report = report_json(analyzed_fixture(name), f"fixtures/{name}.its")
    del report["timings"]
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_matches_golden(name):
    assert report_text(name) == (GOLDEN / f"{name}.json").read_text()
