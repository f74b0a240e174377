"""Every fixture's JSON report, minus timings, matches its committed golden.

The goldens in ``tests/golden/`` pin the analyzer's output byte for byte, so
a refactor that changes any bound, provenance, verdict or diagnostic fails
here.  Regenerate a golden only together with a change that is meant to
alter that report.

The seed-1 and seed-7 programs of the benchmark's generated workloads are
pinned the same way, one golden per workload and seed: ``twn_loops`` reaches the chained,
nonterminating-witness and dominance paths that no fixture does.  At seeds 2,
3, 5 and 11 their reports are pinned by digest, under the workload's
configuration and the default one, so that a change which only reorders the
terms of some bounds, and leaves the seed-1 and seed-7 reports alone, fails.

The ranking systems the analyzer asks the solver to decide are pinned too,
row for row and in order, by digest: the simplex's vertex, and with it every
ranking function and bound, depends on each row's coefficients and place, but
a reordered or rescaled row changes a report only where it moves that vertex.
"""

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from polybound.cli import report_json
from polybound.engine import AnalysisConfig, analyze
from polybound.ir import parse_program
from polybound.smt import SmtContext

from conftest import FIXTURE_NAMES, analyzed_fixture, benchmark_jobs

GOLDEN = Path(__file__).resolve().parent / "golden"
# The solver the benchmark harness pins.
BUNDLED = [sys.executable, "-m", "polybound.minismt"]


def report_text(name: str) -> str:
    report = report_json(analyzed_fixture(name), f"fixtures/{name}.its")
    del report["timings"]
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_matches_golden(name):
    assert report_text(name) == (GOLDEN / f"{name}.json").read_text()


def workload_reports(workload: str, seed: int, default: bool = False,
                     smt: SmtContext | None = None) -> list[dict]:
    """The timing-free reports of a workload's programs, each analyzed under
    its workload configuration or, with ``default``, the default one, by
    ``smt`` or else a fresh context on the pinned solver."""
    reports = []
    for job in benchmark_jobs(workload, seed):
        twn, ranking = (True, True) if default else (job.twn, job.ranking)
        cfg = AnalysisConfig(twn_enabled=twn, ranking_enabled=ranking,
                             smt=smt or SmtContext(solver=BUNDLED))
        report = report_json(analyze(parse_program(job.text), cfg), job.pid)
        del report["timings"]
        reports.append(report)
    return reports


def workload_text(workload: str, seed: int) -> str:
    return json.dumps(workload_reports(workload, seed), indent=2) + "\n"


def workload_golden(workload: str, seed: int) -> Path:
    suffix = "" if seed == 1 else f"_seed{seed}"
    return GOLDEN / f"workload_{workload}{suffix}.json"


@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=workload if seed == 1 else f"{workload}-seed{seed}")
    for seed in (1, 7) for workload in ("ranking_wide", "twn_loops")
] + [pytest.param("fixtures", 1, id="fixtures")])
def test_workload_reports_match_golden(workload, seed):
    assert workload_text(workload, seed) == workload_golden(workload, seed).read_text()


def digest(value) -> str:
    """The sha256 digest of a JSON value, as perfbench/harness.py computes
    it of a run's reports."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


DIGESTS = json.loads((GOLDEN / "workload_digests.json").read_text())


@pytest.mark.parametrize("workload, seed, config", [
    (workload, seed, config)
    for workload in ("ranking_wide", "twn_loops")
    for seed in (2, 3, 5, 11)
    for config in ("workload", "default")
])
def test_workload_report_digests_match_golden(workload, seed, config):
    reports = workload_reports(workload, seed, default=config == "default")
    assert digest(reports) == DIGESTS[workload][str(seed)][config]


@dataclass
class SystemRecorder(SmtContext):
    """A solver context that keeps every ranking system it is asked to
    decide, as its rows in order: ``[[[unknown, coefficient], ...], const, rel]``."""

    systems: list = field(default_factory=list, init=False)

    def sat_real(self, constraints):
        self.systems.append([[[[v, str(k)] for v, k in row.coeffs], str(row.const), row.rel]
                             for row in constraints])
        return super().sat_real(constraints)


SYSTEM_DIGESTS = json.loads((GOLDEN / "ranking_systems.json").read_text())


@pytest.mark.parametrize("workload, seed, config", [
    ("fixtures", 1, "default"), ("ranking_wide", 1, "workload"), ("ranking_wide", 7, "workload"),
])
def test_ranking_systems_match_golden(workload, seed, config):
    smt = SystemRecorder(solver=BUNDLED)
    workload_reports(workload, seed, default=config == "default", smt=smt)
    assert smt.systems
    assert digest(smt.systems) == SYSTEM_DIGESTS[workload][str(seed)][config]
