"""Run one workload of the polybound benchmark from the repository root.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see README.md next to this file).  It prints one line
per metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The reports, their
digest and, when traced, the spans go to ``perfbench/out/``.

Exit codes: 0 measured; 2 the polybound sources or fixtures are missing;
3 a solver query failed at the process level, so nothing was measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
FAILURES_SHOWN = 3  # per failed program


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polybound" / "__init__.py").is_file():
        print(f"perfbench: no polybound sources under {SRC}", file=sys.stderr)
        return 2
    # The solver child is ``python -m polybound.minismt``; without this it
    # cannot import the package and every query would come back unknown.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import harness

    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    solver = " ".join(harness.SOLVER)
    measure = harness.measure_traced if args.trace else harness.measure
    try:
        outcome = measure(jobs, args.seed, args.seconds)
    except harness.SolverHealthError as exc:
        print(f"perfbench: solver health gate ({solver}): {exc}", file=sys.stderr)
        return 3

    digest = harness.digest(outcome.reports)
    failed = len(outcome.failures)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()}
    print(f"solver {solver} (PYTHONPATH {SRC})")
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} programs")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"failed_share {failed / outcome.attempted:.6g} "
          f"({failed} of {outcome.attempted} analyses)")
    for pid, reasons in outcome.failures.items():
        for reason in reasons[:FAILURES_SHOWN]:
            print(f"failure {pid}: {reason}")
        if len(reasons) > FAILURES_SHOWN:
            print(f"failure {pid}: ... {len(reasons) - FAILURES_SHOWN} more")
    if not outcome.correct:
        print("incorrect: passes of this run gave different reports")
    print(f"report_digest {args.workload} {digest}")
    for note in outcome.notes:
        print(note)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump({
            "workload": args.workload, "seed": args.seed, "solver": harness.SOLVER,
            "report_digest": digest, "metrics": metrics,
            "failures": outcome.failures, "reports": outcome.reports,
        }, out, indent=1)
    if args.trace:
        with open(OUT / f"{stem}.jsonl", "w", encoding="utf-8") as out:
            for tracer in outcome.tracers:
                tracer.write(out)

    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
