"""Timed passes over a workload, the solver health gate, and the metrics.

One process analyzes one program at a time with ``parse_program`` and
``analyze``; the bundled solver runs as one child process per query, one at
a time.  A pass analyzes every program of the workload once.  Passes repeat
until the run's time is spent, and each metric is the median over passes.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from polybound import AnalysisConfig, analyze, parse_program
from polybound.bounds import is_omega
from polybound.cli import report_json
from polybound.smt import SmtContext, int_script, real_script
from polybound import minismt

import oracle
from spans import Tracer, instrumented, self_times

SOLVER = [sys.executable, "-m", "polybound.minismt"]
# Reasons polybound.smt gives when the solver process itself broke down.
PROCESS_FAILURES = ("no verdict in solver output", "solver not found", "solver failed")
MIN_PASSES = 3  # the tail percentile is taken over this many passes
SETUP_SPACING_S = 3.0
SETUP_MIN_SAMPLES = 5
SETUP_CODE = "import polybound; polybound.smt.resolve_solver()"


class SolverHealthError(RuntimeError):
    """A query failed at the process level: the measurement is void."""


@dataclass
class GatedSmt(SmtContext):
    """The analysis' solver context, failing loudly on a broken solver.

    Without the gate a solver that cannot start makes every query
    ``unknown``, which looks like a fast run of hard programs.  With a
    tracer it also records a span per query and keeps the query so it can
    be replayed in-process afterwards.
    """

    tracer: Tracer | None = None
    asked: list = field(default_factory=list)

    def sat_int(self, f):
        return self._ask("int", f, 0, lambda: SmtContext.sat_int(self, f))

    def sat_real(self, constraints):
        return self._ask(
            "real", list(constraints), len(constraints),
            lambda: SmtContext.sat_real(self, constraints),
        )

    def _ask(self, kind, payload, size, ask):
        if self.tracer is None:
            result = ask()
        else:
            with self.tracer.span("smt.query", kind=kind, size=size) as record:
                result = ask()
            record.attrs.update(status=result.status, reason=result.reason)
            self.asked.append((kind, payload))
        if result.reason.startswith(PROCESS_FAILURES):
            raise SolverHealthError(
                f"{kind} query failed at the process level: {result.reason}"
            )
        return result


@dataclass
class Analysis:
    pid: str
    seconds: float
    cpu_s: float
    child_cpu_s: float
    result: object | None
    error: str | None


def cpu_times() -> tuple[float, float]:
    """User+sys CPU seconds of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def analyze_job(job, smt: GatedSmt, tracer: Tracer | None = None) -> Analysis:
    cfg = AnalysisConfig(twn_enabled=job.twn, ranking_enabled=job.ranking, smt=smt)
    result = error = None
    own0, kids0 = cpu_times()
    started = time.perf_counter()
    try:
        if tracer is None:
            result = analyze(parse_program(job.text), cfg)
        else:
            with tracer.span("program"):
                with tracer.span("ir.parse"):
                    program = parse_program(job.text)
                with tracer.span("engine.analyze"):
                    result = analyze(program, cfg)
    except SolverHealthError:
        raise
    except Exception as exc:  # an analysis that raises is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    own1, kids1 = cpu_times()
    return Analysis(job.pid, seconds, own1 - own0 + kids1 - kids0, kids1 - kids0,
                    result, error)


def run_pass(jobs, smt: GatedSmt, tracer: Tracer | None = None,
             between=None) -> list[Analysis]:
    """Analyze every job once; ``between`` runs after each, untimed."""
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.program = job.pid
        out.append(analyze_job(job, smt, tracer))
        if between is not None:
            between()
    return out


def report(analysis: Analysis) -> dict:
    """The CLI's JSON report without its timings, or the error raised."""
    if analysis.result is None:
        return {"program": analysis.pid, "error": analysis.error}
    body = report_json(analysis.result, analysis.pid)
    del body["timings"]
    return body


def digest(reports: list[dict]) -> str:
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class SetupTimer:
    """Wall time of a fresh interpreter importing polybound and resolving
    its solver, which every CLI call pays.  Samples are taken between
    analyses at least ``SETUP_SPACING_S`` apart, so the median spans the
    whole run rather than one moment of a shared machine's load."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = time.perf_counter()
        self.run()  # unmeasured: puts compiled bytecode in place

    def run(self) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                       stdout=subprocess.DEVNULL)
        self.last = time.perf_counter()
        return self.last - started

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_SPACING_S:
            self.samples.append(self.run())

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.samples.append(self.run())
        return statistics.median(self.samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it: its value,
    the percentile and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples; the tail needs at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def decided_share(analyses: list[Analysis]) -> float:
    decided = total = 0
    for a in analyses:
        if a.result is None:
            continue
        total += len(a.result.rb)
        decided += sum(not is_omega(b) for b in a.result.rb.values())
    return decided / total if total else 0.0


def soundness(jobs, analyses: list[Analysis], seed: int) -> dict[str, list[str]]:
    """Per program, the reasons it failed: an exception or bounds below an
    observed run.  Programs without a failure are left out."""
    failures: dict[str, list[str]] = {}
    for job, a in zip(jobs, analyses):
        if a.result is None:
            failures[job.pid] = [f"analysis raised {a.error}"]
            continue
        program = a.result.program
        found, _ = oracle.violations(program, a.result,
                                     oracle.initial_states(program, seed, job.pid))
        if found:
            failures[job.pid] = found
    return failures


def another_pass(deadline: float, started: float, done: int, minimum: int) -> bool:
    """Whether to start another pass: always below ``minimum``, after that
    only if a pass as long as the average one so far ends by ``deadline``.
    The run then ends on time instead of up to a whole pass late."""
    if done < minimum:
        return True
    now = time.perf_counter()
    return now + (now - started) / done <= deadline


@dataclass
class Outcome:
    """What one run measured, checked and concluded."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: dict[str, list[str]]
    correct: bool
    notes: list[str]
    reports: list[dict]
    tracers: list[Tracer] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(jobs, passes: list[list[Analysis]], seed: int):
    """Correctness of a run: every pass must give the same reports, and the
    first pass's results are checked against the oracle."""
    reports = [report(a) for a in passes[0]]
    same = all([report(a) for a in p] == reports for p in passes[1:])
    started = time.perf_counter()
    failures = soundness(jobs, passes[0], seed)
    return reports, same, failures, time.perf_counter() - started


def measure(jobs, seed: int, seconds: float) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    setup = SetupTimer()
    smt = GatedSmt(solver=SOLVER)
    passes: list[list[Analysis]] = []
    started = time.perf_counter()
    deadline = started + seconds
    while another_pass(deadline, started, len(passes), MIN_PASSES):
        passes.append(run_pass(jobs, smt, between=setup.maybe_sample))
    rss = peak_rss_mb()
    reports, same, failures, oracle_s = check(jobs, passes, seed)

    walls = [sum(a.seconds for a in p) for p in passes]
    cpus = [sum(a.cpu_s for a in p) for p in passes]
    kids = [sum(a.child_cpu_s for a in p) for p in passes]
    samples = [a.seconds for p in passes for a in p]
    tail_value, percentile, n = tail([a.seconds for p in passes[:MIN_PASSES] for a in p])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "program_s_p50": (statistics.median(samples), "s"),
        "program_s_tail": (tail_value, "s"),
        "decided_share": (decided_share(passes[0]), "share"),
        "setup_s": (setup.median(), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"passes {len(passes)}, programs {len(jobs)}",
        f"program_s_tail is p{percentile:.1f} of {n} samples (first {MIN_PASSES} passes)",
        f"cpu_s of which solver children {statistics.median(kids):.4f} s",
        f"setup_s is the median of {len(setup.samples)} samples",
        f"oracle_s {oracle_s:.4f} (not timed)",
    ]
    return Outcome(metrics, len(jobs), failures, same, notes, reports)


def replay_seconds(asked) -> float:
    """The traced queries solved again by ``minismt.run`` in this process."""
    total = 0.0
    for kind, payload in asked:
        script = int_script(payload) if kind == "int" else real_script(payload)
        started = time.perf_counter()
        minismt.run(script, io.StringIO())
        total += time.perf_counter() - started
    return total


LAYER_OF = {
    "smt.query": "smt",
    "ranking.synth": "ranking", "ranking.validate": "ranking",
    "twnbounds.loop": "twnbounds", "twnbounds.prove_termination": "twnbounds",
    "twnbounds.stabilization": "twnbounds", "twnbounds.dominance": "twnbounds",
    "twn.closed_form": "twnbounds",
    "sizebounds": "sizebounds",
    "ir.parse": "ir", "ir.graph": "ir",
    "engine.analyze": "engine", "engine.lift": "engine",
}

PER_LAYER_UNITS = {
    "smt.int.queries": "count", "smt.real.queries": "count", "smt.query_s": "s",
    "smt.unknown.timeout": "count", "smt.unknown.solver": "count",
    "smt.unknown.other": "count", "smt.solve_s": "s", "smt.overhead_s": "s",
    "smt.child_cpu_s": "s",
    "ranking.synth.calls": "count", "ranking.synth.found": "count",
    "ranking.synth.found_share": "share", "ranking.synth.self_s": "s",
    "ranking.lp_constraints": "count", "ranking.validate.calls": "count",
    "ranking.validate_s": "s",
    "twnbounds.loops": "count", "twnbounds.prove_termination_s": "s",
    "twnbounds.stabilization_s": "s", "twnbounds.dominance.calls": "count",
    "twnbounds.dominance_s": "s", "twn.closed_form_s": "s",
    "parse_s": "s", "graph_s": "s", "sizebounds.calls": "count",
    "sizebounds_s": "s", "engine.lift.calls": "count", "engine.self_s": "s",
    "oracle_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.layer_share": "share",
}


def layer_metrics(spans, own) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        selfs[s.name] = selfs.get(s.name, 0.0) + t
    queries = [s for s in spans if s.name == "smt.query"]
    unknown = [s.attrs["reason"] for s in queries if s.attrs["status"] == "unknown"]
    timeouts = sum(r.startswith("timeout") for r in unknown)
    solver_unknown = sum(r == "solver reported unknown" for r in unknown)
    found = sum(1 for s in spans if s.name == "ranking.synth" and s.attrs["found"])
    synth = calls.get("ranking.synth", 0)
    program = selfs.get("program", 0.0)
    wall = sum(s.duration for s in spans if s.name == "program")
    return {
        "smt.int.queries": sum(s.attrs["kind"] == "int" for s in queries),
        "smt.real.queries": sum(s.attrs["kind"] == "real" for s in queries),
        "smt.query_s": selfs.get("smt.query", 0.0),
        "smt.unknown.timeout": timeouts,
        "smt.unknown.solver": solver_unknown,
        "smt.unknown.other": len(unknown) - timeouts - solver_unknown,
        "ranking.synth.calls": synth,
        "ranking.synth.found": found,
        "ranking.synth.found_share": found / synth if synth else 0.0,
        "ranking.synth.self_s": selfs.get("ranking.synth", 0.0),
        "ranking.lp_constraints": sum(
            s.attrs["size"] for s in queries if s.attrs["kind"] == "real"
        ),
        "ranking.validate.calls": calls.get("ranking.validate", 0),
        "ranking.validate_s": selfs.get("ranking.validate", 0.0),
        "twnbounds.loops": calls.get("twnbounds.loop", 0),
        "twnbounds.prove_termination_s": selfs.get("twnbounds.prove_termination", 0.0),
        "twnbounds.stabilization_s": selfs.get("twnbounds.stabilization", 0.0),
        "twnbounds.dominance.calls": calls.get("twnbounds.dominance", 0),
        "twnbounds.dominance_s": selfs.get("twnbounds.dominance", 0.0),
        "twn.closed_form_s": selfs.get("twn.closed_form", 0.0),
        "parse_s": selfs.get("ir.parse", 0.0),
        "graph_s": selfs.get("ir.graph", 0.0),
        "sizebounds.calls": calls.get("sizebounds", 0),
        "sizebounds_s": selfs.get("sizebounds", 0.0),
        "engine.lift.calls": calls.get("engine.lift", 0),
        "engine.self_s": selfs.get("engine.analyze", 0.0) + selfs.get("engine.lift", 0.0),
        "trace.wall_s": wall,
        "trace.layer_share": 1.0 - program / wall if wall else 0.0,
    }


def layer_breakdown(spans, own, pid: str) -> tuple[dict[str, float], float]:
    """Self time per layer for one program, and the program's traced time."""
    layers: dict[str, float] = {}
    wall = 0.0
    for s, t in zip(spans, own):
        if s.program != pid:
            continue
        if s.name == "program":
            wall += s.duration
        else:
            layer = LAYER_OF[s.name]
            layers[layer] = layers.get(layer, 0.0) + t
    return layers, wall


def measure_traced(jobs, seed: int, seconds: float) -> Outcome:
    """Traced run: untraced and traced passes alternate; the per-layer
    metrics come from the traced ones, the tracing overhead from both."""
    plain = GatedSmt(solver=SOLVER)
    untraced_walls: list[float] = []
    passes: list[list[Analysis]] = []
    tracers: list[Tracer] = []
    per_pass: list[dict[str, float]] = []
    first_asked: list = []
    started = time.perf_counter()
    deadline = started + seconds
    while another_pass(deadline, started, len(passes), 2):
        untraced_walls.append(sum(a.seconds for a in run_pass(jobs, plain)))
        tracer = Tracer(len(tracers))
        traced = GatedSmt(solver=SOLVER, tracer=tracer)
        with instrumented(tracer):
            analyses = run_pass(jobs, traced, tracer)
        passes.append(analyses)
        tracers.append(tracer)
        values = layer_metrics(tracer.spans, self_times(tracer.spans))
        values["smt.child_cpu_s"] = sum(a.child_cpu_s for a in analyses)
        per_pass.append(values)
        first_asked = first_asked or traced.asked

    reports, same, failures, oracle_s = check(jobs, passes, seed)
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["smt.solve_s"] = replay_seconds(first_asked)
    metrics["smt.overhead_s"] = metrics["smt.query_s"] - metrics["smt.solve_s"]
    metrics["oracle_s"] = oracle_s
    untraced = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced

    notes = [
        f"passes {len(passes)} traced, {len(untraced_walls)} untraced",
        f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass "
        f"(traced wall_s {metrics['trace.wall_s']:.4f}, untraced {untraced:.4f})",
    ]
    own = self_times(tracers[0].spans)
    for job in jobs:
        layers, wall = layer_breakdown(tracers[0].spans, own, job.pid)
        covered = sum(layers.values())
        notes.append(
            f"self_s {job.pid}: "
            + " ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items()))
            + f" | layers {covered:.4f} of traced wall_s {wall:.4f}"
            + (f" ({100 * covered / wall:.2f}%)" if wall else "")
        )
    return Outcome({k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()},
                   len(jobs), failures, same, notes, reports, tracers)
