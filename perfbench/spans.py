"""Spans recorded around calls into polybound's layers, kept in memory.

A span is a name, a start and an end, the span that was open when it
started, and the program being analyzed; one tracer records one pass.
Calls are wrapped where they are made: ``engine`` imports ``synthesize_lrf``
by name, so the wrapper replaces ``engine.synthesize_lrf`` and not only
``ranking.synthesize_lrf``.  Nothing inside the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _found(result) -> dict:
    return {"found": result is not None}


# (module, name as that module calls it, span name, attributes of the result)
TARGETS = (
    ("polybound.engine", "sccs", "ir.graph", None),
    ("polybound.engine", "entry_transitions", "ir.graph", None),
    ("polybound.engine", "size_bounds_for_scc", "sizebounds", None),
    ("polybound.engine", "synthesize_lrf", "ranking.synth", _found),
    ("polybound.engine", "lift_local_bound", "engine.lift", None),
    ("polybound.engine", "analyze_self_loop", "twnbounds.loop", None),
    ("polybound.ranking", "validate_rf", "ranking.validate", None),
    ("polybound.twnbounds", "closed_form", "twn.closed_form", None),
    ("polybound.twnbounds", "prove_termination", "twnbounds.prove_termination", None),
    ("polybound.twnbounds", "stabilization_bound", "twnbounds.stabilization", None),
    ("polybound.twnbounds", "dominance_threshold", "twnbounds.dominance", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    program: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, pass_no: int = 0) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.program: str | None = None
        self.pass_no = pass_no

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = Span(name, 0.0, 0.0, parent, self.program, attrs)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, describe=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if describe is not None:
                record.attrs.update(describe(result))
            return result

        return wrapped

    def write(self, out) -> None:
        """One JSON line per span; ids and parents count within the pass."""
        for i, s in enumerate(self.spans):
            out.write(json.dumps({
                "pass": self.pass_no, "id": i, "name": s.name, "start": s.start,
                "end": s.end, "parent": s.parent, "program": s.program, **s.attrs,
            }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name, describe in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, describe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
