"""Spans and counters recorded around calls into the program's modules.

The program is not edited: while `Tracer.installed()` is active, timing and
counting wrappers replace the names in the module namespaces that the
pipeline looks up at call time (`compile_model` calls `reward_matrix`,
`sim.run` calls `step`, and so on). Names a later version of the program
no longer has are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import obd.compiler
import obd.sim

# (namespace, attribute, span name): one span per call.
SPANS = (
    (obd.compiler, "enumerate_states", "compiler.enumerate"),
    (obd.compiler, "explicit_event_matrix", "compiler.event_matrices"),
    (obd.compiler, "occurrence_vector", "compiler.event_matrices"),
    (obd.compiler, "effective_event_matrix", "compiler.event_matrices"),
    (obd.compiler, "events_matrix", "compiler.event_product"),
    (obd.compiler, "explicit_action_matrix", "compiler.action_matrices"),
    (obd.compiler, "implicit_action_matrix", "compiler.implicit"),
    (obd.compiler, "reward_matrix", "compiler.reward"),
    (obd.compiler.MdpModel, "transition_csr", "solver.export"),
    (obd.compiler.MdpModel, "reward_csr", "solver.export"),
)
# Called too often for a span each: a count only.
COUNTS = (
    (obd.compiler, "update_action", "reqauto.update_calls"),
    (obd.compiler, "update_event", "reqauto.update_calls"),
    (obd.compiler, "requirement_reward", "reqauto.reward_calls"),
)
# Called too often for a span each: a count and the summed time.
TIMERS = (
    (obd.sim, "step", "sim.step"),
    (obd.sim, "plan", "sim.plan"),
)


def _nnz(matrix) -> int:
    nnz = matrix.nnz
    return nnz() if callable(nnz) else nnz


class Tracer:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.events_nnz = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "compiler.event_product":
                self.events_nnz = _nnz(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += clock() - t0
                self.counts[name] += 1
        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for table, wrap in ((SPANS, self._spanned),
                                (COUNTS, self._counted),
                                (TIMERS, self._timed)):
                for owner, attr, name in table:
                    if attr in vars(owner):
                        original = vars(owner)[attr]
                        saved.append((owner, attr, original))
                        setattr(owner, attr, wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, first: int = 0, parent=None) -> defaultdict:
        """Seconds per span name over spans[first:], optionally only the
        direct children of span index `parent`."""
        out: defaultdict = defaultdict(float)
        for name, start, end, up in self.spans[first:]:
            if parent is None or up == parent:
                out[name] += end - start
        return out

    def find(self, name: str, first: int = 0) -> int:
        """Index of the first span called `name` at or after `first`."""
        for i in range(first, len(self.spans)):
            if self.spans[i][0] == name:
                return i
        raise KeyError(name)

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def write(self, path) -> None:
        doc = {"spans": self.spans, "counts": dict(self.counts),
               "seconds": dict(self.seconds)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
