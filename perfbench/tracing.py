"""Spans around calls into the energyshed modules, taken from outside.

``Tracer.install()`` replaces the module attributes that ``energyshed.cli``,
``energyshed.policy``, ``energyshed.problems`` and ``energyshed.qpcore``
look up at call time with timing wrappers, and ``Tracer.restore()`` puts
the originals back.  The package itself is not modified.  ``qpcore`` reaches
SuperLU and KKT assembly through ``scipy.sparse.linalg.splu`` and
``scipy.sparse.bmat``; those two attributes are wrapped too, and ``splu``
returns a proxy whose ``solve`` (the triangular solves) is timed.

A span records name, start, end, parent span, job id and thread.  Spans are
kept in memory; ``dump`` writes them out at the end of a run.  A span
opened on a worker thread with no open span of its own (the P4 thread
pool) takes the innermost open span of the job's thread as parent.

Self time is attributed by slicing wall time: each instant of a job is
split equally among the spans active at that instant that have no active
child.  So a span's self time is its duration minus the part its children
cover, concurrent children share the instant, and the self times of one
job's spans add up to the job's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time

import scipy.sparse
import scipy.sparse.linalg

import energyshed.analytic as analytic
import energyshed.cli as cli
import energyshed.netmodel as netmodel
import energyshed.policy as policy
import energyshed.problems as problems
import energyshed.qpcore as qpcore

ROOT_SPAN = "cli.main"

# span name -> (module defining the function, attribute, modules whose
# globals are rebound to the wrapper)
TARGETS = {
    "netmodel.load_scenario": (netmodel, "load_scenario", (cli,)),
    "netmodel.validate_scenario": (netmodel, "validate_scenario", (cli, problems)),
    "analytic.capacity_curve": (analytic, "capacity_curve", (cli,)),
    "problems.build_p1": (problems, "build_p1", (cli, policy, problems)),
    "problems.extract_report": (problems, "extract_report", (cli, policy, problems)),
    "problems.evaluate_f_tau": (problems, "evaluate_f_tau", (policy,)),
    "policy.baseline": (policy, "baseline", (cli, policy)),
    "policy.solve_p2": (policy, "solve_p2", (cli,)),
    "policy.solve_p4": (policy, "solve_p4", (cli, policy)),
    "policy.pareto_front": (policy, "pareto_front", (cli,)),
    "qpcore.solve_qp": (qpcore, "solve_qp", (cli, policy, problems)),
    "qpcore.check_feasibility": (qpcore, "check_feasibility", (policy, qpcore)),
    "qpcore.kkt_assembly": (scipy.sparse, "bmat", (scipy.sparse,)),
    "qpcore.factor": (scipy.sparse.linalg, "splu", (scipy.sparse.linalg,)),
}
TRISOLVE_SPAN = "qpcore.trisolve"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "thread", "attrs")

    def __init__(self, sid, name, start, parent, job, thread):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.thread = thread
        self.attrs = None

    def to_json(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job,
                "thread": self.thread, "attrs": self.attrs}


class _LUProxy:
    """SuperLU factor whose solve() calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        span = self._tracer.open(TRISOLVE_SPAN)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _attrs_for(name, args, result):
    """Counts recorded on a span from its call's arguments and result."""
    if name == "qpcore.factor":
        K = args[0]
        return {"kkt_dim": int(K.shape[0]), "kkt_nnz": int(K.nnz),
                "lu_nnz": int(result.nnz)}
    if name == "qpcore.solve_qp":
        return {"iterations": int(result.iterations), "status": result.status}
    if name in ("policy.solve_p2", "policy.solve_p4"):
        return {"probes": int(result.probes)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job = None
        self._job_stack = None
        self._saved = []

    # -- recording ------------------------------------------------------
    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            job_stack = self._job_stack
            parent = job_stack[-1] if job_stack else None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        parent.id if parent is not None else None,
                        self._job, threading.get_ident())
            self.spans.append(span)
        st.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        st = self._stack()
        if st and st[-1] is span:
            st.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        """The root span of one CLI job; spans opened inside carry job_id."""
        self._job = job_id
        self._job_stack = self._stack()
        span = self.open(ROOT_SPAN)
        try:
            yield span
        finally:
            self.close(span)
            self._job = None
            self._job_stack = None

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        factor = name == "qpcore.factor"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs = _attrs_for(name, args, result)
            return _LUProxy(result, tracer) if factor else result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (home, attr, users) in TARGETS.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in users:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def self_times(spans):
    """{span id: self seconds} for the spans of one job (time-sliced)."""
    events = []
    for s in spans:
        events.append((s.start, 1, s.id))
        events.append((s.end, 0, s.id))
    events.sort()
    by_id = {s.id: s for s in spans}
    active_children = {s.id: 0 for s in spans}
    active = set()
    leaves = set()
    self_s = {s.id: 0.0 for s in spans}
    prev = None
    for t, is_start, sid in events:
        if prev is not None and leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        prev = t
        parent = by_id[sid].parent
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return self_s
