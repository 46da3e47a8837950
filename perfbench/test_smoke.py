"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs a tiny job list through the runner and its checks, checks that one
seed always generates byte-identical files, and that tracing restores every
attribute it wraps.
"""

import filecmp
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

numpy, scipy, energyshed, tracing, workloads = run._import_package()


@pytest.fixture
def runner(tmp_path):
    with open(run.REFERENCE) as fh:
        refs = json.load(fh)
    return run.Runner(energyshed.cli, workloads, str(tmp_path / "run"), refs)


def _tiny_round(tmp_path):
    _, jobs = workloads.make_round("cli-mix", run.ROOT, str(tmp_path), 3)
    keep = [next(j for j in jobs if j.command == cmd) for cmd in ("validate", "analyze")]
    keep.append(next(j for j in jobs if j.key.startswith("cli-mix/solve-p1/high/ok")))
    keep.append(next(j for j in jobs if j.key == "cli-mix/solve-p1/high/bad0"))
    return keep


def test_tiny_job_list_passes_checks(tmp_path, runner):
    jobs = _tiny_round(tmp_path)
    walls = runner.round(jobs).job_walls
    assert len(walls) == len(jobs) and all(w > 0 for w in walls)
    assert runner.failures == []


def test_check_catches_wrong_exit_and_cost(tmp_path, runner):
    job = next(j for j in _tiny_round(tmp_path) if j.command == "solve-p1"
               and j.expect_exit == 0)
    out = str(tmp_path / "out")
    code, _, _ = runner.call(job.argv, out)
    ref = dict(runner.refs[job.key])
    assert workloads.check(job, out, code, ref) is None
    assert "exit" in workloads.check(job, out, 3, ref)
    ref["cost"] *= 1.01
    assert "cost" in workloads.check(job, out, code, ref)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_files(tmp_path, name):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _, jobs_a = workloads.make_round(name, run.ROOT, str(a), 7)
    _, jobs_b = workloads.make_round(name, run.ROOT, str(b), 7)
    assert [j.key for j in jobs_a] == [j.key for j in jobs_b]
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_tracing_restores_and_adds_up(tmp_path, runner):
    before = [(mod, attr, getattr(mod, attr))
              for _, attr, users in tracing.TARGETS.values() for mod in users]
    jobs = [j for j in _tiny_round(tmp_path) if j.command == "solve-p1"]
    tracer = tracing.Tracer()
    with tracer:
        walls = runner.round(jobs, tracer).job_walls
    assert all(getattr(mod, attr) is value for mod, attr, value in before)
    assert runner.failures == []

    by_job = {}
    for s in tracer.spans:
        by_job.setdefault(s.job, []).append(s)
    assert len(by_job) == len(jobs)
    for spans in by_job.values():
        root = next(s for s in spans if s.parent is None)
        assert root.name == tracing.ROOT_SPAN
        total = sum(tracing.self_times(spans).values())
        assert total == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-9)

    m = run.layer_metrics(tracing, tracer.spans, walls)
    assert m["qpcore.solve_qp.calls"][0] == 2
    assert m["qpcore.solve_qp.nonconverged"][0] == 1
    assert m["qpcore.check_feasibility.calls"][0] == 1
    assert m["qpcore.factor.calls"][0] == m["qpcore.kkt_assembly.calls"][0] > 0
    assert m["unattributed_s"][0] >= 0.0
    listed = sum(m[k][0] for k in run.SELF_TIMES)
    assert listed + m["unattributed_s"][0] == pytest.approx(sum(walls))


def test_self_times_split_concurrent_children():
    class S:
        def __init__(self, sid, parent, start, end):
            self.id, self.parent, self.start, self.end = sid, parent, start, end

    spans = [S(0, None, 0.0, 10.0), S(1, 0, 1.0, 5.0), S(2, 0, 3.0, 7.0)]
    st = tracing.self_times(spans)
    # root alone on [0,1] and [7,10]; children alone on [1,3] and [5,7];
    # both children share [3,5]
    assert st == pytest.approx({0: 4.0, 1: 3.0, 2: 3.0})
