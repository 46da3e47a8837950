"""energyshed benchmark: CLI jobs per workload, end-to-end or traced.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from the checkout's ``src/``,
so the code measured is the code in the tree, installed or not.  The job
loop is closed with one client: each ``energyshed.cli.main(argv)`` call
starts when the previous one and its output check have finished.

Set-up (``setup_s``) is the import CPU time, plus the median of three set-up
passes, plus one warm-up.  A pass writes the workload's scenario and input
files, then loads and validates every scenario.  The warm-up runs
``solve-p1 --x-min 0`` on each scenario, which must exit 0; it checks the
generated scenarios and is the untimed warm-up job.

The timed phase repeats the workload's round.  The first round's wall
time sets how many rounds fill ``--seconds``; every round has the same
jobs, so the metrics do not depend on where the deadline falls.

End-to-end times are CPU time of this process (``time.process_time``,
all threads), set-up included.  The virtual CPUs this was written on lose
a varying share of each second to the hypervisor: a fixed sparse-LU loop
ran 40% slower in some 4-second windows than in others by wall time, but
within 10% by CPU time.  The same figures on wall time are recorded on the
line before the result, under ``wall``.

With ``--trace 1`` the rounds are split into an untraced half and a traced
half; per-module metrics come from the traced half, per round, and the
difference of the two halves' round wall times is the tracing overhead.

Every job's exit code and outputs are checked (``workloads.check``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the sample counts.
"""

import os
import sys

# BLAS and OpenMP pools are pinned before numpy is imported anywhere, so
# the only parallelism measured is the package's own thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PASSES = 3

# listed self times; unattributed_s is job wall minus their sum
SELF_TIMES = {
    "qpcore.factor.s": "qpcore.factor",
    "qpcore.kkt_assembly.s": "qpcore.kkt_assembly",
    "qpcore.trisolve.s": "qpcore.trisolve",
    "qpcore.solve_qp.self_s": "qpcore.solve_qp",
    "qpcore.check_feasibility.self_s": "qpcore.check_feasibility",
    "problems.build_p1.s": "problems.build_p1",
    "problems.extract_report.s": "problems.extract_report",
    "netmodel.load_scenario.s": "netmodel.load_scenario",
    "netmodel.validate_scenario.s": "netmodel.validate_scenario",
    "analytic.capacity_curve.s": "analytic.capacity_curve",
    "cli.main.self_s": "cli.main",
}


class SetupError(RuntimeError):
    pass


def _import_package():
    """Import energyshed from this checkout's src/; returns the modules used."""
    if not os.path.isfile(os.path.join(SRC, "energyshed", "__init__.py")):
        raise SetupError(f"no energyshed package under {SRC}")
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import energyshed
    import energyshed.cli
    import energyshed.netmodel
    import tracing
    import workloads

    if not os.path.abspath(energyshed.__file__).startswith(SRC + os.sep):
        raise SetupError(f"energyshed imported from {energyshed.__file__}, not {SRC}")
    return numpy, scipy, energyshed, tracing, workloads


def _environment(seed, numpy, scipy):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "energyshed")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    def __init__(self, cli, workloads, work, refs):
        self.cli = cli
        self.workloads = workloads
        self.work = work
        self.refs = refs
        self.count = 0
        self.failures = []

    def call(self, argv, out, tracer=None, job_id=None):
        """One cli.main call with stderr captured; (exit code or None, wall, stderr)."""
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(list(argv) + ["--out", out])
                else:
                    with tracer.job(job_id):
                        code = self.cli.main(list(argv) + ["--out", out])
        except (Exception, SystemExit) as exc:  # a job that raises counts as failed
            code = None
            err.write(repr(exc))
        return code, time.perf_counter() - t0, err.getvalue()

    def job(self, job, tracer=None):
        """Run and check one job; returns (wall, CPU) of the job and of the
        job with its check."""
        self.count += 1
        out = os.path.join(self.work, "out", str(self.count))
        t0, c0 = time.perf_counter(), time.process_time()
        code, wall, err = self.call(job.argv, out, tracer, self.count)
        cpu = time.process_time() - c0
        problem = self.workloads.check(job, out, code, self.refs.get(job.key))
        if problem is not None:
            self.failures.append({"job": job.key, "problem": problem,
                                  "stderr": err[-500:]})
        shutil.rmtree(out, ignore_errors=True)
        busy = time.perf_counter() - t0, time.process_time() - c0
        # Each CLI job starts from a collected heap, as a fresh process would,
        # so peak memory does not depend on when cyclic garbage was freed.
        gc.collect()
        return (wall, cpu), busy

    def round(self, jobs, tracer=None):
        """Run one round.  Its wall and CPU time count jobs and their checks,
        not the collections between jobs."""
        done = [self.job(j, tracer) for j in jobs]
        return Round(wall=sum(b[0] for _, b in done), cpu=sum(b[1] for _, b in done),
                     job_walls=[j[0] for j, _ in done], job_cpus=[j[1] for j, _ in done])


class Round(NamedTuple):
    wall: float
    cpu: float
    job_walls: list
    job_cpus: list


def setup_pass(workloads, name, seed, netmodel, work):
    """Write the workload's files and validate its scenarios; (CPU seconds, paths, round)."""
    os.makedirs(work)
    t0 = time.process_time()
    paths, jobs = workloads.make_round(name, ROOT, work, seed)
    for path in paths:
        rep = netmodel.validate_scenario(netmodel.load_scenario(path))
        if not rep.ok:
            raise SetupError(f"{path} fails validation:\n{rep}")
    return time.process_time() - t0, paths, jobs


def warm_up(runner, paths):
    """solve-p1 at floor 0 on every scenario, each of which must exit 0;
    returns its CPU seconds."""
    t0 = time.process_time()
    for i, path in enumerate(paths):
        code, _, err = runner.call(("solve-p1", "--scenario", path, "--x-min", "0",
                                    "--threads", "1"),
                                   os.path.join(runner.work, f"floor0-{i}"))
        if code != 0:
            raise SetupError(f"{path} not solved at floor 0 (exit {code}): {err}")
    return time.process_time() - t0


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rounds_for(seconds, round_wall):
    return max(1, round(seconds / round_wall))


def _job_stats(rounds, kind):
    """(jobs per second, p50, p90) of the rounds' job times; kind is wall or cpu."""
    times = [t for r in rounds for t in getattr(r, f"job_{kind}s")]
    total = sum(getattr(r, kind) for r in rounds)
    return len(times) / total, statistics.median(times), _p90(times)


def timed(runner, jobs, seconds):
    """Metrics on CPU time, and the same figures on wall time."""
    rounds = [runner.round(jobs)]
    rounds += [runner.round(jobs) for _ in range(_rounds_for(seconds, rounds[0].wall) - 1)]
    rate, p50, p90 = _job_stats(rounds, "cpu")
    metrics = {
        "jobs_per_cpu_s": (rate, "1/s"),
        "job_cpu_s_p50": (p50, "s"),
        "job_cpu_s_p90": (p90, "s"),
    }
    wall = dict(zip(("jobs_per_s", "job_s_p50", "job_s_p90"), _job_stats(rounds, "wall")))
    return metrics, wall, len(rounds) * len(jobs)


def traced(runner, jobs, seconds, tracing, spans_path):
    half = seconds / 2.0
    first = runner.round(jobs).wall
    n = _rounds_for(half, first)
    plain = [first] + [runner.round(jobs).wall for _ in range(n - 1)]
    tracer = tracing.Tracer()
    with tracer:
        rounds = [runner.round(jobs, tracer) for _ in range(n)]
    tracer.dump(spans_path)
    job_walls = [w for r in rounds for w in r.job_walls]
    metrics = layer_metrics(tracing, tracer.spans, job_walls)
    out = {k: (v / n if unit in ("s", "count") else v, unit)
           for k, (v, unit) in metrics.items()}
    traced_round = statistics.median(r.wall for r in rounds)
    plain_round = statistics.median(plain)
    out["trace.round_s"] = (traced_round, "s")
    out["trace.overhead_s"] = (traced_round - plain_round, "s")
    out["trace.overhead_frac"] = ((traced_round - plain_round) / plain_round, "ratio")
    return out, n * len(jobs) * 2


def layer_metrics(tracing, spans, job_walls):
    """Totals over the traced rounds: (value, unit) per per-module metric."""
    by_job = {}
    for s in spans:
        by_job.setdefault(s.job, []).append(s)
    by_id = {s.id: s for s in spans}
    self_s, calls, dur = {}, {}, {}
    unattributed = 0.0
    for job, wall in zip(sorted(by_job), job_walls):
        st = tracing.self_times(by_job[job])
        listed = 0.0
        for s in by_job[job]:
            self_s[s.name] = self_s.get(s.name, 0.0) + st[s.id]
            calls[s.name] = calls.get(s.name, 0) + 1
            dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
            if s.name in SELF_TIMES.values():
                listed += st[s.id]
        if listed > wall + 1e-9:
            raise RuntimeError(f"job {job}: self times {listed} exceed wall {wall}")
        unattributed += wall - listed

    def named(name):
        return [s for s in spans if s.name == name]

    factors = [s.attrs for s in named("qpcore.factor") if s.attrs]
    kkt_dim = max((a["kkt_dim"] for a in factors), default=0)
    kkt_nnz = max((a["kkt_nnz"] for a in factors), default=0)
    lu_nnz = max((a["lu_nnz"] for a in factors), default=0)
    solves = [s.attrs for s in named("qpcore.solve_qp") if s.attrs]
    p2 = sum(s.attrs["probes"] for s in named("policy.solve_p2") if s.attrs)
    p4 = sum(s.attrs["probes"] for s in named("policy.solve_p4") if s.attrs)
    evals = calls.get("problems.evaluate_f_tau", 0)
    sweeps = [s for s in named("policy.pareto_front") + named("policy.solve_p4")
              if s.parent is None or by_id[s.parent].name != "policy.pareto_front"]
    sweep_wall = sum(s.end - s.start for s in sweeps)

    m = {}
    for op in ("factor", "kkt_assembly", "trisolve"):
        m[f"qpcore.{op}.calls"] = (calls.get(f"qpcore.{op}", 0), "count")
    for metric, span in SELF_TIMES.items():
        m[metric] = (self_s.get(span, 0.0), "s")
    m["qpcore.kkt_dim.max"] = (kkt_dim, "rows")
    m["qpcore.kkt_nnz.max"] = (kkt_nnz, "nnz")
    m["qpcore.lu_nnz.max"] = (lu_nnz, "nnz")
    m["qpcore.fill_ratio"] = (lu_nnz / kkt_nnz if kkt_nnz else 0.0, "ratio")
    m["qpcore.solve_qp.calls"] = (len(solves), "count")
    m["qpcore.solve_qp.iterations"] = (sum(a["iterations"] for a in solves), "count")
    m["qpcore.solve_qp.nonconverged"] = (
        sum(a["status"] != "optimal" for a in solves), "count")
    m["qpcore.check_feasibility.calls"] = (calls.get("qpcore.check_feasibility", 0), "count")
    m["policy.probes"] = (p2 + p4, "count")
    m["policy.evaluate_f_tau.calls"] = (evals, "count")
    m["policy.cache_hit_ratio"] = (1.0 - evals / p4 if p4 else 0.0, "ratio")
    m["policy.parallelism"] = (
        dur.get("problems.evaluate_f_tau", 0.0) / sweep_wall if sweep_wall else 0.0, "ratio")
    m["problems.build_p1.calls"] = (calls.get("problems.build_p1", 0), "count")
    m["unattributed_s"] = (unattributed, "s")
    m["trace.job_s"] = (sum(job_walls), "s")
    return m


def run(args):
    t_import = time.process_time()
    numpy, scipy, energyshed, tracing, workloads = _import_package()
    import_s = time.process_time() - t_import
    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    with open(REFERENCE) as fh:
        refs = json.load(fh)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(energyshed.cli, workloads, work, refs)
    wall = None
    try:
        passes = [setup_pass(workloads, args.workload, args.seed, energyshed.netmodel,
                             os.path.join(work, f"setup{k}")) for k in range(SETUP_PASSES)]
        _, paths, jobs = passes[-1]
        warm_up_s = warm_up(runner, paths)
        setup_s = import_s + statistics.median(p[0] for p in passes) + warm_up_s
        if args.trace:
            metrics, attempted = traced(runner, jobs, args.seconds, tracing,
                                        os.path.join(WORK, tag + "-spans.jsonl"))
        else:
            metrics, wall, attempted = timed(runner, jobs, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["ok_frac"] = (1.0 - len(runner.failures) / attempted, "ratio")
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "env": _environment(args.seed, numpy, scipy),
        "round": [j.key for j in jobs],
        "samples": attempted,
        "wall": wall,
        "import_s": import_s,
        "setup_passes_s": [p[0] for p in passes],
        "warm_up_s": warm_up_s,
        "failures": runner.failures[:10],
    }
    result = {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(WORK, tag + "-result.json"), "w") as fh:
        json.dump(dict(result, info=info), fh, indent=1)
    print("perfbench " + json.dumps(info))
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description="energyshed benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
