"""Benchmark workloads: seeded job lists of CLI calls, and output checks.

A workload writes its scenario and input files and returns its pool: a
fixed list of CLI jobs (floor vectors, generated scenarios, zeta grids are
drawn once from ``POOL_SEED``).  A *round* is the whole pool in the order
``--seed`` sets.  A run repeats its round, so every round and every seed
does the same work and per-round counts repeat exactly.  Every job has
reference values recorded from the seed commit in ``reference.json``
(``record.py`` rewrites it), so outputs are checked against them without
comparing bytes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from energyshed.analytic import CommunitySeries, max_ratio_unconstrained
from energyshed.netmodel import load_scenario

import scenarios

POOL_SEED = 20231128          # fixes every pool; independent of --seed
BUNDLED = ("low", "medium", "high")

# tolerances, taken from the acceptance suite (tests/test_acceptance.py)
RATIO_TOL = 1e-6              # shed ratio >= floor - RATIO_TOL * (1 + floor)
COST_RTOL = 1e-4              # criterion 8's bound on normalized cost
PARETO_TAU_TOL = 0.01         # criterion 8's P4-vs-P2 tau* gap
CURVE_TOL = 2e-3              # criterion 1's closed-form tolerance

P2_EPSILON = 1e-3             # 10 bisection probes on [0, 1]
PARETO_MESH = 0.05
SCALE_CASES = 2
PARETO_GRIDS = 2


@dataclass(frozen=True)
class Job:
    key: str                  # reference key of the pool entry
    argv: tuple               # CLI arguments without --out
    expect_exit: int = 0
    floors: tuple = ()        # (shed id, floor) pairs for the ratio check

    @property
    def command(self):
        return self.argv[0]


def _data(root, name):
    return os.path.join(scenarios.data_dir(root), name)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")
    return path


def _shed_series(scen):
    idx = scen.network.bus_index()
    for k, members in scen.partition.sheds:
        rows = [idx[b] for b in members]
        yield k, CommunitySeries(gen=scen.profiles.gen[rows].sum(axis=0),
                                 load=scen.profiles.load[rows].sum(axis=0),
                                 cap_plus=scen.budgets.cap_plus[rows].sum(axis=0))


def floor_pool(scen, index, feasible=12, infeasible=3):
    """Feasible and infeasible per-shed floor vectors for one scenario.

    Feasible floors lie in [0, 0.95]; every bundled scenario meets the
    uniform floor 0.999.  An infeasible vector raises one shed above its
    closed-form best ratio (G + sum C+) / L, which no dispatch reaches.
    """
    rng = np.random.default_rng([POOL_SEED, 100, index])
    series = list(_shed_series(scen))
    ids = [str(k) for k, _ in series]

    def draw():
        return [round(float(v), 4) for v in rng.uniform(0.0, 0.95, len(ids))]

    ok = [dict(zip(ids, draw())) for _ in range(feasible)]
    bad = []
    for _ in range(infeasible):
        vec = draw()
        k = int(rng.integers(len(ids)))
        vec[k] = round(max_ratio_unconstrained(series[k][1])
                       * float(rng.uniform(1.05, 1.3)), 4)
        bad.append(dict(zip(ids, vec)))
    return ok, bad


def pareto_grid(g):
    """Zeta grid g: one value where medium's tau* is 0.47, one where it is 0.475."""
    rng = np.random.default_rng([POOL_SEED, 300, g])
    low = 10 ** rng.uniform(-2.0, -1.0)
    high = 10 ** rng.uniform(np.log10(0.35), np.log10(0.9))
    return [float(f"{low:.4g}"), float(f"{high:.4g}")]


def scale_floors(scen, case, j):
    rng = np.random.default_rng([POOL_SEED, 400, case, j])
    return {str(k): round(float(rng.uniform(0.3, 0.6)), 4)
            for k in scen.partition.shed_ids()}


def _p1_job(key, scenario, floors, xmin_dir, expect_exit=0):
    path = _write_json(os.path.join(xmin_dir, key.replace("/", "_") + ".json"), floors)
    return Job(key, ("solve-p1", "--scenario", scenario, "--x-min", path,
                     "--threads", "1"),
               expect_exit=expect_exit, floors=tuple(sorted(floors.items())))


# ---------------------------------------------------------------------------
# workloads: each is a pool of jobs, (root, work dir) -> (scenario paths, jobs)
# ---------------------------------------------------------------------------

def cli_mix(root, work):
    """Per bundled scenario: solve-p1 on each of 12 feasible and 3 infeasible
    floor vectors (1/5 of solve-p1 jobs exit 3), and one baseline, validate
    and analyze job."""
    paths, jobs = [], []
    for i, name in enumerate(BUNDLED):
        path = _data(root, f"scenario_{name}.json")
        paths.append(path)
        ok, bad = floor_pool(load_scenario(path), i)
        jobs += [_p1_job(f"cli-mix/solve-p1/{name}/ok{j}", path, f, work)
                 for j, f in enumerate(ok)]
        jobs += [_p1_job(f"cli-mix/solve-p1/{name}/bad{j}", path, f, work, expect_exit=3)
                 for j, f in enumerate(bad)]
        jobs += [Job(f"cli-mix/{cmd}/{name}", (cmd, "--scenario", path, "--threads", "1"))
                 for cmd in ("baseline", "validate", "analyze")]
    return paths, jobs


def p2_design(root, work):
    """design-p2 on bundled medium and on each interior-tau* variant."""
    paths = [_data(root, "scenario_medium.json")]
    paths += [scenarios.write_p2_variant(root, work, v, f"p2variant{v}")
              for v in range(len(scenarios.P2_VARIANTS))]
    keys = ["p2-design/medium"] + [f"p2-design/variant{v}"
                                   for v in range(len(scenarios.P2_VARIANTS))]
    return paths, [Job(key, ("design-p2", "--scenario", path,
                             "--epsilon", repr(P2_EPSILON), "--threads", "1"))
                   for key, path in zip(keys, paths)]


def pareto_sweep(root, work):
    """pareto on medium over each zeta grid."""
    medium = _data(root, "scenario_medium.json")
    jobs = []
    for g in range(PARETO_GRIDS):
        grid = _write_json(os.path.join(work, f"zeta{g}.json"), pareto_grid(g))
        jobs.append(Job(f"pareto-sweep/grid{g}",
                        ("pareto", "--scenario", medium, "--mesh", repr(PARETO_MESH),
                         "--threads", "2", "--zeta-grid", grid)))
    return [medium], jobs


def scale_p1(root, work):
    """solve-p1 on each generated scale case, at two floor vectors each."""
    paths, jobs = [], []
    for case in range(SCALE_CASES):
        path = scenarios.write_scale_case(root, work, case, f"scale{case}")
        scen = load_scenario(path)
        paths.append(path)
        jobs += [_p1_job(f"scale-p1/case{case}/floors{j}", path,
                         scale_floors(scen, case, j), work) for j in range(2)]
    return paths, jobs


WORKLOADS = {
    "cli-mix": cli_mix,
    "p2-design": p2_design,
    "pareto-sweep": pareto_sweep,
    "scale-p1": scale_p1,
}


def make_round(name, root, work, seed):
    """The workload's whole pool in the order the seed sets: every seed does
    the same work, so per-round figures do not depend on the seed."""
    paths, jobs = WORKLOADS[name](root, work)
    order = np.random.default_rng([seed, POOL_SEED]).permutation(len(jobs))
    return paths, [jobs[i] for i in order]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def observe(job, out_dir, code):
    """The values of a job's outputs that are compared with the reference."""
    obs = {"exit": code}
    if code != 0:
        return obs
    cmd = job.command
    if cmd in ("solve-p1", "baseline"):
        obs["cost"] = _read_json(out_dir, "summary.json")["cost"]
    elif cmd == "design-p2":
        s = _read_json(out_dir, "summary.json")
        obs["tau_star"] = s["tau_star"]
        obs["cost_normalized"] = s["cost_normalized"]
    elif cmd == "pareto":
        obs["front"] = [[float(r["zeta"]), float(r["tau_star"]),
                         float(r["cost_normalized"])]
                        for r in _read_csv(out_dir, "front.csv")]
    elif cmd == "analyze":
        ratios = [float(r["max_ratio"]) for r in _read_csv(out_dir, "curves.csv")]
        obs["max_ratio_mean"] = sum(ratios) / len(ratios)
    return obs


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def check(job, out_dir, code, ref):
    """None if the job's outputs pass, else the first problem found."""
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}"
    try:
        manifest = _read_json(out_dir, "manifest.json")
    except (OSError, ValueError) as exc:
        return f"manifest.json unreadable: {exc}"
    if manifest.get("exit_code") != code:
        return f"manifest exit_code {manifest.get('exit_code')} != {code}"
    if ref is None:
        return "no reference value recorded for " + job.key
    try:
        obs = observe(job, out_dir, code)
        return _compare(job, out_dir, obs, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"outputs unreadable: {exc!r}"


def _compare(job, out_dir, obs, ref):
    cmd = job.command
    if obs["exit"] != ref["exit"]:
        return f"exit {obs['exit']}, reference {ref['exit']}"
    if obs["exit"] != 0:
        return None
    if cmd == "validate":
        return None if _read_json(out_dir, "validation.json")["ok"] else "validation not ok"
    if cmd == "analyze":
        if abs(obs["max_ratio_mean"] - ref["max_ratio_mean"]) > CURVE_TOL:
            return f"capacity curves moved: {obs['max_ratio_mean']} vs {ref['max_ratio_mean']}"
        return None
    if cmd in ("solve-p1", "design-p2"):
        ratios = _read_json(out_dir, "summary.json")["shed_ratios"]
        floors = (dict(job.floors) if cmd == "solve-p1"
                  else dict.fromkeys(ratios, obs["tau_star"]))
        for k, floor in floors.items():
            if ratios[k] < floor - RATIO_TOL * (1.0 + floor):
                return f"shed {k} ratio {ratios[k]} below floor {floor}"
    if cmd in ("solve-p1", "baseline"):
        if not _close(obs["cost"], ref["cost"], COST_RTOL):
            return f"cost {obs['cost']} vs reference {ref['cost']}"
    elif cmd == "design-p2":
        if abs(obs["tau_star"] - ref["tau_star"]) > 2 * P2_EPSILON:
            return f"tau* {obs['tau_star']} vs reference {ref['tau_star']}"
        if not _close(obs["cost_normalized"], ref["cost_normalized"], COST_RTOL):
            return f"normalized cost {obs['cost_normalized']} vs {ref['cost_normalized']}"
    elif cmd == "pareto":
        front, want = obs["front"], ref["front"]
        if [z for z, _, _ in front] != [z for z, _, _ in want]:
            return "front zeta values differ from the grid"
        taus = [t for _, t, _ in front]
        if any(b < a for a, b in zip(taus, taus[1:])):
            return f"tau* decreases along zeta: {taus}"
        for (z, t, c), (_, t0, c0) in zip(front, want):
            if abs(t - t0) > PARETO_TAU_TOL or not _close(c, c0, COST_RTOL):
                return f"front point at zeta {z}: ({t}, {c}) vs ({t0}, {c0})"
    return None
