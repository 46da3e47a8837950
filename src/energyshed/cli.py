"""Command-line front end: scenario loading, command dispatch, file outputs.

Every run writes its outputs plus a ``manifest.json`` recording input
hashes, the resolved configuration and library versions, so a result file
can always be traced back to the exact inputs that produced it.

Exit codes: 0 success, 2 validation failure, 3 infeasible, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .analytic import AnalysisError, CommunitySeries, capacity_curve
from .netmodel import (
    CaseParseError,
    ProfileError,
    ScenarioError,
    as_number,
    load_scenario,
    scenario_files,
    validate_scenario,
)
from .policy import (
    InfeasibleError,
    PolicyConfig,
    PolicyError,
    baseline,
    pareto_front,
    solve_p2,
    solve_p4,
)
from .problems import BuildError, build_p1, extract_report
from .qpcore import solve_qp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Collects outputs and writes the run manifest on close."""

    def __init__(self, args):
        self.args = args
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.outputs = []

    def write_text(self, name, text):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        self.outputs.append(name)
        return path

    def write_json(self, name, obj):
        return self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def _inputs(self):
        """The scenario JSON and the case and profile files it names, those
        that exist; none if it cannot be read or names them wrongly."""
        path = self.args.scenario
        try:
            with open(path) as fh:
                files = [path, *scenario_files(path, json.load(fh)).values()]
        except (OSError, ValueError):
            return []
        return [p for p in files if os.path.exists(p)]

    def close(self, exit_code):
        cfg = {k: v for k, v in sorted(vars(self.args).items())
               if k not in ("func", "out")}
        manifest = {
            "command": self.args.command,
            "config": cfg,
            "exit_code": exit_code,
            "inputs": {os.path.basename(p): _sha256(p)
                       for p in self._inputs()},
            "outputs": sorted(self.outputs),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "versions": {
                "energyshed": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
                "scipy": scipy.__version__,
            },
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _print_violations(rep):
    for v in rep.violations:
        print(f"validation: [{v.code}] {v.message} ({v.location})",
              file=sys.stderr)


def _load_checked(path):
    scenario = load_scenario(path)
    rep = validate_scenario(scenario)
    if not rep.ok:
        _print_violations(rep)
        raise ScenarioError(f"{len(rep.violations)} validation violation(s)")
    return scenario


def _fmt(v):
    """Exact, locale-free float text so outputs are byte-reproducible."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _csv_text(header, rows):
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return out.getvalue()


def _emit_table(run, stem, key, header, rows):
    """Write rows as <stem>.csv, or as <stem>.json under key with one
    object per row, keyed by the header."""
    if run.args.format == "json":
        run.write_json(f"{stem}.json",
                       {key: [dict(zip(header, row)) for row in rows]})
    else:
        run.write_text(f"{stem}.csv", _csv_text(header, rows))


def _report_summary(scenario, report, extra=None):
    """JSON summary with per-unit values plus MVA/MWh conversions."""
    base = scenario.network.base_mva
    hours = scenario.time_grid.step_hours
    d = {
        "base_mva": base,
        "step_hours": hours,
        "cost": report.cost,
        "min_ratio": report.min_ratio(),
        "shed_ratios": {str(k): v for k, v in report.shed_ratios.items()},
        "cap_plus_pu": {str(k): v for k, v in report.cap_plus.items()},
        "cap_plus_mw": {str(k): v * base for k, v in report.cap_plus.items()},
        "cap_minus_pu": {str(k): v for k, v in report.cap_minus.items()},
        "cap_minus_mw": {str(k): v * base for k, v in report.cap_minus.items()},
    }
    d.update(extra or {})
    return d


def _alpha_by_bus(scenario):
    return {b.id: float(a)
            for b, a in zip(scenario.network.buses, scenario.weights.alpha)}


def _emit_report(run, scenario, report, summary):
    if run.args.format == "json":
        run.write_json("report.json",
                       {"summary": summary, "report": report.to_json_dict()})
    else:
        run.write_text("report.csv", report.to_csv(_alpha_by_bus(scenario)))
        run.write_json("summary.json", summary)


def _policy_config(args):
    kw = {}
    if getattr(args, "epsilon", None) is not None:
        kw["epsilon"] = args.epsilon
    if getattr(args, "mesh", None) is not None:
        kw["mesh"] = args.mesh
    if getattr(args, "zeta_grid", None):
        with open(args.zeta_grid) as fh:
            grid = json.load(fh)
        if not isinstance(grid, list):
            raise BuildError(f"zeta grid: expected a JSON list, got {grid!r}")
        kw["zeta_grid"] = tuple(as_number(z, "zeta grid") for z in grid)
    return PolicyConfig(**kw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(run):
    scenario = load_scenario(run.args.scenario)
    rep = validate_scenario(scenario)
    run.write_json("validation.json", {
        "ok": rep.ok,
        "violations": [{"code": v.code, "message": v.message,
                        "location": v.location} for v in rep.violations],
    })
    if not rep.ok:
        _print_violations(rep)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_analyze(run):
    for flag, v in (("--budget-step", run.args.budget_step),
                    ("--max-budget", run.args.max_budget)):
        if not 0 < v < math.inf:
            raise AnalysisError(f"{flag} must be positive and finite, got {v!r}")
    scenario = _load_checked(run.args.scenario)
    idx = scenario.network.bus_index()
    hours = scenario.time_grid.step_hours
    base = scenario.network.base_mva
    grid = [round(b, 10) for b in
            np.arange(0.0, run.args.max_budget + 1e-12, run.args.budget_step)]
    rows = []
    for shed_id, members in scenario.partition.sheds:
        sel = [idx[b] for b in members]
        limit = None
        if run.args.mode == "limits":
            up = scenario.budgets.export_upper
            if up is None:
                raise AnalysisError("scenario has no export limits; "
                                    "use mode 'unconstrained' or 'zero_export'")
            limit = up[sel].sum(axis=0)
        series = CommunitySeries(
            gen=scenario.profiles.gen[sel].sum(axis=0),
            load=scenario.profiles.load[sel].sum(axis=0),
            cap_plus=scenario.budgets.cap_plus[sel].sum(axis=0),
            export_limit=limit,
        )
        curve = capacity_curve(series, grid, mode=run.args.mode)
        mwh = series.gamma * base * hours  # demand energy for conversions
        for pt in curve:
            rows.append((str(shed_id), pt.budget, pt.budget * mwh,
                         pt.max_ratio, pt.mode))
    _emit_table(run, "curves", "points",
                ["shed", "budget", "budget_mwh", "max_ratio", "mode"], rows)
    return EXIT_OK


def _x_min_value(arg):
    if os.path.exists(arg):
        with open(arg) as fh:
            data = json.load(fh)
        return data
    return float(arg)


def _resolve_x_min(scenario, raw):
    """A scalar floor, or one per shed from a {shed id: floor} object."""
    if isinstance(raw, dict):
        ids = scenario.partition.shed_ids()
        missing = [k for k in ids if str(k) not in raw]
        if missing:
            raise BuildError(f"x-min file missing shed id(s): {missing}")
        return [as_number(raw[str(k)], f"x-min shed {k}") for k in ids]
    return as_number(raw, "x-min value")


def _cmd_solve_p1(run):
    scenario = _load_checked(run.args.scenario)
    x_min = _resolve_x_min(scenario, _x_min_value(run.args.x_min))
    prog, lay = build_p1(scenario, x_min, check=False)
    sol = solve_qp(prog)
    if sol.status == "infeasible":
        raise InfeasibleError("requested ratio floors are infeasible")
    if sol.status != "optimal":
        raise PolicyError(f"solver did not converge: status {sol.status}")
    report = extract_report(scenario, lay, sol)
    _emit_report(run, scenario, report,
                 _report_summary(scenario, report, {"x_min": x_min}))
    return EXIT_OK


def _cmd_baseline(run):
    scenario = _load_checked(run.args.scenario)
    cost, report = baseline(scenario)
    _emit_report(run, scenario, report, _report_summary(scenario, report))
    return EXIT_OK


def _cmd_design_p2(run):
    scenario = _load_checked(run.args.scenario)
    res = solve_p2(scenario, _policy_config(run.args))
    _emit_table(run, "trace", "trace", ["tau", "feasible"], res.trace)
    summary = _report_summary(scenario, res.report, {
        "tau_star": res.tau_star,
        "cost_normalized": res.cost_normalized,
        "probes": res.probes,
    })
    _emit_report(run, scenario, res.report, summary)
    return EXIT_OK


def _cmd_design_p4(run):
    scenario = _load_checked(run.args.scenario)
    res = solve_p4(scenario, run.args.zeta, _policy_config(run.args),
                   threads=run.args.threads)
    _emit_table(run, "trace", "trace", ["tau", "f_tau", "cost"], res.trace)
    summary = _report_summary(scenario, res.report, {
        "tau_star": res.tau_star,
        "f_star": res.f_star,
        "zeta": run.args.zeta,
        "cost_normalized": res.cost_normalized,
        "probes": res.probes,
    })
    _emit_report(run, scenario, res.report, summary)
    return EXIT_OK


def _cmd_pareto(run):
    scenario = _load_checked(run.args.scenario)
    front = pareto_front(scenario, _policy_config(run.args),
                         threads=run.args.threads)
    _emit_table(run, "front", "front",
                ["zeta", "tau_star", "cost_normalized"], front)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _default_threads():
    env = os.environ.get("ESHED_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="energyshed",
        description="Energyshed policy design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker threads for sweeps (env: ESHED_THREADS)")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check scenario invariants")

    p = add("analyze", _cmd_analyze, "closed-form capacity-vs-ratio curves")
    p.add_argument("--mode", default="unconstrained",
                   choices=("unconstrained", "limits", "zero_export"))
    p.add_argument("--budget-step", type=float, default=0.05)
    p.add_argument("--max-budget", type=float, default=2.0)

    p = add("solve-p1", _cmd_solve_p1, "minimum-cost dispatch at fixed floors")
    p.add_argument("--x-min", required=True,
                   help="ratio floor: scalar or JSON file {shed id: floor}")

    add("baseline", _cmd_baseline, "cost with no ratio requirements")

    p = add("design-p2", _cmd_design_p2,
            "max-min ratio design (Dinkelbach iteration)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="resolution of tau* (default 1e-6)")

    p = add("design-p4", _cmd_design_p4, "cost-aware floor design (sweep)")
    p.add_argument("--zeta", type=float, required=True,
                   help="welfare weight on the ratio term")
    p.add_argument("--mesh", type=float, default=None)

    p = add("pareto", _cmd_pareto, "ratio-vs-cost front over a zeta grid")
    p.add_argument("--zeta-grid", default=None,
                   help="JSON file with an ascending list of zeta values")
    p.add_argument("--mesh", type=float, default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = _Run(args)
        code = args.func(run)
    except (CaseParseError, ProfileError, ScenarioError, BuildError,
            AnalysisError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        code = EXIT_INFEASIBLE
    except PolicyError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    if run is not None:
        run.close(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
