"""Command-line front end: scenario loading, command dispatch, file outputs.

Every run writes its outputs plus a ``manifest.json`` recording input
hashes, the resolved configuration, library versions and the warnings
printed while loading, so a result file can always be traced back to the
exact inputs that produced it.

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
    ScenarioError,
    as_number,
    load_scenario,
    read_json,
    scenario_files,
    shed_rows,
    validate_scenario,
)
from .policy import (EPSILON, MAX_GRID_POINTS, MESH, ZETA_GRID, baseline, pareto_front,
                     solve_p2, solve_p4)
from .problems import BuildError, InfeasibleError, PolicyError, build_p1, extract_report
from .qpcore import solve_qp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Run:
    """Collects outputs and writes the run manifest on close."""

    def __init__(self, args):
        self.args = args
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.outputs = []
        self.warnings = []

    def warn(self, field):
        """load_scenario's warn callback: report an ignored case field."""
        msg = f"mpc.{field} ignored: not in the supported case subset"
        print(f"warning: {msg}", file=sys.stderr)
        self.warnings.append(msg)

    def write_text(self, name, text):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        self.outputs.append(name)
        return path

    def write_json(self, name, obj):
        return self.write_text(name, _json_text(obj))

    def _inputs(self):
        """Those of the --x-min and --zeta-grid files, the scenario JSON and
        the case and profile files it names (if it reads) that are files."""
        args = self.args
        files = [getattr(args, "x_min", None), getattr(args, "zeta_grid", None)]
        try:
            with open(args.scenario) as fh:
                files += [args.scenario, *scenario_files(args.scenario, json.load(fh)).values()]
        except (OSError, ValueError):
            pass
        return [p for p in files if p and os.path.isfile(p)]

    def close(self, exit_code):
        cfg = {k: v for k, v in sorted(vars(self.args).items())
               if k not in ("func", "out")}
        # keyed by path from the scenario's directory: unique, siblings bare
        base = os.path.dirname(os.path.abspath(self.args.scenario))
        manifest = {
            "command": self.args.command,
            "config": cfg,
            "exit_code": exit_code,
            "inputs": {os.path.relpath(p, base): _sha256(p) for p in self._inputs()},
            "outputs": sorted(self.outputs),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "versions": {
                "energyshed": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
                "scipy": scipy.__version__,
            },
            "warnings": self.warnings,
        }
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            fh.write(_json_text(manifest))


def _print_violations(rep):
    for v in rep.violations:
        print(f"validation: [{v.code}] {v.message} ({v.location})",
              file=sys.stderr)


def _load_checked(run):
    scenario = load_scenario(run.args.scenario, run.warn)
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


def _json_text(obj):
    """Strict JSON, each non-finite float spelled as _fmt spells it."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def _by_id(values, scale=1.0):
    """A {shed or bus id: value} dict with str keys for JSON, values scaled."""
    return {str(k): v * scale for k, v in values.items()}


def _emit_report(run, scenario, report, **extra):
    """report.json (summary plus the full report), or report.csv, one row
    per load bus by increasing generation capacity cost, and summary.json.
    The summary has per-unit values, their MW conversions and extra."""
    base = scenario.network.base_mva
    summary = {
        "base_mva": base,
        "step_hours": scenario.time_grid.step_hours,
        "cost": report.cost,
        "min_ratio": report.min_ratio(),
        "shed_ratios": _by_id(report.shed_ratios),
        "cap_plus_pu": _by_id(report.cap_plus),
        "cap_plus_mw": _by_id(report.cap_plus, base),
        "cap_minus_pu": _by_id(report.cap_minus),
        "cap_minus_mw": _by_id(report.cap_minus, base),
        **extra,
    }
    if run.args.format == "json":
        run.write_json("report.json", {"summary": summary, "report": {
            "status": "optimal",  # extract_report makes a report of no other
            "cost": report.cost,
            "shed_ratios": _by_id(report.shed_ratios),
            "bus_ratios": _by_id(report.bus_ratios),
            "cap_plus": _by_id(report.cap_plus),
            "cap_minus": _by_id(report.cap_minus),
            "branch_peak_util": [{"from": f, "to": t, "utilization": u}
                                 for f, t, u in report.branch_peak_util],
        }})
    else:
        alpha = dict(zip([b.id for b in scenario.network.buses], scenario.weights.alpha))
        rows = [(b, alpha[b], report.bus_ratios[b], report.cap_plus[b], report.cap_minus[b])
                for b in sorted(report.bus_ratios, key=lambda b: (alpha[b], b))]
        run.write_text("report.csv", _csv_text(
            ["bus", "alpha", "ratio", "cap_plus", "cap_minus"], rows))
        run.write_json("summary.json", summary)


def _zeta_grid(path):
    """The zeta values of a --zeta-grid file, or the default grid without one."""
    if not path:
        return ZETA_GRID
    with open(path) as fh:
        grid = json.load(fh)
    if not isinstance(grid, list):
        raise BuildError(f"zeta grid: expected a JSON list, got {grid!r}")
    return [as_number(z, "zeta grid") for z in grid]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(run):
    scenario = load_scenario(run.args.scenario, run.warn)
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
    if run.args.max_budget / run.args.budget_step >= MAX_GRID_POINTS:
        raise AnalysisError(f"--budget-step {run.args.budget_step!r} puts more than "
                            f"{MAX_GRID_POINTS} budgets on [0, --max-budget]")
    scenario = _load_checked(run)
    hours = scenario.time_grid.step_hours
    base = scenario.network.base_mva
    grid = [round(b, 10) for b in
            np.arange(0.0, run.args.max_budget + 1e-12, run.args.budget_step)]
    up = scenario.budgets.export_upper
    if run.args.mode == "limits" and not np.isfinite(up).any():
        raise AnalysisError("scenario has no export limits; "
                            "use mode 'unconstrained' or 'zero_export'")
    rows = []
    for shed_id, sel in zip(scenario.partition.shed_ids(), shed_rows(scenario)):
        try:
            series = CommunitySeries(
                gen=scenario.profiles.gen[sel].sum(axis=0),
                load=scenario.profiles.load[sel].sum(axis=0),
                cap_plus=scenario.budgets.cap_plus[sel].sum(axis=0),
                export_limit=up[sel].sum(axis=0) if run.args.mode == "limits" else None,
            )
            curve = capacity_curve(series, grid, mode=run.args.mode)
        except AnalysisError as exc:
            raise AnalysisError(f"shed {shed_id}: {exc}") from None
        mwh = series.gamma * base * hours  # demand energy for conversions
        rows += [(str(shed_id), pt.budget, pt.budget * mwh, pt.max_ratio, run.args.mode)
                 for pt in curve]
    _emit_table(run, "curves", "points",
                ["shed", "budget", "budget_mwh", "max_ratio", "mode"], rows)
    return EXIT_OK


def _x_min_value(arg):
    """--x-min as read: a JSON file's contents if the path exists, else a float."""
    if os.path.exists(arg):
        return read_json(arg)
    try:
        return float(arg)
    except ValueError:
        raise BuildError(f"--x-min {arg!r} is neither an existing file nor a number") from None


def _resolve_x_min(scenario, raw):
    """A scalar floor, or one per shed from a {shed id: floor} object."""
    if isinstance(raw, dict):
        ids = scenario.partition.shed_ids()
        missing = [k for k in ids if str(k) not in raw]
        if missing:
            raise BuildError(f"x-min file missing shed id(s): {missing}")
        unknown = sorted(set(raw) - {str(k) for k in ids})
        if unknown:
            raise BuildError(f"x-min file names unknown shed id(s): {unknown}")
        return [as_number(raw[str(k)], f"x-min shed {k}") for k in ids]
    return as_number(raw, "x-min value")


def _cmd_solve_p1(run):
    scenario = _load_checked(run)
    x_min = _resolve_x_min(scenario, _x_min_value(run.args.x_min))
    prog, lay = build_p1(scenario, x_min)
    report = extract_report(scenario, lay, solve_qp(prog))
    _emit_report(run, scenario, report, x_min=x_min)
    return EXIT_OK


def _cmd_baseline(run):
    scenario = _load_checked(run)
    _emit_report(run, scenario, baseline(scenario))
    return EXIT_OK


def _cmd_design_p2(run):
    scenario = _load_checked(run)
    res = solve_p2(scenario, run.args.epsilon)
    _emit_table(run, "trace", "trace", ["tau", "feasible"], res.trace)
    _emit_report(run, scenario, res.report, tau_star=res.tau_star,
                 cost_normalized=res.cost_normalized, probes=res.probes)
    return EXIT_OK


def _cmd_design_p4(run):
    scenario = _load_checked(run)
    res = solve_p4(scenario, run.args.zeta, run.args.mesh)
    _emit_table(run, "trace", "trace", ["tau", "f_tau", "cost"], res.trace)
    _emit_report(run, scenario, res.report, tau_star=res.tau_star, f_star=res.f_star,
                 zeta=run.args.zeta, cost_normalized=res.cost_normalized,
                 probes=res.probes)
    return EXIT_OK


def _cmd_pareto(run):
    scenario = _load_checked(run)
    front = pareto_front(scenario, _zeta_grid(run.args.zeta_grid), run.args.mesh)
    _emit_table(run, "front", "front",
                ["zeta", "tau_star", "cost_normalized"], front)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

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
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and recorded, no effect: sweeps run serially")
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
    p.add_argument("--epsilon", type=float, default=EPSILON,
                   help="resolution of tau* (default %(default)s)")

    p = add("design-p4", _cmd_design_p4, "cost-aware floor design (sweep)")
    p.add_argument("--zeta", type=float, required=True,
                   help="welfare weight on the ratio term")
    p.add_argument("--mesh", type=float, default=MESH,
                   help="floor step (default %(default)s)")

    p = add("pareto", _cmd_pareto, "ratio-vs-cost front over a zeta grid")
    p.add_argument("--zeta-grid", default=None,
                   help="JSON file with an ascending list of zeta values")
    p.add_argument("--mesh", type=float, default=MESH,
                   help="floor step (default %(default)s)")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = _Run(args)
        if args.threads < 1:  # every command takes --threads; none uses it
            raise ValueError(f"threads must be at least 1, got {args.threads!r}")
        code = args.func(run)
    except (OSError, ValueError) as exc:  # every input error class is a ValueError
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
