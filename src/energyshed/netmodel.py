"""Network, time-series, partition and budget data model.

Everything downstream (closed-form analysis, problem builders, policy
drivers) consumes the immutable types defined here.  Parsing covers a
documented subset of the MATPOWER case format (baseMVA, bus and branch
matrices only) plus a simple CSV schema for per-bus load/generation
profiles and a JSON scenario config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

INF = math.inf


class CaseParseError(ValueError):
    """Raised on malformed case files; carries line/column context."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class ProfileError(ValueError):
    pass


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bus:
    id: int
    has_load: bool = False


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    reactance: float
    flow_limit: float  # per-unit; INF means unlimited (rateA = 0 convention)


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float
    reference_bus: int

    def bus_ids(self):
        return [b.id for b in self.buses]

    def bus_index(self):
        """Map bus id -> position in self.buses."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @property
    def n_bus(self):
        return len(self.buses)

    @property
    def n_branch(self):
        return len(self.branches)


@dataclass(frozen=True)
class TimeGrid:
    steps: int
    step_hours: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ScenarioError("time grid must have at least one step")
        if not 0 < self.step_hours < INF:
            raise ScenarioError("step_hours must be positive and finite")


@dataclass(frozen=True)
class Profiles:
    gen: np.ndarray   # (n_bus, steps) per-unit power
    load: np.ndarray  # (n_bus, steps) per-unit power

    def __post_init__(self):
        object.__setattr__(self, "gen", np.asarray(self.gen, dtype=float))
        object.__setattr__(self, "load", np.asarray(self.load, dtype=float))


@dataclass(frozen=True)
class FlexBudget:
    cap_plus: np.ndarray   # (n_bus, steps)
    cap_minus: np.ndarray  # (n_bus, steps)
    export_upper: np.ndarray | None = None  # (n_bus, steps), +INF = absent
    export_lower: np.ndarray | None = None

    @property
    def has_export_limits(self):
        return self.export_upper is not None or self.export_lower is not None


@dataclass(frozen=True)
class CostWeights:
    alpha: np.ndarray  # per-bus generation-capacity weight
    beta: np.ndarray   # per-bus demand-capacity weight


@dataclass(frozen=True)
class Partition:
    sheds: tuple[tuple[int, tuple[int, ...]], ...]  # (shed id, bus ids)

    def shed_ids(self):
        return [k for k, _ in self.sheds]

    def members(self, shed_id):
        for k, nodes in self.sheds:
            if k == shed_id:
                return nodes
        raise KeyError(f"unknown shed id {shed_id!r}")


@dataclass(frozen=True)
class Scenario:
    network: Network
    time_grid: TimeGrid
    profiles: Profiles
    budgets: FlexBudget
    weights: CostWeights
    partition: Partition
    flex_only_at_load_buses: bool = True
    name: str = "scenario"


@dataclass
class Violation:
    code: str
    message: str
    location: str = ""


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, code, message, location=""):
        self.violations.append(Violation(code, message, location))

    def codes(self):
        return [v.code for v in self.violations]

    def __str__(self):
        if self.ok:
            return "scenario valid"
        return "\n".join(f"[{v.code}] {v.message}" + (f" @ {v.location}" if v.location else "")
                         for v in self.violations)


# ---------------------------------------------------------------------------
# MATPOWER case subset parser
# ---------------------------------------------------------------------------

def _strip_comments(text):
    """Remove % comments, preserving line structure for error reporting."""
    lines = []
    for raw in text.splitlines():
        cut = raw.find("%")
        lines.append(raw if cut < 0 else raw[:cut])
    return lines


def _extract_matrix(lines, key):
    """Pull the numeric rows of ``mpc.<key> = [ ... ];`` from the file.

    Returns (rows, None) where rows is a list of (line_no, [floats]),
    or (None, None) if the field is absent.
    """
    start = None
    for ln, line in enumerate(lines):
        if line.replace(" ", "").replace("\t", "").startswith(f"mpc.{key}=["):
            start = ln
            break
    if start is None:
        return None
    rows = []
    # content after the opening bracket on the same line
    body_first = lines[start].split("[", 1)[1]
    pending = [(start, body_first)]
    closed = False
    for ln in range(start + 1, len(lines)):
        if closed:
            break
        pending.append((ln, lines[ln]))
    for ln, chunk in pending:
        if closed:
            break
        if "]" in chunk:
            chunk = chunk.split("]", 1)[0]
            closed = True
        for stmt in chunk.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            vals = []
            for tok in stmt.split():
                try:
                    vals.append(float(tok))
                except ValueError:
                    col = lines[ln].find(tok) + 1
                    raise CaseParseError(f"invalid numeric token {tok!r} in mpc.{key}",
                                         line=ln + 1, col=col)
            rows.append((ln + 1, vals))
    if not closed:
        raise CaseParseError(f"unterminated matrix mpc.{key}", line=start + 1)
    return rows


def _extract_scalar(lines, key):
    for ln, line in enumerate(lines):
        squashed = line.replace(" ", "").replace("\t", "")
        if squashed.startswith(f"mpc.{key}="):
            rhs = squashed.split("=", 1)[1].rstrip(";")
            try:
                return float(rhs)
            except ValueError:
                raise CaseParseError(f"invalid scalar for mpc.{key}", line=ln + 1)
    return None


KNOWN_CASE_FIELDS = {"baseMVA", "bus", "branch", "version"}


def parse_matpower_case(text, warn=None):
    """Parse the documented MATPOWER subset into a Network.

    Only ``mpc.baseMVA``, ``mpc.bus`` and ``mpc.branch`` are read; any other
    ``mpc.*`` assignment triggers ``warn(field_name)`` if a callback is given.
    Bus column 1 is the id, column 2 the type (3 = reference); branch columns
    1, 2, 4, 6 are from, to, reactance, rateA.  rateA = 0 means unlimited.
    """
    lines = _strip_comments(text)

    for ln, line in enumerate(lines):
        squashed = line.replace(" ", "").replace("\t", "")
        if squashed.startswith("mpc.") and "=" in squashed:
            name = squashed[4:].split("=", 1)[0].split("(")[0]
            if name not in KNOWN_CASE_FIELDS and warn is not None:
                warn(name)

    base_mva = _extract_scalar(lines, "baseMVA")
    if base_mva is None:
        raise CaseParseError("missing mpc.baseMVA")
    if base_mva <= 0:
        raise CaseParseError("baseMVA must be positive")

    bus_rows = _extract_matrix(lines, "bus")
    if not bus_rows:
        raise CaseParseError("missing or empty mpc.bus matrix")
    branch_rows = _extract_matrix(lines, "branch") or []

    buses = []
    seen = set()
    ref = None
    for ln, row in bus_rows:
        if len(row) < 2:
            raise CaseParseError("bus row needs at least id and type columns", line=ln)
        bid = int(row[0])
        btype = int(row[1])
        pd = row[2] if len(row) > 2 else 0.0
        if bid in seen:
            raise CaseParseError(f"duplicate bus id {bid}", line=ln)
        seen.add(bid)
        if btype == 3:
            ref = bid
        buses.append(Bus(id=bid, has_load=pd != 0.0))
    if ref is None:
        ref = min(seen)

    branches = []
    for ln, row in branch_rows:
        if len(row) < 6:
            raise CaseParseError("branch row needs at least 6 columns", line=ln)
        f, t = int(row[0]), int(row[1])
        x = row[3]
        rate_a = row[5]
        if f not in seen or t not in seen:
            raise CaseParseError(f"branch references unknown bus {f if f not in seen else t}",
                                 line=ln)
        if f == t:
            raise CaseParseError(f"branch connects bus {f} to itself", line=ln)
        if x <= 0:
            raise CaseParseError(f"nonpositive reactance on branch {f}-{t}", line=ln)
        limit = INF if rate_a == 0 else rate_a / base_mva
        branches.append(Branch(from_bus=f, to_bus=t, reactance=x, flow_limit=limit))

    return Network(buses=tuple(buses), branches=tuple(branches),
                   base_mva=base_mva, reference_bus=ref)


def serialize_network_case(network):
    """Write a Network back to the case subset; parse(serialize(n)) == n."""
    out = io.StringIO()
    out.write("function mpc = case_export\n")
    out.write(f"mpc.baseMVA = {network.base_mva!r};\n\n")
    out.write("mpc.bus = [\n")
    for b in network.buses:
        btype = 3 if b.id == network.reference_bus else 1
        pd = 1.0 if b.has_load else 0.0
        out.write(f"\t{b.id}\t{btype}\t{pd}\t0\t0\t0\t1\t1\t0\t345\t1\t1.06\t0.94;\n")
    out.write("];\n\nmpc.branch = [\n")
    for br in network.branches:
        rate_a = 0.0 if math.isinf(br.flow_limit) else br.flow_limit * network.base_mva
        out.write(f"\t{br.from_bus}\t{br.to_bus}\t0\t{br.reactance!r}\t0\t{rate_a!r}"
                  "\t0\t0\t0\t0\t1\t-360\t360;\n")
    out.write("];\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# profiles CSV
# ---------------------------------------------------------------------------

def parse_profiles(text, network, grid):
    """Parse the ``bus,kind,t1..tN`` CSV into Profiles.

    Buses missing from the file default to zero rows.  kind is one of
    {load, gen}.
    """
    idx = network.bus_index()
    gen = np.zeros((network.n_bus, grid.steps))
    load = np.zeros((network.n_bus, grid.steps))
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return Profiles(gen=gen, load=load)
    if len(header) != grid.steps + 2:
        raise ProfileError(f"header has {len(header)} columns, expected {grid.steps + 2}")
    for ln, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != grid.steps + 2:
            raise ProfileError(f"row {ln}: {len(row)} columns, expected {grid.steps + 2}")
        try:
            bid = int(row[0])
        except ValueError:
            raise ProfileError(f"row {ln}: invalid bus id {row[0]!r}")
        if bid not in idx:
            raise ProfileError(f"row {ln}: unknown bus {bid}")
        kind = row[1].strip().lower()
        if kind not in ("load", "gen"):
            raise ProfileError(f"row {ln}: kind must be 'load' or 'gen', got {row[1]!r}")
        vals = np.array([float(v) for v in row[2:]])
        if not np.isfinite(vals).all():
            raise ProfileError(f"row {ln}: non-finite profile value")
        if (vals < 0).any():
            raise ProfileError(f"row {ln}: negative profile value")
        target = load if kind == "load" else gen
        target[idx[bid], :] = vals
    return Profiles(gen=gen, load=load)


def profiles_to_csv(network, grid, profiles):
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["bus", "kind"] + [f"t{t + 1}" for t in range(grid.steps)])
    for i, b in enumerate(network.buses):
        if profiles.load[i].any():
            w.writerow([b.id, "load"] + [repr(float(v)) for v in profiles.load[i]])
        if profiles.gen[i].any():
            w.writerow([b.id, "gen"] + [repr(float(v)) for v in profiles.gen[i]])
    return out.getvalue()


# ---------------------------------------------------------------------------
# graph utilities
# ---------------------------------------------------------------------------

def induced_subgraph_connected(network, nodes):
    """True iff the subgraph induced by the given bus ids is connected."""
    nodes = set(nodes)
    if not nodes:
        raise ValueError("empty node set")
    known = set(network.bus_ids())
    unknown = nodes - known
    if unknown:
        raise KeyError(f"unknown bus id(s): {sorted(unknown)}")
    adj = {n: [] for n in nodes}
    for br in network.branches:
        if br.from_bus in nodes and br.to_bus in nodes:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes


# ---------------------------------------------------------------------------
# scenario assembly and validation
# ---------------------------------------------------------------------------

def as_number(val, where):
    """float(val) for a JSON number; a ScenarioError naming where otherwise."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {val!r}")
    return float(val)


def _per_bus(spec, network, name, steps=None, default=0.0):
    """Expand a {bus id: value} object into an (n_bus,) vector of scalars,
    or, given steps, into an (n_bus, steps) array of scalars or lists."""
    arr = np.full((network.n_bus,) if steps is None else (network.n_bus, steps),
                  default, dtype=float)
    if spec is None:
        return arr
    if not isinstance(spec, dict):
        raise ScenarioError(f"{name}: expected an object keyed by bus id, got {spec!r}")
    idx = network.bus_index()
    for key, val in spec.items():
        try:
            bid = int(key)
        except ValueError:
            raise ScenarioError(f"{name}: invalid bus id {key!r}") from None
        if bid not in idx:
            raise ScenarioError(f"{name}: unknown bus {bid}")
        where = f"{name}: bus {bid}"
        if steps is not None and isinstance(val, list):
            if len(val) != steps:
                raise ScenarioError(f"{where} needs {steps} values, got {len(val)}")
            arr[idx[bid]] = [as_number(v, where) for v in val]
        else:
            arr[idx[bid]] = as_number(val, where)
    return arr


def _partition(spec):
    if not isinstance(spec, list):
        raise ScenarioError(f"partition: expected a list of sheds, got {spec!r}")
    for k, nodes in enumerate(spec):
        if not isinstance(nodes, list) or not all(
                isinstance(b, int) and not isinstance(b, bool) for b in nodes):
            raise ScenarioError(f"partition: shed {k}: expected a list of integer "
                                f"bus ids, got {nodes!r}")
    return Partition(sheds=tuple((k, tuple(nodes)) for k, nodes in enumerate(spec)))


def scenario_files(path, cfg):
    """{key: path} for the case and profile files that the scenario config
    cfg (parsed from path) names, resolved relative to path's directory."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    files = {}
    for key in ("case_file", "profiles_file"):
        if key in cfg:
            if not isinstance(cfg[key], str):
                raise ScenarioError(f"{key}: expected a path string, got {cfg[key]!r}")
            files[key] = os.path.join(base, cfg[key])  # join keeps an absolute path
    return files


def load_scenario(path, name=None):
    """Load a scenario config JSON (paths resolved relative to the file)."""
    with open(path) as fh:
        cfg = json.load(fh)
    files = scenario_files(path, cfg)
    missing = [k for k in ("case_file", "profiles_file", "partition") if k not in cfg]
    if missing:
        raise ScenarioError(f"{path}: missing required key(s): {', '.join(missing)}")

    with open(files["case_file"]) as fh:
        network = parse_matpower_case(fh.read())

    with open(files["profiles_file"]) as fh:
        profile_text = fh.read()
    if not profile_text.strip():
        raise ProfileError(f"{files['profiles_file']}: empty profile file")
    header = profile_text.splitlines()[0].split(",")
    steps = len(header) - 2
    grid = TimeGrid(steps=steps, step_hours=as_number(cfg.get("step_hours", 1.0), "step_hours"))
    profiles = parse_profiles(profile_text, network, grid)

    # has_load flags follow the profiles, which are the authority on demand
    gamma = profiles.load.sum(axis=1)
    buses = tuple(replace(b, has_load=bool(g > 0)) for b, g in zip(network.buses, gamma))
    network = replace(network, buses=buses)

    limits = cfg.get("export_limits", {})
    if not isinstance(limits, dict):
        raise ScenarioError(f"export_limits: expected an object with 'upper'/'lower', "
                            f"got {limits!r}")
    has_limits = "export_limits" in cfg
    budgets = FlexBudget(
        cap_plus=_per_bus(cfg.get("cap_plus"), network, "cap_plus", steps),
        cap_minus=_per_bus(cfg.get("cap_minus"), network, "cap_minus", steps),
        export_upper=(_per_bus(limits.get("upper"), network, "export_limits.upper",
                               steps, default=INF) if has_limits else None),
        export_lower=(_per_bus(limits.get("lower"), network, "export_limits.lower",
                               steps, default=-INF) if has_limits else None),
    )
    weights = CostWeights(
        alpha=_per_bus(cfg.get("alpha"), network, "alpha"),
        beta=_per_bus(cfg.get("beta"), network, "beta"),
    )
    flex_only = cfg.get("flex_only_at_load_buses", True)
    if not isinstance(flex_only, bool):
        raise ScenarioError(f"flex_only_at_load_buses: expected true or false, "
                            f"got {flex_only!r}")
    return Scenario(
        network=network,
        time_grid=grid,
        profiles=profiles,
        budgets=budgets,
        weights=weights,
        partition=_partition(cfg["partition"]),
        flex_only_at_load_buses=flex_only,
        name=name or os.path.splitext(os.path.basename(path))[0],
    )


def _add_non_finite(rep, code, label, bad, net):
    """One violation located at the first bus whose row of bad is set."""
    hits = np.argwhere(bad)
    if len(hits):
        rep.add(code, f"non-finite {label} entries",
                location=f"bus {net.buses[hits[0][0]].id}")


def validate_scenario(scenario):
    """Check every type invariant; violations become report entries."""
    rep = ValidationReport()
    net = scenario.network
    n, steps = net.n_bus, scenario.time_grid.steps
    idx = net.bus_index()

    ids = net.bus_ids()
    if len(set(ids)) != len(ids):
        rep.add("duplicate-bus", "bus ids not unique")
    if net.reference_bus not in idx:
        rep.add("missing-reference", f"reference bus {net.reference_bus} not in network")
    if net.n_bus and not induced_subgraph_connected(net, ids):
        rep.add("disconnected-network", "network graph is not connected")
    for br in net.branches:
        if br.reactance <= 0:
            rep.add("nonpositive-reactance",
                    f"branch {br.from_bus}-{br.to_bus} has reactance {br.reactance}")

    for mat, label in ((scenario.profiles.gen, "gen"), (scenario.profiles.load, "load")):
        if mat.shape != (n, steps):
            rep.add("profile-shape", f"{label} profile shape {mat.shape} != ({n}, {steps})")
        elif (mat < 0).any():
            rep.add("negative-profile", f"negative {label} profile values")

    b = scenario.budgets
    for mat, label in ((b.cap_plus, "cap_plus"), (b.cap_minus, "cap_minus")):
        if mat.shape != (n, steps):
            rep.add("budget-shape", f"{label} shape {mat.shape} != ({n}, {steps})")
            continue
        _add_non_finite(rep, "non-finite-budget", label, ~np.isfinite(mat), net)
        if (mat < 0).any():
            rep.add("negative-budget", f"negative {label} entries")
    if scenario.flex_only_at_load_buses and b.cap_plus.shape == (n, steps):
        for i, bus in enumerate(net.buses):
            if not bus.has_load and (b.cap_plus[i].any() or b.cap_minus[i].any()):
                rep.add("flex-at-load-free-bus",
                        f"bus {bus.id} has flexibility budget but no load",
                        location=f"bus {bus.id}")
    # +-inf in an export limit means "no limit"; only NaN is malformed
    for mat, label in ((b.export_upper, "export_limits.upper"),
                       (b.export_lower, "export_limits.lower")):
        if mat is not None and mat.shape == (n, steps):
            _add_non_finite(rep, "non-finite-export-limit", label, np.isnan(mat), net)
    if b.export_upper is not None and b.export_lower is not None:
        if (b.export_lower > b.export_upper).any():
            rep.add("export-bounds-crossed", "export lower bound exceeds upper bound")

    for vec, label in ((scenario.weights.alpha, "alpha"), (scenario.weights.beta, "beta")):
        if vec.shape != (n,):
            rep.add("weight-shape", f"{label} length {vec.shape} != {n}")
            continue
        _add_non_finite(rep, "non-finite-weight", label, ~np.isfinite(vec), net)
        if (vec < 0).any():
            rep.add("negative-weight", f"negative {label} entries")

    # partition invariants
    seen = set()
    load_buses = {bus.id for bus in net.buses if bus.has_load}
    covered = set()
    for k, nodes in scenario.partition.sheds:
        nodes = set(nodes)
        if not nodes:
            rep.add("empty-shed", f"shed {k} has no buses", location=f"shed {k}")
            continue
        unknown = nodes - set(ids)
        if unknown:
            rep.add("unknown-shed-bus", f"shed {k} references unknown buses {sorted(unknown)}",
                    location=f"shed {k}")
            continue
        overlap = nodes & seen
        if overlap:
            rep.add("sheds-not-disjoint", f"buses {sorted(overlap)} in multiple sheds",
                    location=f"shed {k}")
        seen |= nodes
        covered |= nodes
        if not induced_subgraph_connected(net, nodes):
            rep.add("disconnected-shed", f"shed {k} induces a disconnected subgraph",
                    location=f"shed {k}")
        member_rows = [idx[i] for i in nodes if i in idx]
        if scenario.profiles.load.shape == (n, steps):
            demand = scenario.profiles.load[member_rows].sum()
            if demand <= 0:
                rep.add("zero-demand-shed", f"shed {k} has zero total demand",
                        location=f"shed {k}")
    uncovered = load_buses - covered
    if uncovered:
        rep.add("uncovered-load-bus",
                f"load buses {sorted(uncovered)} not assigned to any shed")
    return rep


# ---------------------------------------------------------------------------
# shed aggregates
# ---------------------------------------------------------------------------

def _shed_rows(scenario, shed_id):
    idx = scenario.network.bus_index()
    return [idx[i] for i in scenario.partition.members(shed_id)]


def total_demand(scenario, shed_id):
    """Total load energy of a shed over the window (per-unit energy)."""
    rows = _shed_rows(scenario, shed_id)
    return float(scenario.profiles.load[rows].sum() * scenario.time_grid.step_hours)


def baseline_ratio(scenario, shed_id):
    """Pre-flexibility ratio of shed generation energy to demand energy."""
    rows = _shed_rows(scenario, shed_id)
    demand = scenario.profiles.load[rows].sum()
    if demand <= 0:
        raise ScenarioError(f"shed {shed_id} has zero total demand")
    return float(scenario.profiles.gen[rows].sum() / demand)
