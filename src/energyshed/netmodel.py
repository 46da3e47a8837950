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
import re
from collections import Counter
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CostWeights:
    alpha: np.ndarray  # per-bus generation-capacity weight
    beta: np.ndarray   # per-bus demand-capacity weight


@dataclass(frozen=True)
class Partition:
    sheds: tuple[tuple[int, tuple[int, ...]], ...]  # (shed id, bus ids)

    def shed_ids(self):
        return [k for k, _ in self.sheds]


@dataclass(frozen=True)
class Scenario:
    network: Network
    time_grid: TimeGrid
    profiles: Profiles
    budgets: FlexBudget
    weights: CostWeights
    partition: Partition
    flex_only_at_load_buses: bool = True


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

def _number(tok, where, line, ln):
    """float(tok) if finite, else a CaseParseError located at tok in line
    (0-based line number ln)."""
    try:
        val = float(tok)
        kind = "non-finite"
    except ValueError:
        val, kind = math.nan, "invalid"
    if not math.isfinite(val):
        raise CaseParseError(f"{kind} numeric token {tok!r} in {where}",
                             line=ln + 1, col=line.find(tok) + 1 or None)
    return val


KNOWN_CASE_FIELDS = {"baseMVA", "bus", "branch", "version"}
_ASSIGN = re.compile(r"\s*mpc\.(\w+)\s*=\s*(.*)")


def _scan_case(text, warn):
    """One pass over the ``mpc.<name> = <rhs>`` statements of a case file.

    Returns {"baseMVA": float, "bus"/"branch": [(line number, [floats])]}
    for the fields present, and calls warn(name) on any unknown name.
    Text after % is a comment; a matrix runs from its [ to the next ], one
    row per ;-separated statement, and a row never spans lines.
    """
    fields, rows = {}, None  # rows: those of the open matrix
    for ln, line in enumerate(text.splitlines()):
        line = body = line.split("%", 1)[0]
        if rows is None:
            m = _ASSIGN.match(line)
            if m is None or m[1] == "version":
                continue
            name, body = m.groups()
            if name not in KNOWN_CASE_FIELDS:
                if warn is not None:
                    warn(name)
                continue
            if name in fields:
                raise CaseParseError(f"mpc.{name} assigned twice", line=ln + 1)
            if name == "baseMVA":
                fields[name] = _number(body.rstrip(" \t;"), f"mpc.{name}", line, ln)
                continue
            if not body.startswith("["):
                raise CaseParseError(f"mpc.{name} must be a [ ... ] matrix", line=ln + 1)
            rows = fields[name] = []
            start, body = ln, body[1:]
        for stmt in body.split("]", 1)[0].split(";"):
            if stmt.strip():
                rows.append((ln + 1, [_number(tok, f"mpc.{name}", line, ln)
                                      for tok in stmt.split()]))
        if "]" in body:
            rows = None
    if rows is not None:
        raise CaseParseError(f"unterminated matrix mpc.{name}", line=start + 1)
    return fields


def parse_matpower_case(text, warn=None):
    """Parse the documented MATPOWER subset into a Network.

    Only ``mpc.baseMVA``, ``mpc.bus`` and ``mpc.branch`` are read; any other
    ``mpc.*`` assignment triggers ``warn(field_name)`` if a callback is given.
    Bus column 1 is the id, column 2 the type (3 = reference); Pd is not
    read, as the load profiles mark the load buses.  Branch columns 1, 2, 4,
    6 are from, to, reactance, rateA.  rateA = 0 means unlimited; a
    negative rateA is an error.
    """
    fields = _scan_case(text, warn)
    base_mva = fields.get("baseMVA")
    if base_mva is None:
        raise CaseParseError("missing mpc.baseMVA")
    if base_mva <= 0:
        raise CaseParseError("baseMVA must be positive")
    bus_rows = fields.get("bus")
    if not bus_rows:
        raise CaseParseError("missing or empty mpc.bus matrix")

    buses = []
    seen = set()
    ref = None
    for ln, row in bus_rows:
        if len(row) < 2:
            raise CaseParseError("bus row needs at least id and type columns", line=ln)
        bid, btype = map(int, row[:2])
        if [bid, btype] != row[:2]:
            raise CaseParseError(f"non-integer bus id or type {row[:2]}", line=ln)
        if bid in seen:
            raise CaseParseError(f"duplicate bus id {bid}", line=ln)
        seen.add(bid)
        if btype == 3:
            ref = bid
        buses.append(Bus(id=bid))
    if ref is None:
        ref = min(seen)

    branches = []
    for ln, row in fields.get("branch", []):
        if len(row) < 6:
            raise CaseParseError("branch row needs at least 6 columns", line=ln)
        f, t = map(int, row[:2])
        if [f, t] != row[:2]:
            raise CaseParseError(f"non-integer branch end buses {row[:2]}", line=ln)
        x = row[3]
        rate_a = row[5]
        if f not in seen or t not in seen:
            raise CaseParseError(f"branch references unknown bus {f if f not in seen else t}",
                                 line=ln)
        if f == t:
            raise CaseParseError(f"branch connects bus {f} to itself", line=ln)
        if x <= 0:
            raise CaseParseError(f"nonpositive reactance on branch {f}-{t}", line=ln)
        if rate_a < 0:
            raise CaseParseError(f"negative rateA on branch {f}-{t}", line=ln)
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
        out.write(f"\t{b.id}\t{btype}\t0\t0\t0\t0\t1\t1\t0\t345\t1\t1.06\t0.94;\n")
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
    reader = csv.reader(io.StringIO(text, newline=None))  # a lone \r ends a line
    header = next(reader, None)
    if header is None:
        return Profiles(gen=gen, load=load)
    if len(header) != grid.steps + 2:
        raise ProfileError(f"header has {len(header)} columns, expected {grid.steps + 2}")
    seen = set()
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
        if (bid, kind) in seen:
            raise ProfileError(f"row {ln}: second {kind} row for bus {bid}")
        seen.add((bid, kind))
        try:
            vals = np.array([float(v) for v in row[2:]])
        except ValueError as exc:
            raise ProfileError(f"row {ln}: invalid profile value ({exc})") from None
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
            bid = None
        if bid is None or str(bid) != key:  # "01" or "1_0" would alias a bus
            raise ScenarioError(f"{name}: invalid bus id {key!r}")
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


SCENARIO_KEYS = ("case_file", "profiles_file", "partition", "step_hours", "cap_plus",
                 "cap_minus", "export_limits", "alpha", "beta", "flex_only_at_load_buses")


def read_json(path):
    """The JSON document at path; a ScenarioError names a key that one
    object repeats, where json alone would keep its last value."""
    def unique_keys(pairs):
        counts = Counter(k for k, _ in pairs)
        for key, n in counts.items():
            if n > 1:
                raise ScenarioError(f"{path}: key {key!r} given twice in one object")
        return dict(pairs)

    with open(path) as fh:
        return json.load(fh, object_pairs_hook=unique_keys)


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


def load_scenario(path, warn=None):
    """Load a scenario config JSON (paths resolved relative to the file).

    warn, if given, is called as in parse_matpower_case on each case-file
    field outside the supported subset.
    """
    cfg = read_json(path)
    files = scenario_files(path, cfg)
    for key in cfg:
        if key not in SCENARIO_KEYS:
            raise ScenarioError(f"{key}: unknown scenario key; expected one of "
                                f"{', '.join(SCENARIO_KEYS)}")
    missing = [k for k in ("case_file", "profiles_file", "partition") if k not in cfg]
    if missing:
        raise ScenarioError(f"{path}: missing required key(s): {', '.join(missing)}")

    with open(files["case_file"]) as fh:
        network = parse_matpower_case(fh.read(), warn)

    with open(files["profiles_file"]) as fh:
        profile_text = fh.read()
    if not profile_text.strip():
        raise ProfileError(f"{files['profiles_file']}: empty profile file")
    header = profile_text.splitlines()[0].split(",")
    steps = len(header) - 2
    grid = TimeGrid(steps=steps, step_hours=as_number(cfg.get("step_hours", 1.0), "step_hours"))
    profiles = parse_profiles(profile_text, network, grid)

    limits = cfg.get("export_limits", {})
    if not isinstance(limits, dict):
        raise ScenarioError(f"export_limits: expected an object with 'upper'/'lower', "
                            f"got {limits!r}")
    for key in limits:
        if key not in ("upper", "lower"):
            raise ScenarioError(f"export_limits.{key}: unknown key; expected 'upper' or 'lower'")
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
    for bid, count in sorted(Counter(ids).items()):
        if count > 1:
            rep.add("duplicate-bus", f"bus id {bid} listed {count} times",
                    location=f"bus {bid}")
    if net.reference_bus not in idx:
        rep.add("missing-reference", f"reference bus {net.reference_bus} not in network",
                location="reference bus")
    if net.n_bus and not induced_subgraph_connected(net, ids):
        rep.add("disconnected-network", "network graph is not connected")
    for br in net.branches:
        where = f"branch {br.from_bus}-{br.to_bus}"
        for end in (b for b in (br.from_bus, br.to_bus) if b not in idx):
            rep.add("unknown-branch-bus", f"{where} references unknown bus {end}", where)
        # negated comparisons, so NaN fails each check
        if not br.reactance > 0:
            rep.add("nonpositive-reactance", f"{where} has reactance {br.reactance}", where)
        elif br.reactance == INF:
            rep.add("non-finite-reactance", f"{where} has reactance {br.reactance}", where)
        if not br.flow_limit >= 0:
            rep.add("invalid-flow-limit", f"{where} has flow limit {br.flow_limit}", where)

    # every array is (n_bus, steps); an absent export limit is None, and
    # +-inf in one means "no limit", so only NaN is malformed there
    b = scenario.budgets
    shaped = set()
    for kind, label, mat in (("profile", "gen profile", scenario.profiles.gen),
                             ("profile", "load profile", scenario.profiles.load),
                             ("budget", "cap_plus", b.cap_plus),
                             ("budget", "cap_minus", b.cap_minus),
                             ("export-limit", "export_limits.upper", b.export_upper),
                             ("export-limit", "export_limits.lower", b.export_lower)):
        if mat is None:
            continue
        if mat.shape != (n, steps):
            rep.add(f"{kind}-shape", f"{label} shape {mat.shape} != ({n}, {steps})")
            continue
        shaped.add(label)
        limit = kind == "export-limit"
        _add_non_finite(rep, f"non-finite-{kind}", label,
                        np.isnan(mat) if limit else ~np.isfinite(mat), net)
        if not limit and (mat < 0).any():
            rep.add(f"negative-{kind}", f"negative {label} entries")
    # the load profile alone marks the load buses
    loaded = (scenario.profiles.load.sum(axis=1) > 0 if "load profile" in shaped
              else np.zeros(n, dtype=bool))
    if scenario.flex_only_at_load_buses and {"load profile", "cap_plus", "cap_minus"} <= shaped:
        for i, bus in enumerate(net.buses):
            if not loaded[i] and (b.cap_plus[i].any() or b.cap_minus[i].any()):
                rep.add("flex-at-load-free-bus",
                        f"bus {bus.id} has flexibility budget but no load",
                        location=f"bus {bus.id}")
    if ({"export_limits.upper", "export_limits.lower"} <= shaped
            and (b.export_lower > b.export_upper).any()):
        rep.add("export-bounds-crossed", "export lower bound exceeds upper bound")

    for vec, label in ((scenario.weights.alpha, "alpha"), (scenario.weights.beta, "beta")):
        if vec.shape != (n,):
            rep.add("weight-shape", f"{label} length {vec.shape} != {n}")
            continue
        _add_non_finite(rep, "non-finite-weight", label, ~np.isfinite(vec), net)
        if (vec < 0).any():
            rep.add("negative-weight", f"negative {label} entries")

    # partition invariants
    if not scenario.partition.sheds:
        rep.add("no-sheds", "partition has no sheds", location="partition")
    seen = set()
    load_buses = {bus.id for bus, is_load in zip(net.buses, loaded) if is_load}
    for k, nodes in scenario.partition.sheds:
        repeated = sorted(b for b, c in Counter(nodes).items() if c > 1)
        if repeated:
            rep.add("duplicate-shed-bus", f"shed {k} lists buses {repeated} more than once",
                    location=f"shed {k}")
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
        if not induced_subgraph_connected(net, nodes):
            rep.add("disconnected-shed", f"shed {k} induces a disconnected subgraph",
                    location=f"shed {k}")
        member_rows = [idx[i] for i in nodes]
        if "load profile" in shaped:
            demand = scenario.profiles.load[member_rows].sum()
            if demand <= 0:
                rep.add("zero-demand-shed", f"shed {k} has zero total demand",
                        location=f"shed {k}")
    uncovered = load_buses - seen
    if uncovered:
        rep.add("uncovered-load-bus",
                f"load buses {sorted(uncovered)} not assigned to any shed",
                location="partition")
    return rep


# ---------------------------------------------------------------------------
# shed aggregates
# ---------------------------------------------------------------------------

def shed_rows(scenario):
    """Per shed, in partition order: the positions of its buses in
    network.buses (the rows of the profile and budget arrays)."""
    idx = scenario.network.bus_index()
    return [[idx[b] for b in members] for _, members in scenario.partition.sheds]
