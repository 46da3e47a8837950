"""Seeded scenario generator for the benchmark workloads.

Everything is derived from the bundled 39-bus data (``case39.m``,
``profiles39.csv`` and ``scenario_medium.json``), so no case has to be
downloaded.  Two generated scenario kinds:

* ``write_scale_case``: the network tiled ``SCALE_TILES`` times with seeded
  tie lines, the 24-step profiles extended to ``SCALE_STEPS`` steps by a seeded
  per-bus perturbation, and net-export limits on a seeded subset of buses.
* ``write_p2_variant``: bundled medium with one shed's injection budget
  cut, which moves the best uniform floor tau* off the bracket top.

The perturbation scales generation and load of one tile at one step by a
common seeded factor in (0.9, 1]: independent per-bus noise on gen and
load unbalanced midday steps (total deficit about 2% of load) enough that
even floor 0 became infeasible, while a common factor no larger than 1
keeps a step's base dispatch feasible when scaled with it.

Files are written with the package's own serializers
(``serialize_network_case``, ``profiles_to_csv``).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from energyshed.netmodel import (
    Branch,
    Network,
    Profiles,
    TimeGrid,
    parse_matpower_case,
    parse_profiles,
    profiles_to_csv,
    serialize_network_case,
)

TILE_ID_STRIDE = 100          # tile j's bus b gets id b + j * stride
# 2 tiles x 72 steps solve in about 3 s; 2 x 168 took about 10 s and
# 4 x 168 about 25 s, too long for a benchmark round.
SCALE_TILES, SCALE_STEPS = 2, 72
TIES_PER_PAIR = 3             # tie lines between consecutive tiles
TIE_REACTANCE = (0.01, 0.04)  # per-unit, drawn uniformly
TIE_LIMIT_PU = 6.0            # rateA 600 MW, like the tighter case39 lines
PROFILE_SCALE = (0.9, 1.0)    # per-tile, per-step factor on gen and load
EXPORT_LIMIT_SHARE = 0.25     # share of flexible buses given export limits
EXPORT_HEADROOM = (0.3, 0.7)  # net export allowed above the base, x cap_plus


def data_dir(root):
    return os.path.join(root, "src", "energyshed", "data")


def load_base(root):
    """(network, 24-step profiles, medium scenario config) of the bundled data."""
    d = data_dir(root)
    with open(os.path.join(d, "case39.m")) as fh:
        net = parse_matpower_case(fh.read())
    with open(os.path.join(d, "profiles39.csv")) as fh:
        text = fh.read()
    steps = len(text.splitlines()[0].split(",")) - 2
    prof = parse_profiles(text, net, TimeGrid(steps=steps))
    with open(os.path.join(d, "scenario_medium.json")) as fh:
        cfg = json.load(fh)
    return net, prof, cfg


def tile_network(net, tiles, rng):
    """``tiles`` copies of net joined in a chain by seeded tie lines."""
    stride = TILE_ID_STRIDE
    if max(net.bus_ids()) >= stride:
        raise ValueError("bus ids too large for tiling stride")
    buses, branches = [], []
    for j in range(tiles):
        buses += [replace(b, id=b.id + j * stride) for b in net.buses]
        branches += [replace(br, from_bus=br.from_bus + j * stride,
                             to_bus=br.to_bus + j * stride)
                     for br in net.branches]
    ids = np.array(net.bus_ids())
    for j in range(tiles - 1):
        ends = rng.choice(ids, size=(TIES_PER_PAIR, 2))
        for a, b in ends:
            x = float(np.round(rng.uniform(*TIE_REACTANCE), 4))
            branches.append(Branch(int(a) + j * stride, int(b) + (j + 1) * stride,
                                   x, TIE_LIMIT_PU))
    return Network(buses=tuple(buses), branches=tuple(branches),
                   base_mva=net.base_mva, reference_bus=net.reference_bus)


def extend_profiles(prof, tiles, steps, rng):
    """Tile and extend (n_bus, 24) profiles to (tiles * n_bus, steps)."""
    day = prof.gen.shape[1]
    cols = np.arange(steps) % day
    gen, load = [], []
    for _ in range(tiles):
        f = rng.uniform(*PROFILE_SCALE, steps)
        gen.append(prof.gen[:, cols] * f)
        load.append(prof.load[:, cols] * f)
    # 9 decimals keep the CSV small; values are exact once written
    return Profiles(gen=np.round(np.vstack(gen), 9),
                    load=np.round(np.vstack(load), 9))


def _tiled_map(spec, tiles):
    return {str(int(b) + j * TILE_ID_STRIDE): v
            for j in range(tiles) for b, v in spec.items()}


def _write(out_dir, name, network, profiles, cfg):
    """Write <name>.m, <name>.csv and <name>.json; return the JSON path."""
    os.makedirs(out_dir, exist_ok=True)
    grid = TimeGrid(steps=profiles.gen.shape[1])
    with open(os.path.join(out_dir, name + ".m"), "w") as fh:
        fh.write(serialize_network_case(network))
    with open(os.path.join(out_dir, name + ".csv"), "w", newline="") as fh:
        fh.write(profiles_to_csv(network, grid, profiles))
    cfg = dict(cfg, case_file=name + ".m", profiles_file=name + ".csv")
    path = os.path.join(out_dir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_scale_case(root, out_dir, seed, name):
    """Tiled, extended scenario with export limits; returns its JSON path."""
    tiles, steps = SCALE_TILES, SCALE_STEPS
    rng = np.random.default_rng([seed, tiles, steps])
    net, prof, cfg = load_base(root)
    big = tile_network(net, tiles, rng)
    profiles = extend_profiles(prof, tiles, steps, rng)

    cap_plus = _tiled_map(cfg["cap_plus"], tiles)
    flex = sorted(cap_plus, key=int)
    chosen = rng.choice(len(flex), size=max(1, round(EXPORT_LIMIT_SHARE * len(flex))),
                        replace=False)
    idx = {b.id: i for i, b in enumerate(big.buses)}
    upper = {}
    for c in sorted(chosen):
        bus = flex[c]
        i = idx[int(bus)]
        room = float(rng.uniform(*EXPORT_HEADROOM)) * cap_plus[bus]
        base = profiles.gen[i] - profiles.load[i]
        upper[bus] = [round(float(v), 9) for v in base + room]

    partition = [[b + j * TILE_ID_STRIDE for b in shed]
                 for j in range(tiles) for shed in cfg["partition"]]
    out = {
        "step_hours": cfg.get("step_hours", 1.0),
        "flex_only_at_load_buses": cfg.get("flex_only_at_load_buses", True),
        "alpha": _tiled_map(cfg["alpha"], tiles),
        "beta": _tiled_map(cfg["beta"], tiles),
        "cap_plus": cap_plus,
        "cap_minus": _tiled_map(cfg["cap_minus"], tiles),
        "export_limits": {"upper": upper},
        "partition": partition,
    }
    return _write(out_dir, name, big, profiles, out)


# (shed index, cap_plus factor) of the interior-tau* variants of medium:
# tau* is 0.787 and 0.552, with 5 of 10 bisection probes (epsilon 1e-3)
# feasible on each.
P2_VARIANTS = ((0, 0.2), (7, 0.15))


def write_p2_variant(root, out_dir, variant, name):
    """Medium with one shed's cap_plus cut (P2_VARIANTS[variant]); returns its JSON path."""
    net, prof, cfg = load_base(root)
    shed, factor = P2_VARIANTS[variant]
    members = {str(b) for b in cfg["partition"][shed]}
    cfg = dict(cfg)
    cfg["cap_plus"] = {b: (round(v * factor, 6) if b in members else v)
                       for b, v in cfg["cap_plus"].items()}
    return _write(out_dir, name, net, prof, cfg)

