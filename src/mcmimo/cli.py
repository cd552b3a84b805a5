"""Batch experiment runner: seeded figure/table reproductions with CSV output.

All dB <-> linear conversions live here; the core modules work in linear
watts against unit noise power. Every experiment is deterministic given the
root seed: user drops, fading trials and search evaluations derive their
streams from (seed, purpose tag, indices), so re-running a spec (or the
manifest it wrote) reproduces the output files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import re
import shutil
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .allocation import (
    PROFILE_COEFFICIENTS,
    WaterfillCoefficients,
    equal_alloc,
    relative_gain,
    uplink_alloc_approx,
    uplink_alloc_lower_bound,
    uplink_alloc_upper_bound,
    waterfill,
)
from .closedform import (
    DownlinkProfile,
    InterferenceProfile,
    downlink_lower_bound,
    downlink_profile,
    uplink_approximation,
    uplink_lower_bound,
    uplink_profile,
    uplink_upper_bound,
)
from .mcrate import ESTIMATOR_VERSION, PowerAllocation, downlink_rate_mc, uplink_rate_mc
from .network import network_sum_rate, run_joint_drops, run_scheduled
from .topology import CellTopology, NetworkConfig, build_topology, check_field, derive_seed

EDGE_SPLIT_FACTOR = 0.8  # users beyond this fraction of the cell radius are "edge"

# stream tags for seed derivation
_TAG_DROP, _TAG_MC, _TAG_SLOT, _TAG_GAIN = 1, 2, 3, 4

KINDS = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig10", "fig11", "fig12", "table2", "table3a", "table3b", "custom",
)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# experiment specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple

    def __post_init__(self):
        # antenna, user, ratio and slot counts are run as ints, so a fraction
        # must not be truncated, nor a 0 run as the network's own count (a
        # fig12 slot 0 would read the last slot); only a power sweep takes any
        # real value
        check_field("sweep.values", self.values,
                    ["number" if self.variable == "powerDb" else "size"])
        vals = tuple(float(v) for v in self.values)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep.values must be strictly increasing")
        object.__setattr__(self, "values", vals)


_KIND_DEFAULTS = {
    # kind: (sweep variable, sweep values, options)
    "fig2": ("bsAntennas", [20, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500],
             {"powersDb": [20, 30], "interfererUserPowerDb": 10,
              "estimators": ["mc", "lower", "upper", "approx"]}),
    "fig3": ("powerDb", [0, 5, 10, 15, 20, 25, 30],
             {"interfererUserPowerDb": 10,
              "estimators": ["mc", "lower", "upper", "approx"]}),
    "fig4": ("bsAntennas", [20, 50, 100, 150, 200, 300, 400, 500],
             {"powerDb": 20, "interfererUserPowerDb": 10, "evaluator": "approx",
              "scenarios": ["multicell", "singlecell"]}),
    "fig5": ("bsAntennas", [20, 50, 100, 150, 200, 300, 400, 500],
             {"powerDb": 20, "interfererUserPowerDb": 10, "evaluator": "approx",
              "scenarios": ["multicell", "singlecell"]}),
    "fig6": ("usersPerCell", [4, 8, 12, 16, 20],
             {"ratios": [2, 5, 10], "powerDb": 20, "interfererUserPowerDb": 10}),
    "fig7": ("ratio", [2, 4, 6, 8, 10, 14, 18, 22, 26, 30],
             {"powersDb": [10, 15, 20, 25], "interfererUserPowerDb": 10}),
    "fig8": ("bsAntennas", [20, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500],
             {"powersDb": [40, 50], "interfererCellPowerDb": 30, "estimators": ["mc", "lower"]}),
    "fig10": ("bsAntennas", [20, 50, 100, 150, 200, 300, 400, 500],
              {"powerDb": 40, "interfererCellPowerDb": 30}),
    "fig11": ("bsAntennas", [20, 50, 100, 150, 200, 300, 400, 500],
              {"powerDb": 40, "interfererCellPowerDb": 30}),
    "fig12": ("slot", list(range(1, 13)),
              {"powerW": 50.0, "initialUserPowerDb": 10, "estimator": "closedForm",
               "jointMaxIters": 800, "jointTolerance": 1e-10}),
    # table kinds bisect inside [sweep.values[0], sweep.values[-1]]
    "table2": ("ratio", [2, 120],
               {"powersDb": [10, 15, 20, 25], "thresholds": [0.10, 0.20],
                "interfererUserPowerDb": 10}),
    "table3a": ("bsAntennas", [6, 2000],
                {"usersList": [5, 10, 20], "powersDb": [35, 40, 45],
                 "thresholds": [0.10, 0.20], "interfererCellPowerDb": 30}),
    "table3b": ("usersPerCell", [1, 45],
                {"antennasList": [50, 100, 200], "powersDb": [35, 40, 45],
                 "thresholds": [0.10, 0.20], "interfererCellPowerDb": 30}),
    "custom": ("bsAntennas", [20, 100, 500],
               {"direction": "uplink", "powerDb": 20, "interfererUserPowerDb": 10,
                "interfererCellPowerDb": 30, "estimators": ["mc", "approx"]}),
}


# each kind sweeps its default variable; only custom has a second one
_KIND_SWEEP_VARS = {kind: (var,) for kind, (var, _, _) in _KIND_DEFAULTS.items()}
_KIND_SWEEP_VARS["custom"] += ("powerDb",)


_UPLINK_RATES = {"lower": uplink_lower_bound, "upper": uplink_upper_bound,
                 "approx": uplink_approximation}


_DOWNLINK_RATES = {"lower": downlink_lower_bound}


# The kind of value (see topology.check_field) of every spec, option and
# threshold-query JSON name; a name shared by two of them means the same in each.
_FIELDS = {
    "trials": "count", "drops": "count",
    # options
    "powersDb": ["number"], "powerDb": "number", "interfererUserPowerDb": "number",
    "interfererCellPowerDb": "number", "initialUserPowerDb": "number",
    "estimators": [("mc", *_UPLINK_RATES)],  # on the downlink ("mc", *_DOWNLINK_RATES)
    "evaluator": (*_UPLINK_RATES, "mc"), "estimator": ("closedForm", "monteCarlo"),
    "direction": ("uplink", "downlink"),
    # a misspelt scenario would otherwise run the multicell geometry under its own name
    "scenarios": [("multicell", "singlecell")],
    "ratios": ["size"], "usersList": ["size"], "antennasList": ["size"],
    "thresholds": ["nonnegative"], "powerW": "positive", "jointMaxIters": "count",
    "jointTolerance": "nonnegative",
    # threshold queries
    "threshold": "nonnegative", "power": "number", "searchRange": ["integral"],
    "mode": ("maxRatio", "maxAntennas", "minUsers"), "fixedUsers": "count",
    "fixedAntennas": "count", "interfererPowerDb": "number", "edgeOnly": "bool",
}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    network: NetworkConfig
    sweep: SweepSpec
    trials: int = 10_000
    drops: int = 50
    output: str = "out"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field("kind", self.kind, KINDS)
        allowed = _KIND_SWEEP_VARS[self.kind]
        if self.sweep.variable not in allowed:
            raise ValueError(
                f"kind {self.kind!r} sweeps over {' or '.join(allowed)}, "
                f"not {self.sweep.variable!r}"
            )
        for name in ("trials", "drops"):
            object.__setattr__(self, name, int(check_field(name, getattr(self, name), _FIELDS[name])))
        check_field("output", self.output, "string")
        known = _KIND_DEFAULTS[self.kind][2]
        # options are stored as given: the manifest echoes them
        for key, value in self.options.items():
            if key not in known:
                raise ValueError(
                    f"unknown option {key!r} for kind {self.kind!r}; expected one of {sorted(known)}")
            check_field(f"option {key!r}", value, _FIELDS[key])
        if self.kind == "fig12":  # run_scheduled's budget test, before any job
            opts, n = {**known, **self.options}, self.network.users_per_cell
            db, budget = opts["initialUserPowerDb"], opts["powerW"]
            if db_to_linear(db) * n > budget * (1 + 1e-9):
                raise ValueError(f"option 'initialUserPowerDb' {db} dB times usersPerCell {n} "
                                 f"exceeds option 'powerW' {budget}")
        if "estimators" in self.options and (
                self.kind == "fig8" or self.options.get("direction") == "downlink"):
            check_field("option 'estimators'", self.options["estimators"],
                        [("mc", *_DOWNLINK_RATES)])

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "ExperimentSpec":
        data = dict(check_field("experiment spec", data, "object"))
        if "spec" in data:  # manifest round-trip: accept a manifest document
            version = data.get("estimatorVersion")
            if version != ESTIMATOR_VERSION:
                raise ValueError(
                    f"manifest estimatorVersion {version!r} is not this build's "
                    f"{ESTIMATOR_VERSION}: its Monte Carlo outputs would not be reproduced"
                )
            data = dict(check_field("spec", data["spec"], "object"))
        kind = check_field("kind", data.get("kind"), KINDS)
        if "network" not in data:
            raise ValueError("experiment spec needs a 'network' field")
        overrides = overrides or {}
        network = NetworkConfig.from_json(check_field("network", data["network"], "object"))
        if "seed" in overrides and overrides["seed"] is not None:
            network = replace(network, seed=int(overrides["seed"]))
        default_var, default_vals, default_opts = _KIND_DEFAULTS[kind]
        sweep = data.get("sweep", {"variable": default_var, "values": default_vals})
        if sorted(check_field("sweep", sweep, "object")) != ["values", "variable"]:
            raise ValueError(f"sweep must have exactly the keys variable and values, got {sweep!r}")
        options = {**default_opts, **check_field("options", data.get("options", {}), "object")}
        known = {"kind", "network", "sweep", "trials", "drops", "output", "options", "spec"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {unknown}")
        # an explicit 0 or "" must reach __post_init__'s checks, not fall back to the spec
        trials = overrides.get("trials")
        drops = overrides.get("drops")
        out = overrides.get("out")
        return cls(
            kind=kind,
            network=network,
            sweep=SweepSpec(sweep["variable"], sweep["values"]),
            trials=data.get("trials", 10_000) if trials is None else trials,
            drops=data.get("drops", 50) if drops is None else drops,
            output=data.get("output", "out") if out is None else out,
            options=options,
        )

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentSpec":
        return cls.from_dict(json.loads(Path(path).read_text()), overrides)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "network": self.network.to_json(),
            "sweep": {"variable": self.sweep.variable, "values": list(self.sweep.values)},
            "trials": self.trials,
            "drops": self.drops,
            "output": self.output,
            "options": self.options,
        }


# ---------------------------------------------------------------------------
# shared evaluation helpers
# ---------------------------------------------------------------------------

def _fixed_allocs(n_cells, n_users, direction, user_power=None, cell_power=None):
    """(C, N) powers: ``user_power`` per uplink user, or ``cell_power`` split over the users."""
    p = user_power if direction == "uplink" else cell_power / n_users
    return np.full((n_cells, n_users), float(p))


def _mc_values(top, own, interferers, direction, trials, mc_seed):
    """(sum rate, within-drop CI) of cell 0 by Monte Carlo for each row of its powers
    ``own`` against the (C, N) ``interferers``, every row from one set of draws."""
    rows = np.repeat(interferers[None], len(own), axis=0)
    rows[:, 0] = own
    # looked up by module-level name on each call, as the tracing of
    # benchmarks/spans.py replaces those names
    mc = uplink_rate_mc if direction == "uplink" else downlink_rate_mc
    return [(est.sum_rate, float(est.ci_half_width.sum()))
            for est in mc(top, rows, 0, trials, mc_seed)]


# the uplink strategies in record order; fig12's scheduler runs "approx"
_UPLINK_STRATEGIES = {
    "lower": uplink_alloc_lower_bound,
    "upper": uplink_alloc_upper_bound,
    "approx": uplink_alloc_approx,
}


def _drop_topology(spec: ExperimentSpec, drop: int, *, users=None, antennas=None, cells=None):
    cfg = spec.network
    extra = [] if users is None else [int(users)]
    return build_topology(replace(
        cfg,
        seed=derive_seed(cfg.seed, _TAG_DROP, drop, *extra),
        users_per_cell=cfg.users_per_cell if users is None else users,
        bs_antennas=cfg.bs_antennas if antennas is None else antennas,
        cell_count=cfg.cell_count if cells is None else cells,
    ))


# Cell 0's profile against fixed-power interferers depends on the drop, N and
# the interferer power only: not on M, the cell's own power or a threshold. The
# helpers below take cell 0's profiles stacked over drops (one row each) and
# evaluate a probe for every drop in one array expression.

def _uplink_rows(tops, interferer_user_power) -> InterferenceProfile:
    """Cell 0's uplink profile in each drop of ``tops``, stacked."""
    allocs = _fixed_allocs(tops[0].n_cells, tops[0].n_users, "uplink",
                           user_power=interferer_user_power)
    return InterferenceProfile.stack([uplink_profile(top, allocs, 0) for top in tops])


def _downlink_rows(tops, interferer_cell_power) -> DownlinkProfile:
    """Cell 0's downlink profile in each drop of ``tops``, stacked."""
    allocs = _fixed_allocs(tops[0].n_cells, tops[0].n_users, "downlink",
                           cell_power=interferer_cell_power)
    return DownlinkProfile.stack([downlink_profile(top, allocs, 0) for top in tops])


def _waterfilled_rows(prof, strategies, ms, p_lin) -> np.ndarray:
    """Powers water-filled by each of S ``strategies`` at each M of ``ms``, one
    call for all rows: (len(ms), S * D, N) for a profile of D rows (1 unstacked)."""
    n = prof.n_users
    coeffs = np.vstack([PROFILE_COEFFICIENTS[name](prof, m, n) for m in ms for name in strategies])
    return waterfill(WaterfillCoefficients(coeffs, p_lin)).powers.reshape(len(ms), -1, n)


def _pa_eq(prof, ms, p_lin) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-user rates of cell 0 per drop, (D, N) each, with water-filling and
    with equal power at each M of ``ms``: the uplink approximation of an
    InterferenceProfile, the downlink lower bound of a DownlinkProfile."""
    strategy, rate = (("approx", uplink_approximation) if isinstance(prof, InterferenceProfile)
                      else ("downlink", downlink_lower_bound))
    n = prof.n_users
    eq = equal_alloc(n, p_lin).powers
    return [(rate(prof, m, n, pa), rate(prof, m, n, eq))
            for m, pa in zip(ms, _waterfilled_rows(prof, (strategy,), ms, p_lin))]


def _edge_users(top: CellTopology) -> np.ndarray:
    return top.user_distances(0) > EDGE_SPLIT_FACTOR * top.config.cell_radius


def _downlink_gains(prof: DownlinkProfile, m: int, p_lin, users=None) -> np.ndarray:
    """Relative downlink gain of cell 0 per drop, over the users selected by
    the (D, N) mask ``users`` (all when None); drops selecting no user are
    left out."""
    (r_pa, r_eq), = _pa_eq(prof, [m], p_lin)
    if users is None:
        return relative_gain(r_pa.sum(axis=1), r_eq.sum(axis=1))
    keep = users.any(axis=1)
    # summed as 1-D selections: numpy's pairwise sum of a zero-filled row
    # rounds differently from the sum of its selected entries
    c_pa = np.array([r[u].sum() for r, u in zip(r_pa[keep], users[keep])])
    c_eq = np.array([r[u].sum() for r, u in zip(r_eq[keep], users[keep])])
    return relative_gain(c_pa, c_eq)


# ---------------------------------------------------------------------------
# per-kind job runners: payload {"drops": [d, ...]} -> records
# ---------------------------------------------------------------------------

# A job is a contiguous chunk of drops. Large-scale fading does not depend on
# M, and cell 0's profile depends on neither the sweep point, nor M, nor the
# cell's own power: so a job builds each of its geometries once per drop, at
# the smallest M it rates (so that config check covers every M), reaches the
# other M through ``CellTopology.with_antennas`` and profiles cell 0 once.

def _each_drop(run_drop):
    """The job runner that concatenates ``run_drop(spec, d)``'s records over
    the job's drops, in order."""
    @functools.wraps(run_drop)
    def run(spec: ExperimentSpec, job: dict) -> list[dict]:
        return [rec for d in job["drops"] for rec in run_drop(spec, d)]
    return run


@_each_drop
def _job_equal_power(spec: ExperimentSpec, d: int) -> list[dict]:
    """Equal-power rate curves (fig2, fig3, fig8, custom) of one drop.

    An M sweep rates each M's power panels as the rows of one call; a power
    sweep rates every power as a row of one call. Monte Carlo draws each
    call's rows from one set of draws, as nothing drawn depends on power.
    """
    opts = spec.options
    direction = opts.get("direction", "downlink" if spec.kind == "fig8" else "uplink")
    root = spec.network.seed

    # calls as (M, [(panel, x, power)], Monte Carlo seed)
    if spec.sweep.variable == "powerDb":
        calls = [(spec.network.bs_antennas, [("", x, db_to_linear(x)) for x in spec.sweep.values],
                  derive_seed(root, _TAG_MC, d))]
    else:
        panels = ([(f"P{num:g}dB", db_to_linear(num)) for num in opts["powersDb"]]
                  if "powersDb" in opts else [("", db_to_linear(opts.get("powerDb", 20)))])
        calls = [(int(x), [(panel, x, p_lin) for panel, p_lin in panels],
                  derive_seed(root, _TAG_MC, d, i, 0)) for i, x in enumerate(spec.sweep.values)]
    top = _drop_topology(spec, d, antennas=calls[0][0])
    n = top.n_users

    # uplink interferers transmit a per-user power, downlink ones a cell total
    uplink = direction == "uplink"
    p_x = db_to_linear(opts["interfererUserPowerDb" if uplink else "interfererCellPowerDb"])
    interferers = _fixed_allocs(top.n_cells, n, direction, user_power=p_x, cell_power=p_x)
    # cell 0's profile reads the interferers only
    prof = (uplink_profile if uplink else downlink_profile)(top, interferers, 0)
    formulas = _UPLINK_RATES if uplink else _DOWNLINK_RATES

    records = []
    for m, points, mc_seed in calls:
        own = np.array([equal_alloc(n, p_lin).powers for _, _, p_lin in points])
        values = {}
        for est in opts["estimators"]:
            if est == "mc":
                values[est] = _mc_values(top.with_antennas(m), own, interferers, direction,
                                         spec.trials, mc_seed)
            else:
                per_user = formulas[est](prof, m, n, own)
                values[est] = [(value, 0.0) for value in per_user.sum(axis=1).tolist()]
        records += [{"panel": panel, "label": est, "x": x, "value": rates[pi][0],
                     "ci": rates[pi][1]}
                    for pi, (panel, x, _) in enumerate(points) for est, rates in values.items()]
    return records


@_each_drop
def _job_fixed_ratio(spec: ExperimentSpec, d: int) -> list[dict]:
    """Sum rate with M and N scaled together at fixed M/N (fig6), at every
    user count of one drop."""
    opts = spec.options
    ratios = [int(ratio) for ratio in opts["ratios"]]
    p_x, p_lin = db_to_linear(opts["interfererUserPowerDb"]), db_to_linear(opts["powerDb"])
    records = []
    for users in spec.sweep.values:
        n = int(users)
        # each N is its own drop; it serves every ratio, as only M changes
        top = _drop_topology(spec, d, users=n, antennas=min(ratios) * n)
        ms = [ratio * n for ratio in ratios]
        rates = _pa_eq(_uplink_rows([top], p_x), ms, p_lin)
        records += [{"panel": f"ratio{ratio}", "label": label, "x": m,
                     "value": float(r.sum(axis=1)[0]), "ci": 0.0}
                    for ratio, m, pair in zip(ratios, ms, rates)
                    for label, r in zip(("pa", "eq"), pair)]
    return records


@_each_drop
def _drop_strategies(spec: ExperimentSpec, d: int) -> list[dict]:
    """Per-strategy sum rates (fig4) or relative gains (fig5) at every M.

    One call water-fills every (M, strategy) row; at each M, equal power and
    the three allocations are rated as four rows of one expression (Monte
    Carlo: from one set of draws).
    """
    ms = [int(v) for v in spec.sweep.values]
    opts = spec.options
    p_lin = db_to_linear(opts["powerDb"])
    evaluator = opts["evaluator"]

    records = []
    for panel in opts["scenarios"]:
        cells = 1 if panel == "singlecell" else None
        top = _drop_topology(spec, d, antennas=ms[0], cells=cells)
        n = top.n_users
        allocs = _fixed_allocs(top.n_cells, n, "uplink",
                               user_power=db_to_linear(opts["interfererUserPowerDb"]))
        prof = uplink_profile(top, allocs, 0)
        eq = equal_alloc(n, p_lin).powers
        pa = _waterfilled_rows(prof, _UPLINK_STRATEGIES, ms, p_lin)
        for i, m in enumerate(ms):
            rows = np.vstack([eq, pa[i]])
            if evaluator == "mc":
                mc_seed = derive_seed(spec.network.seed, _TAG_MC, d, i, 0 if cells is None else 1)
                values, cis = map(list, zip(*_mc_values(top.with_antennas(m), rows, allocs,
                                                        "uplink", spec.trials, mc_seed)))
            else:
                values = _UPLINK_RATES[evaluator](prof, m, n, rows).sum(axis=1).tolist()
                cis = [0.0] * len(values)

            if spec.kind == "fig5":  # gains over equal power
                labels, cis = list(_UPLINK_STRATEGIES), [0.0] * 3
                values = relative_gain(np.array(values[1:]), values[0]).tolist()
            else:  # the strategies, then equal power
                labels = [*_UPLINK_STRATEGIES, "equal"]
                values, cis = values[1:] + values[:1], cis[1:] + cis[:1]
            records += [{"panel": panel, "label": label, "x": m, "value": value, "ci": ci}
                        for label, value, ci in zip(labels, values, cis)]
    return records


@_each_drop
def _drop_gain_vs_ratio(spec: ExperimentSpec, d: int) -> list[dict]:
    """Relative gain against the antennas-per-user ratio (fig7) at every
    ratio: one water-filling call per power panel."""
    opts = spec.options
    ratios = [int(v) for v in spec.sweep.values]
    ms = [ratio * spec.network.users_per_cell for ratio in ratios]
    top = _drop_topology(spec, d, antennas=ms[0])
    prof = _uplink_rows([top], db_to_linear(opts["interfererUserPowerDb"]))
    return [{"panel": f"P{p_db:g}dB", "label": "gain", "x": ratio,
             "value": float(relative_gain(*(r.sum(axis=1) for r in rates))[0]), "ci": 0.0}
            for p_db in opts["powersDb"]
            for ratio, rates in zip(ratios, _pa_eq(prof, ms, db_to_linear(p_db)))]


@_each_drop
def _drop_downlink_split(spec: ExperimentSpec, d: int) -> list[dict]:
    """Central/edge user sums (fig10) or gains (fig11) on the downlink at every M."""
    ms = [int(v) for v in spec.sweep.values]
    opts = spec.options
    top = _drop_topology(spec, d, antennas=ms[0])
    prof = _downlink_rows([top], db_to_linear(opts["interfererCellPowerDb"]))
    edge = _edge_users(top)

    records = []
    for m, (r_pa, r_eq) in zip(ms, _pa_eq(prof, ms, db_to_linear(opts["powerDb"]))):
        for cls, mask in (("central", ~edge), ("edge", edge)):
            if not mask.any():
                continue
            c_pa, c_eq = float(r_pa[0][mask].sum()), float(r_eq[0][mask].sum())
            if spec.kind == "fig11":
                records.append({"panel": "", "label": cls, "x": m,
                                "value": relative_gain(c_pa, c_eq), "ci": 0.0})
            else:
                records.append({"panel": cls, "label": "pa", "x": m, "value": c_pa, "ci": 0.0})
                records.append({"panel": cls, "label": "eq", "x": m, "value": c_eq, "ci": 0.0})
    return records


def _job_network_slots(spec: ExperimentSpec, job: dict) -> list[dict]:
    """Scheduled vs joint vs equal network sum rate per slot (fig12) of each of
    the job's drops; the joint optimiser runs the drops as one stack."""
    opts = spec.options
    budget = float(opts["powerW"])
    initial = db_to_linear(opts["initialUserPowerDb"])
    estimator = opts["estimator"]
    slots = [int(v) for v in spec.sweep.values]
    tops = [_drop_topology(spec, s) for s in job["drops"]]
    # the outer ring keeps the scheduler's initial power under all three curves
    joints = run_joint_drops(tops, budget, max_iters=opts["jointMaxIters"],
                             tolerance=float(opts["jointTolerance"]), outer_user_power=initial)

    records = []
    for s, top, joint in zip(job["drops"], tops, joints, strict=True):
        sched = run_scheduled(top, _UPLINK_STRATEGIES["approx"], budget, initial, max(slots),
                              rate_estimator=estimator, trials=spec.trials,
                              seed=derive_seed(spec.network.seed, _TAG_SLOT, s))
        n, k = top.n_users, top.cluster_size
        eq_allocs = ([equal_alloc(n, budget)] * k
                     + [PowerAllocation(np.full(n, initial), "uplink")] * (top.n_cells - k))
        mc_seed = derive_seed(spec.network.seed, _TAG_MC, s)
        if estimator == "monteCarlo":  # both rated from one set of draws per cell
            joint_value, eq_value = network_sum_rate(top, [joint.per_cell_powers, eq_allocs],
                                                     estimator, spec.trials, mc_seed)
        else:
            joint_value = joint.objective
            eq_value = network_sum_rate(top, eq_allocs, estimator, spec.trials, mc_seed)
        records += [{"panel": "", "label": label, "x": slot, "value": value, "ci": 0.0}
                    for slot in slots
                    for label, value in (("scheduled", sched.history[slot - 1]),
                                         ("joint", joint_value), ("equal", eq_value))]
    return records


_JOB_RUNNERS = {
    "fig2": _job_equal_power,
    "fig3": _job_equal_power,
    "fig8": _job_equal_power,
    "custom": _job_equal_power,
    "fig6": _job_fixed_ratio,
    "fig4": _drop_strategies,
    "fig5": _drop_strategies,
    "fig7": _drop_gain_vs_ratio,
    "fig10": _drop_downlink_split,
    "fig11": _drop_downlink_split,
    "fig12": _job_network_slots,
}


def _plan_jobs(spec: ExperimentSpec, workers: int) -> list[dict]:
    # one contiguous chunk of drops per worker (never more chunks than drops);
    # the chunks' records join in drop order, so every sweep point receives its
    # samples in drop order
    workers = min(workers, spec.drops)
    size, extra = divmod(spec.drops, workers)  # the first ``extra`` chunks get one more
    ends = [w * size + min(w, extra) for w in range(workers + 1)]
    return [{"drops": list(range(a, b))} for a, b in zip(ends, ends[1:])]


def _run_payload(payload: dict) -> list[dict]:
    spec = ExperimentSpec.from_dict(payload["spec"])
    return _JOB_RUNNERS[spec.kind](spec, payload["job"])


# ---------------------------------------------------------------------------
# threshold search (tables)
# ---------------------------------------------------------------------------

# query JSON name -> GainThresholdQuery field
_QUERY_FIELDS = {
    "direction": "direction", "threshold": "threshold", "power": "power_db",
    "searchRange": "search_range", "mode": "mode", "fixedUsers": "fixed_users",
    "fixedAntennas": "fixed_antennas", "drops": "drops",
    "interfererPowerDb": "interferer_power_db", "edgeOnly": "edge_only",
}


@dataclass(frozen=True)
class GainThresholdQuery:
    """Search for the largest system size still meeting a gain threshold."""

    direction: str
    threshold: float
    power_db: float
    search_range: tuple
    mode: str = "maxRatio"  # maxRatio | maxAntennas | minUsers
    fixed_users: int | None = None
    fixed_antennas: int | None = None
    drops: int = 20
    interferer_power_db: float | None = None
    edge_only: bool | None = None

    def __post_init__(self):
        for key, name in _QUERY_FIELDS.items():
            value = getattr(self, name)
            # None leaves a field whose default is None to the network or direction
            if value is not None or getattr(GainThresholdQuery, name, 0) is not None:
                check_field(key, value, _FIELDS[key])
        if len(self.search_range) != 2 or self.search_range[0] > self.search_range[1]:
            raise ValueError(f"searchRange must be [lo, hi] with lo <= hi, "
                             f"got {self.search_range!r}")
        object.__setattr__(self, "search_range", tuple(int(v) for v in self.search_range))

    @classmethod
    def from_dict(cls, data: dict) -> "GainThresholdQuery":
        unknown = sorted(set(data) - set(_QUERY_FIELDS))
        if unknown:
            raise ValueError(f"unknown query keys: {unknown}")
        # a missing key without a default reaches __post_init__ as None, which names it
        return cls(**{name: data.get(key) for key, name in _QUERY_FIELDS.items()
                      if key in data or not hasattr(cls, name)})


class _DropProfiles:
    """Cell 0's profiles in a threshold search's drops, stacked, one stack per
    user count N (with each drop's edge-user mask on the downlink).

    A stack depends on the drops, N, the direction and the interferer power
    only, so every probe of a query reads it, and so does every query of a
    table that shares those inputs: each (N, drop) is built and profiled once.
    """

    def __init__(self):
        self._stacks: dict = {}

    def rows(self, base: NetworkConfig, drop_seeds: tuple, n: int, direction: str,
             interferer_power: float):
        cfg = replace(base, users_per_cell=n, bs_antennas=n + 1)
        key = (cfg, drop_seeds, direction, interferer_power)
        if key not in self._stacks:
            tops = [build_topology(replace(cfg, seed=s)) for s in drop_seeds]
            if direction == "uplink":
                self._stacks[key] = (_uplink_rows(tops, interferer_power), None)
            else:
                self._stacks[key] = (_downlink_rows(tops, interferer_power),
                                     np.stack([_edge_users(top) for top in tops]))
        return self._stacks[key]


def find_max_ratio(query: GainThresholdQuery, base: NetworkConfig,
                   profiles: _DropProfiles | None = None):
    """Largest M/N ratio (or M, or smallest N) whose relative gain meets the
    threshold, by monotone integer bisection with drop averaging.

    Returns (value, at_boundary); ``at_boundary`` is True when the answer is
    pinned by the search range (the threshold was met nowhere, or everywhere).
    Each probe evaluates all drops at once from their stacked profiles;
    ``profiles`` lets queries on the same drops share them, and without it
    the query keeps its own.
    """
    lo, hi = query.search_range
    n0 = query.fixed_users or base.users_per_cell
    m0 = query.fixed_antennas or base.bs_antennas
    if query.mode == "maxRatio":
        lo = max(lo, 2)  # ratio 1 means M = N, where ZF allocation is undefined
    elif query.mode == "maxAntennas":
        lo = max(lo, n0 + 1)
    else:
        hi = min(hi, m0 - 1)
    if lo > hi:
        raise ValueError("search range is empty after feasibility clamping")

    edge_only = query.edge_only
    if edge_only is None:
        edge_only = query.direction == "downlink"
    p_lin = db_to_linear(query.power_db)
    interferer_db = query.interferer_power_db
    if interferer_db is None:
        interferer_db = 10.0 if query.direction == "uplink" else 30.0
    interferer_lin = db_to_linear(interferer_db)

    drop_seeds = tuple(derive_seed(base.seed, _TAG_GAIN, d) for d in range(query.drops))
    if profiles is None:
        profiles = _DropProfiles()
    cache: dict[int, float] = {}

    def gain(x: int) -> float:
        if x not in cache:
            if query.mode == "maxRatio":
                m, n = x * n0, n0
            elif query.mode == "maxAntennas":
                m, n = x, n0
            else:
                m, n = m0, x
            prof, edges = profiles.rows(base, drop_seeds, n, query.direction, interferer_lin)
            if query.direction == "uplink":
                gains = relative_gain(*(r.sum(axis=1) for r in _pa_eq(prof, [m], p_lin)[0]))
            else:
                gains = _downlink_gains(prof, m, p_lin, edges if edge_only else None)
            if not gains.size:
                raise ValueError(
                    f"no drop has an edge user at {query.mode} probe {x}: edgeOnly averages "
                    f"edge users only; raise drops (now {query.drops}) or set edgeOnly false"
                )
            cache[x] = float(np.mean(gains))
        return cache[x]

    # the "inside" end meets the threshold wherever any probe does: the gain
    # decreases with the ratio or M, and increases with N (minUsers)
    inside, outside = (hi, lo) if query.mode == "minUsers" else (lo, hi)
    th = query.threshold
    if gain(inside) < th:
        return inside, True
    if gain(outside) >= th:
        return outside, True
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if gain(mid) >= th:
            inside = mid
        else:
            outside = mid
    return inside, False


# table kind: (direction, search mode, the query field its first loop fixes,
# its loops as (column, option) pairs in row order)
_TABLES = {
    "table2": ("uplink", "maxRatio", None, (("powerDb", "powersDb"), ("threshold", "thresholds"))),
    "table3a": ("downlink", "maxAntennas", "fixed_users",
                (("users", "usersList"), ("threshold", "thresholds"), ("powerDb", "powersDb"))),
    "table3b": ("downlink", "minUsers", "fixed_antennas",
                (("antennas", "antennasList"), ("threshold", "thresholds"), ("powerDb", "powersDb"))),
}


def _run_tables(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    direction, mode, fixed, loops = _TABLES[spec.kind]
    opts = spec.options
    lo, hi = int(spec.sweep.values[0]), int(spec.sweep.values[-1])
    interferer_db = opts.get("interfererUserPowerDb" if direction == "uplink"
                             else "interfererCellPowerDb")
    rows = []
    # every query of a table runs on the same drops at one interferer power,
    # so queries that probe the same N share its profiles
    profiles = _DropProfiles()
    for row in itertools.product(*(opts[option] for _, option in loops)):
        point = dict(zip((option for _, option in loops), row))
        sizes = {fixed: int(row[0])} if fixed else {}
        q = GainThresholdQuery(direction, point["thresholds"], point["powersDb"], (lo, hi), mode,
                               drops=spec.drops, interferer_power_db=interferer_db, **sizes)
        rows.append([*row, *find_max_ratio(q, spec.network, profiles=profiles)])
    return [*(column for column, _ in loops), mode, "atBoundary"], rows


# ---------------------------------------------------------------------------
# experiment driver and outputs
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "-", name)


def _curve_filename(kind: str, panel: str, label: str) -> str:
    parts = [kind] + ([_sanitize(panel)] if panel else []) + [_sanitize(label)]
    return "__".join(parts) + ".csv"


def _aggregate(records: list[dict]) -> dict:
    """Group records into curves: (panel, label) -> sorted (x, mean, ci)."""
    z95 = NormalDist().inv_cdf(0.975)
    buckets: dict = {}
    for rec in records:
        buckets.setdefault((rec["panel"], rec["label"]), {}).setdefault(
            float(rec["x"]), []
        ).append((rec["value"], rec["ci"]))
    curves = {}
    for key, by_x in buckets.items():
        rows = []
        for x in sorted(by_x):
            samples = by_x[x]
            vals = np.array([v for v, _ in samples])
            if len(samples) > 1:
                ci = float(z95 * vals.std(ddof=1) / np.sqrt(len(samples)))
            else:
                ci = float(samples[0][1])
            rows.append((x, float(vals.mean()), ci))
        curves[key] = rows
    return curves


def _manifest_notes(spec: ExperimentSpec) -> dict:
    notes = {
        "averaging": "per point: mean over user drops; fading expectation within each drop",
        "unitNoisePower": True,
    }
    if spec.kind in ("fig8", "fig10", "fig11", "table3a", "table3b") or (
        spec.kind == "custom" and spec.options.get("direction") == "downlink"
    ):
        notes["downlinkInterfererPower"] = "per-cell total, split equally across users"
    if spec.kind in ("fig10", "fig11", "table3a", "table3b"):
        notes["edgeSplitRadiusFactor"] = EDGE_SPLIT_FACTOR
    if spec.kind == "fig12":
        notes["sumRateMethod"] = spec.options["estimator"]
    return notes


def _check_replaceable(outdir: Path) -> None:
    """ValueError unless ``outdir`` is absent, empty or holds only an earlier
    run's outputs: a run replaces the whole directory."""
    target = outdir.resolve()
    if target == Path.cwd() or target in Path.cwd().parents:
        raise ValueError(f"output directory {outdir} contains the working directory")
    if not target.exists():
        return
    if not target.is_dir():
        raise ValueError(f"output {outdir} exists and is not a directory")
    try:
        manifest = json.loads((target / "manifest.json").read_text())
        ours = {c["file"] for c in manifest.get("curves", [])} | set(manifest.get("tables", []))
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        ours = set()
    foreign = sorted({p.name for p in target.iterdir()} - ours - {"manifest.json", "plotdata.json"})
    if foreign:
        raise ValueError(f"output directory {outdir} holds files that are no earlier run's "
                         f"outputs ({', '.join(foreign[:3])}); a run replaces the whole "
                         f"directory, so choose another 'output' or --out")


def _recover_swap(outdir: Path) -> None:
    """Clean up after a run killed inside ``_write_replacing``: put the old
    outputs back if the kill fell between its two renames, and remove the
    hidden temporary directories it left beside ``outdir``. Runs into one
    output directory must not overlap, as one would take the other's
    temporary directory for a leftover."""
    target = outdir.resolve()
    if not target.parent.is_dir():
        return
    prefix = f".{target.name}."  # then a uuid4 hex, and ".old" for the old outputs
    left = []
    with os.scandir(target.parent) as entries:
        for entry in entries:
            tag = entry.name.removeprefix(prefix).removesuffix(".old")
            if (entry.name.startswith(prefix) and len(tag) == 32
                    and not tag.strip("0123456789abcdef") and entry.is_dir()):
                left.append(Path(entry.path))
    if not target.exists():
        # the outputs the latest completed run wrote, if any stepped aside
        olds = [p for p in left if p.name.endswith(".old")]
        if olds:
            newest = max(olds, key=lambda p: p.stat().st_mtime_ns)
            os.replace(newest, target)
            left.remove(newest)
    for path in left:
        shutil.rmtree(path, ignore_errors=True)


def _write_replacing(outdir: Path, files: dict[str, str]) -> None:
    """Write ``files`` into a temporary sibling of ``outdir``, then swap it in."""
    target = outdir.resolve()
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}")
    old = tmp.with_name(tmp.name + ".old")
    tmp.mkdir(parents=True)  # not mkdtemp: the directory keeps the umask's mode
    try:
        for name, text in files.items():
            (tmp / name).write_text(text, newline="")
        if target.exists():
            # a directory cannot replace a non-empty one: the old one steps aside
            os.replace(target, old)
        os.replace(tmp, target)
    except BaseException:
        if old.exists() and not target.exists():
            os.replace(old, target)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> Path:
    """Run one experiment spec and write CSV curves plus a manifest.

    Returns the output directory. Deterministic for a fixed spec: rerunning
    (including from the manifest it wrote) reproduces identical bytes. The
    files go to a temporary sibling directory that then replaces the output
    directory whole, so a run that fails leaves the previous outputs intact;
    if a run was killed mid-swap, the next run into that directory restores
    them first.
    The drops are split into ``jobs`` contiguous chunks (at most one per
    drop), each run by one worker process; a single chunk runs in this
    process.
    """
    jobs = check_field("--jobs", jobs, "count")
    outdir = Path(spec.output)
    _recover_swap(outdir)
    _check_replaceable(outdir)
    spec_dict = spec.to_dict()
    # the output directory is not an input to the computation: two runs that
    # differ only in destination carry the same content hash
    hashed = {k: v for k, v in spec_dict.items() if k != "output"}
    # Monte Carlo outputs depend on the estimator's sampling scheme too
    hashed["estimatorVersion"] = ESTIMATOR_VERSION
    manifest = {
        "spec": spec_dict,
        "seed": spec.network.seed,
        "estimatorVersion": ESTIMATOR_VERSION,
        "inputHash": hashlib.sha256(
            json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "notes": _manifest_notes(spec),
    }

    files = {}
    if spec.kind in _TABLES:
        header, rows = _run_tables(spec)
        table_file = f"{spec.kind}.csv"
        files[table_file] = "".join(",".join(str(v) for v in row) + "\n"
                                    for row in [header, *rows])
        manifest["tables"] = [table_file]
    else:
        payloads = [{"spec": spec_dict, "job": job} for job in _plan_jobs(spec, jobs)]
        if len(payloads) > 1:
            with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
                chunks = list(pool.map(_run_payload, payloads))
        else:
            chunks = [_run_payload(p) for p in payloads]
        records = [rec for chunk in chunks for rec in chunk]
        curves = _aggregate(records)
        manifest["curves"] = []
        for (panel, label) in sorted(curves):
            fname = _curve_filename(spec.kind, panel, label)
            files[fname] = "x,mean,ciHalfWidth\n" + "".join(
                f"{x:.12g},{mean:.12g},{ci:.12g}\n" for x, mean, ci in curves[(panel, label)])
            manifest["curves"].append({"panel": panel, "label": label, "file": fname})

    files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_replacing(outdir, files)
    return outdir


_AXIS_LABELS = {
    "bsAntennas": "BS antennas",
    "powerDb": "total transmit power (dB)",
    "usersPerCell": "BS antennas",  # fig6 reports x = M = ratio * N
    "ratio": "antennas per user M/N",
    "slot": "time slot",
}


def emit_plot_data(directory) -> Path:
    """Turn an experiment's manifest + CSVs into one plot-description JSON."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text())
    spec = manifest["spec"]

    doc = {
        "kind": spec["kind"],
        "xLabel": _AXIS_LABELS.get(spec["sweep"]["variable"], spec["sweep"]["variable"]),
        "yLabel": "relative gain" if spec["kind"] in ("fig5", "fig7", "fig11")
                  else "sum rate (bits/s/Hz)",
        "panels": [],
    }
    panels: dict[str, list] = {}
    for curve in manifest.get("curves", []):
        path = directory / curve["file"]
        lines = path.read_text().strip().splitlines()
        if not lines or lines[0].split(",") != ["x", "mean", "ciHalfWidth"]:
            raise ValueError(f"{curve['file']}: expected header 'x,mean,ciHalfWidth'")
        if len(lines) < 2:
            raise ValueError(f"{curve['file']}: no data rows")
        xs, ys, cis = [], [], []
        for line in lines[1:]:
            x, y, ci = line.split(",")
            xs.append(float(x))
            ys.append(float(y))
            cis.append(float(ci))
        panels.setdefault(curve["panel"], []).append(
            {"label": curve["label"], "file": curve["file"], "x": xs, "y": ys,
             "ciHalfWidth": cis}
        )
    if not panels and "tables" not in manifest:
        raise ValueError("manifest lists no curves or tables")
    for name in sorted(panels):
        doc["panels"].append({"name": name, "series": panels[name]})
    if "tables" in manifest:
        doc["tables"] = manifest["tables"]

    out = directory / "plotdata.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcmimo",
        description="Multicell massive-MIMO sum-rate experiments (CSV + manifest outputs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec (or a manifest) JSON file")
    p_run.add_argument("spec", help="path to the experiment spec JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the network seed")
    p_run.add_argument("--trials", type=int, default=None, help="override Monte Carlo trials")
    p_run.add_argument("--drops", type=int, default=None, help="override user-drop count")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_table = sub.add_parser("table", help="answer one gain-threshold query JSON file")
    p_table.add_argument("query", help="path to the query JSON (with a 'network' section)")
    p_table.add_argument("--seed", type=int, default=None)
    p_table.add_argument("--drops", type=int, default=None)
    p_table.add_argument("--out", default=None, help="also append the result to this CSV file")

    p_plot = sub.add_parser("plotdata", help="emit plotdata.json for an output directory")
    p_plot.add_argument("directory")

    args = parser.parse_args(argv)

    if args.command == "run":
        overrides = {"seed": args.seed, "trials": args.trials, "drops": args.drops,
                     "out": args.out}
        spec = ExperimentSpec.from_json(args.spec, overrides)
        outdir = run_experiment(spec, jobs=args.jobs)
        print(f"wrote {outdir}/manifest.json")
        return 0

    if args.command == "table":
        data = json.loads(Path(args.query).read_text())
        if not isinstance(data, dict) or "network" not in data:
            raise ValueError(f"query {args.query} needs a 'network' field")
        network = NetworkConfig.from_json(data.pop("network"))
        if args.seed is not None:
            network = replace(network, seed=args.seed)
        if args.drops is not None:
            data["drops"] = args.drops
        query = GainThresholdQuery.from_dict(data)
        value, boundary = find_max_ratio(query, network)
        print(f"{query.mode} = {value}" + (" (at search boundary)" if boundary else ""))
        if args.out:
            path = Path(args.out)
            new = not path.exists()
            with open(path, "a", newline="") as fh:
                if new:
                    fh.write("mode,direction,powerDb,threshold,value,atBoundary\n")
                fh.write(f"{query.mode},{query.direction},{query.power_db},"
                         f"{query.threshold},{value},{boundary}\n")
        return 0

    emit_plot_data(args.directory)
    print(f"wrote {Path(args.directory) / 'plotdata.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
