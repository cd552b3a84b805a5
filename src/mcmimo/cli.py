"""Batch experiment runner: seeded figure/table reproductions with CSV output.

All dB <-> linear conversions live here; the core modules work in linear
watts against unit noise power. Every experiment is deterministic given the
root seed: user drops, fading trials and search evaluations derive their
streams from (seed, purpose tag, indices), so re-running a spec (or the
manifest it wrote) reproduces the output files byte for byte.

Each figure or table of the paper is one experiment kind, and one row of
``_KINDS`` says all that the kind is: its job runner (or its threshold
search), its link, its sweep variables and defaults, its options with their
defaults, whether its curves are gains or split edge users, and how a
closed-form kind names its curves. A link's interferer option,
threshold-query default and closed-form rates are one row of ``_LINKS``.
Every other part of the CLI reads these two tables. The power-allocation
curves (fig4-fig7, fig10, fig11) share one runner, ``_job_closed_form``,
whose drop stacks and probes the spec decides (``_probes``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .allocation import (
    downlink_alloc,
    equal_alloc,
    relative_gain,
    uplink_alloc_approx,
    uplink_alloc_lower_bound,
    uplink_alloc_upper_bound,
)
from .closedform import (
    InterferenceProfile,
    downlink_lower_bound,
    downlink_profile,
    uplink_approximation,
    uplink_lower_bound,
    uplink_profile,
    uplink_upper_bound,
)
from .mcrate import (
    ESTIMATOR_VERSION,
    downlink_rate_mc,
    shared_draws,
    uplink_rate_mc,
)
from .network import network_sum_rate, run_joint_drops, run_scheduled_drops
from .topology import (  # build_topology, the stack of one, is re-exported
    NetworkConfig, build_topology, build_topology_drops, check_field, derive_seed)

EDGE_SPLIT_FACTOR = 0.8  # users beyond this fraction of the cell radius are "edge"

# stream tags for seed derivation
_TAG_DROP, _TAG_MC, _TAG_SLOT, _TAG_GAIN = 1, 2, 3, 4


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
        # slot 0 would read the last slot); only a power sweep takes any real
        # value
        check_field("sweep.values", self.values,
                    ["number" if self.variable == "powerDb" else "size"])
        vals = tuple(float(v) for v in self.values)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep.values must be strictly increasing")
        object.__setattr__(self, "values", vals)


_UPLINK_RATES = {"lower": uplink_lower_bound, "upper": uplink_upper_bound,
                 "approx": uplink_approximation}
_DOWNLINK_RATES = {"lower": downlink_lower_bound}

# link: (its interferer power option, a threshold query's default interferer
# power in dB, its closed-form rates). The rates stay in their module-level
# dicts, whose values span tracing replaces, so a row holds no function itself.
_LINKS = {"uplink": ("interfererUserPowerDb", 10.0, _UPLINK_RATES),
          "downlink": ("interfererCellPowerDb", 30.0, _DOWNLINK_RATES)}


# The kind of value (see topology.check_field) of every spec, option and
# threshold-query JSON name; a name shared by two of them means the same in each.
_FIELDS = {
    "trials": "count", "drops": "count",
    # options
    "powersDb": ["number"], "powerDb": "number", "interfererUserPowerDb": "number",
    "interfererCellPowerDb": "number", "initialUserPowerDb": "number",
    "estimators": [("mc", *_UPLINK_RATES)],  # checked as the link's: ("mc", *its rates)
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
        row = _KINDS[self.kind]
        if self.sweep.variable not in row.sweeps:
            raise ValueError(
                f"kind {self.kind!r} sweeps over {' or '.join(row.sweeps)}, "
                f"not {self.sweep.variable!r}"
            )
        for name in ("trials", "drops"):
            object.__setattr__(self, name, int(check_field(name, getattr(self, name), _FIELDS[name])))
        check_field("output", self.output, "string")
        # options are stored as given: the manifest echoes them. The direction
        # goes first, as the link decides which estimators there are.
        for key in sorted(self.options, key=lambda k: k != "direction"):
            if key not in row.options:
                raise ValueError(f"unknown option {key!r} for kind {self.kind!r}; "
                                 f"expected one of {sorted(row.options)}")
            check_field(f"option {key!r}", self.options[key], [("mc", *_LINKS[self.direction][2])]
                        if key == "estimators" else _FIELDS[key])
        opts, n = {**row.options, **self.options}, self.network.users_per_cell
        if "powerW" in opts:  # run_scheduled_drops' budget test, before any job
            db, budget = opts["initialUserPowerDb"], opts["powerW"]
            if db_to_linear(db) * n > budget * (1 + 1e-9):
                raise ValueError(f"option 'initialUserPowerDb' {db} dB times usersPerCell {n} "
                                 f"exceeds option 'powerW' {budget}")
        for users, _, probes in _probes(self):  # each stack's build test, before any job
            m, n_stack = min(m for _, m, _, _ in probes), users or n
            if m <= n_stack:
                name = "option 'ratios'" if users else "sweep.values"
                raise ValueError(f"{name} gives M = {m} antennas for N = {n_stack} users: "
                                 "a probe needs M > N")

    @property
    def direction(self) -> str:
        """The link the kind runs on: its row's, else the direction option's."""
        return _KINDS[self.kind].link or self.options.get("direction", "uplink")

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "ExperimentSpec":
        data = dict(check_field("experiment spec", data, "object"))
        if "spec" in data:  # manifest round-trip: accept a manifest document
            version = data.get("estimatorVersion")
            if version != ESTIMATOR_VERSION:
                raise ValueError(
                    f"manifest estimatorVersion {version!r} is not this build's "
                    f"{ESTIMATOR_VERSION}: its outputs would not be reproduced"
                )
            data = dict(check_field("spec", data["spec"], "object"))
        kind = check_field("kind", data.get("kind"), KINDS)
        if "network" not in data:
            raise ValueError("experiment spec needs a 'network' field")
        overrides = overrides or {}
        network = NetworkConfig.from_json(data["network"])
        if "seed" in overrides and overrides["seed"] is not None:
            network = replace(network, seed=int(overrides["seed"]))
        row = _KINDS[kind]
        sweep = data.get("sweep", {"variable": row.sweeps[0], "values": row.values})
        if sorted(check_field("sweep", sweep, "object")) != ["values", "variable"]:
            raise ValueError(f"sweep must have exactly the keys variable and values, got {sweep!r}")
        given = check_field("options", data.get("options", {}), "object")
        options = {**row.options, **given}
        if options.get("direction") == "downlink" and "estimators" not in given:
            options["estimators"] = ["mc", *_DOWNLINK_RATES]  # the row's default is the uplink's
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

def _own_rows(own, interferers) -> np.ndarray:
    """(R, C, N) powers: the (C, N) ``interferers`` with cell 0's replaced by
    each of the R rows of ``own``."""
    rows = np.repeat(interferers[None], len(own), axis=0)
    rows[:, 0] = own
    return rows


def _mc_values(top, rows, direction, trials, mc_seed, shared=None):
    """(sum rate, within-drop CI) of cell 0 by Monte Carlo for each of the
    (R, C, N) power ``rows``, every row from one set of draws: ``shared``,
    the drop's ``shared_draws``, if given."""
    # looked up by module-level name on each call, as the tracing of
    # benchmarks/spans.py replaces those names
    mc = uplink_rate_mc if direction == "uplink" else downlink_rate_mc
    return [(est.sum_rate, float(est.ci_half_width.sum()))
            for est in mc(top, rows, 0, trials, mc_seed, shared=shared)]


# the uplink strategies in allocation order; the network scheduler runs "approx"
_UPLINK_STRATEGIES = {
    "lower": uplink_alloc_lower_bound,
    "upper": uplink_alloc_upper_bound,
    "approx": uplink_alloc_approx,
}


def _drop_topologies(spec: ExperimentSpec, drops, *, users=None, antennas=None, cells=None):
    """The topologies of ``drops`` (indices) as one stack."""
    cfg = spec.network
    extra = [] if users is None else [int(users)]
    return build_topology_drops(replace(
        cfg,
        users_per_cell=cfg.users_per_cell if users is None else users,
        bs_antennas=cfg.bs_antennas if antennas is None else antennas,
        cell_count=cfg.cell_count if cells is None else cells,
    ), [derive_seed(cfg.seed, _TAG_DROP, d, *extra) for d in drops])


# Cell 0's profile against fixed-power interferers depends on the drop, N and
# the interferer power only: not on M, the cell's own power or a threshold. The
# helpers below take cell 0's profiles stacked over drops (one row each) and
# evaluate a probe for every drop in one array expression.

def _cell0_rows(tops, direction, power):
    """(profile, interferers): cell 0's profile in each drop of ``tops``,
    stacked, and the (C, N) powers of the interferers it is against. These
    transmit ``power`` (linear) per user on the uplink, and on the downlink a
    cell total ``power`` split equally across the users."""
    n = tops[0].n_users
    interferers = np.full((tops[0].n_cells, n), power if direction == "uplink" else power / n)
    # looked up by module-level name on each call, as for _mc_values
    profile = uplink_profile if direction == "uplink" else downlink_profile
    stack = np.broadcast_to(interferers, (len(tops), *interferers.shape))  # one set per drop
    return profile(tops, stack, 0), interferers


def _pa_eq(prof, ms, budgets, evaluator=None):
    """(allocations, per-user rates) of cell 0 per drop, (A, P, D, N) each:
    equal power, then each strategy's water-filling, at each probe's M of
    ``ms`` and budget of ``budgets`` (one float, or one per probe). Under an
    ``evaluator`` the strategies are the three uplink ones and its closed
    form the rate (None under "mc"); else the link's own strategy, rated by
    the uplink approximation of an InterferenceProfile or the downlink lower
    bound of a DownlinkProfile. M and the budget are columns of one call per
    strategy and of one rate call."""
    # looked up by module-level name or dict value on each call, as for _mc_values
    if evaluator:
        strategies, rate = list(_UPLINK_STRATEGIES.values()), _UPLINK_RATES.get(evaluator)
    elif isinstance(prof, InterferenceProfile):
        strategies, rate = [_UPLINK_STRATEGIES["approx"]], _UPLINK_RATES["approx"]
    else:
        strategies, rate = [downlink_alloc], _DOWNLINK_RATES["lower"]
    n = prof.n_users
    m, budget = np.array(ms)[:, None, None], np.array(budgets, dtype=float).reshape(-1, 1, 1)
    pa = [strategy(prof, m, n, budget) for strategy in strategies]
    eq = np.array([equal_alloc(n, b) for b in budget.ravel().tolist()])[:, None]
    allocs = np.stack([np.broadcast_to(eq, pa[0].shape), *pa])
    return allocs, None if rate is None else rate(prof, m[None], n, allocs)


def _edge_users(tops) -> np.ndarray:
    """(D, N): the users of cell 0 beyond the edge radius in each drop of ``tops``."""
    return np.stack([top.user_distances(0) > EDGE_SPLIT_FACTOR * top.config.cell_radius
                     for top in tops])


def _class_sums(rates, users=None) -> np.ndarray:
    """Sums of the (..., D, N) per-user ``rates`` over each drop's users, (..., D),
    or over those the (D, N) mask ``users`` selects, (..., D') over the drops
    that select any."""
    if users is None:
        return rates.sum(axis=-1)
    keep = users.any(axis=1)
    picked = rates[..., keep, :]
    # summed as 1-D selections: numpy's pairwise sum of a zero-filled row
    # rounds differently from the sum of its selected entries
    sums = [[row[u].sum() for row, u in zip(picked[i], users[keep])]
            for i in np.ndindex(picked.shape[:-2])]
    return np.array(sums, dtype=float).reshape(picked.shape[:-1])


def _gains(prof, ms, budgets, users=None) -> np.ndarray:
    """Relative gains of cell 0 per drop, (probes, D), at each probe's M of
    ``ms`` and budget of ``budgets`` (equal-length lists), from one ``_pa_eq``
    call, over the users selected by the (D, N) mask ``users`` (all when
    None); drops selecting no user are left out."""
    eq, pa = _class_sums(_pa_eq(prof, ms, budgets)[1], users)
    return relative_gain(pa, eq)


def _probes(spec: ExperimentSpec) -> list[tuple]:
    """Each stack of drops a figure job builds, as (N, None for the
    network's; scenario, "" without the option; its probes as (x, M, ratio,
    power dB)), read by the spec check and the closed-form runner. M is an
    antenna sweep's, or a ratio times N: the ratio sweep's (x the ratio) or
    the ``ratios`` option's (x the M); at ``powerDb`` or at each of
    ``powersDb``. A power or slot sweep probes the network's M, and a table
    bisects its sweep: they have none."""
    row = _KINDS[spec.kind]
    opts, variable = {**row.options, **spec.options}, spec.sweep.variable
    if isinstance(row.run, tuple) or variable in ("powerDb", "slot"):
        return []
    values = [int(v) for v in spec.sweep.values]
    if variable == "usersPerCell":  # one stack per N: it serves every ratio, as only M changes
        stacks = [(n, "", [(r * n, r * n, r) for r in map(int, opts["ratios"])]) for n in values]
    else:
        n = spec.network.users_per_cell
        sizes = [(x, x * n, x) if variable == "ratio" else (x, x, None) for x in values]
        stacks = [(None, scenario, sizes) for scenario in opts.get("scenarios", [""])]
    powers = opts.get("powersDb", [opts.get("powerDb")])
    return [(users, scenario, [(x, m, ratio, p) for p in powers for x, m, ratio in sizes])
            for users, scenario, sizes in stacks]


# ---------------------------------------------------------------------------
# per-kind job runners: payload {"drops": [d, ...]} -> records
# ---------------------------------------------------------------------------

# A job is a contiguous chunk of drops, and its records go out drop by drop.
# Large-scale fading does not depend on M, and cell 0's profile depends on
# neither the sweep point, nor M, nor the cell's own power: so a job builds
# its drops once, as one stack (``build_topology_drops``), at the smallest M
# it rates (so that config check covers every M), reaches the other M through
# ``CellTopology.with_antennas`` and profiles cell 0 in all its drops as one
# stack. The swept Ms are then a (K, 1, 1) column: each strategy and each
# closed-form rate takes every drop's row at every M in one call, giving
# (K, D, N), each entry with the bits of a job of its drop alone at that M.

def _job_equal_power(spec: ExperimentSpec, job: dict) -> list[dict]:
    """Equal-power rate curves of each drop, on the spec's link.

    An M sweep rates the power panels, a power sweep every power, as rows;
    each closed form rates them at every M of a drop in one call, and Monte
    Carlo in one call per M. Monte Carlo draws a drop's interference once,
    for all its rows and Ms (``shared_draws``), as nothing drawn depends on
    power and only the Gammas on M. The job's drops are built as one stack,
    then run one at a time, as the Monte Carlo is their cost.
    """
    opts = spec.options
    option, _, formulas = _LINKS[spec.direction]
    # each row's (panel, power), and per call its M and each row's x
    if spec.sweep.variable == "powerDb":
        powers = [("", db_to_linear(x)) for x in spec.sweep.values]
        calls = [(spec.network.bs_antennas, spec.sweep.values)]
    else:
        powers = ([(f"P{num:g}dB", db_to_linear(num)) for num in opts["powersDb"]]
                  if "powersDb" in opts else [("", db_to_linear(opts.get("powerDb", 20)))])
        calls = [(int(x), [x] * len(powers)) for x in spec.sweep.values]
    records = []
    for d, top in zip(job["drops"], _drop_topologies(spec, job["drops"], antennas=calls[0][0])):
        n = top.n_users
        prof, interferers = _cell0_rows([top], spec.direction, db_to_linear(opts[option]))
        own = np.array([equal_alloc(n, p_lin) for _, p_lin in powers])
        rows, mc_seed = _own_rows(own, interferers), derive_seed(spec.network.seed, _TAG_MC, d)
        draws = (shared_draws(top, rows, 0, spec.trials, mc_seed, spec.direction)
                 if "mc" in opts["estimators"] else None)
        # each closed form's (M, panel) sum rates, every M of the drop in one call
        ms = np.array([m for m, _ in calls])[:, None, None]
        sums = {est: formulas[est](prof, ms, n, own).sum(axis=2).tolist()
                for est in opts["estimators"] if est != "mc"}
        for k, (m, xs) in enumerate(calls):
            values = {est: _mc_values(top.with_antennas(m), rows, spec.direction, spec.trials,
                                      mc_seed, draws) if est == "mc"
                      else [(value, 0.0) for value in sums[est][k]]
                      for est in opts["estimators"]}
            records += [{"panel": panel, "label": est, "x": x, "value": rates[pi][0],
                         "ci": rates[pi][1]}
                        for pi, ((panel, _), x) in enumerate(zip(powers, xs))
                        for est, rates in values.items()]
    return records


def _job_closed_form(spec: ExperimentSpec, job: dict) -> list[dict]:
    """Water-filled and equal-power sum rates of cell 0, or for a gain kind
    the relative gains over equal power, per user class at every probe of
    each stack of ``_probes``.

    Per stack, ``_pa_eq`` water-fills every drop's row at every probe in one
    call per strategy and rates every allocation in one call; Monte Carlo
    (the ``mc`` evaluator) rates a drop's allocations at one M as the rows of
    one call, from one set of draws. Each curve is named once per stack and
    user class, from the kind's ``curve`` templates.
    """
    row, opts, drops = _KINDS[spec.kind], spec.options, job["drops"]
    evaluator = opts.get("evaluator")
    labels = ["equal", *_UPLINK_STRATEGIES] if evaluator else ["eq", "pa"]
    labels = labels[1:] if row.gain else labels  # a gain is over equal power, the first
    interferer = db_to_linear(opts[_LINKS[spec.direction][0]])
    parts = []  # per stack and user class: its points' names, and per drop their (values, cis)
    for users, scenario, probes in _probes(spec):
        xs, ms, ratios, powers = zip(*probes)
        single = scenario == "singlecell"
        tops = _drop_topologies(spec, drops, users=users, antennas=min(ms),
                                cells=1 if single else None)
        prof, interferers = _cell0_rows(tops, spec.direction, interferer)
        allocs, rates = _pa_eq(prof, ms, [db_to_linear(p) for p in powers], evaluator)
        if rates is None:  # Monte Carlo: (A, P, D) sums and cis over every user
            est = [[_mc_values(top.with_antennas(m), _own_rows(allocs[:, i, j], interferers),
                               spec.direction, spec.trials,
                               derive_seed(spec.network.seed, _TAG_MC, d, i, int(single)))
                    for i, m in enumerate(ms)] for j, (d, top) in enumerate(zip(drops, tops))]
            classes = [("", None, *np.array(est).transpose(3, 2, 1, 0))]
        else:  # each user class's (A, P, D') sums
            edge = _edge_users(tops) if row.edge else None
            masks = [("central", ~edge), ("edge", edge)] if row.edge else [("", None)]
            classes = [(cls, mask, _class_sums(rates, mask), None) for cls, mask in masks]
        for cls, mask, sums, cis in classes:
            if row.gain:
                sums = relative_gain(sums[1:], sums[:1])
            cis = np.zeros_like(sums) if row.gain or cis is None else cis
            kept = (range(len(drops)) if mask is None
                    else np.flatnonzero(mask.any(axis=1)).tolist())
            fields = {"scenario": scenario, "cls": cls}
            points = [(*(t.format(**fields, ratio=r, power=p, alloc=a) for t in row.curve), x)
                      for x, r, p in zip(xs, ratios, powers) for a in labels]
            # per kept drop, its values and cis in the order of ``points``
            rows = [a.transpose(2, 1, 0).reshape(len(kept), len(points)).tolist()
                    for a in (sums, cis)]
            parts.append((points, dict(zip(kept, zip(*rows)))))
    return [{"panel": panel, "label": label, "x": x, "value": value, "ci": ci}
            for j in range(len(drops)) for points, by_drop in parts if j in by_drop
            for (panel, label, x), value, ci in zip(points, *by_drop[j])]


def _job_network_slots(spec: ExperimentSpec, job: dict) -> list[dict]:
    """Scheduled vs joint vs equal network sum rate per slot of each of
    the job's drops; the scheduler and the joint optimiser run them as stacks."""
    opts = spec.options
    budget = float(opts["powerW"])
    initial = db_to_linear(opts["initialUserPowerDb"])
    estimator = opts["estimator"]
    slots = [int(v) for v in spec.sweep.values]
    tops = _drop_topologies(spec, job["drops"])
    # the outer ring keeps the scheduler's initial power under all three curves
    joints = run_joint_drops(tops, budget, max_iters=opts["jointMaxIters"],
                             tolerance=float(opts["jointTolerance"]), outer_user_power=initial)

    seeds = [derive_seed(spec.network.seed, _TAG_SLOT, s) for s in job["drops"]]
    scheds = run_scheduled_drops(tops, _UPLINK_STRATEGIES["approx"], budget, initial, max(slots),
                                 estimator, spec.trials, seeds)
    records = []
    for s, top, joint, sched in zip(job["drops"], tops, joints, scheds, strict=True):
        eq = np.full((top.n_cells, top.n_users), initial)
        eq[:top.cluster_size] = equal_alloc(top.n_users, budget)
        mc_seed = derive_seed(spec.network.seed, _TAG_MC, s)
        if estimator == "monteCarlo":  # both rated from one set of draws per cell
            joint_value, eq_value = network_sum_rate(top, np.stack([joint.powers, eq]), "uplink",
                                                     estimator, spec.trials, mc_seed)
        else:
            joint_value = joint.objective
            eq_value = network_sum_rate(top, eq, "uplink", estimator, spec.trials, mc_seed)
        records += [{"panel": "", "label": label, "x": slot, "value": value, "ci": 0.0}
                    for slot in slots
                    for label, value in (("scheduled", sched.history[slot - 1]),
                                         ("joint", joint_value), ("equal", eq_value))]
    return records


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
    return _KINDS[spec.kind].run(spec, payload["job"])


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
# the query fields that only some modes, or one link, read: query name -> the readers
_QUERY_READERS = {"fixedUsers": ("maxRatio", "maxAntennas"), "fixedAntennas": ("minUsers",),
                  "edgeOnly": ("downlink",)}


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
        for key, readers in _QUERY_READERS.items():
            given = getattr(self, _QUERY_FIELDS[key]) is not None
            if given and self.mode not in readers and self.direction not in readers:
                raise ValueError(f"{key} is read by {' and '.join(readers)} queries only, "
                                 f"not by a {self.direction} {self.mode} one")
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


def find_max_ratio(query: GainThresholdQuery, base: NetworkConfig):
    """Largest M/N ratio (or M, or smallest N) whose relative gain meets the
    threshold, by monotone integer bisection with drop averaging:
    ``find_max_ratios`` of a stack of one query.

    Returns (value, at_boundary); ``at_boundary`` is True when the answer is
    pinned by the search range (the threshold was met nowhere, or everywhere).
    """
    return find_max_ratios([query], base)[0]


def _bisection(query: GainThresholdQuery, base: NetworkConfig):
    """One query's search as a generator: its first step clamps the range (a
    ValueError if none is left) and yields the first probe, each gain sent back
    the next, as (((N, drop seeds, direction, interferer power), edge only), M,
    budget, x), until it returns (value, at_boundary)."""
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

    # only the downlink reads edgeOnly, and there it defaults to true
    edge_only = query.direction == "downlink" and query.edge_only is not False
    interferer_db = query.interferer_power_db
    if interferer_db is None:
        interferer_db = _LINKS[query.direction][1]
    drop_seeds = tuple(derive_seed(base.seed, _TAG_GAIN, d) for d in range(query.drops))
    p_lin = db_to_linear(query.power_db)

    def probe(x: int):
        m, n = {"maxRatio": (x * n0, n0), "maxAntennas": (x, n0), "minUsers": (m0, x)}[query.mode]
        stack = (n, drop_seeds, query.direction, db_to_linear(interferer_db))
        return (stack, edge_only), m, p_lin, x

    # the "inside" end meets the threshold wherever any probe does: the gain
    # decreases with the ratio or M, and increases with N (minUsers)
    inside, outside = (hi, lo) if query.mode == "minUsers" else (lo, hi)
    th = query.threshold
    if (yield probe(inside)) < th:
        return inside, True
    if (yield probe(outside)) >= th:
        return outside, True
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if (yield probe(mid)) >= th:
            inside = mid
        else:
            outside = mid
    return inside, False


def find_max_ratios(queries, base: NetworkConfig) -> list[tuple[int, bool]]:
    """``find_max_ratio`` of each query, the searches bisecting in lockstep.

    Every range is clamped before the first probe, so an invalid query fails
    before any search runs. Each round advances every unfinished search by one
    probe and rates the round's probes on one stack of cell 0's profiles (one
    N, in a table) in one ``_gains`` call, M and the budget as columns. The
    queries share the stacks: each (N, drop) is built and profiled once. Each
    query probes and answers as its search alone does.
    """
    searches = [_bisection(q, base) for q in queries]
    probes = dict(enumerate(next(search) for search in searches))  # the unfinished ones'
    answers, stacks = [None] * len(searches), {}
    while probes:
        groups: dict = {}
        for i, (key, *_) in probes.items():
            groups.setdefault(key, []).append(i)
        for (stack, edge_only), members in groups.items():
            if stack not in stacks:
                n, seeds, direction, interferer = stack
                cfg = replace(base, users_per_cell=n, bs_antennas=n + 1)
                tops = build_topology_drops(cfg, seeds)
                stacks[stack] = (_cell0_rows(tops, direction, interferer)[0],
                                 _edge_users(tops))
            prof, edges = stacks[stack]
            _, ms, budgets, xs = zip(*(probes[i] for i in members))
            gains = _gains(prof, list(ms), list(budgets), edges if edge_only else None)
            if not gains.shape[1]:
                q = queries[members[0]]
                raise ValueError(
                    f"no drop has an edge user at {q.mode} probe {xs[0]}: edgeOnly averages "
                    f"edge users only; raise drops (now {q.drops}) or set edgeOnly false"
                )
            for i, row in zip(members, gains):
                try:
                    probes[i] = searches[i].send(float(np.mean(row)))
                except StopIteration as done:
                    answers[i] = done.value
                    del probes[i]
    return answers


def _run_tables(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    mode, fixed, loops = _KINDS[spec.kind].run
    direction = spec.direction
    opts = spec.options
    lo, hi = int(spec.sweep.values[0]), int(spec.sweep.values[-1])
    interferer_db = opts[_LINKS[direction][0]]
    points = list(itertools.product(*(opts[option] for _, option in loops)))
    queries = []
    for row in points:
        point = dict(zip((option for _, option in loops), row))
        sizes = {fixed: int(row[0])} if fixed else {}
        queries.append(GainThresholdQuery(direction, point["thresholds"], point["powersDb"],
                                          (lo, hi), mode, drops=spec.drops,
                                          interferer_power_db=interferer_db, **sizes))
    # every query of a table runs on the same drops at one interferer power,
    # so queries that probe the same N share its profiles and its rounds' calls
    rows = [[*row, *answer] for row, answer in zip(points, find_max_ratios(queries, spec.network))]
    return [*(column for column, _ in loops), mode, "atBoundary"], rows


# ---------------------------------------------------------------------------
# the experiment kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """One experiment kind: all that the rest of the CLI knows of it."""

    # the job runner, (spec, job) -> records; or a table search's (mode, the
    # query field its first loop fixes, its loops as (column, option) in row order)
    run: object
    link: str | None  # None: the direction option decides
    sweeps: tuple  # the sweep variables it accepts, the default first
    values: list  # the default sweep values; a table bisects inside the first and last
    options: dict  # every option it takes, with its default
    gain: bool = False  # its curves are relative gains
    edge: bool = False  # it splits cell 0's users at EDGE_SPLIT_FACTOR
    # a closed-form kind's (panel, label) of each curve, formatted with its
    # scenario, ratio, power (dB), user class (cls) and allocation (alloc)
    curve: tuple = ()


_M_FINE, _M_COARSE = [20, *range(50, 501, 50)], [20, 50, 100, 150, 200, 300, 400, 500]
_STRATEGY_OPTIONS = {"powerDb": 20, "interfererUserPowerDb": 10, "evaluator": "approx",
                     "scenarios": ["multicell", "singlecell"]}
_THRESHOLD_LOOPS = (("threshold", "thresholds"), ("powerDb", "powersDb"))
_KINDS = {
    "fig2": _Kind(_job_equal_power, "uplink", ("bsAntennas",), _M_FINE,
                  {"powersDb": [20, 30], "interfererUserPowerDb": 10,
                   "estimators": ["mc", "lower", "upper", "approx"]}),
    "fig3": _Kind(_job_equal_power, "uplink", ("powerDb",), [0, 5, 10, 15, 20, 25, 30],
                  {"interfererUserPowerDb": 10, "estimators": ["mc", "lower", "upper", "approx"]}),
    "fig4": _Kind(_job_closed_form, "uplink", ("bsAntennas",), _M_COARSE, _STRATEGY_OPTIONS,
                  curve=("{scenario}", "{alloc}")),
    "fig5": _Kind(_job_closed_form, "uplink", ("bsAntennas",), _M_COARSE, _STRATEGY_OPTIONS,
                  gain=True, curve=("{scenario}", "{alloc}")),
    "fig6": _Kind(_job_closed_form, "uplink", ("usersPerCell",), [4, 8, 12, 16, 20],
                  {"ratios": [2, 5, 10], "powerDb": 20, "interfererUserPowerDb": 10},
                  curve=("ratio{ratio}", "{alloc}")),
    "fig7": _Kind(_job_closed_form, "uplink", ("ratio",), [2, 4, 6, 8, 10, 14, 18, 22, 26, 30],
                  {"powersDb": [10, 15, 20, 25], "interfererUserPowerDb": 10}, gain=True,
                  curve=("P{power:g}dB", "gain")),
    "fig8": _Kind(_job_equal_power, "downlink", ("bsAntennas",), _M_FINE,
                  {"powersDb": [40, 50], "interfererCellPowerDb": 30,
                   "estimators": ["mc", "lower"]}),
    "fig10": _Kind(_job_closed_form, "downlink", ("bsAntennas",), _M_COARSE,
                   {"powerDb": 40, "interfererCellPowerDb": 30}, edge=True,
                   curve=("{cls}", "{alloc}")),
    "fig11": _Kind(_job_closed_form, "downlink", ("bsAntennas",), _M_COARSE,
                   {"powerDb": 40, "interfererCellPowerDb": 30}, gain=True, edge=True,
                   curve=("", "{cls}")),
    "fig12": _Kind(_job_network_slots, "uplink", ("slot",), list(range(1, 13)),
                   {"powerW": 50.0, "initialUserPowerDb": 10, "estimator": "closedForm",
                    "jointMaxIters": 800, "jointTolerance": 1e-8}),
    "table2": _Kind(("maxRatio", None, (("powerDb", "powersDb"), ("threshold", "thresholds"))),
                    "uplink", ("ratio",), [2, 120],
                    {"powersDb": [10, 15, 20, 25], "thresholds": [0.10, 0.20],
                     "interfererUserPowerDb": 10}),
    "table3a": _Kind(("maxAntennas", "fixed_users",
                      (("users", "usersList"), *_THRESHOLD_LOOPS)),
                     "downlink", ("bsAntennas",), [6, 2000],
                     {"usersList": [5, 10, 20], "powersDb": [35, 40, 45],
                      "thresholds": [0.10, 0.20], "interfererCellPowerDb": 30}, edge=True),
    "table3b": _Kind(("minUsers", "fixed_antennas",
                      (("antennas", "antennasList"), *_THRESHOLD_LOOPS)),
                     "downlink", ("usersPerCell",), [1, 45],
                     {"antennasList": [50, 100, 200], "powersDb": [35, 40, 45],
                      "thresholds": [0.10, 0.20], "interfererCellPowerDb": 30}, edge=True),
    "custom": _Kind(_job_equal_power, None, ("bsAntennas", "powerDb"), [20, 100, 500],
                    {"direction": "uplink", "powerDb": 20, "interfererUserPowerDb": 10,
                     "interfererCellPowerDb": 30, "estimators": ["mc", "approx"]}),
}
KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# experiment driver and outputs
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "-", name)


def _curve_filename(kind: str, panel: str, label: str) -> str:
    parts = [kind] + ([_sanitize(panel)] if panel else []) + [_sanitize(label)]
    return "__".join(parts) + ".csv"


def _aggregate(records: list[dict]) -> dict:
    """Group records into curves: (panel, label) -> sorted (x, mean, ci).

    The points with k samples are the rows of one (points, k) array, reduced
    row-wise, each row with the bits of its own 1-D mean and std; a
    one-sample point keeps its record's ci."""
    z95 = NormalDist().inv_cdf(0.975)
    points: dict = {}  # ((panel, label), x) -> [(value, ci)], in order of first record
    for rec in records:
        points.setdefault(((rec["panel"], rec["label"]), float(rec["x"])), []).append(
            (rec["value"], rec["ci"]))
    by_count: dict = {}
    for point, samples in points.items():
        by_count.setdefault(len(samples), []).append(point)
    stats = {}
    for k, keys in by_count.items():
        vals = np.array([[v for v, _ in points[p]] for p in keys])
        cis = ((z95 * vals.std(axis=1, ddof=1) / np.sqrt(k)).tolist() if k > 1
               else [float(points[p][0][1]) for p in keys])
        stats.update(zip(keys, zip(vals.mean(axis=1).tolist(), cis)))
    curves: dict = {}
    for key, x in points:
        curves.setdefault(key, []).append((x, *stats[key, x]))
    return {key: sorted(rows) for key, rows in curves.items()}


def _manifest_notes(spec: ExperimentSpec) -> dict:
    notes = {
        "averaging": "per point: mean over user drops; fading expectation within each drop",
        "unitNoisePower": True,
    }
    if spec.direction == "downlink":
        notes["downlinkInterfererPower"] = "per-cell total, split equally across users"
    if _KINDS[spec.kind].edge:
        notes["edgeSplitRadiusFactor"] = EDGE_SPLIT_FACTOR
    if "estimator" in spec.options:
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


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported when a run first starts one:
    the import takes about 15 ms of every start, and a single job never needs it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


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
    # outputs depend on the estimator version too: it moves with the Monte Carlo
    # sampling and with closed-form evaluations (the upper bound, fig12's joint curve)
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
    if isinstance(_KINDS[spec.kind].run, tuple):
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
    "usersPerCell": "BS antennas",  # a fixed-ratio run reports x = M = ratio * N
    "ratio": "antennas per user M/N",
    "slot": "time slot",
}


def emit_plot_data(directory) -> Path:
    """Turn an experiment's manifest + CSVs into one plot-description JSON."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"no manifest.json in {directory}")
    manifest = check_field("manifest.json", json.loads(manifest_path.read_text()), "object")
    spec = check_field("manifest spec", manifest.get("spec"), "object")
    kind = check_field("manifest spec kind", spec.get("kind"), KINDS)
    sweep = check_field("manifest spec sweep", spec.get("sweep"), "object")
    variable = check_field("manifest spec sweep variable", sweep.get("variable"), "string")

    doc = {
        "kind": kind,
        "xLabel": _AXIS_LABELS.get(variable, variable),
        "yLabel": "relative gain" if _KINDS[kind].gain else "sum rate (bits/s/Hz)",
        "panels": [],
    }
    panels: dict[str, list] = {}
    for curve in manifest.get("curves", []):
        curve = check_field("manifest curve", curve, "object")
        # a panel may be "": the kind's curves have one panel
        panel, label, name = (check_field(f"manifest curve {key}", curve.get(key), of)
                              for key, of in (("panel", "text"), ("label", "string"),
                                              ("file", "string")))
        lines = (directory / name).read_text().strip().splitlines()
        if not lines or lines[0].split(",") != ["x", "mean", "ciHalfWidth"]:
            raise ValueError(f"{name}: expected header 'x,mean,ciHalfWidth'")
        if len(lines) < 2:
            raise ValueError(f"{name}: no data rows")
        xs, ys, cis = [], [], []
        for line in lines[1:]:
            x, y, ci = line.split(",")
            xs.append(float(x))
            ys.append(float(y))
            cis.append(float(ci))
        panels.setdefault(panel, []).append(
            {"label": label, "file": name, "x": xs, "y": ys, "ciHalfWidth": cis})
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
