"""In-memory span tracing of the mcmimo layers, applied from outside the package.

``install`` replaces every public function of the six mcmimo modules (plus the
CLI's per-job entry ``_run_payload``) with a wrapper that records one span per
call: function name, parent span, start, end and a few call facts. The
replacement happens in every mcmimo module namespace that holds the function,
including module-level dicts such as the CLI's strategy table, because modules
import the functions by name. Spans stay in memory; the caller writes them out
when the run ends.

``summarize`` turns recorded spans into the per-layer metrics listed in
``PER_LAYER``: call counts, self time (span duration minus the part covered by
its child spans), Monte Carlo trials and cost per trial, ZF acceptance ratio
and joint-optimiser iterations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("topology", "closedform", "allocation", "mcrate", "network", "cli")
# private entry point wrapped as well, so the number of jobs run can be counted
EXTRA = (("cli", "_run_payload"),)

# layer name -> the span names (module.function) it aggregates
GROUPS = {
    "topology.build_topology": ("topology.build_topology",),
    "closedform.characteristic_coefficients": ("closedform.characteristic_coefficients",),
    "closedform.mean_inv_one_plus": ("closedform.mean_inv_one_plus",),
    "closedform.uplink_profile": ("closedform.uplink_profile",),
    "closedform.downlink_profile": ("closedform.downlink_profile",),
    "closedform.bounds": (
        "closedform.uplink_lower_bound", "closedform.uplink_upper_bound",
        "closedform.uplink_approximation", "closedform.downlink_lower_bound",
    ),
    "allocation.waterfill": ("allocation.waterfill",),
    "allocation.strategies": (
        "allocation.uplink_alloc_lower_bound", "allocation.uplink_alloc_upper_bound",
        "allocation.uplink_alloc_approx", "allocation.downlink_alloc",
    ),
    "mcrate.uplink_rate_mc": ("mcrate.uplink_rate_mc",),
    "mcrate.downlink_rate_mc": ("mcrate.downlink_rate_mc",),
    "mcrate.zf_receiver": ("mcrate.zf_receiver",),
    "network.project_budget_simplex": ("network.project_budget_simplex",),
    "network.run_joint": ("network.run_joint",),
    "network.run_scheduled": ("network.run_scheduled",),
    "network.network_sum_rate": ("network.network_sum_rate",),
    # orchestration: the run itself plus the per-job glue around the layers
    "cli.run_experiment": ("cli.run_experiment", "cli._run_payload"),
    "cli.find_max_ratio": ("cli.find_max_ratio",),
}
MC_BUCKETS = (20, 100, 500)  # antenna counts reported as us_per_trial.M<m>


def _mc_metrics(layer: str) -> list[tuple[str, str, str]]:
    return [
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.trials", "count", "lower"),
        (f"{layer}.us_per_trial", "us", "lower"),
        *[(f"{layer}.us_per_trial.M{m}", "us", "lower") for m in MC_BUCKETS],
    ]


def _timed(layer: str) -> list[tuple[str, str, str]]:
    return [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    *_timed("topology.build_topology"),
    *_timed("closedform.characteristic_coefficients"),
    *_timed("closedform.mean_inv_one_plus"),
    *_timed("closedform.uplink_profile"),
    *_timed("closedform.downlink_profile"),
    *_timed("closedform.bounds"),
    *_timed("allocation.waterfill"),
    *_timed("allocation.strategies"),
    *_mc_metrics("mcrate.uplink_rate_mc"),
    *_mc_metrics("mcrate.downlink_rate_mc"),
    *_timed("mcrate.zf_receiver"),
    ("mcrate.zf_receiver.accept_ratio", "ratio", "higher"),
    *_timed("network.project_budget_simplex"),
    *_timed("network.run_joint"),
    ("network.run_joint.iterations", "count", "lower"),
    ("network.run_joint.converged_ratio", "ratio", "higher"),
    *_timed("network.run_scheduled"),
    *_timed("network.network_sum_rate"),
    ("cli.run_experiment.self_s", "s", "lower"),
    *_timed("cli.find_max_ratio"),
    ("cli.jobs", "count", "lower"),  # job payloads run: sweep points x drops
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records spans as ``[name, parent, start, end, info]`` lists.

    ``parent`` is the index of the enclosing span or -1. ``info`` holds call
    facts: the exception type name if the call raised, Monte Carlo trials and
    antennas, and the joint optimiser's iterations and convergence.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        describe = _DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)  # keeps attributes such as a strategy's .direction
        def traced(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
                info = {"error": error} if error else {}
                if describe is not None and error is None:
                    info.update(describe(signature.bind(*args, **kwargs).arguments, result))
                rec[4] = info or None

        return traced


def _describe_mc(arguments, result) -> dict:
    return {"trials": int(arguments["trials"]),
            "m": int(arguments["topology"].config.bs_antennas)}


def _describe_joint(arguments, result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


_DESCRIBE = {
    "mcrate.uplink_rate_mc": _describe_mc,
    "mcrate.downlink_rate_mc": _describe_mc,
    "network.run_joint": _describe_joint,
}


def _targets():
    """(span name, module, function name) of every function to wrap."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"mcmimo.{short}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", mod, attr))
    for short, attr in EXTRA:
        out.append((f"{short}.{attr}", sys.modules[f"mcmimo.{short}"], attr))
    return out


def install(tracer: Tracer):
    """Wrap the layer functions everywhere mcmimo refers to them by name.

    ``mcmimo.cli`` must already be imported (it imports every other module).
    Returns a function that puts the original functions back.
    """
    replacements = {}
    for name, mod, attr in _targets():
        original = getattr(mod, attr)
        replacements[id(original)] = (original, tracer.wrap(name, original))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "mcmimo" and not modname.startswith("mcmimo."):
            continue
        for container in (vars(mod), *[v for v in vars(mod).values() if isinstance(v, dict)]):
            for key, value in list(container.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((container, key, value))
                    container[key] = hit[1]

    def restore():
        for container, key, value in patched:
            container[key] = value

    return restore


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for rec in spans:
        if rec[1] >= 0:
            children[rec[1]].append((rec[2], rec[3]))
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[2], rec[3]
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run, except the run-level
    cli.output_bytes and trace.overhead_s. A layer never called reads 0. The
    result also holds keys outside ``PER_LAYER``, such as
    ``<mc layer>.us_per_trial.M<m>`` for every antenna count seen.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    out: dict[str, float] = {}
    for layer, names in GROUPS.items():
        idx = [i for n in names for i in by_name.get(n, ())]
        out[f"{layer}.calls"] = float(len(idx))
        out[f"{layer}.self_s"] = float(sum(selfs[i] for i in idx))

    for layer in ("mcrate.uplink_rate_mc", "mcrate.downlink_rate_mc"):
        trials = 0
        per_m: dict[int, list[float]] = {}
        for i in by_name.get(layer, ()):
            info = spans[i][4]
            if not info or "trials" not in info:
                continue
            trials += info["trials"]
            acc = per_m.setdefault(info["m"], [0.0, 0])
            acc[0] += spans[i][3] - spans[i][2]
            acc[1] += info["trials"]
        out[f"{layer}.trials"] = float(trials)
        total = sum(acc[0] for acc in per_m.values())
        out[f"{layer}.us_per_trial"] = 1e6 * total / trials if trials else 0.0
        for m in sorted(set(per_m) | set(MC_BUCKETS)):
            secs, n = per_m.get(m, (0.0, 0))
            out[f"{layer}.us_per_trial.M{m}"] = 1e6 * secs / n if n else 0.0

    zf = by_name.get("mcrate.zf_receiver", ())
    accepted = sum(1 for i in zf if not (spans[i][4] or {}).get("error"))
    out["mcrate.zf_receiver.accept_ratio"] = accepted / len(zf) if zf else 0.0

    joint = [spans[i][4] for i in by_name.get("network.run_joint", ()) if spans[i][4]]
    out["network.run_joint.iterations"] = float(sum(j["iterations"] for j in joint))
    out["network.run_joint.converged_ratio"] = (
        sum(j["converged"] for j in joint) / len(joint) if joint else 0.0)

    out["cli.jobs"] = float(len(by_name.get("cli._run_payload", ())))
    return out


def top_self(spans, k: int = 8) -> list[tuple[str, float]]:
    """The ``k`` function names with the largest total self time."""
    totals: dict[str, float] = {}
    for rec, s in zip(spans, self_times(spans)):
        totals[rec[0]] = totals.get(rec[0], 0.0) + s
    return sorted(totals.items(), key=lambda kv: -kv[1])[:k]
