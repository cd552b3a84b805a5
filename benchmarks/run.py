"""mcmimo benchmark: shipped figure/table configs run through ``mcmimo run``.

Usage (from the repository root):

    python3 benchmarks/run.py --workload uplink-mc --seed 1 --seconds 30 --trace 0

Every workload in one command (the summary lines name each metric with its
unit; ``error_ratio`` is failed over attempted):

    for w in uplink-mc downlink-mc closed-form network; do
        python3 benchmarks/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Each repeat is a fresh interpreter (``benchmarks/child.py``) that imports
``mcmimo.cli`` from ``src/``, parses the workload's spec files and runs them
through the CLI entry. Repeats continue until ``--seconds`` are used up (at
least ``MIN_REPEATS``). Every repeat's outputs are checked (``checks.py``) and
the first two repeats must be byte-identical.

``--trace 0`` reports the end-to-end metrics as medians over repeats. The
speed of a shared host drifts over minutes: on a 2-core Xeon VM the median
wall time of ``network`` ranged 1.1-1.9 s between 30-second runs, with import
time (``setup_s``) moving alongside, far more than a regression worth catching. So
the run's wall and CPU time are reported in units of a reference computation
(``child.reference``, no mcmimo code) timed in the same process right before
and after the specs: ``wall_ref`` is ``wall_s / ref_s`` and ``cpu_ref`` is
``cpu_s / ref_s``. The seconds themselves are printed and recorded beside them.
``--trace 1`` alternates untraced and traced repeats at ``--jobs 1`` (spans
recorded in pool workers would never reach the parent) and reports the
per-layer metrics of ``spans.PER_LAYER``; ``trace.overhead_s`` is the traced
minus the untraced median wall time.

The benchmark writes the spec files itself from ``configs/``: the shipped kind,
network and sweep, with the network seed set to ``--seed`` (except where a
workload is not ``seeded``) and trials, drops and output overridden. Outputs and a result record (machine, load averages,
every repeat's figures) go under ``.bench_work/``. The last line of standard
output is one JSON object: ``correct``, ``attempted`` (runs plus output checks),
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Seed kept out of every tuning run; later gain claims are re-checked on it.
HELD_OUT_SEED = 7919

MIN_REPEATS = 3  # two for the byte-identical check, and a median of three
CHILD_TIMEOUT_S = 120.0
RUN_CAP_S = 150.0  # no repeat starts after this, so a run ends well within 180 s

# OpenBLAS otherwise starts one thread per core in every process, so a
# 2-worker pool on 2 cores would run 4 BLAS threads.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# (name, unit, better) of the end-to-end metrics, reported with --trace 0;
# "ref" is the time of child.reference measured beside the run
END_TO_END = [
    ("wall_ref", "ref", "lower"),
    ("cpu_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


@dataclass(frozen=True)
class Workload:
    specs: tuple  # (file under configs/, overrides of the shipped spec)
    jobs: int
    why: str
    # False keeps the shipped network seed, so every --seed runs the same user
    # drops: fig12's joint-optimiser iterations range 15-270 between drops
    # (coefficient of variation 0.9), so 20 seeded drops would swing the
    # work by about 20% from seed to seed.
    seeded: bool = True


WORKLOADS = {
    "uplink-mc": Workload(
        (("fig2.json", {"trials": 40, "drops": 1}),), 1,
        "fig2 M sweep 20-500 at drops=1, one process: uplink Monte Carlo and ZF receivers "
        "carry the time; the single-process baseline"),
    "downlink-mc": Workload(
        (("fig8.json", {"trials": 40, "drops": 1}),), 2,
        "fig8 at --jobs 2: six neighbour ZF precoders per trial; the only workload that "
        "runs the process pool"),
    "closed-form": Workload(
        (("fig5.json", {"drops": 20}), ("table2.json", {"drops": 10})), 1,
        "fig5 then table2, no Monte Carlo: topology builds in the bisection, hypoexponential "
        "coefficients, water-filling"),
    "network": Workload(
        (("fig12.json", {"drops": 20}),), 1,
        "fig12 with drops raised to 20 on the shipped seed: the scheduler and the joint "
        "optimiser's simplex projections carry the time", seeded=False),
}
# Full-default Monte Carlo cost is extrapolated for these kinds from the traced
# per-antenna-count cost per trial.
EXTRAPOLATED = {"fig2": "mcrate.uplink_rate_mc", "fig8": "mcrate.downlink_rate_mc"}


def write_specs(workload: Workload, seed: int, rundir: Path) -> list[Path]:
    paths = []
    for name, overrides in workload.specs:
        spec = json.loads((ROOT / "configs" / name).read_text())
        if workload.seeded:
            spec["network"]["seed"] = seed
        spec.update(overrides)
        spec["output"] = str(rundir / "out" / Path(name).stem)
        path = rundir / name
        path.write_text(json.dumps(spec, indent=1) + "\n")
        paths.append(path)
    return paths


def child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(request: dict, rundir: Path) -> tuple[dict | None, str]:
    """Run one repeat; returns (child result or None, error text)."""
    req_path = rundir / "request.json"
    req_path.write_text(json.dumps(request))
    result_path = Path(request["result"])
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), repr(spawned), str(req_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        _, err = proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S:g} s"
    if proc.returncode != 0 or not result_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return None, f"exit code {proc.returncode}: " + " | ".join(tail)
    return json.loads(result_path.read_text()), ""


def output_bytes(outroot: Path) -> int:
    return sum(p.stat().st_size for p in outroot.rglob("*") if p.is_file())


def machine() -> dict:
    info = {"cores": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": "unknown", "blas": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (ImportError, KeyError, TypeError):
        pass
    return info


def extrapolate(spec_paths: list[Path], outroot: Path, metrics: dict) -> dict:
    """Seconds of Monte Carlo CPU time for the shipped fig2/fig8 at full size:
    traced cost per trial at each swept M x shipped trials x drops x panels."""
    out = {}
    for path in spec_paths:
        manifest = json.loads((outroot / path.stem / "manifest.json").read_text())
        kind = manifest["spec"]["kind"]
        if kind not in EXTRAPOLATED:
            continue
        layer = EXTRAPOLATED[kind]
        shipped = json.loads((ROOT / "configs" / path.name).read_text())
        panels = len(manifest["spec"]["options"]["powersDb"])
        per_trial_s = sum(metrics[f"{layer}.us_per_trial.M{int(m)}"] * 1e-6
                          for m in manifest["spec"]["sweep"]["values"])
        out[kind] = per_trial_s * shipped["trials"] * shipped["drops"] * panels
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "mcmimo" / "cli.py",
              *[ROOT / "configs" / name for name, _ in workload.specs]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: missing program files {missing}; run from a checkout",
              file=sys.stderr)
        return 2

    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    spec_paths = write_specs(workload, args.seed, rundir)
    outroot, firstroot = rundir / "out", rundir / "first"

    # Fill the bytecode caches before timing: users pay that once, not per run.
    subprocess.run([sys.executable, "-c", "import mcmimo.cli"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)

    start = time.monotonic()
    repeats: list[dict] = []
    attempted = failed = 0
    kept_first = compared = False  # first two completed repeats must match bytes
    errors: list[str] = []
    durations: list[float] = []
    need = 2 * MIN_REPEATS if args.trace else MIN_REPEATS
    while True:
        i = len(repeats)
        elapsed = time.monotonic() - start
        if i >= need and (elapsed + statistics.median(durations) > args.seconds
                          or elapsed > RUN_CAP_S):
            break
        traced = bool(args.trace) and i % 2 == 1
        shutil.rmtree(outroot, ignore_errors=True)
        request = {"specs": [str(p) for p in spec_paths], "trace": traced,
                   "jobs": 1 if args.trace else workload.jobs,
                   "result": str(rundir / "result.json")}
        load_before = os.getloadavg()[0]
        t0 = time.monotonic()
        result, err = run_child(request, rundir)
        durations.append(time.monotonic() - t0)
        rep = {"traced": traced, "load1_before": load_before, "load1_after": os.getloadavg()[0]}
        repeats.append(rep)
        attempted += 1
        if result is None:
            failed += 1
            errors.append(f"repeat {i}: {err}")
            continue
        rep.update({k: v for k, v in result.items() if k != "spans"})
        rep["wall_ref"] = rep["wall_s"] / rep["ref_s"]
        rep["cpu_ref"] = rep["cpu_s"] / rep["ref_s"]
        rep["output_bytes"] = output_bytes(outroot)
        if traced:
            rep["layers"] = spans.summarize(result["spans"])
            rep["top_self"] = spans.top_self(result["spans"])
        for spec_path in spec_paths:
            n, fails = checks.check_output(outroot / spec_path.stem)
            attempted += n
            failed += len(fails)
            errors += [f"repeat {i}: {f}" for f in fails]
        if not kept_first:
            outroot.rename(firstroot)
            kept_first = True
        elif not compared:
            for spec_path in spec_paths:
                attempted += 1
                diff = checks.identical_trees(firstroot / spec_path.stem,
                                              outroot / spec_path.stem)
                if diff:
                    failed += 1
                    errors.append(f"repeat {i}: {spec_path.stem}: {diff}")
            compared = True

    ok = [r for r in repeats if "wall_s" in r]
    if not ok or (args.trace and not any(r["traced"] for r in ok)):
        for e in errors:
            print(e, file=sys.stderr)
        print("benchmark: no repeat completed", file=sys.stderr)
        return 1

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        traced_rows = [r for r in ok if r["traced"]]
        plain_rows = [r for r in ok if not r["traced"]] or traced_rows
        values = {name: statistics.median(r["layers"][name] for r in traced_rows)
                  for name in traced_rows[0]["layers"]}
        values["cli.output_bytes"] = median("output_bytes", ok)
        values["trace.overhead_s"] = median("wall_s", traced_rows) - median("wall_s", plain_rows)
        names = spans.PER_LAYER
    else:
        values = {name: median(name, ok) for name, _, _ in END_TO_END}
        names = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in names}

    record = {
        "workload": args.workload, "seed": args.seed, "heldOutSeed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "env": CHILD_ENV, "repeats": repeats, "errors": errors, "metrics": metrics,
    }
    if args.trace:
        record["extrapolatedFullDefaultMcCpuS"] = extrapolate(spec_paths, firstroot, values)
    resultdir = WORK / "results"
    resultdir.mkdir(exist_ok=True)
    result_file = resultdir / f"{rundir.name}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(rundir)

    m = record["machine"]
    loads = [r[k] for r in repeats for k in ("load1_before", "load1_after")]
    print(f"# {args.workload} seed {args.seed}: {len(ok)}/{len(repeats)} repeats ok; "
          f"{m['cores']} cores, {m['cpu']}, Python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']}; load1 {min(loads):.2f}-{max(loads):.2f}")
    for name, unit, _ in names:
        print(f"#   {name:45s} {values[name]:14.6g} {unit}")
    if not args.trace:
        for name in ("wall_s", "cpu_s", "ref_s"):
            print(f"#   {name:45s} {median(name, ok):14.6g} s (information only)")
    print(f"#   {'error_ratio':45s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    if args.trace:
        top = next(r for r in ok if r["traced"])["top_self"]
        print("# largest self time: " + ", ".join(f"{n} {s:.3f}s" for n, s in top))
        for kind, secs in record.get("extrapolatedFullDefaultMcCpuS", {}).items():
            print(f"# extrapolated full-default {kind} Monte Carlo: {secs:.0f} CPU s "
                  f"= {secs / 3600:.2f} core-hours (information only)")
    for e in errors:
        print(f"# FAILED {e}")
    print(f"# record: {result_file.relative_to(ROOT)}; held-out seed {HELD_OUT_SEED}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
