"""One repeat of a benchmark workload, in a fresh interpreter.

Usage: child.py SPAWN_TIME REQUEST_JSON

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process. REQUEST_JSON names the spec files, the ``--jobs`` value, whether to
trace, and the file to write the result to. The specs run through the public
CLI entry, ``mcmimo.cli.main(["run", ...])``, one after another.

A fixed reference computation that uses no mcmimo code runs right before and
right after the specs. Its time (``ref_s``) measures how fast this shared
machine is at that moment, so the parent can report the run's time in units
of it.
"""

import json
import resource
import sys
import time

import numpy as np


def reference(scale: int = 3) -> float:
    """Seconds taken by a fixed mix of the kinds of work the program does:
    interpreter loops, small numpy operations, small real solves and
    zero-forcing-like complex algebra on a 200 x 10 matrix."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(150_000 * scale):
        acc += (i % 7) * 0.5
        table[i % 512] = acc
    x = np.ones(16)
    for _ in range(4_000 * scale):
        x = x * 1.0000001 + np.sqrt(x) * 1e-9
    a, b = np.eye(48) + np.full((48, 48), 0.01), np.ones(48)
    for _ in range(300 * scale):
        np.linalg.solve(a, b)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((200, 10)) + 1j * rng.standard_normal((200, 10))
    for _ in range(250 * scale):
        gram = g.conj().T @ g
        np.linalg.cond(gram)
        np.abs(np.linalg.solve(gram.conj(), g.T) @ g) ** 2
    return time.perf_counter() - t0


def main() -> None:
    spawned = float(sys.argv[1])
    with open(sys.argv[2]) as fh:
        request = json.load(fh)

    from mcmimo import cli

    for path in request["specs"]:
        cli.ExperimentSpec.from_json(path)
    setup_s = time.monotonic() - spawned

    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    reference(scale=1)  # warm-up: first-call costs of the numpy paths
    ref_before = reference()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for path in request["specs"]:
        cli.main(["run", path, "--jobs", str(request["jobs"])])
    wall_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, reaped
    ref_after = reference()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": (ref_before + ref_after) / 2,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
                 + workers.ru_utime + workers.ru_stime,
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest worker
        "peak_rss_mb": (after.ru_maxrss + workers.ru_maxrss) / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    with open(request["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
