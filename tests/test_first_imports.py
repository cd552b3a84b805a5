"""No run imports a module on first use.

Every ``mcmimo run`` is a fresh, short process, so a module that a run path
imports on its first call is paid in full by every run: ``np.unique`` loads
``numpy.ma`` (10-20 ms) and a quadrature rule from ``numpy.polynomial`` costs
about 3 ms, against 20-50 ms of work in a small run. One interpreter imports
the CLI and ``numpy.random``, runs every shipped config small and the shipped
table query, and lists the modules first imported during those runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# argparse's gettext imports these when the CLI formats its parser
ALLOWED = {"locale", "_locale"}

SCRIPT = """
import json, sys, tempfile
from pathlib import Path
import numpy.random
from mcmimo.cli import main
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    for path in sorted(Path("configs").glob("*.json")):
        if "kind" in json.loads(path.read_text()):
            main(["run", str(path), "--drops", "2", "--trials", "8", "--jobs", "1",
                  "--out", str(Path(out) / path.stem)])
    main(["table", "configs/table_query.json"])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_runs_import_no_module_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    imported = set(json.loads(done.stdout.splitlines()[-1]))
    assert imported <= ALLOWED, sorted(imported - ALLOWED)
