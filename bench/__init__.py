"""The repo benchmark: workloads, traced runs and result comparison.

Run with ``python -m bench run --workload NAME --seed N`` from the repo
root; see ``bench/README.md``.  The program under test is the ``repro``
package in ``src/`` of the same checkout, which is put first on the import
path here so an installed copy is never measured by mistake.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``: workloads, metrics, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
