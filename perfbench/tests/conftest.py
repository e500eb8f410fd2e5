"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

The benchmark's modules are scripts run from ``perfbench/`` (their
directory is first on ``sys.path``); the tests import them the same way.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
