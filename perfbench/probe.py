"""Set-up probe: import the package and generate one workload's inputs.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` times this script in fresh interpreters for ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports levyfluct)

workloads.generate(sys.argv[1], int(sys.argv[2]))
