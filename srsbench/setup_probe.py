"""Set up one workload in a fresh interpreter, then exit.

It imports numpy and srslab, parses the workload's config and builds its
inputs, which is everything a run does before its first unit of work.
run.py times this process from spawn to exit and reports the median as
`setup_s`.  Usage: setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import srslab  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
