"""Set-up probe: import sharpcells, warm up one workload, print "ready".

Started by run.py, which times it from spawn to the ready line.  Usage:

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sharpcells  # noqa: E402
import workloads  # noqa: E402

workloads.warm_up(sys.argv[1], sharpcells)
print("ready", flush=True)
