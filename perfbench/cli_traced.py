"""``sharpcells.cli`` with every layer wrapped by the tracer.

Used for the traced round of the cli_cold workload.  Takes the CLI's
arguments and writes the trace to the path in PERFBENCH_TRACE_OUT:

    PYTHONPATH=src PERFBENCH_TRACE_OUT=t.json python3 perfbench/cli_traced.py fdinfo f.fml
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sharpcells.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = 0
try:
    code = sharpcells.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    tracer.write(os.environ["PERFBENCH_TRACE_OUT"])
sys.exit(code)
