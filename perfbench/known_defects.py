"""Run the ops the timed streams leave out because the library answers
them wrongly (``workloads.KNOWN_DEFECTS``), and report which still fail.

    python3 perfbench/known_defects.py --seed 1

Prints one line per op and a summary; exits 0 whatever the answers are,
so a fix shows as a drop in the count of failing ops.  The 3-D ops take
a few seconds each.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    import sharpcells as sc

    ops = workloads.defect_ops(args.seed)
    failing = 0
    for op in ops:
        try:
            got = workloads.run_op(sc, "topology", op, {})
            passed = workloads.check("topology", op, got)[0]
        except Exception as exc:
            got, passed = f"{type(exc).__name__}", False
        failing += not passed
        print(f"{'ok  ' if passed else 'FAIL'} {op['kind']} {op['shape']}: "
              f"{oracle.render(op['formula'])}  expect {op['expect']}  "
              f"got {got}")
    print(f"{failing} of {len(ops)} known-defect ops fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
