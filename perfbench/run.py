"""sharpcells benchmark: seeded workloads, end-to-end metrics, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload cad_sample --seed 1 --seconds 15 --trace 0

Each run

1. times ``SETUP_PROBES`` fresh processes from start to ready (``import
   sharpcells`` plus the workload's warm-up) and reports the median as
   ``setup_s``;
2. imports sharpcells itself, warms up, and runs a fixed batch of whole
   rounds of the workload's seeded op stream, one op at a time (a closed
   loop with one client).  The batch has as many rounds as take about
   ``--seconds`` on a shared 2-core host (``ROUNDS_PER_20_S``), so the
   same seed always times the same ops, however fast the host is;
3. checks every answer against the oracle the generator attached to it.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the same untraced loop runs first, then one round of a
separate traced stream runs with every layer wrapped, and the last line
carries the per-layer metrics plus the tracing overhead; the spans go to
``perfbench/out/spans-<workload>-<seed>.json``.  Metric names and units come
from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
# Rounds in a timed batch of 20 s; other --seconds scale it.  A round
# takes about 6 s (cad_sample), 3.5 s (quantified) and 9 s (topology,
# cli_cold) of busy time on a shared 2-core host.  cad_sample has four
# rounds so that latency_tail_s falls inside its largest group of similar
# ops (the degree-7 and -8 Chebyshev curves and the quadrifolium), not on
# the edge between two groups; quantified has seven, one per region lambda
# (see workloads.REGION_LAMBDAS).
ROUNDS_PER_20_S = {"cad_sample": 4, "quantified": 7, "topology": 2,
                   "cli_cold": 2}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

CLI_SUBS = tuple(dict.fromkeys(workloads.CLI_MIX))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_setup(workload):
    """Seconds from spawning a process to its ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return elapsed


def run_child(argv, out_path, env):
    """Run one process to completion; (exit code, stdout, peak RSS in KiB).

    os.wait4 reaps the child itself, so its own resource usage is read
    rather than the running maximum over all children.
    """
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return proc.returncode, text, usage.ru_maxrss


class Loop:
    """Runs ops of one workload and keeps what the metrics need."""

    def __init__(self, workload, sc, work_dir, tracer=None):
        self.workload = workload
        self.sc = sc
        self.work_dir = work_dir
        self.tracer = tracer
        self.state = {}
        self.latencies = []
        self.failures = []
        self.answers = []
        self.child_rss_kb = 0
        self.cli_walls = {}

    def run_op(self, op):
        index = len(self.latencies)
        t0 = time.perf_counter()
        try:
            if self.workload == "cli_cold":
                latency, result = self._run_cli(op, index)
            else:
                result = workloads.run_op(self.sc, self.workload, op,
                                          self.state)
                latency = time.perf_counter() - t0
        except Exception as exc:  # a raising op counts as failed
            latency = time.perf_counter() - t0
            self.latencies.append(latency)
            self.failures.append((index, f"{type(exc).__name__}: {exc}"))
            self.answers.append(f"error {type(exc).__name__}")
            return
        self.latencies.append(latency)
        passed, answer = workloads.check(self.workload, op, result)
        if not passed:
            self.failures.append((index, answer))
        self.answers.append(answer)

    def _run_cli(self, op, index):
        argv = workloads.cli_files(op, self.work_dir, index)
        out_path = os.path.join(self.work_dir, f"op{index}.out")
        env = child_env()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sharpcells.cli", *argv]
        else:
            dump = os.path.join(self.work_dir, f"op{index}.trace.json")
            env["PERFBENCH_TRACE_OUT"] = dump
            cmd = [sys.executable, str(HERE / "cli_traced.py"), *argv]
        t0 = time.perf_counter()
        code, text, rss_kb = run_child(cmd, out_path, env)
        latency = time.perf_counter() - t0
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        self.cli_walls.setdefault(op["sub"], []).append(latency)
        if self.tracer is not None and os.path.exists(dump):
            with open(dump, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh), index)
        return latency, (code, text)


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def digest(answers):
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def import_breakdown():
    """Cumulative import seconds of sharpcells and its heavy dependencies,
    from one ``python -X importtime -c 'import sharpcells'``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sharpcells"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {f"cli.import.{m}_s": cumulative.get(m, 0.0)
            for m in ("sharpcells", "sympy", "numpy", "scipy")}


def peak_rss_mb(loop):
    if loop.workload == "cli_cold":
        return loop.child_rss_kb / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sharpcells" / "__init__.py").is_file():
        print(f"error: no sharpcells sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, spec, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def bench(args, spec, work_dir):
    setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import sharpcells as sc
    if Path(sc.__file__).resolve().parent != SRC / "sharpcells":
        raise RuntimeError(f"imported sharpcells from {sc.__file__}")
    workloads.warm_up(args.workload, sc)

    loop = Loop(args.workload, sc, work_dir)
    stream = workloads.rounds(args.workload, args.seed, "timed")
    n_rounds = max(1, round(ROUNDS_PER_20_S[args.workload]
                            * args.seconds / 20))
    first_round = None
    for _ in range(n_rounds):
        for op in next(stream):
            loop.run_op(op)
        if first_round is None:
            first_round = list(loop.answers)
    value, pct, beyond = tail(loop.latencies)
    e2e = {
        "setup_s": statistics.median(setup),
        # over the whole batch, which averages the host's drift in speed
        "throughput_ops_s": len(loop.latencies) / sum(loop.latencies),
        "latency_p50_s": statistics.median(loop.latencies),
        "latency_tail_s": value,
        "peak_rss_mb": peak_rss_mb(loop),
    }
    attempted, failed = len(loop.latencies), len(loop.failures)
    for index, why in loop.failures:
        print(f"failed op {index}: {why}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {n_rounds}  busy {sum(loop.latencies):.1f} s  "
          f"attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4f} ratio")
    for name, v in e2e.items():
        print(f"{name} {v:.6g} {units.get(name, '')}")
    print(f"latency_tail_s is p{pct:.1f} of {attempted} samples, "
          f"{beyond} beyond it")
    print(f"digest round0 {digest(first_round)}")

    if args.trace:
        metrics = traced(args, sc, work_dir, loop)
        metrics["trace.throughput_untraced_ops_s"] = e2e["throughput_ops_s"]
        metrics["trace.overhead_ratio"] = \
            1 - metrics["trace.throughput_traced_ops_s"] / \
            e2e["throughput_ops_s"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = e2e
        names = [m["name"] for m in spec["end_to_end"]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


def traced(args, sc, work_dir, untraced):
    """One round of the traced stream with every layer wrapped."""
    from tracer import Tracer

    tracer = Tracer()
    loop = Loop(args.workload, sc, work_dir, tracer=tracer)
    ops = next(workloads.rounds(args.workload, args.seed, "traced"))
    if args.workload != "cli_cold":
        tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.op = index
            loop.run_op(op)
    finally:
        tracer.uninstall()
    for index, why in loop.failures:
        print(f"failed traced op {index}: {why}", file=sys.stderr)
    print(f"digest traced {digest(loop.answers)}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")

    metrics = tracer.layer_metrics()
    metrics["trace.throughput_traced_ops_s"] = \
        len(loop.latencies) / sum(loop.latencies)
    metrics.update(import_breakdown())
    for sub in CLI_SUBS:
        walls = untraced.cli_walls.get(sub)
        metrics[f"cli.{sub}.wall_s"] = statistics.median(walls) \
            if walls else 0.0
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
