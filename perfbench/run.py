"""ctqkd benchmark: one closed-loop workload, run from the root of a checkout.

    python3 perfbench/run.py --workload honest-1e6 --seed 1 --seconds 30 --trace 0

One single-threaded client runs one op at a time in a fresh interpreter.
With --trace 0 the last line of standard output holds the end-to-end metrics:
op_ms.p50, ns_per_pulse, peak_rss_mb and setup_s.  With --trace 1 it holds
the per-layer metrics of a traced run.  The line before it records the
environment, the sample count, op_ms.p90 where at least ten samples lie beyond
it, and the ops that failed their check.  BLAS threading is left at the
library default.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("honest-1e6", "attacks-2e5", "sweep-1e4")
# Set-up interpreters timed before and again after the measured ops.
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float) -> list:
    return [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds)]


def setup_samples(workload: str, seed: int, warm: bool) -> list:
    """Times of SETUP_RUNS fresh interpreters, one after another, from start
    to the result of the workload's tiny op.  With warm, a first, untimed
    interpreter fills the bytecode and file caches, as an installed package
    would have them."""
    samples = []
    for i in range(SETUP_RUNS + warm):
        t0 = perf_counter()
        with subprocess.Popen(_worker("tiny", workload, seed + i, 0), stdout=subprocess.PIPE,
                              text=True, env=_child_env()) as proc:
            try:
                line = proc.stdout.readline()
                dt = perf_counter() - t0
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up interpreter for {workload} exited with {proc.returncode}")
        if i or not warm:
            samples.append(dt)
    return samples


def fock_import_ms() -> float:
    """Median cumulative import time of ctqkd.fock, numpy already imported,
    from python -X importtime in fresh interpreters."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy, ctqkd"],
                              capture_output=True, text=True, env=_child_env(),
                              timeout=CHILD_TIMEOUT_S)
        m = re.search(r"\|\s*(\d+)\s*\|\s*ctqkd\.fock\s*$", proc.stderr, re.MULTILINE)
        if proc.returncode != 0 or m is None:
            raise BenchError("could not read the import time of ctqkd.fock")
        samples.append(int(m.group(1)) / 1e3)
    return statistics.median(samples)


def run_worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(_worker(mode, workload, seed, seconds), stdout=subprocess.PIPE,
                          text=True, env=_child_env(), timeout=seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    # Set-up is sampled on both sides of the measured ops, so its median
    # does not rest on one stretch of the machine's load.
    setup = setup_samples(workload, seed, warm=True)
    out = run_worker("measure", workload, seed, seconds)
    setup += setup_samples(workload, seed, warm=False)
    times = out["op_ms"]
    p50 = statistics.median(times)
    values = {
        "op_ms.p50": p50,
        "ns_per_pulse": p50 * 1e6 / out["pulses_per_op"],
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    detail = {"samples": len(times), "setup_samples": len(setup)}
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[-1]
        if sum(t > p90 for t in times) >= 10:
            detail["op_ms.p90"] = {"value": p90, "unit": "ms"}
    return out, values, detail


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    import_ms = fock_import_ms()
    out = run_worker("trace", workload, seed, seconds)
    detail = {key: out[key] for key in ("traced_ops", "untraced_ops", "oracle_ops")}
    return out, {**out["per_layer"], "fock.import_ms": import_ms}, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ctqkd" / "__init__.py").is_file():
        print(f"run.py: no ctqkd source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run, kind = (per_layer, "per_layer") if args.trace else (end_to_end, "end_to_end")
    try:
        out, values, detail = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    # BENCHMARK.json names the metrics a run prints and gives their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": out["env"], **detail,
                      "problems": out["problems"]}))
    correct = out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
