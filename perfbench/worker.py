"""One fresh client process of the ctqkd benchmark.

    python3 perfbench/worker.py {tiny|measure|trace} WORKLOAD SEED SECONDS

tiny     runs the workload's tiny op once and prints one line; the parent
         times a fresh interpreter from start to that line (set-up time).
measure  runs a warm-up op, then ops back to back for SECONDS, untraced.
trace    does the same, tracing every second op, then one op under
         tracemalloc for the allocation peak; on sweep-1e4 it then times
         ORACLE_OPS ops of the Fock oracle grid.

Every op's output is checked.  measure and trace print one JSON line.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ctqkd import light  # noqa: E402
from workloads import ORACLE, WORKLOADS  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


class Loop:
    """Closed loop of ops with seeds seed, seed + 1, ...; op 0 is the warm-up."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self) -> float:
        """Run and check the next op; return its wall time in ms."""
        seed = self.seed + self.attempted
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.workload.run(seed)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            dt = perf_counter() - t0
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            dt = perf_counter() - t0
            found = self.workload.check(out)
        if found:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in found[:3]]
        return dt * 1e3

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:10], "pulses_per_op": self.workload.pulses_per_op,
                "env": environment()}


def measure(workload, seed: int, seconds: float) -> dict:
    loop = Loop(workload, seed)
    loop.op()
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        times.append(loop.op())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**loop.summary(), "op_ms": times, "peak_rss_mb": peak_kib / 1024.0}


def trace(workload, seed: int, seconds: float) -> dict:
    # Imported here, so the set-up interpreters import only what a user would.
    from spans import SPAN_NAMES, Tracer

    loop = Loop(workload, seed)
    loop.op()
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while len(traced) < 1 or perf_counter() - start < seconds:
        if len(plain) == len(traced):
            plain.append(loop.op())
        else:
            with tracer:
                traced.append(loop.op())

    alloc = Tracer()
    tracemalloc.start()
    try:
        with alloc:
            loop.op()
    finally:
        tracemalloc.stop()

    ops = len(traced)
    self_ms = {name: s * 1e3 / ops for name, s in tracer.self_s.items()}
    calls = {name: c / ops for name, c in tracer.calls.items()}
    span_share = sum(self_ms.values()) / statistics.mean(traced)

    # The Fock grid runs after the timed ops, so the OpenBLAS thread it wakes
    # cannot slow them; its spans are disjoint from the session spans.
    oracle, fock = Loop(ORACLE, seed), Tracer()
    if workload.traces_oracle:
        oracle.op()
        with fock:
            for _ in range(ORACLE_OPS):
                oracle.op()
        self_ms.update({name: s * 1e3 / ORACLE_OPS for name, s in fock.self_s.items()})
        calls.update({name: c / ORACLE_OPS for name, c in fock.calls.items()})

    fa = light.FieldArray.vacuum(1)
    metrics = {
        **{f"{name}_ms": self_ms.get(name, 0.0) for name in SPAN_NAMES},
        **{f"{name}_calls": calls.get(name, 0.0) for name in LAYER_CALLS},
        "protocol.peak_alloc_mb": alloc.session_alloc_peak / 2**20,
        "protocol.pulses": tracer.pulses / ops,
        "light.bytes_per_pulse_mode": sum(getattr(fa, col).itemsize for col in fa.__slots__),
        "detector.gates": tracer.gates / ops,
        "analysis.sessions": tracer.sweep_sessions / ops,
        "fock.cpu_to_wall": fock.fock_cpu_s / fock.fock_wall_s if fock.fock_wall_s else 0.0,
        "trace.overhead_ms": statistics.median(traced) - statistics.median(plain),
        "trace.span_share": span_share,
    }
    summary = loop.summary()
    summary["attempted"] += oracle.attempted
    summary["failed"] += oracle.failed
    summary["problems"] = (summary["problems"] + [f"{ORACLE.name} {p}" for p in oracle.problems])[:10]
    return {**summary, "per_layer": metrics, "traced_ops": ops, "untraced_ops": len(plain),
            "oracle_ops": ORACLE_OPS if workload.traces_oracle else 0}


# Fock oracle grid ops timed in a traced run whose workload asks for them.
ORACLE_OPS = 10

# Span names also reported as calls per op (<name>_calls); every span name is
# reported as self time per op (<name>_ms).
LAYER_CALLS = ("light.where", "light.copy", "light.noclick", "detector.power_test",
               "fock.density_init")


def main(argv) -> int:
    mode, name, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    workload = WORKLOADS[name]
    if mode == "tiny":
        workload.tiny(seed)
        print("ready", flush=True)
        return 0
    result = {"measure": measure, "trace": trace}[mode](workload, seed, seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
