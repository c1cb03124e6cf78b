"""Self-test of the ctqkd benchmark; exits non-zero on the first failure.

    python3 perfbench/selftest.py [SEED]

1. Tracing leaves results alone: a traced session gives the same
   SessionResult.to_json() as an untraced one, for the honest run and every
   attack, and a traced sweep the same curve, so the wrappers keep the RNG
   order.  Leaving the tracer restores every patched name.
2. Every workload's full-size op, and the Fock oracle grid, passes its check
   at SEED (default 7, a seed the benchmark runs do not start from), and each
   check rejects an output broken on purpose, so no check is vacuous.
3. On every workload the span self times account for the traced op's wall
   time, the traced run of sweep-1e4 times the Fock oracle grid, and the
   traced run yields exactly the per-layer metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ctqkd import protocol  # noqa: E402
from ctqkd.attacks import ATTACK_KINDS  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import ATTACK_ORDER, ORACLE, ORACLE_MU, WORKLOADS, sweep_point  # noqa: E402


def expect(ok: bool, message) -> None:
    if not ok:
        raise AssertionError(message)


def _bindings() -> list:
    owners = {id(o): o for o, _, _ in spans.SPANS if isinstance(o, type)}
    return [dict(o.__dict__) for o in [*owners.values(), *spans.ctqkd_modules()]]


def check_tracing_is_transparent() -> None:
    before = _bindings()
    cfg = protocol.SessionConfig(n_pulses=20_000, seed=11)
    for kind in ("none",) + ATTACK_ORDER:
        fresh = ATTACK_KINDS[kind]
        plain = protocol.run_session(cfg, fresh() if fresh else None).to_json()
        with spans.Tracer() as tracer:
            traced = protocol.run_session(cfg, fresh() if fresh else None).to_json()
        expect(traced == plain, f"tracing changed the {kind} session JSON")
        # power_test is looked up in protocol, not where detector defines it.
        expect(tracer.calls["protocol.session_self"] == 1, f"{kind}: run_session not traced")
        expect(tracer.calls["detector.power_test"] == 2, f"{kind}: power_test not traced")
        if kind != "none":
            expect(tracer.calls[f"attacks.{kind}.return"] == 1, f"{kind}: return hook not traced")
    plain_sweep = sweep_point(5, n_pulses=2_000, sessions=3)
    with spans.Tracer() as tracer:
        traced_sweep = sweep_point(5, n_pulses=2_000, sessions=3)
    expect(traced_sweep == plain_sweep, "tracing changed the sweep curve")
    expect(tracer.sweep_sessions == 3, tracer.sweep_sessions)
    expect(_bindings() == before, "leaving the tracer did not restore every patched name")
    print("selftest: traced and untraced results are identical")


def _broken(name: str, out):
    """The op output with one fact made wrong, which the check must catch."""
    if name == "honest-1e6":
        return dataclasses.replace(out, alarm=protocol.ALARM_QBER, alarm_sources=("qber",))
    if name == "attacks-2e5":
        kind, res = out[3]
        return out[:3] + [(kind, dataclasses.replace(res, alarm_sources=()))] + out[4:]
    if name == "sweep-1e4":
        value, points = out
        return value, [dataclasses.replace(points[0], mean_z_alice=float("nan"))]
    broken = dict(out, overlap=[row[:] for row in out["overlap"]])
    broken["overlap"][2][3] += 1e-6
    return broken


def check_workloads(seed: int) -> None:
    for wl in [*WORKLOADS.values(), ORACLE]:
        out = wl.run(seed)
        problems = wl.check(out)
        expect(not problems, f"{wl.name} at seed {seed}: {problems}")
        expect(wl.check(_broken(wl.name, out)), f"{wl.name}: the check missed a broken output")
        print(f"selftest: {wl.name} passes its check at seed {seed} and rejects a broken output")


def check_span_accounting(seed: int) -> None:
    for name, wl in WORKLOADS.items():
        out = worker.trace(wl, seed, seconds=0.0)
        layer = out["per_layer"]
        share = layer["trace.span_share"]
        expect(out["failed"] == 0, out["problems"])
        expect(0.97 <= share <= 1.0001, f"{name}: spans cover {share:.4f} of the traced op")
        print(f"selftest: {name} spans cover {share:.4f} of the traced op wall time")
        # A grid op makes 3 density matrices per state (made, attenuated, phase-shifted).
        want = 6 * len(ORACLE_MU) if wl.traces_oracle else 0
        expect(layer["fock.density_init_calls"] == want, f"{name}: {layer['fock.density_init_calls']} "
               f"density matrices per oracle op, want {want}")

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    printed = set(out["per_layer"]) | {"fock.import_ms"}
    expect(printed == {m["name"] for m in declared["per_layer"]}, "per-layer names differ from BENCHMARK.json")
    expect({w["name"] for w in declared["workloads"]} == set(WORKLOADS) == set(run.WORKLOADS),
           "workload names differ between BENCHMARK.json, workloads.py and run.py")
    print("selftest: BENCHMARK.json declares exactly the per-layer metrics and workloads")


def main(argv) -> int:
    seed = int(argv[1]) if len(argv) > 1 else 7
    check_tracing_is_transparent()
    check_workloads(seed)
    check_span_accounting(seed)
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
