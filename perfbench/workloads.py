"""Workloads of the ctqkd benchmark: what one op runs and how its output is checked.

Op i of a run uses seed + i, so the seed alone fixes every input.  Each
workload has a full-size op (the one timed), a tiny op of the same shape (the
one a fresh interpreter runs to measure set-up time) and a check that returns
the problems it found in an op's output (empty when the output is correct).

ORACLE is the Fock-basis grid.  It is not a timed workload: its 41x41 BLAS
calls wake OpenBLAS's second thread, whose wall time follows the load on the
machine's other CPU, so the traced run of sweep-1e4 times it on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ctqkd import analysis, attacks, detector, fock, protocol

# Every attack once per op, in this order, so each op costs the same.
ATTACK_ORDER = ("intercept-resend", "beam-split", "mode-discrimination", "trojan", "bright-light")

# The paper signature of each attack: the alarm source it must raise.
ATTACK_SIGNATURE = {
    "intercept-resend": protocol.ALARM_ALICE_POWER,
    "beam-split": protocol.ALARM_ALICE_POWER,
    "mode-discrimination": protocol.ALARM_ALICE_POWER,
    "trojan": protocol.ALARM_BOB_POWER,
    "bright-light": protocol.ALARM_ALICE_POWER,
}

SWEEP_MU_THERMAL = (0.1, 0.2, 0.3, 0.4)
SWEEP_SESSIONS = 8

# Mean photon numbers of the oracle grid.  They stay within 1.0 because
# thermal_state(2.0) already exceeds the default n_max=40 cutoff.
ORACLE_MU = tuple(round(0.1 * k, 1) for k in range(1, 11))
ORACLE_DETECTOR = detector.DetectorModel(eta=0.1, dark_prob=1e-5)


@dataclass(frozen=True)
class Workload:
    name: str
    pulses_per_op: int
    run: Callable[[int], object]
    tiny: Callable[[int], object]
    check: Callable[[object], list]
    # Also run the Fock oracle grid in this workload's traced run.
    traces_oracle: bool = False


def _session_problems(res: protocol.SessionResult, n_pulses: int) -> list:
    c = res.counts
    out = []
    if c["sent"] != n_pulses or c["pairs"] != n_pulses - 1:
        out.append(f"sent/pairs {c['sent']}/{c['pairs']} for {n_pulses} pulses")
    if c["single_clicks"] + c["double_clicks"] > c["pairs"]:
        out.append(f"single + double clicks exceed pairs: {c}")
    if not c["disclosed"] <= c["sifted"] <= c["single_clicks"]:
        out.append(f"not disclosed <= sifted <= single clicks: {c}")
    if not len(res.sifted_key_alice) == len(res.sifted_key_bob) == c["sifted"] - c["disclosed"]:
        out.append("delivered key length differs from sifted - disclosed")
    return out


# ---------------------------------------------------------------------------
# honest-1e6


def honest(seed: int, n_pulses: int = 1_000_000) -> protocol.SessionResult:
    return protocol.run_session(protocol.SessionConfig(n_pulses=n_pulses, seed=seed))


def check_honest(res: protocol.SessionResult, n_pulses: int = 1_000_000) -> list:
    out = _session_problems(res, n_pulses)
    if res.alarm != protocol.ALARM_NONE:
        out.append(f"honest session raised alarm {res.alarm} {res.alarm_sources}")
    if res.qber is None:
        out.append("honest session sifted no bits")
    return out


# ---------------------------------------------------------------------------
# attacks-2e5


def attack_rotation(seed: int, n_pulses: int = 200_000) -> list:
    cfg = protocol.SessionConfig(n_pulses=n_pulses, seed=seed)
    return [(kind, protocol.run_session(cfg, attacks.ATTACK_KINDS[kind]())) for kind in ATTACK_ORDER]


def check_attacks(results: list, n_pulses: int = 200_000) -> list:
    out = []
    if [kind for kind, _ in results] != list(ATTACK_ORDER):
        out.append(f"attack order {[kind for kind, _ in results]}")
    for kind, res in results:
        out += [f"{kind}: {p}" for p in _session_problems(res, n_pulses)]
        if ATTACK_SIGNATURE[kind] not in res.alarm_sources:
            out.append(f"{kind} did not raise {ATTACK_SIGNATURE[kind]}: {res.alarm_sources}")
        if res.eve is None:
            out.append(f"{kind} left no Eve report")
    return out


# ---------------------------------------------------------------------------
# sweep-1e4


def sweep_point(seed: int, n_pulses: int = 10_000, sessions: int = SWEEP_SESSIONS):
    value = SWEEP_MU_THERMAL[seed % len(SWEEP_MU_THERMAL)]
    # Replicate j of the point uses seed * sessions + j, so no two ops share a session.
    base = protocol.SessionConfig(n_pulses=n_pulses, seed=seed * sessions)
    spec = analysis.SweepSpec("mu_thermal", (value,), base, seeds_per_point=sessions)
    return value, analysis.run_sweep(spec)


def check_sweep(out_) -> list:
    # An honest 1e4-pulse session can raise a genuine QBER alarm, so the
    # alarm rate is only range-checked, never required to be 0.
    value, points = out_
    if len(points) != 1:
        return [f"{len(points)} curve points for one value"]
    p = points[0]
    out = []
    if p.x != value:
        out.append(f"point x {p.x} for value {value}")
    if not 0.0 <= p.alarm_rate <= 1.0:
        out.append(f"alarm rate {p.alarm_rate}")
    for name in ("mean_z_alice", "mean_z_bob"):
        if not math.isfinite(getattr(p, name)):
            out.append(f"{name} is {getattr(p, name)}")
    if not 0.0 <= p.mean_qber <= 1.0:
        out.append(f"mean qber {p.mean_qber}")
    if not p.key_rate > 0.0:
        out.append(f"key rate {p.key_rate}")
    return out


# ---------------------------------------------------------------------------
# oracle-fock


def oracle_channel(seed: int) -> tuple:
    """Transmittance and phase the oracle grid passes through."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi))


def oracle_grid(seed: int, mus: tuple = ORACLE_MU) -> dict:
    """Coherent x thermal grid as exact density matrices after loss and a
    phase shift, with every quantity the checks compare."""
    t, phi = oracle_channel(seed)
    coh = [fock.phase_shift(fock.attenuate(fock.coherent_state(math.sqrt(mu)), t), phi) for mu in mus]
    th = [fock.phase_shift(fock.attenuate(fock.thermal_state(mu), t), phi) for mu in mus]
    return {
        "seed": seed,
        "mus": mus,
        "click_coherent": [detector.click_prob_state(ORACLE_DETECTOR, r) for r in coh],
        "click_thermal": [detector.click_prob_state(ORACLE_DETECTOR, r) for r in th],
        "min_eig_thermal": [fock.min_eigenvalue(r) for r in th],
        "distance": [[fock.trace_distance(c, h) for h in th] for c in coh],
        "overlap": [[fock.expectation(c, h) for h in th] for c in coh],
    }


def check_oracle(out_: dict) -> list:
    t, _ = oracle_channel(out_["seed"])
    mus = out_["mus"]
    out = []
    for i, mu in enumerate(mus):
        want_c = detector.click_prob_coherent(ORACLE_DETECTOR, t * mu)
        want_t = detector.click_prob_thermal(ORACLE_DETECTOR, t * mu)
        if abs(out_["click_coherent"][i] - want_c) > 1e-9:
            out.append(f"coherent click prob at mu={mu}: {out_['click_coherent'][i]} vs {want_c}")
        if abs(out_["click_thermal"][i] - want_t) > 1e-9:
            out.append(f"thermal click prob at mu={mu}: {out_['click_thermal'][i]} vs {want_t}")
        if not out_["min_eig_thermal"][i] > 0.0:
            out.append(f"thermal state at mu={mu} has a kernel: {out_['min_eig_thermal'][i]}")
    for i, mu_c in enumerate(mus):
        for j, mu_t in enumerate(mus):
            ov = out_["overlap"][i][j]
            want = fock.overlap_coherent_thermal(math.sqrt(t * mu_c), t * mu_t)
            if abs(ov - want) > 1e-8:
                out.append(f"overlap at ({mu_c}, {mu_t}): {ov} vs {want}")
            # Fuchs-van de Graaf with a pure state: 1 - sqrt(F) <= D <= sqrt(1 - F).
            d = out_["distance"][i][j]
            if not 1.0 - math.sqrt(want) - 1e-9 <= d <= math.sqrt(1.0 - want) + 1e-9:
                out.append(f"trace distance at ({mu_c}, {mu_t}) {d} outside the fidelity bounds")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("honest-1e6", 1_000_000, honest,
                 lambda s: honest(s, n_pulses=1_000), check_honest),
        Workload("attacks-2e5", len(ATTACK_ORDER) * 200_000, attack_rotation,
                 lambda s: attack_rotation(s, n_pulses=1_000), check_attacks),
        Workload("sweep-1e4", SWEEP_SESSIONS * 10_000, sweep_point,
                 lambda s: sweep_point(s, n_pulses=1_000, sessions=1), check_sweep,
                 traces_oracle=True),
    )
}

# A "pulse" here is one exact single-mode state sent through the channel.
ORACLE = Workload("oracle-fock", 2 * len(ORACLE_MU), oracle_grid, None, check_oracle)
