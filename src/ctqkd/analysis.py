"""Derived studies: distinguishability-vs-samples curves, parameter sweeps
over sessions, and CSV/JSON report writers."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .detector import DetectorModel, click_prob_coherent, click_prob_thermal
from .protocol import ALARM_NONE, ConfigError, SessionConfig, run_session


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a value grid, several seeds per point.

    parameter names a SessionConfig field other than seed, or
    "attack.<field>" for a parameter of the attack strategy.
    """

    parameter: str
    values: tuple
    base: SessionConfig
    attack_factory: Optional[callable] = None  # () -> fresh Attack, or None
    seeds_per_point: int = 1

    def __post_init__(self):
        if self.parameter == "seed":
            # run_sweep derives each replicate's seed from base.seed; a swept
            # seed would overwrite it and run every replicate on one seed.
            raise ConfigError("seed cannot be swept; replicates take seeds from base.seed")
        if len(self.values) == 0:
            raise ConfigError("value grid must be nonempty")
        if self.seeds_per_point < 1:
            raise ConfigError("seeds_per_point must be >= 1")


@dataclass(frozen=True)
class CurvePoint:
    x: float
    alarm_rate: float
    mean_qber: float
    mean_z_alice: float
    mean_z_bob: float
    key_rate: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def discrimination_error(p_a: float, p_b: float, n: int, trials: int,
                         rng: np.random.Generator) -> float:
    """Monte Carlo error of the midpoint frequency test between two Bernoulli
    rates at sample size n, equal priors.

    Draw `trials` frequency estimates under each hypothesis and classify by
    which side of (p_a + p_b)/2 they fall (ties break toward p_a).  At n = 1
    this reproduces the single-shot Bayes error of a threshold detector.
    """
    mid = 0.5 * (p_a + p_b)
    f_a = rng.binomial(n, p_a, size=trials) / n
    f_b = rng.binomial(n, p_b, size=trials) / n
    if p_a <= p_b:
        err_a = np.mean(f_a > mid)
        err_b = np.mean(f_b <= mid)
    else:
        err_a = np.mean(f_a < mid)
        err_b = np.mean(f_b >= mid)
    return 0.5 * float(err_a + err_b)


def distinguishability_curve(mu_t: float, mu_c: float, det: DetectorModel,
                             n_grid: Sequence[int], rng: np.random.Generator,
                             trials: int = 2000) -> list[dict]:
    """Error of telling n thermal click samples from n coherent ones, for each
    n in the grid.  Decreases toward zero as n grows whenever the two click
    probabilities differ; stays at 1/2 when they coincide."""
    p_t = click_prob_thermal(det, mu_t)
    p_c = click_prob_coherent(det, mu_c)
    rows = []
    for n in n_grid:
        if n < 1:
            raise ValueError(f"sample counts must be >= 1, got {n}")
        rows.append({
            "n_samples": int(n),
            "p_thermal": p_t,
            "p_coherent": p_c,
            "discrimination_error": discrimination_error(p_t, p_c, int(n), trials, rng),
        })
    return rows


def _init_fields(obj) -> set:
    return {f.name for f in dataclasses.fields(obj) if f.init}


def _apply_parameter(cfg: SessionConfig, attack, parameter: str, value):
    """(cfg, attack) with the swept value set; both are rebuilt with
    dataclasses.replace, so the value is validated like a configured one."""
    if parameter.startswith("attack."):
        if attack is None:
            raise ConfigError(f"sweep parameter {parameter!r} needs an attack")
        name = parameter[len("attack."):]
        if name not in _init_fields(attack):
            raise ConfigError(f"{attack.label} has no parameter {name!r}")
        return cfg, replace(attack, **{name: value})
    if parameter not in _init_fields(cfg):
        raise ConfigError(f"unknown session parameter {parameter!r}")
    if parameter == "n_pulses" and float(value).is_integer():
        value = int(value)  # grid values parse as floats; others fail in SessionConfig
    return replace(cfg, **{parameter: value}), attack


def run_sweep(spec: SweepSpec) -> list[CurvePoint]:
    """One CurvePoint per grid value, averaged over seeds_per_point seeds
    derived from the base seed.

    Every grid value is applied once before any session runs, so a value the
    config or the attack rejects raises ConfigError before it costs compute.
    """
    for value in spec.values:
        attack = spec.attack_factory() if spec.attack_factory else None
        _apply_parameter(spec.base, attack, spec.parameter, value)
    points = []
    for value in spec.values:
        qbers, z_a, z_b, alarms, key_rates = [], [], [], [], []
        for i in range(spec.seeds_per_point):
            attack = spec.attack_factory() if spec.attack_factory else None
            cfg = replace(spec.base, seed=spec.base.seed + i)
            cfg, attack = _apply_parameter(cfg, attack, spec.parameter, value)
            res = run_session(cfg, attack)
            alarms.append(res.alarm != ALARM_NONE)
            if res.qber is not None:
                qbers.append(res.qber)
            z_a.append(abs(res.alice_monitor.z_score))
            if res.bob_monitor is not None:
                z_b.append(abs(res.bob_monitor.z_score))
            key_rates.append(len(res.sifted_key_alice) / cfg.n_pulses)
        points.append(CurvePoint(
            x=float(value),
            alarm_rate=float(np.mean(alarms)),
            mean_qber=float(np.mean(qbers)) if qbers else math.nan,
            mean_z_alice=float(np.mean(z_a)) if z_a else math.nan,
            mean_z_bob=float(np.mean(z_b)) if z_b else math.nan,
            key_rate=float(np.mean(key_rates)) if key_rates else 0.0,
        ))
    return points


def _format_value(v) -> str:
    if isinstance(v, bool) or v is None:
        return str(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def export_csv(rows: Sequence[dict]) -> str:
    """Rows of identical dicts to CSV text: stable column order (first row's
    key order), floats at 6 significant digits."""
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to export")
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def export_json(rows: Sequence[dict]) -> str:
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to export")

    def round6(v):
        if isinstance(v, float) and math.isfinite(v):
            return float(f"{v:.6g}")
        return v

    return json.dumps([{k: round6(v) for k, v in row.items()} for row in rows], indent=2)


def export_report(rows: Sequence[dict], fmt: str) -> str:
    if fmt == "csv":
        return export_csv(rows)
    if fmt == "json":
        return export_json(rows)
    raise ValueError(f"unknown report format {fmt!r}")
