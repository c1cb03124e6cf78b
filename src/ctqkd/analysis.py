"""Derived studies: distinguishability-vs-samples curves, parameter sweeps
over sessions, and the CSV report writer."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .attacks import Attack
from .detector import DetectorModel, click_prob_coherent, click_prob_thermal, require_real
from .protocol import ALARM_NONE, ConfigError, SessionConfig, run_session


def _is_count(value, high=math.inf) -> bool:
    """value is an integer (not a bool) in [1, high]."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and 1 <= value <= high)


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a value grid, several seeds per point.

    parameter names a SessionConfig field other than seed,
    "alice.<field>" or "bob.<field>" for a parameter of that party's
    detector (eta or dark_prob), or "attack.<field>" for a parameter of the
    attack strategy.
    """

    parameter: str
    values: tuple
    base: SessionConfig
    attack: Optional[Attack] = None  # None runs honest sessions
    seeds_per_point: int = 1

    def __post_init__(self):
        if self.parameter == "seed":
            # run_sweep derives each replicate's seed from base.seed; a swept
            # seed would overwrite it and run every replicate on one seed.
            raise ConfigError("seed cannot be swept; replicates take seeds from base.seed")
        if len(self.values) == 0:
            raise ConfigError("value grid must be nonempty")
        if not _is_count(self.seeds_per_point):
            raise ConfigError(f"seeds_per_point must be an integer >= 1, got {self.seeds_per_point!r}")
        if self.attack is not None and not isinstance(self.attack, Attack):
            raise ConfigError(f"attack must be an Attack instance or None, got {self.attack!r}")


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
    require_real("mu_t", mu_t, 0.0, math.inf, "[)")
    require_real("mu_c", mu_c, 0.0, math.inf, "[)")
    if not _is_count(trials):
        raise ConfigError(f"trials must be an integer >= 1, got {trials!r}")
    n_max = np.iinfo(np.int64).max  # the largest count Generator.binomial takes
    if not all(_is_count(n, n_max) for n in n_grid):
        raise ConfigError(f"sample counts must be integers in [1, {n_max}], got {tuple(n_grid)}")
    p_t = click_prob_thermal(det, mu_t)
    p_c = click_prob_coherent(det, mu_c)
    return [{
        "n_samples": int(n),
        "p_thermal": p_t,
        "p_coherent": p_c,
        "discrimination_error": discrimination_error(p_t, p_c, int(n), trials, rng),
    } for n in n_grid]


def _field_names(obj) -> set:
    return {f.name for f in dataclasses.fields(obj)}


# Sweep-parameter section of each detector model in SessionConfig, as in
# the config keys alice.eta, bob.dark_prob, ...
_DETECTOR_FIELDS = {"alice": "detector_alice", "bob": "detector_bob"}


def _apply_parameter(cfg: SessionConfig, attack, parameter: str, value):
    """(cfg, attack) with the swept value set; both are rebuilt with
    dataclasses.replace, so the value is validated like a configured one."""
    section, dot, name = parameter.partition(".")
    if dot and section == "attack":
        if attack is None:
            raise ConfigError(f"sweep parameter {parameter!r} needs an attack")
        if name not in _field_names(attack):
            raise ConfigError(f"{attack.label} has no parameter {name!r}")
        return cfg, replace(attack, **{name: value})
    if dot and section in _DETECTOR_FIELDS:
        if name not in _field_names(DetectorModel):
            raise ConfigError(f"unknown detector parameter {parameter!r}")
        detector = _DETECTOR_FIELDS[section]
        return replace(cfg, **{detector: replace(getattr(cfg, detector), **{name: value})}), attack
    if parameter not in _field_names(cfg):
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
    applied = [_apply_parameter(spec.base, spec.attack, spec.parameter, v) for v in spec.values]
    points = []
    for value, (point_cfg, attack) in zip(spec.values, applied):
        qbers, z_a, z_b, alarms, key_rates = [], [], [], [], []
        for i in range(spec.seeds_per_point):
            cfg = replace(point_cfg, seed=spec.base.seed + i)
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
    return f"{v:.6g}" if isinstance(v, float) else str(v)


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
