"""Derived studies: distinguishability-vs-samples curves, parameter sweeps
over sessions, the CSV report writer, and the one resolver of parameter keys."""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .attacks import Attack
from .detector import DetectorModel, click_prob_coherent, click_prob_thermal, require_int, require_real
from .light import LightField
from .protocol import ALARM_NONE, ConfigError, SessionConfig, run_session

# The four parameter sections of a run (cfg, attack), each the place of one
# object in it: its index in the pair, then the SessionConfig field holding
# it, or None.  The key "<section>.<field>" sets a field of that object
# annotated with one of PARAMETER_TYPES; other fields (detectors) have none.
PARAMETER_SECTIONS = {"session": (0, None), "alice": (0, "detector_alice"),
                      "bob": (0, "detector_bob"), "attack": (1, None)}
PARAMETER_TYPES = (int, float, LightField)


@functools.lru_cache(maxsize=None)
def _parameter_fields(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if hints[f.name] in PARAMETER_TYPES}


def parameter_keys(cfg: Optional[SessionConfig], attack: Optional[Attack]) -> dict:
    """Key -> annotation of every parameter the run (cfg, attack) takes; a
    None in the run takes no key of its sections."""
    keys = {}
    for section, (index, field) in PARAMETER_SECTIONS.items():
        obj = getattr((cfg, attack)[index], field, None) if field else (cfg, attack)[index]
        if obj is not None:
            keys.update({f"{section}.{name}": hint
                         for name, hint in _parameter_fields(type(obj)).items()})
    return keys


def resolve_parameters(cfg: Optional[SessionConfig], attack: Optional[Attack],
                       values: dict) -> tuple:
    """(cfg, attack) with each value set at its key, "<section>.<field>" or a
    bare session field.  Each object changed is rebuilt once with replace,
    detectors before the config holding them, so values are validated
    together.  Integral floats become ints on int fields (grids parse floats)."""
    run, keys = (cfg, attack), parameter_keys(cfg, attack)
    changes = {place: {} for place in PARAMETER_SECTIONS.values()}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        hint = keys.get(f"{section or 'session'}.{name}")
        if hint is None:
            raise ConfigError(f"unknown parameter {key!r}; this run takes {', '.join(keys)}")
        if hint is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        changes[PARAMETER_SECTIONS[section or "session"]][name] = value
    outer = [changes[(index, None)] for index in range(len(run))]
    for (index, field), inner in changes.items():
        if field is not None and inner:
            outer[index][field] = replace(getattr(run[index], field), **inner)
    return tuple(replace(obj, **change) if change else obj for obj, change in zip(run, outer))


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a value grid, several seeds per point.

    parameter is any key resolve_parameters takes ("session.mu_thermal",
    "mu_thermal", "alice.eta", "attack.tap_fraction"), but not the seed;
    values is a tuple or list of its grid values.
    """

    parameter: str
    values: tuple
    base: SessionConfig
    attack: Optional[Attack] = None  # None runs honest sessions
    seeds_per_point: int = 1

    def __post_init__(self):
        if not isinstance(self.base, SessionConfig):
            raise ConfigError(f"base must be a SessionConfig, got {self.base!r}")
        if not isinstance(self.parameter, str):
            raise ConfigError(f"parameter must be a str, got {self.parameter!r}")
        if not isinstance(self.values, (tuple, list)):
            raise ConfigError(f"values must be a tuple or list, got {self.values!r}")
        if self.parameter in ("seed", "session.seed"):
            # run_sweep derives each replicate's seed from base.seed; a swept
            # seed would overwrite it and run every replicate on one seed.
            raise ConfigError("seed cannot be swept; replicates take seeds from base.seed")
        if len(self.values) == 0:
            raise ConfigError("value grid must be nonempty")
        require_int("seeds_per_point", self.seeds_per_point, 1)
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
    for name, p in (("p_a", p_a), ("p_b", p_b)):
        require_real(name, p, 0.0, 1.0, "[]")
    # Generator.binomial takes sizes up to intp's largest value, counts up to int64's.
    n = require_int("n", n, 1, np.iinfo(np.int64).max)
    trials = require_int("trials", trials, 1, np.iinfo(np.intp).max)
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


def distinguishability_curve(mu_thermal: float, mu_coherent: float, det: DetectorModel,
                             n_grid: Sequence[int], rng: np.random.Generator,
                             trials: int = 2000) -> list[dict]:
    """Error of telling n thermal click samples from n coherent ones, for each
    n in the grid.  Decreases toward zero as n grows whenever the two click
    probabilities differ; stays at 1/2 when they coincide."""
    require_real("mu_thermal", mu_thermal, 0.0, math.inf, "[)")
    require_real("mu_coherent", mu_coherent, 0.0, math.inf, "[)")
    trials = require_int("trials", trials, 1, np.iinfo(np.intp).max)
    if len(n_grid) == 0:
        raise ConfigError("n_grid must be nonempty")
    n_max = np.iinfo(np.int64).max
    try:
        n_grid = [require_int("n", n, 1, n_max) for n in n_grid]
    except ConfigError:
        raise ConfigError(f"n_grid must hold sample counts that are integers in [1, {n_max}], "
                          f"got {tuple(n_grid)}") from None
    p_t = click_prob_thermal(det, mu_thermal)
    p_c = click_prob_coherent(det, mu_coherent)
    return [{
        "n_samples": n,
        "p_thermal": p_t,
        "p_coherent": p_c,
        "discrimination_error": discrimination_error(p_t, p_c, n, trials, rng),
    } for n in n_grid]


def _with_seed(cfg: SessionConfig, seed) -> SessionConfig:
    """cfg with another seed, equal to replace(cfg, seed=seed): only the
    seed is checked, since __post_init__ has checked every other field."""
    out = copy.copy(cfg)
    object.__setattr__(out, "seed", require_int("seed", seed, 0))
    return out


def run_sweep(spec: SweepSpec) -> list[CurvePoint]:
    """One CurvePoint per grid value, averaged over seeds_per_point seeds
    derived from the base seed.

    Every grid value is applied once before any session runs, so a value the
    config or the attack rejects raises ConfigError before it costs compute;
    so does a key that is not numeric (an int or float field), since each
    value becomes its point's x.
    """
    applied = [resolve_parameters(spec.base, spec.attack, {spec.parameter: v}) for v in spec.values]
    section, _, name = spec.parameter.rpartition(".")
    if parameter_keys(spec.base, spec.attack)[f"{section or 'session'}.{name}"] not in (int, float):
        raise ConfigError(f"{spec.parameter} cannot be swept: each grid value becomes its "
                          f"point's x, so the parameter must be an int or float field")
    points = []
    for value, (point_cfg, attack) in zip(spec.values, applied):
        qbers, z_a, z_b, alarms, key_rates = [], [], [], [], []
        for i in range(spec.seeds_per_point):
            cfg = _with_seed(point_cfg, spec.base.seed + i)
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
            mean_z_alice=float(np.mean(z_a)),
            mean_z_bob=float(np.mean(z_b)) if z_b else math.nan,
            key_rate=float(np.mean(key_rates)),
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
