"""Threshold single-photon detector model and click-stream statistics.

A threshold detector is characterized by a quantum efficiency eta and a
dark-count probability per gate.  Click probabilities have closed forms for
thermal and coherent illumination and a photon-number-resolved form for an
arbitrary Fock-basis state.  The band-power statistic P(1-P) is the
dimensionless proxy for the electrical power a spectrum analyser measures in
a fixed band on the detector output; both link monitors are built on the
frequency z-test in power_test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # fock imports this module's range checks
    from .fock import DensityMatrix


class ConfigError(ValueError):
    """Inconsistent configuration, reported before any simulation."""


class NotDistinguishableError(ValueError):
    """Two click probabilities coincide: no finite sample count separates them."""


def require_real(name: str, value, low: float = -math.inf, high: float = math.inf,
                 ends: str = "()") -> None:
    """Raise ConfigError unless value is a finite real number (not a bool)
    from low to high, each end included where ends reads "[" or "]"."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            or not low <= value <= high or (value, ends[0]) == (low, "(")
            or (value, ends[1]) == (high, ")")):
        raise ConfigError(f"{name} must be a finite real number in "
                          f"{ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")


def require_complex(name: str, value) -> complex:
    """value as a complex if it is a number (not a bool or a str), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ConfigError(f"{name} must be a complex number, got {value!r}")
    return complex(value)


def require_int(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    """value as an int if it is an integer (not a bool) from low to high, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ConfigError(f"{name} must be <= {high}, got {value}")
    return value


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector with quantum efficiency eta and per-gate dark-count
    probability dark_prob."""

    eta: float
    dark_prob: float

    def __post_init__(self):
        require_real("eta", self.eta, 0.0, 1.0, "[]")
        require_real("dark_prob", self.dark_prob, 0.0, 1.0, "[)")


@dataclass(frozen=True)
class ClickStream:
    """Click count of a run of detection gates: clicks of n_gates clicked."""

    clicks: int
    n_gates: int

    def __post_init__(self):
        object.__setattr__(self, "n_gates", require_int("n_gates", self.n_gates, 0))
        object.__setattr__(self, "clicks", require_int("clicks", self.clicks, 0, self.n_gates))

    def frequency(self) -> float:
        if self.n_gates == 0:
            raise ValueError("empty click stream")
        return self.clicks / self.n_gates


@dataclass(frozen=True)
class PowerTestOutcome:
    """Result of comparing a click stream against an expected click probability.

    observed_stat / expected_stat are the band-power statistics P(1-P);
    z_score is the frequency z relative to the expected probability.
    """

    observed_stat: float
    expected_stat: float
    z_score: float
    passed: bool
    n_gates: int

    def to_dict(self) -> dict:
        return asdict(self)


def click_prob(dark_prob, *noclick_factors):
    """Threshold-detector click law: 1 - (1 - dark_prob) * noclick.

    noclick is the probability that the light alone causes no avalanche;
    the factors of independent fields on one detector multiply, left to
    right after (1 - dark_prob).  Works elementwise on arrays.
    """
    survive = 1.0 - dark_prob
    for factor in noclick_factors:
        survive = survive * factor
    if isinstance(survive, np.ndarray):
        # survive is a fresh product, never an input: reuse its memory.
        return np.subtract(1.0, survive, out=survive)
    return 1.0 - survive


def click_prob_thermal(det: DetectorModel, mu_t: float) -> float:
    """Avalanche probability under thermal light of mean photon number mu_t:
    1 - (1 - dark_prob) / (1 + eta mu_t)."""
    require_real("mu_t", mu_t, 0.0, math.inf, "[)")
    # Kept as a quotient: (1 - dark_prob) * (1 / (1 + eta mu_t)) through
    # click_prob differs in the last bit for about one input in five, and
    # this value is the thermal monitor's expectation in every session.
    return 1.0 - (1.0 - det.dark_prob) / (1.0 + det.eta * mu_t)


def click_prob_coherent(det: DetectorModel, mu: float) -> float:
    """Avalanche probability under coherent light of mean photon number mu:
    1 - (1 - dark_prob) exp(-eta mu)."""
    require_real("mu", mu, 0.0, math.inf, "[)")
    return click_prob(det.dark_prob, math.exp(-det.eta * mu))


def click_prob_state(det: DetectorModel, rho: DensityMatrix) -> float:
    """Avalanche probability for an arbitrary state:
    1 - (1 - dark_prob) sum_n rho_nn (1 - eta)^n.

    Reduces to the thermal/coherent closed forms on the corresponding exact
    matrices; any state with a different vacuum probability than the expected
    one yields a different click probability and is therefore separable with
    enough samples.
    """
    weights = (1.0 - det.eta) ** np.arange(rho.dim)
    return click_prob(det.dark_prob, float(rho.diagonal() @ weights))


def band_power(p):
    """The band-power statistic P(1-P) of click probability p: the
    normalized fixed-band electrical power of the detector output.  Of a
    click frequency it vanishes both for a dead detector (P=0) and for a
    saturated one (P=1), which is the blinded-detector signature."""
    return p * (1.0 - p)


def power_test(stream: ClickStream, expected_p: float, z_threshold: float) -> PowerTestOutcome:
    """Frequency z-test of a click stream against an expected click probability.

    z = (P_hat - expected_p) / sqrt(expected_p (1 - expected_p) / n); the test
    passes iff |z| <= z_threshold.  The band statistic is reported alongside
    because detector blinding is most visible there.
    """
    require_real("expected_p", expected_p, 0.0, 1.0)
    require_real("z_threshold", z_threshold, 0.0, math.inf, "()")
    p_hat = stream.frequency()
    sigma = math.sqrt(expected_p * (1.0 - expected_p) / stream.n_gates)
    z = (p_hat - expected_p) / sigma
    return PowerTestOutcome(
        observed_stat=band_power(p_hat),
        expected_stat=band_power(expected_p),
        z_score=z,
        passed=abs(z) <= z_threshold,
        n_gates=stream.n_gates,
    )


def samples_needed(p_a: float, p_b: float, z: float) -> int:
    """Smallest n with |p_a - p_b| >= z (sqrt(p_a q_a / n) + sqrt(p_b q_b / n)).

    Normal-approximation sample count for telling two Bernoulli rates apart
    with z-sigma separation on both sides.  The closer the rates, the larger
    the count; equal rates are not distinguishable by any finite n.
    """
    require_real("p_a", p_a, 0.0, 1.0)
    require_real("p_b", p_b, 0.0, 1.0)
    require_real("z", z, 0.0, math.inf, "()")
    if p_a == p_b:
        raise NotDistinguishableError("p_a == p_b: no finite sample count distinguishes them")
    spread = math.sqrt(p_a * (1.0 - p_a)) + math.sqrt(p_b * (1.0 - p_b))
    return max(1, math.ceil((z * spread / abs(p_a - p_b)) ** 2))
