"""Eavesdropping strategies against the two-layer link.

Each strategy interposes on the pulse train at its natural position:
TrojanHorse swaps probes in on the way to Bob and puts Alice's pulses back
afterwards; the others act on the light leaving Bob.  Strategies are duck
interfaces for protocol.run_session with three hooks: apply_forward,
apply_return and finalize_report.  Eve's own equipment is deliberately
idealized (unit efficiency, no dark counts, conclusive interferometry)
to make her as strong as the semiclassical model allows; what defeats her
is the mode secret, not technology.

Each strategy is a dataclass whose init fields are its parameters; they are
validated on construction, and so also when dataclasses.replace derives a
variant (as a parameter sweep does), raising protocol.ConfigError.  The
remaining fields are per-run state that the hooks accumulate, so use one
instance per session run (run_session calls the hooks in order and
finalizes at the end, which also makes reuse across sequential runs safe).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detector import DetectorModel, click_prob
from .light import (
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_FOCK,
    KIND_THERMAL,
    QUARTER_PHASES,
    Blinding,
    Coherent,
    FieldArray,
    LightField,
)
from .protocol import ConfigError, PulseBatch, SessionConfig, SiftOutcome, modulate_batch

IDEAL_DETECTOR = DetectorModel(eta=1.0, dark_prob=0.0)


@dataclass(frozen=True)
class EveReport:
    """What Eve walked away with, attached to the session result."""

    strategy: str
    params: dict
    learned_phase_count: int = 0
    guessed_bits_correct_fraction: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _state(default=None):
    """A per-run state field: not a parameter, reset on every construction."""
    return dataclasses.field(init=False, default=default, repr=False, compare=False)


@dataclass
class Attack:
    """Base interposer: passes the train through untouched."""

    label = "none"

    def params(self) -> dict:
        """The strategy's parameters, as reported in EveReport.params."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.init}

    def apply_forward(self, batch: PulseBatch, cfg: SessionConfig,
                      rng: np.random.Generator) -> PulseBatch:
        return batch

    def apply_return(self, batch: PulseBatch, cfg: SessionConfig,
                     rng: np.random.Generator) -> PulseBatch:
        return batch

    def finalize_report(self, sift: SiftOutcome, rng: np.random.Generator) -> EveReport:
        return EveReport(self.label, self.params())


def _coherent_amplitudes(batch: PulseBatch) -> np.ndarray:
    """Amplitude of the coherent content per pulse, whichever mode holds it."""
    coh_h = batch.field_h.kind == KIND_COHERENT
    return np.where(coh_h, batch.field_h.amp, batch.field_v.amp)


def _quarter_of(amps: np.ndarray) -> np.ndarray:
    """Quantize amplitude phases to quarter turns (exact for canonical phases)."""
    return np.round(np.angle(amps) / (math.pi / 2.0)).astype(np.int64) % 4


def _dps_phase_estimates(delta_true: np.ndarray, rng: np.random.Generator,
                         informative: Optional[np.ndarray] = None):
    """Eve's conclusive differential-phase measurement on a pulse-pair train.

    She picks a random basis (offset 0 or pi/2) per pair.  When her basis
    matches the parity of the true phase difference she reads it exactly; a
    mismatched basis sends her click to a uniformly random port, from which
    she infers one of the two phases of her own basis.  Pairs flagged
    non-informative (no stable phase reached her analyzer) behave like
    mismatches.  Returns (basis, inferred delta, her key-bit guesses).
    """
    m = delta_true.size
    basis = rng.integers(0, 2, m, dtype=np.int64)
    coin = rng.integers(0, 2, m, dtype=np.int64)
    conclusive = (delta_true % 2) == basis
    if informative is not None:
        conclusive &= informative
    delta_hat = np.where(conclusive, delta_true, (basis + 2 * coin) % 4)
    bits = (((delta_hat - basis) % 4) == 2).astype(np.uint8)
    return basis, delta_hat, bits


def _resend_train(delta_hat: np.ndarray, resend_mu: float) -> np.ndarray:
    """Fresh coherent amplitudes whose consecutive phase differences realize
    Eve's inferred values (cumulative phase, first pulse at reference 0)."""
    phases = np.concatenate(([0], np.cumsum(delta_hat) % 4)) % 4
    return math.sqrt(resend_mu) * QUARTER_PHASES[phases]


def _fraction_correct(bits_by_pair: np.ndarray, sift: SiftOutcome) -> float:
    kept = sift.pair_indices[~sift.disclosed]
    if kept.size == 0:
        return 0.0
    return float(np.mean(bits_by_pair[kept] == sift.key_bob))


def _check_resend_mu(resend_mu: float) -> None:
    if not 0.0 < resend_mu < math.inf:
        raise ConfigError(f"resend_mu must be positive and finite, got {resend_mu}")


@dataclass
class InterceptResend(Attack):
    """Type I: measure every pulse pair leaving Bob, resend fresh coherent
    light with the inferred cumulative phase in BOTH polarization modes.

    Eve cannot know the mode secret, so her best mode-agnostic move is to
    treat both modes alike; half the time her light lands on Alice's
    protection output.  Mismatched-basis pairs give her a random phase, which
    seeds the characteristic 25% error rate in the sifted key.
    """

    label = "intercept-resend"

    resend_mu: float = 2.0
    _bits: Optional[np.ndarray] = _state()
    _basis_matches: Optional[int] = _state()

    def __post_init__(self):
        _check_resend_mu(self.resend_mu)

    def apply_return(self, batch, cfg, rng):
        delta_true = np.diff(_quarter_of(_coherent_amplitudes(batch))) % 4
        basis, delta_hat, self._bits = _dps_phase_estimates(delta_true, rng)
        self._basis_matches = int(((delta_true % 2) == basis).sum())
        resend = FieldArray.coherent(_resend_train(delta_hat, self.resend_mu))
        return batch.with_fields(resend, resend)

    def finalize_report(self, sift, rng):
        frac = _fraction_correct(self._bits, sift) if self._bits is not None else 0.0
        return EveReport(
            self.label, self.params(),
            guessed_bits_correct_fraction=frac,
            notes=f"basis matched on {self._basis_matches} of {self._bits.size} pairs",
        )


@dataclass
class BeamSplit(Attack):
    """Type I variant: passively tap a fraction of both modes and keep it.

    Also stands in for photon-number splitting, which the semiclassical model
    cannot resolve below the pulse level.  Eve decodes nothing here; the
    report carries the tapped energy only.
    """

    label = "beam-split"

    tap_fraction: float = 0.5
    _tapped_energy: float = _state(0.0)

    def __post_init__(self):
        if not 0.0 < self.tap_fraction < 1.0:
            raise ConfigError(f"tap_fraction must be in (0, 1), got {self.tap_fraction}")

    def apply_return(self, batch, cfg, rng):
        means = batch.field_h.mean_photons() + batch.field_v.mean_photons()
        self._tapped_energy = float(np.sum(means[np.isfinite(means)]) * self.tap_fraction)
        return batch.propagated(1.0 - self.tap_fraction, rng)

    def finalize_report(self, sift, rng):
        return EveReport(
            self.label, self.params(),
            notes=f"tapped mean photon total {self._tapped_energy:.6g} (undecoded)",
        )


def mode_discrimination_batch(batch: PulseBatch, eve_det: DetectorModel,
                              rng: np.random.Generator):
    """Single-shot mode guessing for every pulse of a train.

    Eve fires one threshold detector at the H mode and makes the Bayes
    decision between "H carries the coherent state" and "H carries the
    thermal state".  Returns (guessed coherent-in-H mask, analytic Bayes
    error).  The error probability uses the true ensemble click
    probabilities; the per-pulse placement stays hidden, which is what caps
    her accuracy.
    """
    coh_h = batch.field_h.kind == KIND_COHERENT
    coh_fields = FieldArray.where(coh_h, batch.field_h, batch.field_v)
    th_fields = FieldArray.where(coh_h, batch.field_v, batch.field_h)
    p_c = float(np.mean(click_prob(eve_det.dark_prob, coh_fields.noclick_factors(eve_det.eta))))
    p_t = float(np.mean(click_prob(eve_det.dark_prob, th_fields.noclick_factors(eve_det.eta))))

    p_click_h = click_prob(eve_det.dark_prob, batch.field_h.noclick_factors(eve_det.eta))
    clicks = rng.random(len(batch)) < p_click_h
    guess_coh_in_h = clicks if p_c >= p_t else ~clicks
    bayes_error = 0.5 * (min(p_c, p_t) + min(1.0 - p_c, 1.0 - p_t))
    return guess_coh_in_h, bayes_error


@dataclass
class ModeDiscrimination(Attack):
    """Type II: guess the coherent mode pulse by pulse, then intercept-resend
    only the guessed mode and let the other fly by untouched.

    The guess is barely better than a coin flip, so about half of Eve's
    resent pulses replace the thermal layer and trip Alice's monitor, while
    the pairs she measured on actual thermal light hand her random phases.
    """

    label = "mode-discrimination"

    resend_mu: float = 2.0
    eve_det: DetectorModel = IDEAL_DETECTOR
    _bits: Optional[np.ndarray] = _state()
    bayes_error: Optional[float] = _state()

    def __post_init__(self):
        _check_resend_mu(self.resend_mu)
        if not isinstance(self.eve_det, DetectorModel):
            raise ConfigError(f"eve_det must be a DetectorModel, got {self.eve_det!r}")

    def params(self) -> dict:
        return {"resend_mu": self.resend_mu, "eve_eta": self.eve_det.eta,
                "eve_dark_prob": self.eve_det.dark_prob}

    def apply_return(self, batch, cfg, rng):
        guess_h, self.bayes_error = mode_discrimination_batch(batch, self.eve_det, rng)

        measured = FieldArray.where(guess_h, batch.field_h, batch.field_v)
        truly_coherent = measured.kind == KIND_COHERENT
        delta_true = np.diff(_quarter_of(measured.amp)) % 4
        informative = truly_coherent[:-1] & truly_coherent[1:]
        _, delta_hat, self._bits = _dps_phase_estimates(delta_true, rng, informative)

        resend = FieldArray.coherent(_resend_train(delta_hat, self.resend_mu))
        return batch.with_fields(
            FieldArray.where(guess_h, resend, batch.field_h),
            FieldArray.where(guess_h, batch.field_v, resend),
        )

    def finalize_report(self, sift, rng):
        frac = _fraction_correct(self._bits, sift) if self._bits is not None else 0.0
        return EveReport(
            self.label, self.params(),
            guessed_bits_correct_fraction=frac,
            notes=f"single-shot mode Bayes error {self.bayes_error:.4f}",
        )


def _photon_counts(fields: FieldArray, rng: np.random.Generator) -> np.ndarray:
    """Sample the photon number Eve's ideal analyzer registers per pulse."""
    n = len(fields)
    counts = np.zeros(n, dtype=np.int64)
    k = fields.kind
    coh = k == KIND_COHERENT
    counts[coh] = rng.poisson(np.abs(fields.amp[coh]) ** 2)
    th = k == KIND_THERMAL
    if th.any():
        counts[th] = rng.geometric(1.0 / (1.0 + fields.param[th])) - 1
    fo = k == KIND_FOCK
    counts[fo] = fields.param[fo].astype(np.int64)
    counts[k == KIND_BLINDING] = np.iinfo(np.int64).max // 2
    return counts


@dataclass
class TrojanHorse(Attack):
    """Type III: probe Bob's modulator with Eve's own light.

    Eve stores Alice's pulses, sends the probe through Bob instead, and reads
    the returned probe.  Resolving one of four phases takes at least two
    detected photons from a pulse, so a single-photon probe teaches her
    nothing.  For every pulse whose phase she learned she applies it to
    Alice's stored pulse before forwarding, and she mimics Bob's tap loss
    (the reflectance is public), so Alice's side looks clean; what exposes
    her is Bob's monitor seeing the probe instead of the announced states.
    """

    label = "trojan-horse"

    probe: LightField = Coherent(math.sqrt(10.0))
    _held: Optional[PulseBatch] = _state()
    _learned: Optional[np.ndarray] = _state()
    learned_phase_count: int = _state(0)

    def __post_init__(self):
        if not isinstance(self.probe, LightField):
            raise ConfigError(f"probe must be a light field, got {self.probe!r}")

    def params(self) -> dict:
        return {"probe": repr(self.probe)}

    def apply_forward(self, batch, cfg, rng):
        self._held = batch
        n = len(batch)
        return batch.with_fields(FieldArray.uniform(self.probe, n), FieldArray.vacuum(n))

    def apply_return(self, batch, cfg, rng):
        counts = _photon_counts(batch.field_h, rng) + _photon_counts(batch.field_v, rng)
        self._learned = counts >= 2
        self.learned_phase_count = int(self._learned.sum())
        quarters_hat = np.where(self._learned, batch.bob_quarter, 0).astype(np.int64)
        out = modulate_batch(self._held, quarters_hat)
        return out.propagated(1.0 - cfg.tap_reflectance, rng)

    def finalize_report(self, sift, rng):
        kept = sift.pair_indices[~sift.disclosed]
        if kept.size and self._learned is not None:
            knows_pair = self._learned[kept] & self._learned[kept + 1]
            correct = np.where(knows_pair, True, rng.integers(0, 2, kept.size) == 1)
            frac = float(correct.mean())
        else:
            frac = 0.0
        return EveReport(
            self.label, self.params(),
            learned_phase_count=self.learned_phase_count,
            guessed_bits_correct_fraction=frac,
            notes=f"learned {self.learned_phase_count} pulse phases from the probe",
        )


@dataclass
class BrightLight(Attack):
    """Type IV: flood Alice's receiver with saturating light to control her
    detectors.  The mode secret routes part of it onto the protection output
    on every pulse, where a saturated detector drives the band statistic
    P(1-P) to zero and the frequency test far out of bounds."""

    label = "bright-light"

    forced_click_prob: float = 0.999

    def __post_init__(self):
        if not 0.0 < self.forced_click_prob <= 1.0:
            raise ConfigError(
                f"forced_click_prob must be in (0, 1], got {self.forced_click_prob}"
            )

    def apply_return(self, batch, cfg, rng):
        blinding = FieldArray.uniform(Blinding(self.forced_click_prob), len(batch))
        return batch.with_fields(blinding, blinding)

    def finalize_report(self, sift, rng):
        return EveReport(self.label, self.params(),
                         notes="attempted detector control by saturation")


def eve_information_summary(result) -> dict:
    """One comparison row per session: which layer flagged what, and how much
    Eve actually got."""
    report = result.eve
    return {
        "attack": result.attack_label,
        "qber": result.qber,
        "z_alice": result.alice_monitor.z_score,
        "z_bob": result.bob_monitor.z_score if result.bob_monitor else None,
        "eve_correct_fraction": report.guessed_bits_correct_fraction if report else 0.0,
        "eve_learned_phases": report.learned_phase_count if report else 0,
        "alarm": result.alarm,
        "alarm_sources": ",".join(result.alarm_sources),
    }


ATTACK_KINDS = {
    "none": None,
    "intercept-resend": InterceptResend,
    "beam-split": BeamSplit,
    "mode-discrimination": ModeDiscrimination,
    "trojan": TrojanHorse,
    "bright-light": BrightLight,
}
