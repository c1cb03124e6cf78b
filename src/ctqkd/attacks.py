"""Eavesdropping strategies against the two-layer link.

Each strategy interposes on the pulse train at its natural position:
TrojanHorse swaps probes in on the way to Bob and puts Alice's pulses back
afterwards; the others act on the light leaving Bob.  The train is held as
Alice's two outputs (protocol.PulseBatch).  A return hook with no forward
hook finds the honest train, one coherent level on output 1 and one thermal
level on output 2, and reads those two levels; ModeDiscrimination finds
the channel's H mode on output 1 where the mode secret is 0.  TrojanHorse
puts its probe in H through protocol.separate_modes.  Strategies are duck
interfaces for protocol.run_session with three hooks: apply_forward,
apply_return and finalize_report.  Eve's own equipment is deliberately
idealized (unit efficiency, no dark counts, conclusive interferometry)
to make her as strong as the semiclassical model allows; what defeats her
is the mode secret, not technology.

Each strategy is a frozen dataclass whose fields are its parameters and
nothing else; they are validated on construction, and so also when
dataclasses.replace derives a variant (as a parameter sweep does), raising
protocol.ConfigError.  What one run produces travels as a carry value that
run_session hands from hook to hook:

    apply_forward(batch, cfg, rng) -> (batch, carry)
    apply_return(batch, carry, cfg, rng) -> (batch, carry)
    finalize_report(carry, sift, rng) -> EveReport

so one instance can run any number of sessions, compares equal to a fresh
one with the same parameters, and is hashable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detector import DetectorModel, click_prob, require_detector, require_real
from .light import Blinding, Coherent, FieldArray, LightField, _select, level_pairs
from .protocol import (
    ConfigError,
    PulseBatch,
    SessionConfig,
    SiftOutcome,
    fair_bits,
    sample_blocked,
    separate_modes,
)

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


@dataclass(frozen=True)
class Attack:
    """Base interposer: passes the train through untouched."""

    label = "none"

    def params(self) -> dict:
        """The strategy's parameters, as reported in EveReport.params."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def apply_forward(self, batch: PulseBatch, cfg: SessionConfig,
                      rng: np.random.Generator) -> tuple[PulseBatch, object]:
        return batch, None

    def apply_return(self, batch: PulseBatch, carry, cfg: SessionConfig,
                     rng: np.random.Generator) -> tuple[PulseBatch, object]:
        return batch, carry

    def finalize_report(self, carry, sift: SiftOutcome, rng: np.random.Generator) -> EveReport:
        return EveReport(self.label, self.params())


def _dps_phase_estimates(delta_true: np.ndarray, rng: np.random.Generator,
                         informative: Optional[np.ndarray] = None):
    """Eve's conclusive differential-phase measurement on a pulse-pair train.

    She picks a random basis (offset 0 or pi/2) per pair.  When her basis
    matches the parity of the true phase difference she reads it exactly; a
    mismatched basis sends her click to a uniformly random port, from which
    she infers one of the two phases of her own basis.  Pairs flagged
    non-informative (no stable phase reached her analyzer) behave like
    mismatches.  Takes delta_true as uint8 and returns (basis, inferred
    delta, her key-bit guesses) as uint8.  The basis bits and then the coin
    bits are one fair_bits draw; the arithmetic reduces mod 2 and mod 4 with
    & on uint8 (wrap-around is a multiple of 4), where % would divide.
    """
    m = delta_true.size
    drawn = fair_bits(2 * m, rng)
    basis, coin = drawn[:m], drawn[m:]
    conclusive = (delta_true & 1) == basis
    if informative is not None:
        conclusive &= informative
    delta_hat = _select(conclusive.view(np.uint8), delta_true, basis | coin << 1)
    bits = ((delta_hat - basis) & 3) == 2
    return basis, delta_hat, bits.view(np.uint8)


def _resend_train(delta_hat: np.ndarray, resend_mu: float) -> FieldArray:
    """Fresh coherent pulses whose consecutive phase differences realize
    Eve's inferred values (cumulative phase, first pulse at reference 0).
    The uint8 running sum wraps mod 256, a multiple of 4, and phase_shifted
    reduces it mod 4."""
    phases = np.zeros(delta_hat.size + 1, dtype=np.uint8)
    np.cumsum(delta_hat, dtype=np.uint8, out=phases[1:])
    return FieldArray.uniform(Coherent(math.sqrt(resend_mu)), phases.size).phase_shifted(phases)


def _key_pairs(sift: SiftOutcome) -> np.ndarray:
    """The pair index of each key bit: the sifted pairs not disclosed."""
    return sift.pair_indices.take(np.flatnonzero(~sift.disclosed))


def _fraction_correct(bits_by_pair: np.ndarray, sift: SiftOutcome) -> float:
    kept = _key_pairs(sift)
    if kept.size == 0:
        return 0.0
    return float(np.mean(bits_by_pair.take(kept) == sift.key_bob))


@dataclass(frozen=True)
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

    def __post_init__(self):
        require_real("resend_mu", self.resend_mu, 0.0, math.inf)

    def apply_return(self, batch, carry, cfg, rng):
        # With no forward hook she finds the honest train: output 1 holds
        # the coherent state on every pulse, and its phases are Bob's.
        delta_true = np.diff(batch.out1.quarter) & 3
        basis, delta_hat, bits = _dps_phase_estimates(delta_true, rng)
        basis_matches = int(((delta_true & 1) == basis).sum())
        resend = _resend_train(delta_hat, self.resend_mu)
        return batch.with_fields(resend, resend), (bits, basis_matches)

    def finalize_report(self, carry, sift, rng):
        bits, basis_matches = carry
        return EveReport(
            self.label, self.params(),
            guessed_bits_correct_fraction=_fraction_correct(bits, sift),
            notes=f"basis matched on {basis_matches} of {bits.size} pairs",
        )


@dataclass(frozen=True)
class BeamSplit(Attack):
    """Type I variant: passively tap a fraction of both modes and keep it.

    Also stands in for photon-number splitting, which the semiclassical model
    cannot resolve below the pulse level.  Eve decodes nothing here; the
    report carries the tapped energy only.
    """

    label = "beam-split"

    tap_fraction: float = 0.5

    def __post_init__(self):
        require_real("tap_fraction", self.tap_fraction, 0.0, 1.0)

    def apply_return(self, batch, carry, cfg, rng):
        # The honest train: one level on each output.
        out1, out2 = batch.out1, batch.out2
        tapped_energy = float(len(batch) * (out1.param[0] + out2.param[0]) * self.tap_fraction)
        return batch.propagated(1.0 - self.tap_fraction, rng), tapped_energy

    def finalize_report(self, tapped_energy, sift, rng):
        return EveReport(
            self.label, self.params(),
            notes=f"tapped mean photon total {tapped_energy:.6g} (undecoded)",
        )


@dataclass(frozen=True)
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

    def __post_init__(self):
        require_real("resend_mu", self.resend_mu, 0.0, math.inf)
        require_detector("eve_det", self.eve_det)

    def params(self) -> dict:
        return {"resend_mu": self.resend_mu, "eve_eta": self.eve_det.eta,
                "eve_dark_prob": self.eve_det.dark_prob}

    def apply_return(self, batch, carry, cfg, rng):
        # On the honest train her one threshold detector on the channel's H
        # mode sees output 1's coherent level where the mode secret is 0,
        # else output 2's thermal one.  She makes the Bayes decision from
        # the true click probabilities; the placement stays hidden.
        det, secret = self.eve_det, batch.mode_secret
        p_c, p_t = (click_prob(det.dark_prob, out.noclick_factors(det.eta))
                    for out in (batch.out1, batch.out2))
        clicks = sample_blocked(np.concatenate([p_c, p_t]), secret, rng)
        p_c, p_t = float(p_c[0]), float(p_t[0])
        bayes_error = 0.5 * (min(p_c, p_t) + min(1.0 - p_c, 1.0 - p_t))
        # 1 where her guessed mode is output 1, made in place.
        guess_h = clicks if p_c >= p_t else ~clicks
        on_1 = np.bitwise_xor(guess_h, secret.view(bool), out=guess_h)

        # She measures coherent light exactly where she guessed output 1.
        # Only a pair measured on output 1 at both pulses is informative,
        # and only there is its phase difference read: output 1's is Bob's.
        # Both columns are freed once her estimates are made.
        _, delta_hat, bits = _dps_phase_estimates(np.diff(batch.out1.quarter) & 3, rng,
                                                  on_1[:-1] & on_1[1:])

        resend = _resend_train(delta_hat, self.resend_mu)
        out = batch.with_fields(
            FieldArray.where(on_1, resend, batch.out1),
            FieldArray.where(on_1, batch.out2, resend),
        )
        return out, (bits, bayes_error)

    def finalize_report(self, carry, sift, rng):
        bits, bayes_error = carry
        return EveReport(
            self.label, self.params(),
            guessed_bits_correct_fraction=_fraction_correct(bits, sift),
            notes=f"single-shot mode Bayes error {bayes_error:.4f}",
        )


@dataclass(frozen=True)
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

    def __post_init__(self):
        if not isinstance(self.probe, LightField):
            raise ConfigError(f"probe must be a light field, got {self.probe!r}")

    def params(self) -> dict:
        return {"probe": repr(self.probe)}

    def apply_forward(self, batch, cfg, rng):
        n = len(batch)
        # The probe goes in H, vacuum in V.  Alice's train is held as the
        # carry until apply_return sends it on.
        probe = separate_modes(batch.mode_secret, FieldArray.uniform(self.probe, n), FieldArray.vacuum(n))
        return batch.with_fields(*probe), batch

    def apply_return(self, batch, held, cfg, rng):
        # Eve learns a pulse's phase where her ideal counter registers at
        # least two photons over both modes: per pair of levels, 1 - P(0, 0)
        # - P(0, 1) - P(1, 0) of the two modes' independent photon numbers.
        out1, out2 = batch.out1, batch.out2
        level_1, level_2, index = level_pairs(out1, out2)
        (zero_1, one_1), (zero_2, one_2) = out1.few_photon_probs(), out2.few_photon_probs()
        at_most_one = zero_1[level_1] * (zero_2 + one_2)[level_2] + one_1[level_1] * zero_2[level_2]
        learned = sample_blocked(1.0 - at_most_one, index, rng)
        # She turns Alice's held train by the phases she learned; the batch
        # still carries Bob's own.
        applied = batch.bob_quarter * learned
        out = batch.with_fields(held.out1.phase_shifted(applied), held.out2.phase_shifted(applied))
        return out.propagated(1.0 - cfg.tap_reflectance, rng), learned

    def finalize_report(self, learned, sift, rng):
        learned_phase_count = int(learned.sum())
        kept = _key_pairs(sift)
        if kept.size:
            knows_pair = learned.take(kept) & learned[1:].take(kept)
            correct = knows_pair | fair_bits(kept.size, rng).view(bool)
            frac = float(correct.mean())
        else:
            frac = 0.0
        return EveReport(
            self.label, self.params(),
            learned_phase_count=learned_phase_count,
            guessed_bits_correct_fraction=frac,
            notes=f"learned {learned_phase_count} pulse phases from the probe",
        )


@dataclass(frozen=True)
class BrightLight(Attack):
    """Type IV: flood Alice's receiver with saturating light to control her
    detectors.  The mode secret routes part of it onto the protection output
    on every pulse, where a saturated detector drives the band statistic
    P(1-P) to zero and the frequency test far out of bounds."""

    label = "bright-light"

    forced_click_prob: float = 0.999

    def __post_init__(self):
        require_real("forced_click_prob", self.forced_click_prob, 0.0, 1.0, "(]")

    def apply_return(self, batch, carry, cfg, rng):
        blinding = FieldArray.uniform(Blinding(self.forced_click_prob), len(batch))
        return batch.with_fields(blinding, blinding), carry

    def finalize_report(self, carry, sift, rng):
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
