"""Closed-form values a session is checked against.

Eve is exposed two ways: by the key layer's error rate and by the monitors'
click rates.  This module holds the analytic value of each, for the honest
run and for the attacks it covers, intercept-resend and beam-split:

- alice_monitor_p and bob_monitor_p, the click probability each monitor
  expects per gate (the session z-tests against the honest values);
- pair_probs, the interferometers' outcome per pulse pair, by exhaustive
  enumeration of Bob's phase difference and Eve's basis and coin: the
  probabilities of a single click, a double and a sifted event, the QBER
  (for intercept-resend, the DPS error of Inoue, Waks and Yamamoto, PRL 89,
  037902, 2002) and Eve's correct fraction.

Pulse pairs are iid: Bob's phase differences are iid uniform, and Eve draws
her basis and coin per pair.  So each count over m pairs of a session is
binomial, with mean m p and standard deviation sqrt(m p (1 - p)).

The values are derived here, apart from the simulator: detector port means
take the cosine form mu/4 (1 +/- cos(delta - offset)), not the simulator's
amplitude arithmetic, and the module uses nothing of the package but
detector's closed forms.  Any other attack raises NotImplementedError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .detector import click_prob, click_prob_coherent, click_prob_thermal


def _eve(attack) -> tuple[Optional[float], float]:
    """(resend_mu, tap_fraction) of a covered attack: the mean Eve resends
    under intercept-resend, else None, and the fraction her beam splitter
    taps, else 0."""
    if attack is None:
        return None, 0.0
    # attacks imports protocol, which imports this module.
    from .attacks import BeamSplit, InterceptResend
    if isinstance(attack, InterceptResend):
        return attack.resend_mu, 0.0
    if isinstance(attack, BeamSplit):
        return None, attack.tap_fraction
    raise NotImplementedError(f"no closed form for the {attack.label} attack")


def means_at_alice(cfg, attack=None) -> tuple[float, float]:
    """Mean photon numbers of the light on Alice's outputs 1 and 2 as the
    train returns to her.  Her source's means cross the fiber twice and
    Bob's tap, T**2 (1 - r), and 1 - f of them pass Eve's beam splitter;
    under intercept-resend Eve's coherent resend, mean resend_mu, crosses
    the return fiber on both outputs."""
    resend_mu, tap = _eve(attack)
    if resend_mu is not None:
        mu = resend_mu * cfg.transmittance_oneway
        return mu, mu
    t = cfg.transmittance_oneway**2 * (1.0 - cfg.tap_reflectance) * (1.0 - tap)
    return cfg.mu_coherent * t, cfg.mu_thermal * t


def alice_monitor_p(cfg, attack=None) -> float:
    """Click probability of Alice's monitor on output 2: the thermal law at
    its returning mean, or the coherent law where Eve resends."""
    resend_mu, _ = _eve(attack)
    law = click_prob_thermal if resend_mu is None else click_prob_coherent
    return law(cfg.detector_alice, means_at_alice(cfg, attack)[1])


def bob_monitor_p(cfg, attack=None) -> float:
    """Click probability of Bob's tap detector: the no-click factors of the
    coherent and thermal modes multiply on one detector.  Each covered
    attack acts on the light leaving Bob, so his monitor sees the honest
    train."""
    _eve(attack)
    det = cfg.detector_bob
    eta_eff = det.eta * cfg.tap_reflectance
    q_coh = math.exp(-eta_eff * (cfg.mu_coherent * cfg.transmittance_oneway))
    q_th = 1.0 / (1.0 + eta_eff * (cfg.mu_thermal * cfg.transmittance_oneway))
    return click_prob(det.dark_prob, q_coh, q_th)


@dataclass(frozen=True)
class PairProbs:
    """The interferometers' outcome per pulse pair: the probabilities of a
    single click (at any detector), a double (two or more clicks) and a
    sifted event (a single click in the basis of Bob's phase difference);
    the QBER of the sifted bits (None when nothing sifts) and the fraction
    of them Eve guesses right (0 when she decodes nothing)."""

    single: float
    double: float
    sifted: float
    qber: Optional[float]
    eve_correct: float


def pair_probs(cfg, attack=None) -> PairProbs:
    """Enumerate Bob's phase difference delta and, under intercept-resend,
    Eve's basis and port coin, each with its exact probability, and every
    detector pattern of Alice's interferometers.

    Without Eve's resend the light keeps Bob's phase difference; Eve reads
    delta where her basis matches its parity, and otherwise infers one of
    her basis' two phases by a fair coin.  The pair's coherent pulses, of
    mean mu, split evenly between the interferometers, so the detectors of
    basis offset b see the means mu/4 (1 +/- cos(delta_hat - b)) (quarter
    turns), the first being Alice's bit 0.
    """
    resend_mu, _ = _eve(attack)
    det, mu = cfg.detector_alice, means_at_alice(cfg, attack)[0]
    # (weight, Bob's phase difference, the one the light carries, Eve's bit)
    branches = []
    for delta in range(4):
        if resend_mu is None:
            branches.append((0.25, delta, delta, None))
            continue
        for eve_basis in (0, 1):
            for coin in (0, 1):
                delta_hat = delta if delta % 2 == eve_basis else (eve_basis + 2 * coin) % 4
                branches.append((0.5 * 0.25 * 0.5, delta, delta_hat, (delta_hat - eve_basis) % 4 == 2))

    single = double = sifted = err = eve_right = 0.0
    for w, delta, delta_hat, eve_bit in branches:
        ps = []
        for basis in (0, 1):
            c = math.cos((delta_hat - basis) * math.pi / 2)
            ps += [click_prob_coherent(det, mu / 4 * (1 + c)), click_prob_coherent(det, mu / 4 * (1 - c))]
        bob_basis = delta % 2
        bob_bit = (delta - bob_basis) % 4 == 2
        none = math.prod(1.0 - p for p in ps)
        singles = 0.0
        for d in range(4):
            kept = w * ps[d] * math.prod(1.0 - p for j, p in enumerate(ps) if j != d)
            singles += kept
            if d >> 1 != bob_basis:
                continue  # mismatched basis, sifted out
            sifted += kept
            if (d & 1) != bob_bit:
                err += kept
            if eve_bit == bob_bit:
                eve_right += kept
        single += singles
        double += w * (1.0 - none) - singles
    if sifted == 0.0:
        return PairProbs(single, double, sifted, None, 0.0)
    return PairProbs(single, double, sifted, err / sifted, eve_right / sifted)
