"""Two-layer session state machine.

One session runs the full optical round trip.  Alice prepares pulse pairs
with a coherent state in one polarization mode and a thermal state in the
other, hiding the placement behind two per-pulse secret bits (source wiring
and rotator angle).  Bob phase-modulates every pulse with one of four phases
(his key), taps a known fraction onto his own monitor detector, and returns
the light.  Alice undoes her rotation, separates the modes, feeds the
thermal output to a monitored detector, and measures the coherent output in
a pair of delay interferometers with basis offsets 0 and pi/2.  Sifting
keeps single-click events whose interferometer basis matches the phase
difference Bob applied, and a disclosed random sample of the sifted key
estimates the error rate.

The engine works on struct-of-array batches: each polarization mode is a
light.FieldArray of write-once columns, and each stage builds a new
PulseBatch that shares every array it does not change, so no stage copies
the pulse train.  All randomness flows through one numpy Generator in a
fixed order, so a (config, attack, seed) triple reproduces results exactly.

Phases are carried internally as integer quarter turns (phi = q * pi/2 with
exact complex multipliers), which keeps phase bookkeeping free of float
drift.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .detector import (
    ClickStream,
    DetectorModel,
    PowerTestOutcome,
    click_prob,
    click_prob_thermal,
    power_test,
)
from .light import (
    KIND_COHERENT,
    KIND_THERMAL,
    QUARTER_PHASES,
    FieldArray,
)

ALARM_NONE = "none"
ALARM_QBER = "qber"
ALARM_ALICE_POWER = "alice_power"
ALARM_BOB_POWER = "bob_power"
ALARM_MULTIPLE = "multiple"


class ConfigError(ValueError):
    """Inconsistent session configuration, reported before any simulation."""


class PulseBatch:
    """Struct-of-arrays pulse train.

    mode_assignment is Alice's source wiring per pulse (0: coherent into the
    H port) and rotation_quarter her rotator angle in quarter turns (0 or 1,
    applied before the channel); field_h and field_v hold the fields in the
    physical modes as currently propagating.  bob_quarter is None until Bob's
    phases are applied (modulate_batch).
    """

    __slots__ = ("mode_assignment", "rotation_quarter", "field_h", "field_v", "bob_quarter")

    def __init__(self, mode_assignment, rotation_quarter, field_h, field_v, bob_quarter=None):
        self.mode_assignment = np.asarray(mode_assignment, dtype=np.uint8)
        self.rotation_quarter = np.asarray(rotation_quarter, dtype=np.uint8)
        self.field_h = field_h
        self.field_v = field_v
        self.bob_quarter = bob_quarter

    def __len__(self) -> int:
        return self.mode_assignment.size

    def with_fields(self, field_h: FieldArray, field_v: FieldArray, bob_quarter=None) -> "PulseBatch":
        """A new batch carrying these mode fields; it shares the secret bits
        and, unless bob_quarter is given, Bob's phases with this one."""
        return PulseBatch(
            self.mode_assignment,
            self.rotation_quarter,
            field_h,
            field_v,
            self.bob_quarter if bob_quarter is None else bob_quarter,
        )

    def propagated(self, transmittance: float, rng: np.random.Generator | None = None) -> "PulseBatch":
        return self.with_fields(
            self.field_h.attenuated(transmittance, rng),
            self.field_v.attenuated(transmittance, rng),
        )


@dataclass(frozen=True)
class SessionConfig:
    """Run parameters for one session.

    mu_coherent and mu_thermal are the source mean photon numbers (known only
    to Alice in the protocol; announced after the quantum phase so both ends
    can check their monitors).  transmittance_oneway is the fiber
    transmittance per pass and tap_reflectance the fraction Bob splits onto
    his monitor detector.  The channel and tap values are treated as
    pre-calibrated public knowledge when computing monitor expectations.
    """

    n_pulses: int = 100_000
    mu_coherent: float = 0.2
    mu_thermal: float = 0.2
    transmittance_oneway: float = 0.9
    tap_reflectance: float = 0.05
    detector_alice: DetectorModel = field(default_factory=lambda: DetectorModel(0.1, 1e-5))
    detector_bob: DetectorModel = field(default_factory=lambda: DetectorModel(0.1, 1e-5))
    z_threshold: float = 5.0
    qber_threshold: float = 0.05
    qber_sample_fraction: float = 0.4
    seed: int = 1

    def __post_init__(self):
        for name in ("n_pulses", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("detector_alice", "detector_bob"):
            if not isinstance(getattr(self, name), DetectorModel):
                raise ConfigError(f"{name} must be a DetectorModel, got {getattr(self, name)!r}")
        for name in ("mu_coherent", "mu_thermal", "transmittance_oneway", "tap_reflectance",
                     "z_threshold", "qber_threshold", "qber_sample_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_pulses < 2:
            raise ConfigError(f"n_pulses must be >= 2, got {self.n_pulses}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mu_coherent < 0 or self.mu_thermal < 0:
            raise ConfigError("mean photon numbers must be >= 0")
        if not 0.0 <= self.transmittance_oneway <= 1.0:
            raise ConfigError(f"transmittance_oneway must be in [0, 1], got {self.transmittance_oneway}")
        if not 0.0 <= self.tap_reflectance < 1.0:
            raise ConfigError(f"tap_reflectance must be in [0, 1), got {self.tap_reflectance}")
        if self.z_threshold <= 0:
            raise ConfigError("z_threshold must be positive")
        if not 0.0 < self.qber_threshold < 1.0:
            raise ConfigError("qber_threshold must be in (0, 1)")
        if not 0.0 < self.qber_sample_fraction < 1.0:
            raise ConfigError("qber_sample_fraction must be in (0, 1)")
        # A monitor expecting a click probability of exactly 0 or 1 has no
        # spread to test a click frequency against.
        monitors = [("Alice's thermal", self.expected_alice_thermal_p())]
        if self.tap_reflectance > 0.0:
            monitors.append(("Bob's tap", self.expected_bob_monitor_p()))
        for name, p in monitors:
            if not 0.0 < p < 1.0:
                raise ConfigError(
                    f"{name} monitor would expect click probability {p}; "
                    "it needs light or dark counts on its detector"
                )

    # Expected means at the measurement points, assuming the calibrated channel.
    def mu_coherent_at_bob(self) -> float:
        return self.mu_coherent * self.transmittance_oneway

    def mu_thermal_at_bob(self) -> float:
        return self.mu_thermal * self.transmittance_oneway

    def roundtrip_transmittance(self) -> float:
        return self.transmittance_oneway**2 * (1.0 - self.tap_reflectance)

    def mu_coherent_at_alice(self) -> float:
        return self.mu_coherent * self.roundtrip_transmittance()

    def mu_thermal_at_alice(self) -> float:
        return self.mu_thermal * self.roundtrip_transmittance()

    def expected_bob_monitor_p(self) -> float:
        """Honest click probability of Bob's tap detector: the no-click
        factors of the coherent and thermal modes multiply on one detector."""
        det = self.detector_bob
        eta_eff = det.eta * self.tap_reflectance
        q_coh = math.exp(-eta_eff * self.mu_coherent_at_bob())
        q_th = 1.0 / (1.0 + eta_eff * self.mu_thermal_at_bob())
        return click_prob(det.dark_prob, q_coh, q_th)

    def expected_alice_thermal_p(self) -> float:
        return click_prob_thermal(self.detector_alice, self.mu_thermal_at_alice())

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SiftOutcome:
    """Sifted bits before and after error-estimation disclosure."""

    pair_indices: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    disclosed: np.ndarray  # boolean mask over the sifted set
    qber: Optional[float]
    key_alice: np.ndarray
    key_bob: np.ndarray


@dataclass
class SessionResult:
    config: SessionConfig
    attack_label: str
    sifted_key_alice: np.ndarray
    sifted_key_bob: np.ndarray
    qber: Optional[float]
    alice_monitor: PowerTestOutcome
    bob_monitor: Optional[PowerTestOutcome]
    alarm: str
    alarm_sources: tuple
    counts: dict
    eve: object = None  # EveReport or None

    def to_json(self) -> str:
        doc = {
            "config": self.config.to_dict(),
            "attack": self.attack_label,
            "counts": self.counts,
            "qber": self.qber,
            "alice_monitor": self.alice_monitor.to_dict(),
            "bob_monitor": self.bob_monitor.to_dict() if self.bob_monitor else None,
            "alarm": self.alarm,
            "alarm_sources": list(self.alarm_sources),
            "eve": self.eve.to_dict() if self.eve is not None else None,
        }
        return json.dumps(doc, indent=2)

    def summary_line(self) -> str:
        z_a = self.alice_monitor.z_score
        z_b = self.bob_monitor.z_score if self.bob_monitor else float("nan")
        q = "nan" if self.qber is None else f"{self.qber:.6g}"
        return (
            f"attack={self.attack_label} qber={q} z_alice={z_a:.6g} "
            f"z_bob={z_b:.6g} sifted={self.counts['sifted']} alarm={self.alarm}"
        )


# ---------------------------------------------------------------------------
# Alice's preparation and mode separation


def alice_prepare(cfg: SessionConfig, rng: np.random.Generator) -> PulseBatch:
    """Prepare the outgoing pulse train.

    Each pulse draws two independent fair bits: the source wiring
    (mode_assignment) and the rotator angle.  Their XOR decides which
    physical mode carries the coherent state on the channel, so the
    channel-side placement is itself a fresh fair bit per pulse.  The
    coherent amplitude is sqrt(mu_coherent) at reference phase 0.
    """
    n = cfg.n_pulses
    assign = rng.integers(0, 2, n, dtype=np.uint8)
    rot = rng.integers(0, 2, n, dtype=np.uint8)
    coh_in_h = (assign ^ rot) == 0
    amp = complex(math.sqrt(cfg.mu_coherent))

    def mode(coherent: np.ndarray) -> FieldArray:
        return FieldArray(
            np.where(coherent, np.uint8(KIND_COHERENT), np.uint8(KIND_THERMAL)),
            np.where(coherent, amp, 0j),
            np.where(coherent, 0.0, cfg.mu_thermal),
        )

    return PulseBatch(assign, rot, mode(coh_in_h), mode(~coh_in_h))


def separate_modes(batch: PulseBatch) -> tuple[FieldArray, FieldArray]:
    """Undo Alice's rotation and route by her source wiring.

    Output 1 receives whatever sits in the mode she assigned the coherent
    state to; output 2 the other mode.  Honest pulses therefore always yield
    (coherent, thermal); an attacker who replaced the channel fields lands on
    output 2 whenever the mode secret says so.
    """
    # Undoing the rotation swaps the modes when rotation is 1; wiring 1 swaps
    # them again.  The two cancel, so output 1 is the channel's H mode
    # exactly when rotation equals wiring.
    straight = batch.rotation_quarter == batch.mode_assignment
    out1 = FieldArray.where(straight, batch.field_h, batch.field_v)
    out2 = FieldArray.where(straight, batch.field_v, batch.field_h)
    return out1, out2


# ---------------------------------------------------------------------------
# Channel and Bob's side


def modulate_batch(batch: PulseBatch, quarters: np.ndarray) -> PulseBatch:
    """Bob's polarization-insensitive phase modulation on both modes.

    Only coherent amplitudes pick up the phase; thermal, Fock and blinding
    fields are phase invariant and pass bit-exactly unchanged.
    """
    mult = QUARTER_PHASES[np.asarray(quarters, dtype=np.int64)]
    return batch.with_fields(
        batch.field_h.phase_shifted(mult),
        batch.field_v.phase_shifted(mult),
        np.asarray(quarters, dtype=np.int8),
    )


def bob_monitor_tap(batch: PulseBatch, cfg: SessionConfig,
                    rng: np.random.Generator) -> Optional[PowerTestOutcome]:
    """Bob's state check: tap fraction r of both modes onto one detector and
    z-test the click frequency against the expectation for the announced
    source means.  Returns None when the tap is disabled (r = 0)."""
    r = cfg.tap_reflectance
    if r == 0.0:
        return None
    det = cfg.detector_bob
    eta_eff = det.eta * r
    factors = batch.field_h.noclick_factors(eta_eff) * batch.field_v.noclick_factors(eta_eff)
    p_click = click_prob(det.dark_prob, factors)
    stream = ClickStream(rng.random(len(batch)) < p_click)
    return power_test(stream, cfg.expected_bob_monitor_p(), cfg.z_threshold)


def alice_thermal_monitor(output2: FieldArray, cfg: SessionConfig,
                          rng: np.random.Generator) -> PowerTestOutcome:
    """Protection-layer monitor on Alice's output 2.

    Samples clicks from whatever actually arrived and z-tests the frequency
    against the thermal expectation mu_thermal * T^2 * (1-r)."""
    det = cfg.detector_alice
    p_click = click_prob(det.dark_prob, output2.noclick_factors(det.eta))
    stream = ClickStream(rng.random(len(output2)) < p_click)
    return power_test(stream, cfg.expected_alice_thermal_p(), cfg.z_threshold)


# ---------------------------------------------------------------------------
# Interferometric measurement and sifting


def port_means(a_prev: np.ndarray, a_curr: np.ndarray) -> np.ndarray:
    """Mean photon numbers at the four detectors [D0A, D1A, D0B, D1B], one
    column per coherent pulse pair, as a (4, m) array.

    The light splits evenly between the two interferometers; inside each, the
    delayed early pulse interferes with the late pulse, giving
    |a_prev e^(i delta) +/- a_curr|^2 / 8 at the two ports.  The four means
    of a pair always sum to the average pulse energy."""
    means = np.empty((4, np.size(a_prev)))
    for b in (0, 1):
        s = a_prev * QUARTER_PHASES[b]
        means[2 * b] = np.abs(s + a_curr) ** 2 / 8.0
        means[2 * b + 1] = np.abs(s - a_curr) ** 2 / 8.0
    return means


def measure_interference(out1: FieldArray, delta_q: np.ndarray, det: DetectorModel,
                         rng: np.random.Generator) -> dict:
    """Click-sample all consecutive pulse pairs of Alice's coherent output.

    Coherent (or vacuum) pairs interfere with the bilinear port means; any
    other field combination carries no stable phase and is treated as an
    incoherent 1/8 split with identical statistics at all four detectors.
    Each detector clicks independently; exactly one click yields a usable
    event, two or more a discarded double.
    """
    m = len(out1) - 1
    means = port_means(out1.amp[:-1], out1.amp[1:])
    # Turn the means into no-click factors in place; nothing reads them again.
    np.exp(np.multiply(-det.eta, means, out=means), out=means)
    p = click_prob(det.dark_prob, means)
    del means
    if out1.max_kind() > KIND_COHERENT:
        coherent = out1.kind <= KIND_COHERENT  # vacuum or coherent
        coherent_like = coherent[:-1] & coherent[1:]
        f_pair = out1.noclick_factors(det.eta / 8.0)
        p_inc = click_prob(det.dark_prob, f_pair[:-1], f_pair[1:])
        p = np.where(coherent_like[None, :], p, p_inc[None, :])

    clicks = rng.random((4, m)) < p
    n_clicks = clicks.sum(axis=0)
    single = n_clicks == 1
    detector = clicks.argmax(axis=0)
    return {
        "single": single,
        "double": n_clicks >= 2,
        "basis_q": (detector >> 1).astype(np.int8),
        "port": (detector & 1).astype(np.uint8),
        "delta_q": np.asarray(delta_q, dtype=np.int64),
    }


def sift_and_qber(meas: dict, cfg: SessionConfig, rng: np.random.Generator) -> SiftOutcome:
    """Keep matched-basis single clicks, disclose a random sample for error
    estimation, and strip the disclosed bits from the key.

    Basis A keeps phase differences {0, pi}, basis B {pi/2, 3pi/2}.  Bob's
    bit is 0/1 for offset 0/pi from the basis phase; Alice's is the port that
    clicked.  An empty sifted set leaves qber undefined (None).
    """
    single, basis_q = meas["single"], meas["basis_q"]
    delta_q, port = meas["delta_q"], meas["port"]
    kept = single & ((delta_q % 2) == basis_q)
    idx = np.flatnonzero(kept)
    alice_bits = port[idx].astype(np.uint8)
    bob_bits = (((delta_q[idx] - basis_q[idx]) % 4) == 2).astype(np.uint8)
    k = idx.size
    if k == 0:
        empty = np.zeros(0, dtype=np.uint8)
        return SiftOutcome(idx, alice_bits, bob_bits, np.zeros(0, dtype=bool),
                           None, empty, empty)
    n_disc = min(k, max(1, round(cfg.qber_sample_fraction * k)))
    disc_idx = np.sort(rng.choice(k, size=n_disc, replace=False))
    disclosed = np.zeros(k, dtype=bool)
    disclosed[disc_idx] = True
    qber = float(np.mean(alice_bits[disclosed] != bob_bits[disclosed]))
    return SiftOutcome(
        pair_indices=idx,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
        disclosed=disclosed,
        qber=qber,
        key_alice=alice_bits[~disclosed],
        key_bob=bob_bits[~disclosed],
    )


# ---------------------------------------------------------------------------
# Verdict and full session


def classify_alarm(qber: Optional[float], alice_monitor: PowerTestOutcome,
                   bob_monitor: Optional[PowerTestOutcome], cfg: SessionConfig) -> tuple[str, tuple]:
    """(alarm, sources) for one session; the exchanged key is accepted only
    when the alarm is "none"."""
    sources = []
    if qber is not None and qber > cfg.qber_threshold:
        sources.append(ALARM_QBER)
    if not alice_monitor.passed:
        sources.append(ALARM_ALICE_POWER)
    if bob_monitor is not None and not bob_monitor.passed:
        sources.append(ALARM_BOB_POWER)
    if not sources:
        return ALARM_NONE, ()
    if len(sources) == 1:
        return sources[0], tuple(sources)
    return ALARM_MULTIPLE, tuple(sources)


def run_session(cfg: SessionConfig, attack=None) -> SessionResult:
    """Execute one full session, optionally with an eavesdropping strategy.

    Pipeline: prepare -> forward fiber -> (forward interposition) -> Bob
    modulate + monitor + tap loss -> (return interposition) -> return fiber
    -> mode separation -> thermal monitor -> interferometers -> sifting ->
    verdict.  Deterministic given (cfg, attack, seed).
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_pulses

    batch = alice_prepare(cfg, rng)
    batch = batch.propagated(cfg.transmittance_oneway, rng)
    if attack is not None:
        batch = attack.apply_forward(batch, cfg, rng)

    quarters = rng.integers(0, 4, n)
    batch = modulate_batch(batch, quarters)
    bob_outcome = bob_monitor_tap(batch, cfg, rng)
    batch = batch.propagated(1.0 - cfg.tap_reflectance, rng)

    if attack is not None:
        batch = attack.apply_return(batch, cfg, rng)
    batch = batch.propagated(cfg.transmittance_oneway, rng)

    # Each later stage reads less of the train; free the rest as it goes, so
    # the interferometers' peak does not sit on top of the whole train.
    out1, out2 = separate_modes(batch)
    del batch
    alice_outcome = alice_thermal_monitor(out2, cfg, rng)
    del out2

    delta_q = (quarters[1:] - quarters[:-1]) % 4
    meas = measure_interference(out1, delta_q, cfg.detector_alice, rng)
    sift = sift_and_qber(meas, cfg, rng)

    eve = attack.finalize_report(sift, rng) if attack is not None else None
    alarm, sources = classify_alarm(sift.qber, alice_outcome, bob_outcome, cfg)

    counts = {
        "sent": n,
        "pairs": n - 1,
        "single_clicks": int(meas["single"].sum()),
        "double_clicks": int(meas["double"].sum()),
        "sifted": int(sift.pair_indices.size),
        "disclosed": int(sift.disclosed.sum()),
    }
    return SessionResult(
        config=cfg,
        attack_label=attack.label if attack is not None else "none",
        sifted_key_alice=sift.key_alice,
        sifted_key_bob=sift.key_bob,
        qber=sift.qber,
        alice_monitor=alice_outcome,
        bob_monitor=bob_outcome,
        alarm=alarm,
        alarm_sources=sources,
        counts=counts,
        eve=eve,
    )
