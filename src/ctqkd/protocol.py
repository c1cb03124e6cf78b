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

The engine works on struct-of-array batches in Alice's frame: each of her
two outputs is a light.FieldArray (a small table of levels, with a level
index and a quarter-turn phase per pulse), and each stage builds a new
PulseBatch that shares every array it does not change.  Loss, Bob's
modulator and tap, and the mode-blind attacks treat both polarizations
alike, so they act on the outputs as they are; separate_modes, the one
mode swap, maps the outputs to the channel's H and V modes and back, for
the Trojan's probe.  Loss and the detector laws are
evaluated once per level and gathered per pulse.  All randomness flows
through one numpy Generator in a fixed order, so a (config, attack, seed)
triple reproduces results exactly.

Each stage draws what it reports from that quantity's law, not gate by
gate.  Alice's secret bits and Eve's coins are the bits of raw 64-bit
generator outputs, and Bob's quarters their 2-bit fields.  A monitor
reports a click count: it counts the gates at each entry of its table of
click probabilities and draws one binomial per entry.  The interferometers
report sparse events, the few pairs with a single click and the number of
doubles: candidate pairs come by geometric gaps at the largest any-click
probability of a pair state, and one uniform per candidate both thins it
to its own state's probability and picks the outcome (see
measure_interference).  Only per-pulse decisions, Eve's mode guess and the
phases her probe learns, take one uniform per gate (sample_blocked), a
block of BLOCK pulses at a time, in stream order.  The honest stages never
read the mode secret: Alice's monitor counts output 2's levels, and the
interferometers read output 1's pulse states only at the candidate pairs.

Every phase is a whole quarter turn (phi = q * pi/2), so a train of L
levels holds at most 4 L pulse states level << 2 | quarter.  The
interferometers compute the click probabilities of each pair of states once,
in a table, and gather them per pulse pair, whenever the (4 L)**2 state pairs
are no more than the pulse pairs (light.pair_table); the honest run and
every attack leave a train whose table a uint8 index covers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .detector import (
    ClickStream,
    ConfigError,
    DetectorModel,
    PowerTestOutcome,
    click_prob,
    click_prob_thermal,
    power_test,
    require_int,
    require_real,
)
from .light import (
    BLOCK,
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_FOCK,
    KIND_THERMAL,
    FieldArray,
    blocks,
    gather,
    level_pairs,
)

ALARM_NONE = "none"
ALARM_QBER = "qber"
ALARM_ALICE_POWER = "alice_power"
ALARM_BOB_POWER = "bob_power"
ALARM_MULTIPLE = "multiple"


class PulseBatch:
    """Struct-of-arrays pulse train, in Alice's frame.

    mode_secret (uint8) is Alice's mode secret per pulse: the XOR of her
    source wiring and her rotator angle, 1 where she sent the thermal state
    in the channel's H mode.  out1 and out2 hold the fields as they
    propagate, each in the mode that lands on Alice's output 1 or 2 when
    she separates the modes: on an honest train the coherent and the
    thermal state.  Loss and Bob's modulator keep each pulse's kind, so an
    attack with no forward hook finds, at its return hook, every pulse of
    output 1 at a coherent level and every pulse of output 2 at a thermal
    level.  separate_modes(mode_secret, out1, out2) gives the channel's H
    and V modes.  bob_quarter (uint8) is None until Bob's phases are
    applied (modulate_batch).
    """

    __slots__ = ("mode_secret", "out1", "out2", "bob_quarter")

    def __init__(self, mode_secret, out1, out2, bob_quarter=None):
        self.mode_secret = np.asarray(mode_secret, dtype=np.uint8)
        self.out1 = out1
        self.out2 = out2
        self.bob_quarter = bob_quarter

    def __len__(self) -> int:
        return self.mode_secret.size

    def with_fields(self, out1: FieldArray, out2: FieldArray) -> "PulseBatch":
        """A new batch carrying these outputs; it shares the mode secret and
        Bob's phases with this one."""
        return PulseBatch(self.mode_secret, out1, out2, self.bob_quarter)

    def propagated(self, transmittance: float, rng: np.random.Generator | None = None) -> "PulseBatch":
        return self.with_fields(
            self.out1.attenuated(transmittance, rng),
            self.out2.attenuated(transmittance, rng),
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
        # numpy draws no train longer than its largest array size.
        for name, low, high in (("n_pulses", 2, np.iinfo(np.intp).max), ("seed", 0, math.inf)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), low, high))
        for name in ("detector_alice", "detector_bob"):
            if not isinstance(getattr(self, name), DetectorModel):
                raise ConfigError(f"{name} must be a DetectorModel, got {getattr(self, name)!r}")
        for name, low, high, ends in (("mu_coherent", 0.0, math.inf, "[)"),
                                      ("mu_thermal", 0.0, math.inf, "[)"),
                                      ("transmittance_oneway", 0.0, 1.0, "[]"),
                                      ("tap_reflectance", 0.0, 1.0, "[)"),
                                      ("z_threshold", 0.0, math.inf, "()"),
                                      ("qber_threshold", 0.0, 1.0, "()"),
                                      ("qber_sample_fraction", 0.0, 1.0, "()")):
            require_real(name, getattr(self, name), low, high, ends)
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
# Fair bits from raw generator words


def _raw_bytes(n_words: int, rng: np.random.Generator) -> np.ndarray:
    """The bytes of rng's next n_words raw outputs, each output's low byte
    first.  Every numpy bit generator but MT19937 gives 64 random bits per
    raw output; MT19937 gives 32, so it is refused (TypeError)."""
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise TypeError("MT19937 gives 32 random bits per raw output; the raw-word draws need 64")
    return rng.bit_generator.random_raw(n_words).astype("<u8", copy=False).view(np.uint8)


def fair_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """n fair bits as uint8 0/1: the bits of rng's next ceil(n / 64) raw
    outputs, least significant first."""
    return np.unpackbits(_raw_bytes(-(-n // 64), rng), count=n, bitorder="little")


# ---------------------------------------------------------------------------
# Alice's preparation and mode separation


def alice_prepare(cfg: SessionConfig, rng: np.random.Generator) -> PulseBatch:
    """Prepare the outgoing pulse train: the coherent state on output 1 and
    the thermal state on output 2, both at phase 0.

    Each pulse draws two independent fair bits: the source wiring and the
    rotator angle.  Their XOR, the mode secret, decides which physical mode
    carries the coherent state on the channel, so the channel-side placement
    is itself a fresh fair bit per pulse.
    """
    n = cfg.n_pulses
    # The XOR of two fair_bits draws, unpacked once from the XOR of their
    # raw words.
    words = -(-n // 64)
    raw = _raw_bytes(words, rng)  # source wiring
    raw ^= _raw_bytes(words, rng)  # rotator angle
    secret = np.unpackbits(raw, count=n, bitorder="little")
    # Level and phase of both outputs: read-only, so all four share it.
    zeros = np.zeros(n, dtype=np.uint8)
    zeros.flags.writeable = False
    return PulseBatch(secret, FieldArray(zeros, zeros, [KIND_COHERENT], [cfg.mu_coherent]),
                      FieldArray(zeros, zeros, [KIND_THERMAL], [cfg.mu_thermal]))


def separate_modes(secret: np.ndarray, a: FieldArray, b: FieldArray) -> tuple[FieldArray, FieldArray]:
    """The one mode swap: (b where the mode secret is 1 else a, a where it
    is 1 else b).  From the channel's H and V modes it gives Alice's outputs
    1 and 2 (she undoes her rotation and routes by her source wiring); from
    her outputs, the channel's modes.  It places the Trojan's probe, sent in
    H, which lands on output 2 wherever the mode secret is 1.  Mode
    discrimination needs no swap: on the honest train it reads H as output 1
    where the mode secret is 0.
    """
    # Undoing the rotation swaps the modes when rotation is 1; wiring 1 swaps
    # them again.  So output 1 is the channel's V mode exactly where the
    # mode secret, their XOR, is 1, and the swap is its own inverse.
    return FieldArray.where(secret, b, a), FieldArray.where(secret, a, b)


# ---------------------------------------------------------------------------
# Channel and Bob's side


# The four 2-bit fields of each byte value, least significant first, as the
# bytes of one little-endian uint32.
_QUARTER_FIELDS = ((np.arange(256)[:, None] >> np.arange(0, 8, 2)) & 3).astype(np.uint8).view("<u4")[:, 0]


def bob_quarters(n: int, rng: np.random.Generator) -> np.ndarray:
    """Bob's random phases in quarter turns, as a uint8 column: the 2-bit
    fields of rng's next ceil(n / 32) raw outputs, least significant first."""
    return _QUARTER_FIELDS.take(_raw_bytes(-(-n // 32), rng)).view(np.uint8)[:n]


def modulate_batch(batch: PulseBatch, quarters: np.ndarray) -> PulseBatch:
    """Bob's polarization-insensitive phase modulation on both modes.

    Only coherent pulses pick up the phase; thermal, Fock and blinding
    fields are phase invariant and pass bit-exactly unchanged.
    """
    q = np.asarray(quarters, dtype=np.uint8)
    return PulseBatch(batch.mode_secret, batch.out1.phase_shifted(q), batch.out2.phase_shifted(q), q)


def sample_blocked(table: np.ndarray, index: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli clicks u < table[index] of the index.size gates, as bool:
    the draws of rng.random(index.size) (one 64-bit output per double),
    made a block at a time.  The uniforms are compared with the table's
    largest probability first: u >= max never clicks and u < min always
    does, so only gates with min <= u < max, few when clicks are rare,
    gather their own probability (none when the table is constant)."""
    high, low = table.max(), table.min()
    clicks = np.empty(index.size, dtype=bool)
    for i, j in blocks(index.size):
        u = rng.random(j - i)
        c = np.less(u, high, out=clicks[i:j])
        if low < high:
            near = c.nonzero()[0]
            u_near = u.take(near)
            unsure = (u_near >= low).nonzero()[0]
            near = near.take(unsure)
            c[near] = u_near.take(unsure) < gather(table, index[i:j].take(near))
    return clicks


def entry_counts(index: np.ndarray, size: int) -> np.ndarray:
    """How many elements of an unsigned index hold each entry of a table of
    size entries, as intp: np.bincount(index, minlength=size).  A table of
    at most two entries, as every session builds, counts the nonzero
    entries instead, many times faster and with no intp copy of the index."""
    if size <= 2:
        ones = np.count_nonzero(index)
        return np.array([index.size - ones, ones][:size], dtype=np.intp)
    return np.bincount(index, minlength=size)


def monitor_clicks(table: np.ndarray, index: np.ndarray, rng: np.random.Generator) -> ClickStream:
    """Clicks of index.size gates, gate g clicking with probability
    table[index[g]], independently: one binomial draw per table entry over
    the gates at that entry (entry_counts), since a sum of independent
    Bernoulli draws of one probability is binomial."""
    gates = entry_counts(index, table.size)
    return ClickStream(int(rng.binomial(gates, table).sum()), index.size)


def bob_monitor_tap(batch: PulseBatch, cfg: SessionConfig,
                    rng: np.random.Generator) -> Optional[PowerTestOutcome]:
    """Bob's state check: tap fraction r of both modes onto one detector and
    z-test the click frequency against the expectation for the announced
    source means.  Returns None when the tap is disabled (r = 0).  The
    detector is blind to polarization, so its table is over pairs of output
    levels: one entry on an honest train, whose outputs share a level
    column."""
    r = cfg.tap_reflectance
    if r == 0.0:
        return None
    det = cfg.detector_bob
    eta_eff = det.eta * r

    out1, out2 = batch.out1, batch.out2
    level_1, level_2, index = level_pairs(out1, out2)
    table = click_prob(det.dark_prob, out1.noclick_factors(eta_eff)[level_1],
                       out2.noclick_factors(eta_eff)[level_2])
    stream = monitor_clicks(table, index, rng)
    return power_test(stream, cfg.expected_bob_monitor_p(), cfg.z_threshold)


def alice_thermal_monitor(batch: PulseBatch, cfg: SessionConfig,
                          rng: np.random.Generator) -> PowerTestOutcome:
    """Protection-layer monitor on Alice's output 2 (batch.out2) of the
    train as it returns to her: samples clicks from whatever actually
    arrived and z-tests the frequency against the thermal expectation
    mu_thermal * T^2 * (1-r)."""
    det, out2 = cfg.detector_alice, batch.out2
    table = click_prob(det.dark_prob, out2.noclick_factors(det.eta))
    stream = monitor_clicks(table, out2.level, rng)
    return power_test(stream, cfg.expected_alice_thermal_p(), cfg.z_threshold)


# ---------------------------------------------------------------------------
# Interferometric measurement and sifting


def port_means(r_prev: np.ndarray, q_prev: np.ndarray, r_curr: np.ndarray,
               q_curr: np.ndarray) -> np.ndarray:
    """Mean photon numbers at the four detectors [D0A, D1A, D0B, D1B], one
    column per coherent pulse pair (magnitudes r, quarter phases q), as a
    (4, m) array.

    The light splits evenly between the two interferometers; inside each, the
    delayed early pulse interferes with the late pulse, giving
    |a_prev e^(i delta) +/- a_curr|^2 / 8 at the two ports.  Quarter phases
    make the two amplitudes aligned, opposite or orthogonal, so the modulus
    is r_prev + r_curr, |r_prev - r_curr| or |r_prev + i r_curr|, bit-equal
    to the modulus of the complex sum."""
    plus = np.square(r_prev + r_curr) / 8.0
    minus = np.square(r_prev - r_curr) / 8.0
    # |r_prev + i r_curr| by numpy's complex-modulus kernel, through a complex
    # view of the two real columns: np.hypot rounds differently from that
    # kernel (max * sqrt(fma(ratio, ratio, 1)) in SIMD) for a third of inputs.
    pair = np.empty((np.size(r_prev), 2))
    pair[:, 0], pair[:, 1] = r_prev, r_curr
    orth = np.square(np.abs(pair.view(np.complex128)[:, 0])) / 8.0
    means = np.empty((4, np.size(r_prev)))
    for b in (0, 1):
        turn = (q_curr - q_prev - b) & 3  # phase of a_curr against a_prev i**b
        means[2 * b] = np.choose(turn, (plus, orth, minus, orth))
        means[2 * b + 1] = np.choose(turn, (minus, orth, plus, orth))
    return means


def state_pair_probs(levels: FieldArray, s_prev: np.ndarray, s_curr: np.ndarray,
                     det: DetectorModel) -> np.ndarray:
    """Click probabilities of the four detectors, as a (4, m) array, for m
    consecutive pulse pairs in the states s_prev and s_curr (level << 2 |
    quarter, over the level table of levels).

    Coherent light interferes by its port means (vacuum and blinding light
    have amplitude 0), and blinding light multiplies each detector's no-click
    probability by its noclick_factors value once per pulse of the pair.
    Thermal or Fock light, which no session brings here, raises ConfigError.
    """
    kinds = set(levels.kind.tolist())
    if kinds & {KIND_THERMAL, KIND_FOCK}:
        raise ConfigError("the interferometers take no thermal or Fock light on output 1")
    prev, curr, q_prev, q_curr = s_prev >> 2, s_curr >> 2, s_prev & 3, s_curr & 3
    r = np.sqrt(levels.param * (levels.kind == KIND_COHERENT))
    means = port_means(r[prev], q_prev, r[curr], q_curr)
    np.exp(np.multiply(-det.eta, means, out=means), out=means)
    if KIND_BLINDING in kinds:
        # At efficiency 0 only blinding light clicks: its factor, 1 elsewhere.
        f = levels.noclick_factors(0.0)
        return click_prob(det.dark_prob, means, f[prev], f[curr])
    return click_prob(det.dark_prob, means)


def _states(level: np.ndarray, quarter: np.ndarray, n_levels: int) -> np.ndarray:
    """The pulse states level << 2 | quarter, in the narrowest unsigned type
    that holds the 4 * n_levels states."""
    state = np.left_shift(level, 2, dtype=np.min_scalar_type(4 * n_levels - 1))
    state |= quarter
    return state


def _pair_columns(out1: FieldArray, cand: np.ndarray, n_states: int) -> np.ndarray:
    """The column s_prev * n_states + s_curr of each candidate pair of out1
    in a (4, n_states**2) table, as intp (the index type take reads without
    a cast), from the states at pulses cand and cand + 1.  The states at
    cand + 1 are taken at cand from the columns shifted by one, so no
    second index is built."""
    level, quarter, n_levels = out1.level, out1.quarter, out1.kind.size
    s_prev = _states(level.take(cand), quarter.take(cand), n_levels)
    s_curr = _states(level[1:].take(cand), quarter[1:].take(cand), n_levels)
    column = np.multiply(s_prev, n_states, dtype=np.intp)
    column += s_curr
    return column


def pair_outcome_probs(p: np.ndarray) -> np.ndarray:
    """The probabilities of the six outcomes of a pulse pair, from the four
    detectors' independent click probabilities p (one row per detector D0A,
    D1A, D0B, D1B, one column per pair state), one row per outcome: no
    click, a single click at D0A, D1A, D0B or D1B, and a double (two or
    more clicks)."""
    miss = 1.0 - p
    none = np.prod(miss, axis=0)
    singles = [p[d] * np.prod(np.delete(miss, d, axis=0), axis=0) for d in range(4)]
    double = np.maximum(1.0 - none - sum(singles), 0.0)
    return np.stack([none, *singles, double])


def candidate_blocks(m: int, q: float, rng: np.random.Generator):
    """The candidates among m independent trials that are each a candidate
    with probability q, ascending, in blocks of at most BLOCK: geometric gaps
    between candidates skip the trials in between (Devroye 1986).  Each
    block's gaps are enough for the trials left with a 4-sigma margin, so
    few are drawn past m.  q = 0 gives none and q = 1 every trial, with no
    draw.  BLOCK, capping the gaps of one draw, is part of the RNG stream."""
    if q == 1.0:
        yield from (np.arange(i, j) for i, j in blocks(m))
        return
    last = -1  # the last candidate so far
    while q > 0.0 and last < m - 1:
        expect = (m - 1 - last) * q
        gaps = rng.geometric(q, min(BLOCK, int(expect + 4.0 * math.sqrt(expect)) + 16))
        # A gap that passes the last trial ends the draw; clipped there, the
        # running sum cannot overflow.
        pos = last + np.cumsum(np.minimum(gaps, m - last, out=gaps))
        last = pos[-1]
        yield pos[:np.searchsorted(pos, m)]


def measure_interference(batch: PulseBatch, quarters: np.ndarray, det: DetectorModel,
                         rng: np.random.Generator) -> dict:
    """Click-sample all consecutive pulse pairs of Alice's output 1
    (batch.out1) of the train as it returns to her: each detector clicks
    independently with its state_pair_probs; exactly one click yields a
    usable event, two or more a discarded double.  A thermal or Fock level
    on output 1 raises ConfigError (state_pair_probs) before any draw.

    Each pair's outcome is drawn by thinning (Lewis and Shedler 1979): with
    q_max the largest probability over the pair states that any detector
    clicks, candidate pairs come from candidate_blocks at q_max, and one
    uniform per candidate, against its state's cumulative outcome row
    divided by q_max, picks the single click, the double or (with the rest
    of the probability) no click at all.  Only the single clicks are kept:
    their pair indices s ("pairs", ascending intp), "basis_q" and "port"
    (uint8) of the detector that clicked, and Bob's phase difference
    "delta_q" = (quarters[s + 1] - quarters[s]) & 3 at each, from Bob's own
    quarters, not the train's; of the doubles, their number ("doubles").

    A train of L levels has S = 4 L pulse states.  On the (4, S * S) table
    over the pair index s_prev * S + s_curr, each block of candidates reads
    its pair states at its own pulses only (_pair_columns); a train whose
    table would outnumber its pairs, by light.pair_table's rule, reads the
    state of every pulse, for one column per pair.  A row equal at every
    state is compared as one number, and when no row varies no state is
    read at all."""
    out1 = batch.out1
    n_states, m = 4 * out1.kind.size, len(batch) - 1
    tabulated = n_states * n_states <= m
    if tabulated:
        s_prev, s_curr = np.divmod(np.arange(n_states * n_states), n_states)
    else:
        state = _states(out1.level, out1.quarter, out1.kind.size)
        s_prev, s_curr = state[:-1], state[1:]
    p = state_pair_probs(out1, s_prev, s_curr, det)
    # Rows: a single at D0A, D1A, D0B, D1B, then any click.
    cum = np.cumsum(pair_outcome_probs(p)[1:], axis=0)
    q_max = float(cum[-1].max())
    if q_max > 0.0:
        cum /= q_max  # exactly 1 at the states of the largest
    # All five rows are flat on a train of blinding light.
    flat = (cum.min(axis=1) == cum.max(axis=1)).tolist()
    pairs, detector, doubles = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.uint8)], 0
    for cand in candidate_blocks(m, q_max, rng):
        u = rng.random(cand.size)
        if not all(flat):
            state = _pair_columns(out1, cand, n_states) if tabulated else cand
        # 0-3: a single click at that detector, 4: a double, 5: none
        outcome = np.zeros(cand.size, dtype=np.uint8)
        for row, row_flat in zip(cum, flat):
            outcome += u >= (row[0] if row_flat else row.take(state))
        single = np.flatnonzero(outcome < 4)
        pairs.append(cand.take(single))
        detector.append(outcome.take(single))
        doubles += int(np.count_nonzero(outcome == 4))
    pairs, detector = np.concatenate(pairs), np.concatenate(detector)
    return {"pairs": pairs, "basis_q": detector >> 1, "port": detector & 1,
            "delta_q": (quarters[1:].take(pairs) - quarters.take(pairs)) & 3, "doubles": doubles}


def sift_and_qber(meas: dict, cfg: SessionConfig, rng: np.random.Generator) -> SiftOutcome:
    """Keep matched-basis single clicks, disclose a random sample for error
    estimation, and strip the disclosed bits from the key.

    meas holds the single clicks as measure_interference returns them.
    Basis A keeps phase differences {0, pi}, basis B {pi/2, 3pi/2}.  Bob's
    bit is 0/1 for offset 0/pi from the basis phase; Alice's is the port that
    clicked.  An empty sifted set leaves qber undefined (None).
    """
    basis_q, delta_q = meas["basis_q"], meas["delta_q"]
    # Each selection takes its positions once, then takes them from every
    # column: far faster than indexing each column by a random bool mask.
    kept = np.flatnonzero((delta_q & 1) == basis_q)
    idx = meas["pairs"].take(kept)
    alice_bits = meas["port"].take(kept)
    bob_bits = (((delta_q.take(kept) - basis_q.take(kept)) & 3) == 2).astype(np.uint8)
    k = idx.size
    if k == 0:
        empty = np.zeros(0, dtype=np.uint8)
        return SiftOutcome(idx, alice_bits, bob_bits, np.zeros(0, dtype=bool),
                           None, empty, empty)
    n_disc = min(k, max(1, round(cfg.qber_sample_fraction * k)))
    disc_idx = np.sort(rng.choice(k, size=n_disc, replace=False))
    disclosed = np.zeros(k, dtype=bool)
    disclosed[disc_idx] = True
    qber = float(np.mean(alice_bits.take(disc_idx) != bob_bits.take(disc_idx)))
    key_idx = np.flatnonzero(~disclosed)
    return SiftOutcome(
        pair_indices=idx,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
        disclosed=disclosed,
        qber=qber,
        key_alice=alice_bits.take(key_idx),
        key_bob=bob_bits.take(key_idx),
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
    alarm = ALARM_MULTIPLE if len(sources) > 1 else sources[0] if sources else ALARM_NONE
    return alarm, tuple(sources)


def run_session(cfg: SessionConfig, attack=None) -> SessionResult:
    """Execute one full session, optionally with an eavesdropping strategy.

    Pipeline: prepare -> forward fiber -> (forward interposition) -> Bob
    modulate + monitor + tap loss -> (return interposition) -> return fiber
    -> mode separation -> thermal monitor -> interferometers -> sifting ->
    verdict.  Deterministic given (cfg, attack, seed).  The attack's hooks
    hand what one run produces to each other as a carry value (see attacks).
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_pulses

    batch = alice_prepare(cfg, rng)
    batch = batch.propagated(cfg.transmittance_oneway, rng)
    if attack is not None:
        batch, carry = attack.apply_forward(batch, cfg, rng)

    batch = modulate_batch(batch, bob_quarters(n, rng))
    quarters = batch.bob_quarter
    bob_outcome = bob_monitor_tap(batch, cfg, rng)
    batch = batch.propagated(1.0 - cfg.tap_reflectance, rng)

    if attack is not None:
        batch, carry = attack.apply_return(batch, carry, cfg, rng)
    batch = batch.propagated(cfg.transmittance_oneway, rng)

    alice_outcome = alice_thermal_monitor(batch, cfg, rng)
    meas = measure_interference(batch, quarters, cfg.detector_alice, rng)
    sift = sift_and_qber(meas, cfg, rng)

    eve = attack.finalize_report(carry, sift, rng) if attack is not None else None
    alarm, sources = classify_alarm(sift.qber, alice_outcome, bob_outcome, cfg)

    counts = {
        "sent": n,
        "pairs": n - 1,
        "single_clicks": int(meas["pairs"].size),
        "double_clicks": meas["doubles"],
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
