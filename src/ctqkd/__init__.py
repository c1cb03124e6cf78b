"""Seeded Monte Carlo simulator and numerics library for a coherent/thermal
two-layer QKD link: a four-phase differential key exchange with reversed
roles, protected by a thermal-state monitoring layer, plus models of the
standard eavesdropping strategies against it."""

from .fock import (
    DensityMatrix,
    TruncationConfig,
    TruncationError,
    attenuate,
    coherent_state,
    expectation,
    fock_state,
    min_eigenvalue,
    overlap_coherent_thermal,
    phase_shift,
    thermal_state,
    trace_distance,
    vacuum_probability,
)
from .detector import (
    ClickStream,
    DetectorModel,
    NotDistinguishableError,
    PowerTestOutcome,
    band_power_statistic,
    click_prob_coherent,
    click_prob_state,
    click_prob_thermal,
    power_test,
    sample_clicks,
    samples_needed,
)
from .light import Blinding, Coherent, FockN, LightField, Thermal, Vacuum
from .protocol import (
    ConfigError,
    PulseBatch,
    SessionConfig,
    SessionResult,
    alice_prepare,
    alice_thermal_monitor,
    bob_monitor_tap,
    run_session,
    sift_and_qber,
)
from .attacks import (
    ATTACK_KINDS,
    Attack,
    BeamSplit,
    BrightLight,
    EveReport,
    InterceptResend,
    ModeDiscrimination,
    TrojanHorse,
    eve_information_summary,
)
from .analysis import (
    CurvePoint,
    SweepSpec,
    distinguishability_curve,
    export_report,
    run_sweep,
)

__version__ = "0.1.0"
