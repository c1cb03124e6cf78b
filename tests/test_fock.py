"""Exact-numerics tests: state constructors, channel maps, distance and
overlap identities, and the security-condition invariants."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctqkd.fock import (
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

# trace_distance(coherent(sqrt(0.2)), thermal(0.2)) at n_max=40, frozen from
# an independent eigendecomposition of the closed-form matrices (see
# test_golden_distance_against_independent_reconstruction).
GOLDEN_DISTANCE_02_02 = 0.40777870074915906

T40 = TruncationConfig(n_max=40)


def test_coherent_vacuum_limit():
    rho = coherent_state(0.0)
    assert vacuum_probability(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho.matrix, fock_state(0).matrix, atol=1e-15)


def test_coherent_vacuum_entry():
    rho = coherent_state(math.sqrt(0.2), T40)
    assert rho.matrix[0, 0].real == pytest.approx(math.exp(-0.2), abs=1e-12)


def test_coherent_purity():
    rho = coherent_state(1.0, T40)
    assert expectation(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_coherent_mean_photons():
    rho = coherent_state(math.sqrt(0.7), T40)
    n = np.arange(rho.dim)
    assert rho.diagonal() @ n == pytest.approx(0.7, abs=1e-10)


def test_coherent_cutoff_too_small():
    with pytest.raises(TruncationError):
        coherent_state(4.0, TruncationConfig(n_max=10))


def test_thermal_vacuum_limit():
    rho = thermal_state(0.0)
    assert np.allclose(rho.matrix, fock_state(0).matrix, atol=1e-15)


def test_thermal_ground_weight():
    assert thermal_state(0.2).matrix[0, 0].real == pytest.approx(1 / 1.2, abs=1e-12)


def test_thermal_diagonal_strictly_positive():
    rho = thermal_state(0.1, TruncationConfig(n_max=20))
    diag = rho.diagonal()
    assert (diag > 0).all()
    assert np.count_nonzero(rho.matrix - np.diag(diag)) == 0


def test_thermal_cutoff_too_small():
    with pytest.raises(TruncationError):
        thermal_state(5.0, TruncationConfig(n_max=10))


@pytest.mark.parametrize("make", [lambda: thermal_state(math.nan), lambda: thermal_state(math.inf),
                                  lambda: coherent_state(math.nan), lambda: coherent_state(math.inf),
                                  lambda: coherent_state(complex(0.0, math.nan)),
                                  lambda: coherent_state(1e200)],
                         ids=["thermal-nan", "thermal-inf", "coherent-nan", "coherent-inf",
                              "coherent-imag-nan", "coherent-mean-overflows"])
def test_states_reject_a_non_finite_mean(make):
    with pytest.raises(ValueError, match="must be finite") as exc:
        make()
    assert not isinstance(exc.value, TruncationError)


def test_phase_shift_identity():
    rho = coherent_state(0.5 + 0.1j, T40)
    assert np.allclose(phase_shift(rho, 0.0).matrix, rho.matrix, atol=1e-15)


def test_phase_shift_leaves_thermal_exactly():
    rho = thermal_state(0.3)
    shifted = phase_shift(rho, 1.234)
    assert np.array_equal(shifted.matrix, rho.matrix)


def test_phase_shift_rotates_coherent_amplitude():
    phi = 0.7
    a = math.sqrt(0.4)
    direct = coherent_state(a * np.exp(1j * phi), T40)
    shifted = phase_shift(coherent_state(a, T40), phi)
    assert np.abs(shifted.matrix - direct.matrix).max() < 1e-10


def test_attenuate_identity():
    rho = coherent_state(0.6, T40)
    assert np.array_equal(attenuate(rho, 1.0).matrix, rho.matrix)


def test_attenuate_coherent_to_coherent():
    rho = attenuate(coherent_state(math.sqrt(0.2), T40), 0.5)
    target = coherent_state(math.sqrt(0.1), T40)
    assert np.abs(rho.matrix - target.matrix).max() < 1e-9


def test_attenuate_thermal_to_thermal():
    rho = attenuate(thermal_state(0.8, T40), 0.35)
    target = thermal_state(0.8 * 0.35, T40)
    assert np.abs(rho.matrix - target.matrix).max() < 1e-9


def test_attenuate_trace_preserving():
    rho = coherent_state(1.0, T40)
    for t in (0.0, 0.2, 0.9):
        assert attenuate(rho, t).matrix.trace().real == pytest.approx(1.0, abs=1e-9)


def test_attenuate_fock_binomial_diagonal():
    rho = attenuate(fock_state(2, TruncationConfig(n_max=6)), 0.7)
    expect = [0.3**2, 2 * 0.7 * 0.3, 0.7**2]
    assert rho.diagonal()[:3] == pytest.approx(expect, abs=1e-12)


def test_trace_distance_self_is_zero():
    rho = thermal_state(0.4)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    assert trace_distance(fock_state(0), fock_state(1)) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_golden_value():
    d = trace_distance(coherent_state(math.sqrt(0.2), T40), thermal_state(0.2, T40))
    assert d == pytest.approx(GOLDEN_DISTANCE_02_02, abs=1e-10)


def test_golden_distance_against_independent_reconstruction():
    # Rebuild both matrices from their closed forms without the library
    # constructors and diagonalize the difference directly.
    n = np.arange(41)
    amps = np.exp(-0.1) * np.sqrt(0.2) ** n / np.sqrt(
        np.array([math.factorial(int(k)) for k in n], dtype=float)
    )
    rho_c = np.outer(amps, amps)
    rho_c /= np.trace(rho_c)
    p = (0.2 / 1.2) ** n / 1.2
    rho_t = np.diag(p / p.sum())
    d = 0.5 * np.abs(np.linalg.eigvalsh(rho_c - rho_t)).sum()
    assert d == pytest.approx(GOLDEN_DISTANCE_02_02, abs=1e-12)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(thermal_state(0.1, TruncationConfig(n_max=5)), thermal_state(0.1, T40))


def test_overlap_alpha_zero():
    for mu in (0.0, 0.3, 1.0):
        assert overlap_coherent_thermal(0.0, mu) == pytest.approx(1 / (1 + mu), abs=1e-14)


def test_overlap_thermal_zero():
    for a in (0.2, 0.7):
        assert overlap_coherent_thermal(a, 0.0) == pytest.approx(math.exp(-a * a), abs=1e-14)


def test_overlap_reference_point():
    assert overlap_coherent_thermal(math.sqrt(0.2), 0.2) == pytest.approx(0.70540, abs=5e-6)


def test_expectation_vacuum_thermal():
    mu = 0.37
    got = expectation(fock_state(0), thermal_state(mu))
    assert got == pytest.approx(1 / (1 + mu), abs=1e-10)


def test_expectation_matches_closed_form_overlap_grid():
    # The numeric trace against the closed form over the working mu range.
    grid = np.arange(0.0, 1.0001, 0.05)
    worst = 0.0
    for mu_c in grid:
        rho_c = coherent_state(math.sqrt(mu_c), T40)
        for mu_t in grid:
            num = expectation(rho_c, thermal_state(mu_t, T40))
            worst = max(worst, abs(num - overlap_coherent_thermal(math.sqrt(mu_c), mu_t)))
    assert worst < 1e-8


def test_min_eigenvalue_thermal_closed_form():
    trunc = TruncationConfig(n_max=20)
    got = min_eigenvalue(thermal_state(0.1, trunc))
    weights = (0.1 / 1.1) ** np.arange(21) / 1.1
    assert got == pytest.approx(weights[-1] / weights.sum(), rel=1e-12)


def test_min_eigenvalue_pure_states_have_kernel():
    assert abs(min_eigenvalue(coherent_state(0.5, T40))) < 1e-10
    assert abs(min_eigenvalue(thermal_state(0.0))) < 1e-14


def test_vacuum_probabilities():
    mu = 0.6
    assert vacuum_probability(thermal_state(mu)) == pytest.approx(1 / (1 + mu), abs=1e-10)
    assert vacuum_probability(coherent_state(math.sqrt(mu), T40)) == pytest.approx(
        math.exp(-mu), abs=1e-10
    )


# --- invariants -----------------------------------------------------------


def test_unitary_invariance_of_distance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu_c, mu_t = rng.uniform(0.05, 1.0, 2)
        phi = rng.uniform(0, 2 * math.pi)
        r1 = coherent_state(math.sqrt(mu_c) * np.exp(1j * rng.uniform(0, 2 * math.pi)), T40)
        r2 = thermal_state(mu_t, T40)
        base = trace_distance(r1, r2)
        rotated = trace_distance(phase_shift(r1, phi), phase_shift(r2, phi))
        assert abs(base - rotated) < 1e-10


def test_thermal_phase_invariance():
    rho = thermal_state(0.25)
    for phi in np.linspace(0, 2 * math.pi, 9):
        assert trace_distance(rho, phase_shift(rho, phi)) <= 1e-12


def test_thermal_full_rank_at_any_cutoff():
    for n_max in (1, 5, 20, 40, 60):
        trunc = TruncationConfig(n_max=n_max, tol_trace=0.999)
        for mu in (0.05, 0.2, 1.0):
            assert min_eigenvalue(thermal_state(mu, trunc)) > 0.0


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(23)
    trunc = T40

    def random_state():
        if rng.random() < 0.5:
            return coherent_state(
                math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi)), trunc
            )
        return thermal_state(rng.uniform(0, 1), trunc)

    for _ in range(100):
        a, b, c = random_state(), random_state(), random_state()
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert trace_distance(a, a) <= 1e-10
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


def test_density_matrix_rejects_non_hermitian():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    m[0, 0] = 1.0
    with pytest.raises(ValueError):
        DensityMatrix(m)


def test_density_matrix_rejects_negative():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(n_max=0)
    with pytest.raises(ValueError):
        TruncationConfig(tol_trace=0.0)



def test_import_does_not_load_scipy():
    # The log-factorials of attenuate come from math.lgamma: importing the
    # package must not pay for scipy.special.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ctqkd; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
