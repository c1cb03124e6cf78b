"""Truncated Fock-space numerics for coherent and thermal optical pulses.

Density operators are stored as dense complex matrices on the photon-number
basis {|0>, ..., |n_max>}.  Constructors renormalize after truncation and
reject inputs whose discarded tail probability exceeds the configured
tolerance, so every matrix in circulation is a valid quantum state up to
float precision.  All functions are pure; matrices are frozen after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import require_complex, require_int, require_real

HERMITICITY_TOL = 1e-12
PSD_TOL = -1e-10
IMAG_TOL = 1e-10


class TruncationError(ValueError):
    """Photon-number cutoff too small for the requested state."""


@dataclass(frozen=True)
class TruncationConfig:
    """Photon-number cutoff and tolerated truncation loss.

    n_max is the largest retained photon number (matrix dimension n_max+1);
    tol_trace bounds the probability mass that may be discarded before
    renormalization.
    """

    n_max: int = 40
    tol_trace: float = 1e-10

    def __post_init__(self):
        require_int("n_max", self.n_max, 1)
        require_real("tol_trace", self.tol_trace, 0.0, 1.0)

    @property
    def dim(self) -> int:
        return self.n_max + 1


DEFAULT_TRUNCATION = TruncationConfig()


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix in the Fock basis.

    The constructor renormalizes the trace to 1 and rejects matrices that are
    not Hermitian within 1e-12 or whose smallest eigenvalue is below -1e-10.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=HERMITICITY_TOL):
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = m.trace().real
        if tr <= 0.0:
            raise ValueError(f"matrix trace must be positive, got {tr}")
        m /= tr
        if float(np.linalg.eigvalsh(m).min()) < PSD_TOL:
            raise ValueError("matrix is not positive semidefinite within tolerance")
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        """Photon-number distribution (real, sums to 1)."""
        return self.matrix.diagonal().real.copy()

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _check_tail(tail: float, trunc: TruncationConfig, what: str) -> None:
    if tail > trunc.tol_trace:
        raise TruncationError(
            f"truncation loss {tail:.3e} for {what} exceeds tol_trace "
            f"{trunc.tol_trace:.1e}; increase n_max={trunc.n_max}"
        )


def coherent_state(alpha: complex, trunc: TruncationConfig = DEFAULT_TRUNCATION) -> DensityMatrix:
    """Pure coherent state |alpha><alpha| with mean photon number |alpha|^2.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!), evaluated
    by the stable recurrence c_n = c_{n-1} alpha / sqrt(n).
    """
    alpha = require_complex("alpha", alpha)
    mean = abs(alpha) * abs(alpha)
    require_real("|alpha|^2", mean, 0.0, math.inf, "[)")
    c = np.zeros(trunc.dim, dtype=np.complex128)
    c[0] = 1.0
    for n in range(1, trunc.dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    c *= math.exp(-mean / 2.0)
    kept = float(np.vdot(c, c).real)
    _check_tail(1.0 - kept, trunc, f"coherent state |alpha|^2={mean:.4g}")
    return DensityMatrix(np.outer(c, c.conj()))


def thermal_state(mu_t: float, trunc: TruncationConfig = DEFAULT_TRUNCATION) -> DensityMatrix:
    """Thermal (Bose-Einstein) state with mean photon number mu_t.

    Diagonal in the Fock basis with weights mu_t^n / (1+mu_t)^(n+1); all
    off-diagonal entries are exactly zero.
    """
    require_real("mu_t", mu_t, 0.0, math.inf, "[)")
    n = np.arange(trunc.dim)
    if mu_t == 0.0:
        p = np.zeros(trunc.dim)
        p[0] = 1.0
        tail = 0.0
    else:
        ratio = mu_t / (1.0 + mu_t)
        p = ratio**n / (1.0 + mu_t)
        tail = ratio ** trunc.dim
    _check_tail(tail, trunc, f"thermal state mu_t={mu_t:.4g}")
    return DensityMatrix(np.diag(p.astype(np.complex128)))


def fock_state(n: int, trunc: TruncationConfig = DEFAULT_TRUNCATION) -> DensityMatrix:
    """Photon-number eigenstate projector |n><n|."""
    n = require_int("n", n, 0, trunc.n_max)
    m = np.zeros((trunc.dim, trunc.dim), dtype=np.complex128)
    m[n, n] = 1.0
    return DensityMatrix(m)


def phase_shift(rho: DensityMatrix, phi: float) -> DensityMatrix:
    """Optical phase rotation: entry (n, m) picks up exp(i phi (n-m)).

    Leaves the spectrum untouched; diagonal states are exactly invariant.
    """
    require_real("phi", phi)
    n = np.arange(rho.dim)
    # phase factor built from n - m so the diagonal stays exactly 1
    factor = np.exp(1j * phi * (n[:, None] - n[None, :]))
    return DensityMatrix(rho.matrix * factor)


def attenuate(rho: DensityMatrix, transmittance: float) -> DensityMatrix:
    """Pure-loss channel: beam splitter of the given transmittance with a
    vacuum ancilla, traced out.

    Kraus operators A_k map |n> -> sqrt(binom(n,k) T^(n-k) (1-T)^k) |n-k>;
    their completeness makes the map exactly trace preserving on the
    truncated space.  Coherent states map to coherent states of amplitude
    sqrt(T) alpha and thermal states to thermal states of mean T mu.
    """
    require_real("transmittance", transmittance, 0.0, 1.0, "[]")
    t = float(transmittance)
    if t == 1.0:
        return rho
    dim = rho.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    if t == 0.0:
        out[0, 0] = 1.0
        return DensityMatrix(out)
    log_t, log_1mt = math.log(t), math.log1p(-t)
    log_fact = np.array([math.lgamma(x + 1.0) for x in range(dim)])  # log(x!)
    for k in range(dim):
        j = np.arange(dim - k, dtype=float)  # photons kept, n - k
        # sqrt of the binomial weight binom(n,k) T^(n-k) (1-T)^k, via logs
        log_w = log_fact[k:] - log_fact[k] - log_fact[: dim - k] + j * log_t + k * log_1mt
        a = np.exp(0.5 * log_w)  # A_k acting on |n> gives a[n-k] |n-k>
        block = rho.matrix[k:, k:] * np.outer(a, a)
        out[: dim - k, : dim - k] += block
    return DensityMatrix(out)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of rho1 - rho2.

    Ranges over [0, 1]; zero iff the states are equal, one iff they are
    perfectly distinguishable by a single measurement.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    ev = np.linalg.eigvalsh(rho1.matrix - rho2.matrix)
    return 0.5 * float(np.abs(ev).sum())


def expectation(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Numeric tr(rho sigma); the oracle against the closed-form overlap."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    t = complex(np.trace(rho.matrix @ sigma.matrix))
    if abs(t.imag) > IMAG_TOL:
        raise ValueError(f"tr(rho sigma) has imaginary part {t.imag:.3e}")
    return t.real


def overlap_coherent_thermal(alpha: complex, mu_t: float) -> float:
    """Closed-form <alpha| rho_thermal |alpha> = exp(-|alpha|^2/(1+mu_t)) / (1+mu_t)."""
    require_real("mu_t", mu_t, 0.0, math.inf, "[)")
    return math.exp(-abs(alpha) ** 2 / (1.0 + mu_t)) / (1.0 + mu_t)


def min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue; strictly positive iff the state has a null kernel."""
    return float(np.linalg.eigvalsh(rho.matrix).min())


def vacuum_probability(rho: DensityMatrix) -> float:
    """Probability of the zero-photon outcome, entry (0, 0)."""
    return float(rho.matrix[0, 0].real)
