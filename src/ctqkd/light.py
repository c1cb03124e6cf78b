"""Semiclassical per-mode pulse content and its vectorized carrier.

FieldArray holds one field per pulse in three write-once columns: kind, a
quarter-turn phase and one real parameter, the mean photon number (for
blinding light, the forced-click probability).  Every phase in a session is
a quarter turn, so no column is complex, and a whole session can be
propagated, phase-shifted and click-sampled with numpy, each stage sharing
the columns it leaves unchanged.  Each per-kind law of the light lives
here: loss, the no-click probability of a threshold detector and photon
counting.  LightField is the spec of a single field (coherent amplitude
r * i**q, thermal mean, definite photon number, saturating blinding light,
or vacuum), used for attack probes and tests and converted to and from the
columns by FieldArray.uniform, from_fields and field.  Blinding light
saturates a threshold detector, so its click probability ignores
efficiency and attenuation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

KIND_VACUUM = 0
KIND_COHERENT = 1
KIND_THERMAL = 2
KIND_FOCK = 3
KIND_BLINDING = 4


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class Coherent:
    """Coherent state of amplitude r * i**q: a real magnitude at one of the
    four quarter-turn phases, the only phases the link ever applies."""

    amplitude: complex

    def __post_init__(self):
        a = complex(self.amplitude)
        if not (math.isfinite(abs(a) * abs(a)) and 0.0 in (a.real, a.imag)):
            raise ValueError(f"coherent amplitude must be r * i**q with a finite mean photon "
                             f"number r**2, got {self.amplitude}")

    @property
    def quarter(self) -> int:
        """q of the amplitude r * i**q (0 when r = 0)."""
        a = complex(self.amplitude)
        return (0, 2)[a.real < 0.0] if a.imag == 0.0 else (1, 3)[a.imag < 0.0]

    @property
    def mean_photons(self) -> float:
        return abs(self.amplitude) * abs(self.amplitude)


@dataclass(frozen=True)
class Thermal:
    mean_photons: float

    def __post_init__(self):
        if not 0.0 <= self.mean_photons < math.inf:
            raise ValueError(f"mean photon number must be finite, >= 0, got {self.mean_photons}")


# The largest photon number the float64 param column holds exactly (every
# integer up to 2**53 is a float64; 2**53 + 1 is not).
FOCK_N_MAX = 2**53


@dataclass(frozen=True)
class FockN:
    n: int

    def __post_init__(self):
        if (isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral)
                or not 0 <= self.n <= FOCK_N_MAX):
            raise ValueError(f"photon number must be an integer in [0, 2**53], got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def mean_photons(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class Blinding:
    forced_click_prob: float

    def __post_init__(self):
        if not 0.0 <= self.forced_click_prob <= 1.0:
            raise ValueError(
                f"forced click probability must be in [0, 1], got {self.forced_click_prob}"
            )


LightField = Union[Vacuum, Coherent, Thermal, FockN, Blinding]


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of values as dtype; converts only when needed."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


class FieldArray:
    """One light field per pulse, stored as three write-once columns.

    kind (uint8) tags each pulse with a KIND_* constant.  quarter (uint8) is
    the coherent phase in quarter turns, 0..3.  param (float64) is the mean
    photon number: the squared modulus of the coherent amplitude
    sqrt(param) * i**quarter, the thermal mean or the photon number (at
    most FOCK_N_MAX, so exact in float64).
    Blinding light is the one exception: its param is the forced-click
    probability.  quarter is exactly 0 for every kind but coherent, and param
    is exactly 0 for vacuum.

    The columns are read-only.  Transforms build a new FieldArray and share
    every column they leave unchanged, so no stage copies a column it does
    not rewrite.
    """

    __slots__ = ("kind", "quarter", "param")

    def __init__(self, kind, quarter, param):
        self.kind = _read_only(kind, np.uint8)
        self.quarter = _read_only(quarter, np.uint8)
        self.param = _read_only(param, np.float64)

    def __len__(self) -> int:
        return self.kind.size

    def block(self, start: int, stop: int) -> "FieldArray":
        """Pulses start..stop-1, sharing this array's column memory."""
        return FieldArray(self.kind[start:stop], self.quarter[start:stop], self.param[start:stop])

    def max_kind(self) -> int:
        """Highest KIND_* tag present; KIND_VACUUM for an empty array."""
        return int(self.kind.max()) if self.kind.size else KIND_VACUUM

    @classmethod
    def vacuum(cls, n: int) -> "FieldArray":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), np.zeros(n))

    @classmethod
    def uniform(cls, field: LightField, n: int) -> "FieldArray":
        """Broadcast a single LightField to n pulses."""
        kind, quarter, param = KIND_VACUUM, 0, 0.0
        if isinstance(field, Coherent):
            kind, quarter, param = KIND_COHERENT, field.quarter, field.mean_photons
        elif isinstance(field, Thermal):
            kind, param = KIND_THERMAL, field.mean_photons
        elif isinstance(field, FockN):
            kind, param = KIND_FOCK, field.n
        elif isinstance(field, Blinding):
            kind, param = KIND_BLINDING, field.forced_click_prob
        elif not isinstance(field, Vacuum):
            raise TypeError(f"not a LightField: {field!r}")
        return cls(np.full(n, kind, dtype=np.uint8), np.full(n, quarter, dtype=np.uint8),
                   np.full(n, param, dtype=np.float64))

    @classmethod
    def from_fields(cls, fields) -> "FieldArray":
        parts = [cls.uniform(f, 1) for f in fields]
        if not parts:
            return cls.vacuum(0)
        return cls(*(np.concatenate([getattr(p, col) for p in parts]) for col in cls.__slots__))

    def field(self, i: int) -> LightField:
        k = int(self.kind[i])
        if k == KIND_COHERENT:
            return Coherent(math.sqrt(self.param[i]) * 1j ** int(self.quarter[i]))
        if k == KIND_THERMAL:
            return Thermal(float(self.param[i]))
        if k == KIND_FOCK:
            return FockN(int(self.param[i]))
        if k == KIND_BLINDING:
            return Blinding(float(self.param[i]))
        return Vacuum()

    def copy(self) -> "FieldArray":
        return FieldArray(self.kind.copy(), self.quarter.copy(), self.param.copy())

    @classmethod
    def where(cls, mask: np.ndarray, a: "FieldArray", b: "FieldArray") -> "FieldArray":
        """Elementwise select: a where mask else b."""
        m = np.negative(np.asarray(mask, dtype=bool).view(np.uint8))  # 0 or 255: a bitwise select
        return cls(
            b.kind ^ ((a.kind ^ b.kind) & m),
            b.quarter ^ ((a.quarter ^ b.quarter) & m),
            np.where(mask, a.param, b.param),
        )

    def attenuated(self, transmittance: float, rng: np.random.Generator | None = None) -> "FieldArray":
        """Loss channel: every mean photon number scales by T, definite
        photon numbers undergo binomial thinning (needs rng), blinding light
        is unaffected.  The result shares the kind and quarter columns."""
        t = float(transmittance)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmittance must be in [0, 1], got {t}")
        if t == 1.0:
            return self
        param = self.param * t
        if self.max_kind() >= KIND_FOCK:
            fock = self.kind == KIND_FOCK
            if fock.any():
                if rng is None:
                    raise ValueError("rng required to thin definite photon numbers through loss")
                param[fock] = rng.binomial(self.param[fock].astype(np.int64), t)
            np.copyto(param, self.param, where=self.kind == KIND_BLINDING)
        return FieldArray(self.kind, self.quarter, param)

    def phase_shifted(self, quarters) -> "FieldArray":
        """Turn coherent phases by whole quarter turns (an integer or one per
        pulse); phase-invariant fields keep quarter 0.  The result shares the
        kind and param columns."""
        turned = self.quarter + np.asarray(quarters, dtype=np.uint8)  # mod 256, then mod 4
        turned &= (self.kind == KIND_COHERENT) * np.uint8(3)
        return FieldArray(self.kind, turned, self.param)

    def mean_photons(self) -> np.ndarray:
        """Mean photon number per pulse; blinding light reports +inf."""
        out = self.param.copy()
        out[self.kind == KIND_BLINDING] = np.inf
        return out

    def noclick_factors(self, eta_eff: float) -> np.ndarray:
        """Per-pulse no-click probability at effective efficiency eta_eff,
        excluding dark counts.

        Coherent: exp(-eta mu); thermal: 1/(1 + eta mu); photon number n:
        (1 - eta)^n; vacuum: 1.  Blinding light returns 1 - forced_click_prob
        regardless of eta.  Factors for independent fields on one detector
        multiply.
        """
        if not 0.0 <= eta_eff <= 1.0:
            raise ValueError(f"effective efficiency must be in [0, 1], got {eta_eff}")
        k, mu = self.kind, self.param
        # exp(-eta mu_coh) / (1 + eta mu_th), in place; each mean is masked to
        # exactly 0 off its kind, so each factor is exactly 1 there.  The
        # masks are cast to float first: the same products as mu * bool mask,
        # but numpy's float-times-bool loop is about half as fast.
        out = (k == KIND_COHERENT).astype(np.float64)
        np.multiply(out, mu, out=out)
        np.exp(np.multiply(-eta_eff, out, out=out), out=out)
        mu_th = (k == KIND_THERMAL).astype(np.float64)
        np.multiply(mu_th, mu, out=mu_th)
        np.add(1.0, np.multiply(eta_eff, mu_th, out=mu_th), out=mu_th)
        np.divide(out, mu_th, out=out)
        if self.max_kind() >= KIND_FOCK:  # the formula above gave them exactly 1
            fock, blind = k == KIND_FOCK, k == KIND_BLINDING
            out[fock] = (1.0 - eta_eff) ** mu[fock]
            out[blind] = 1.0 - mu[blind]
        return out

    def photon_counts(self, rng: np.random.Generator) -> np.ndarray:
        """Sample the photon number an ideal counter registers per pulse:
        Poisson on coherent light, Bose-Einstein on thermal light, n on a
        definite photon number; blinding light counts as int64 max // 2."""
        counts = np.zeros(len(self), dtype=np.int64)
        k, mu = self.kind, self.param
        coh = k == KIND_COHERENT
        counts[coh] = rng.poisson(mu[coh])
        th = k == KIND_THERMAL
        if th.any():
            counts[th] = rng.geometric(1.0 / (1.0 + mu[th])) - 1
        fock = k == KIND_FOCK
        counts[fock] = mu[fock].astype(np.int64)
        counts[k == KIND_BLINDING] = np.iinfo(np.int64).max // 2
        return counts
