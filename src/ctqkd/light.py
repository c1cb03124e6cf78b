"""Semiclassical per-mode pulse content and its vectorized carrier.

FieldArray holds one field per pulse in three write-once columns (kind,
coherent amplitude, one real parameter) so a whole session can be
propagated, phase-shifted and click-sampled with numpy, each stage sharing
the columns it leaves unchanged.  LightField is the spec of a single field
(coherent amplitude, thermal mean, definite photon number, saturating
blinding light, or vacuum), used for attack probes and tests and converted
to and from the columns by FieldArray.uniform, from_fields and field.
Blinding light saturates a threshold detector, so its click probability
ignores efficiency and attenuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

KIND_VACUUM = 0
KIND_COHERENT = 1
KIND_THERMAL = 2
KIND_FOCK = 3
KIND_BLINDING = 4

# exact complex multipliers for phases k * pi/2, k = 0..3
QUARTER_PHASES = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class Coherent:
    amplitude: complex

    @property
    def mean_photons(self) -> float:
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class Thermal:
    mean_photons: float

    def __post_init__(self):
        if self.mean_photons < 0.0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_photons}")


@dataclass(frozen=True)
class FockN:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"photon number must be >= 0, got {self.n}")


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

    kind (uint8) tags each pulse with a KIND_* constant.  amp (complex128) is
    the coherent amplitude.  param (float64) is the thermal mean, the photon
    number (exact in float64 up to 2**53) or the forced-click probability.
    amp is exactly 0 for every kind but coherent, and param is exactly 0 for
    coherent and vacuum pulses; noclick_factors relies on both.

    The columns are read-only.  Transforms build a new FieldArray and share
    every column they leave unchanged, so no stage copies a column it does
    not rewrite.
    """

    __slots__ = ("kind", "amp", "param")

    def __init__(self, kind, amp, param):
        self.kind = _read_only(kind, np.uint8)
        self.amp = _read_only(amp, np.complex128)
        self.param = _read_only(param, np.float64)

    def __len__(self) -> int:
        return self.kind.size

    def max_kind(self) -> int:
        """Highest KIND_* tag present; KIND_VACUUM for an empty array."""
        return int(self.kind.max()) if self.kind.size else KIND_VACUUM

    @classmethod
    def vacuum(cls, n: int) -> "FieldArray":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.complex128), np.zeros(n))

    @classmethod
    def coherent(cls, amplitudes: np.ndarray) -> "FieldArray":
        n = len(amplitudes)
        return cls(np.full(n, KIND_COHERENT, dtype=np.uint8), amplitudes, np.zeros(n))

    @classmethod
    def thermal(cls, means: np.ndarray) -> "FieldArray":
        n = len(means)
        return cls(np.full(n, KIND_THERMAL, dtype=np.uint8), np.zeros(n, dtype=np.complex128), means)

    @classmethod
    def uniform(cls, field: LightField, n: int) -> "FieldArray":
        """Broadcast a single LightField to n pulses."""
        if isinstance(field, Coherent):
            return cls.coherent(np.full(n, field.amplitude, dtype=np.complex128))
        if isinstance(field, Thermal):
            return cls.thermal(np.full(n, field.mean_photons))
        if isinstance(field, Vacuum):
            return cls.vacuum(n)
        if isinstance(field, FockN):
            kind, param = KIND_FOCK, field.n
        elif isinstance(field, Blinding):
            kind, param = KIND_BLINDING, field.forced_click_prob
        else:
            raise TypeError(f"not a LightField: {field!r}")
        return cls(np.full(n, kind, dtype=np.uint8), np.zeros(n, dtype=np.complex128),
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
            return Coherent(complex(self.amp[i]))
        if k == KIND_THERMAL:
            return Thermal(float(self.param[i]))
        if k == KIND_FOCK:
            return FockN(int(self.param[i]))
        if k == KIND_BLINDING:
            return Blinding(float(self.param[i]))
        return Vacuum()

    def copy(self) -> "FieldArray":
        return FieldArray(self.kind.copy(), self.amp.copy(), self.param.copy())

    @classmethod
    def where(cls, mask: np.ndarray, a: "FieldArray", b: "FieldArray") -> "FieldArray":
        """Elementwise select: a where mask else b."""
        return cls(
            np.where(mask, a.kind, b.kind),
            np.where(mask, a.amp, b.amp),
            np.where(mask, a.param, b.param),
        )

    def attenuated(self, transmittance: float, rng: np.random.Generator | None = None) -> "FieldArray":
        """Loss channel: coherent amplitude scales by sqrt(T), thermal mean by T,
        definite photon numbers undergo binomial thinning (needs rng), blinding
        light is unaffected.  The result shares the kind column."""
        t = float(transmittance)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmittance must be in [0, 1], got {t}")
        if t == 1.0:
            return self
        amp = self.amp * np.sqrt(t)
        if self.max_kind() <= KIND_THERMAL:
            # param is 0 off thermal pulses, so scaling all of it is exact.
            return FieldArray(self.kind, amp, self.param * t)
        param = np.where(self.kind == KIND_THERMAL, self.param * t, self.param)
        fock = self.kind == KIND_FOCK
        if fock.any():
            if rng is None:
                raise ValueError("rng required to thin definite photon numbers through loss")
            param[fock] = rng.binomial(self.param[fock].astype(np.int64), t)
        return FieldArray(self.kind, amp, param)

    def phase_shifted(self, multiplier) -> "FieldArray":
        """Multiply coherent amplitudes by a unit-modulus factor (scalar or
        per-pulse array); phase-invariant fields are untouched.  The result
        shares the kind and param columns."""
        return FieldArray(self.kind, self.amp * multiplier, self.param)

    def mean_photons(self) -> np.ndarray:
        """Mean photon number per pulse; blinding light reports +inf."""
        # amp and param are 0 wherever they do not apply, so their sum is exact.
        out = np.abs(self.amp) ** 2 + self.param
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
        if self.max_kind() <= KIND_THERMAL:
            # amp is 0 off coherent pulses and param 0 off thermal ones, so each
            # factor is exactly 1 where it does not apply.
            return np.exp(-eta_eff * np.abs(self.amp) ** 2) / (1.0 + eta_eff * self.param)
        out = np.ones(len(self))
        k = self.kind
        coh = k == KIND_COHERENT
        out[coh] = np.exp(-eta_eff * np.abs(self.amp[coh]) ** 2)
        th = k == KIND_THERMAL
        out[th] = 1.0 / (1.0 + eta_eff * self.param[th])
        fo = k == KIND_FOCK
        out[fo] = (1.0 - eta_eff) ** self.param[fo]
        bl = k == KIND_BLINDING
        out[bl] = 1.0 - self.param[bl]
        return out
