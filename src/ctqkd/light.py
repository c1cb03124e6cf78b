"""Semiclassical per-mode pulse content and its vectorized carrier.

A link puts few distinct fields on a polarization mode: one coherent and
one thermal mean from Alice's source, and at most a couple more from an
attacker.  FieldArray therefore keeps a small table of levels, each a kind
and one real parameter (the mean photon number, or for blinding light the
forced-click probability), and two write-once columns per pulse: the level
index and a quarter-turn phase, since every phase in a session is a quarter
turn.  Each per-kind law of the light lives here, evaluated once per
level: loss, the no-click probability of a threshold detector, and the
probabilities that an ideal photon counter registers no photon or one.
LightField is the spec of a single field (coherent amplitude
r * i**q, thermal mean, definite photon number, saturating blinding light,
or vacuum), converted to a FieldArray by FieldArray.uniform.  Tests convert
pulse by pulse with from_fields and field, kept beside the one map of kind
codes to field classes so that no test copies it.  Blinding light saturates
a threshold detector: its click probability ignores efficiency and loss,
and the monitors and the interferometers alike read it from noclick_factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .detector import ConfigError, require_complex, require_int, require_real

KIND_VACUUM = 0
KIND_COHERENT = 1
KIND_THERMAL = 2
KIND_FOCK = 3
KIND_BLINDING = 4

# Pulses per block of the block-wise stages.  A block's float64 temporaries
# take 256 KiB each, so a stage's working set fits a 2 MiB per-core L2
# cache; 2**14 and 2**16 measured no faster.  A constant, not a setting, and
# part of the RNG stream: protocol.candidate_blocks draws at most BLOCK gaps
# at a time, so changing it changes the interferometers' and all later draws.
BLOCK = 1 << 15


def blocks(n: int):
    """(start, stop) of each block of n pulses, in order."""
    return ((i, min(i + BLOCK, n)) for i in range(0, n, BLOCK))


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class Coherent:
    """Coherent state of amplitude r * i**q: a real magnitude at one of the
    four quarter-turn phases, the only phases the link ever applies."""

    amplitude: complex

    def __post_init__(self):
        a = require_complex("coherent amplitude", self.amplitude)
        if not (math.isfinite(abs(a) * abs(a)) and 0.0 in (a.real, a.imag)):
            raise ConfigError(f"coherent amplitude must be r * i**q with a finite mean photon "
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
        require_real("mean_photons", self.mean_photons, 0.0, math.inf, "[)")


# The largest photon number the float64 param table holds exactly (every
# integer up to 2**53 is a float64; 2**53 + 1 is not).
FOCK_N_MAX = 2**53


@dataclass(frozen=True)
class FockN:
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", require_int("n", self.n, 0, FOCK_N_MAX))

    @property
    def mean_photons(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class Blinding:
    forced_click_prob: float

    def __post_init__(self):
        require_real("forced_click_prob", self.forced_click_prob, 0.0, 1.0, "[]")


LightField = Union[Vacuum, Coherent, Thermal, FockN, Blinding]


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of values as dtype; values itself if it is one."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _index_dtype(n_levels: int) -> np.dtype:
    """The narrowest unsigned integer type that indexes n_levels levels."""
    return np.dtype(np.uint8) if n_levels <= 256 else np.min_scalar_type(n_levels - 1)


def gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index] for an unsigned index.  A table of at most two entries
    takes a bitwise select of their bit patterns, several times faster than
    np.take and bit-equal."""
    if table.size > 2:
        return np.take(table, index)
    bits = table.view(f"u{table.itemsize}")
    out = np.empty(index.shape, dtype=table.dtype)
    out_bits = out.view(bits.dtype)
    np.multiply(index, bits[0] ^ bits[-1], out=out_bits)  # index is 0 or 1
    np.bitwise_xor(out_bits, bits[0], out=out_bits)
    return out


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a where mask (uint8 0 or 1) else b, for integer columns of one dtype."""
    out = np.bitwise_xor(a, b)
    out *= mask
    out ^= b
    return out


def _distinct(kind: np.ndarray, param: np.ndarray):
    """(kind, param, index of each given level among them) of the distinct
    levels given, params compared by bit pattern, in order of appearance."""
    first = {}
    index = [first.setdefault(key, len(first))
             for key in zip(kind.tolist(), param.view(np.uint64).tolist())]
    return (np.array([k for k, _ in first], dtype=np.uint8),
            np.array([bits for _, bits in first], dtype=np.uint64).view(np.float64),
            np.array(index, dtype=_index_dtype(len(first))))


def _relevel(level: np.ndarray, new: np.ndarray) -> np.ndarray:
    """new[level]; level itself when new renumbers nothing."""
    if level.dtype == new.dtype and np.array_equal(new, np.arange(new.size)):
        return level
    return gather(new, level)


_KINDS = {Vacuum: KIND_VACUUM, Coherent: KIND_COHERENT, Thermal: KIND_THERMAL, FockN: KIND_FOCK,
          Blinding: KIND_BLINDING}


def _level_of(field: LightField) -> tuple:
    """(kind, quarter, param) of a single field."""
    if type(field) not in _KINDS:
        raise TypeError(f"not a LightField: {field!r}")
    param = getattr(field, "forced_click_prob", getattr(field, "mean_photons", 0.0))
    return _KINDS[type(field)], getattr(field, "quarter", 0), param


class FieldArray:
    """One light field per pulse, as a table of levels and two columns.

    Per level, kind (uint8) is a KIND_* constant and param (float64) the
    mean photon number: the squared modulus of the coherent amplitude
    sqrt(param) * i**quarter, the thermal mean or the photon number (at most
    FOCK_N_MAX, so exact in float64), 0 for vacuum; for blinding light it is
    the forced-click probability.  Levels need not be distinct or in use.
    Per pulse, level indexes the table (uint8 up to 256 levels, the
    narrowest wider unsigned type beyond) and quarter (uint8) is the
    coherent phase in quarter turns, 0..3, exactly 0 for every other kind.

    Every array is read-only.  Transforms build a new FieldArray and share
    every array they leave unchanged.
    """

    __slots__ = ("level", "quarter", "kind", "param")

    def __init__(self, level, quarter, kind, param):
        self.kind = _read_only(kind, np.uint8)
        self.param = _read_only(param, np.float64)
        self.level = _read_only(level, _index_dtype(self.kind.size))
        self.quarter = _read_only(quarter, np.uint8)
        if self.level.ndim != 1 or self.quarter.shape != self.level.shape:
            raise ConfigError(f"level and quarter must be 1-d columns of one length, "
                              f"got shapes {self.level.shape} and {self.quarter.shape}")

    def __len__(self) -> int:
        return self.level.size

    @classmethod
    def from_columns(cls, kind, quarter, param) -> "FieldArray":
        """One (kind, quarter, param) per pulse; each distinct (kind, param)
        becomes a level."""
        kind, param, level = _distinct(np.asarray(kind, dtype=np.uint8),
                                       np.asarray(param, dtype=np.float64))
        return cls(level, quarter, kind, param)

    @classmethod
    def vacuum(cls, n: int) -> "FieldArray":
        return cls.uniform(Vacuum(), n)

    @classmethod
    def uniform(cls, field: LightField, n: int) -> "FieldArray":
        """Broadcast a single LightField to n pulses."""
        kind, quarter, param = _level_of(field)
        level = np.zeros(n, dtype=np.uint8)
        return cls(level, level if quarter == 0 else np.full(n, quarter, dtype=np.uint8),
                   [kind], [param])

    @classmethod
    def from_fields(cls, fields) -> "FieldArray":
        levels = [_level_of(f) for f in fields]
        return cls.from_columns(*(zip(*levels) if levels else ((), (), ())))

    def field(self, i: int) -> LightField:
        lv = self.level[i]
        k, p = int(self.kind[lv]), float(self.param[lv])
        if k == KIND_COHERENT:
            return Coherent(math.sqrt(p) * 1j ** int(self.quarter[i]))
        if k == KIND_FOCK:
            return FockN(int(p))
        return {KIND_THERMAL: Thermal, KIND_BLINDING: Blinding}.get(k, lambda _: Vacuum())(p)

    def copy(self) -> "FieldArray":
        return FieldArray(*(getattr(self, col).copy() for col in self.__slots__))

    @classmethod
    def where(cls, mask: np.ndarray, a: "FieldArray", b: "FieldArray") -> "FieldArray":
        """Elementwise select, a where mask else b: the level indices select
        into the union of the two tables, de-duplicated, a's levels first.
        The mask, a and b must have one length."""
        m = np.asarray(mask, dtype=bool).view(np.uint8)
        if m.shape != a.level.shape or b.level.shape != a.level.shape:
            raise ConfigError(f"mask, a and b must have one length, got a mask of shape "
                              f"{m.shape}, {len(a)} and {len(b)} pulses")
        kind, param, new = _distinct(np.concatenate([a.kind, b.kind]),
                                     np.concatenate([a.param, b.param]))
        level = _select(m, _relevel(a.level, new[:a.kind.size]), _relevel(b.level, new[a.kind.size:]))
        return cls(level, _select(m, a.quarter, b.quarter), kind, param)

    def attenuated(self, transmittance: float, rng: np.random.Generator | None = None) -> "FieldArray":
        """Loss channel: every mean photon number scales by T, definite
        photon numbers undergo binomial thinning (needs rng; one draw per
        pulse, in order, and each number drawn becomes a level), blinding
        light is unaffected.  Without thinning the pulse columns are shared."""
        require_real("transmittance", transmittance, 0.0, 1.0, "[]")
        t = float(transmittance)
        if t == 1.0:
            return self
        param = self.param * t
        kinds = self.kind.tolist()
        if KIND_BLINDING in kinds:
            param[self.kind == KIND_BLINDING] = self.param[self.kind == KIND_BLINDING]
        fock = self.kind == KIND_FOCK
        pulses = np.flatnonzero(gather(fock, self.level)) if KIND_FOCK in kinds else ()
        if len(pulses) == 0:
            return FieldArray(self.level, self.quarter, self.kind, param)
        if rng is None:
            raise ValueError("rng required to thin definite photon numbers through loss")
        # One draw per Fock pulse, in pulse order; each number drawn becomes
        # a level after the kept ones.
        numbers = np.where(fock, self.param, 0.0).astype(np.int64)
        drawn = rng.binomial(numbers.take(self.level.take(pulses)), t)
        photons, fock_level = np.unique(drawn, return_inverse=True)
        keep = np.flatnonzero(~fock)
        new = np.zeros(fock.size, dtype=_index_dtype(keep.size + photons.size))
        new[keep] = np.arange(keep.size)  # each kept level's new index
        level = gather(new, self.level)
        level[pulses] = keep.size + fock_level.ravel()
        return FieldArray(level, self.quarter,
                          np.concatenate([self.kind[keep], np.full(photons.size, KIND_FOCK)]),
                          np.concatenate([param[keep], photons]))

    def phase_shifted(self, quarters) -> "FieldArray":
        """Turn coherent phases by whole quarter turns: an integer (a 0-d
        array included) turns every pulse, an integer array of the train's
        shape each pulse by its own; each turn is taken mod 4, so -1 turns
        like 3.  Phase-invariant fields keep quarter 0.  The result shares
        the level, kind and param arrays; a train with no coherent level, as
        Alice's thermal output, is itself the result."""
        if np.ndim(quarters) == 0 and not isinstance(quarters, np.ndarray):
            quarters = require_int("quarters", quarters) & 3
        else:
            quarters = np.asarray(quarters)
            if quarters.dtype.kind not in "iu":
                raise ConfigError(f"quarters must be integers, got an array of {quarters.dtype}")
            if quarters.ndim != 0 and quarters.shape != self.level.shape:
                raise ConfigError(f"quarters must be one per pulse, shape {self.level.shape}, "
                                  f"got shape {quarters.shape}")
        kinds = self.kind.tolist()
        if KIND_COHERENT not in kinds:
            return self
        # (quarter + (quarters on coherent pulses, else 0)) & 3 in one new
        # array, since quarter is 0 off coherent pulses.
        q = np.asarray(quarters, dtype=np.uint8)
        if kinds.count(KIND_COHERENT) == len(kinds):
            turned = np.add(self.quarter, q)
        else:
            turned = gather((self.kind == KIND_COHERENT) * np.uint8(3), self.level)
            turned &= q
            turned += self.quarter
        turned &= 3
        return FieldArray(self.level, turned, self.kind, self.param)

    def noclick_factors(self, eta_eff: float) -> np.ndarray:
        """No-click probability per level at effective efficiency eta_eff,
        excluding dark counts; gather it by level for the pulses.

        Coherent: exp(-eta mu); thermal: 1/(1 + eta mu); photon number n:
        (1 - eta)^n; vacuum: 1.  Blinding light returns 1 - forced_click_prob
        regardless of eta, so at eta 0 it alone has a factor below 1.
        Factors for independent fields on one detector multiply.
        """
        require_real("eta_eff", eta_eff, 0.0, 1.0, "[]")
        k, mu = self.kind, self.param
        # exp(-eta mu_coh) / (1 + eta mu_th), each mean masked to exactly 0 off
        # its kind: each factor is exactly 1 there, as exp's is with no coherent level.
        kinds = k.tolist()
        out = np.exp(-eta_eff * ((k == KIND_COHERENT) * mu)) if KIND_COHERENT in kinds else np.ones(k.size)
        out /= 1.0 + eta_eff * ((k == KIND_THERMAL) * mu)
        if KIND_FOCK in kinds:
            out[k == KIND_FOCK] = (1.0 - eta_eff) ** mu[k == KIND_FOCK]
        if KIND_BLINDING in kinds:
            out[k == KIND_BLINDING] = 1.0 - mu[k == KIND_BLINDING]
        return out

    def few_photon_probs(self) -> tuple[np.ndarray, np.ndarray]:
        """(P(N = 0), P(N = 1)) per level, for the photon number N an ideal
        counter registers: Poisson on coherent light (and vacuum),
        Bose-Einstein on thermal light, n itself on a definite photon
        number; blinding light registers many photons, so both are 0."""
        k, mu = self.kind, self.param
        zero = np.exp(-mu)
        one = mu * zero
        thermal, fock, blind = k == KIND_THERMAL, k == KIND_FOCK, k == KIND_BLINDING
        zero[thermal] = 1.0 / (1.0 + mu[thermal])
        one[thermal] = zero[thermal] * mu[thermal] / (1.0 + mu[thermal])
        zero[fock], one[fock] = mu[fock] == 0.0, mu[fock] == 1.0
        zero[blind] = one[blind] = 0.0
        return zero, one


def pair_table(size_a: int, col_a: np.ndarray, size_b: int, col_b: np.ndarray):
    """(a, b, each element's index among these pairs) for two index columns
    over size_a and size_b values: all size_a x size_b pairs, row-major, the
    index col_a * size_b + col_b in the narrowest unsigned type that holds
    it; or, when those pairs would outnumber the elements, one pair per
    element, (col_a, col_b, arange)."""
    n = col_a.size
    if size_a * size_b > n:
        return col_a, col_b, np.arange(n, dtype=_index_dtype(n))
    a, b = np.divmod(np.arange(size_a * size_b), size_b)
    # col_a is all 0 when size_a is 1, and size_b may then be one past the
    # index type's maximum (256 entries in uint8).
    index = np.multiply(col_a, size_b if size_a > 1 else 0, dtype=_index_dtype(a.size))
    index += col_b
    return a, b, index


def level_pairs(a: FieldArray, b: FieldArray):
    """(levels of a, levels of b, each pulse's index among these pairs):
    the pairs (l, l) and the level column when a and b hold equal level
    columns, as both outputs of one mode swap of two single-level trains
    do, else pair_table's over the two level columns."""
    if a.level is b.level or np.array_equal(a.level, b.level):
        pairs = np.arange(min(a.kind.size, b.kind.size))
        return pairs, pairs, a.level
    return pair_table(a.kind.size, a.level, b.kind.size, b.level)
