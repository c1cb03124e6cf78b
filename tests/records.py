"""Pulse-by-pulse LightFields to and from a FieldArray, and mode secrets
from per-pulse bits, for tests.

The library carries light only as a FieldArray: a level table and two
per-pulse columns.  A test that states a train one field per pulse, or reads
one pulse back as a LightField, goes through these helpers.  They invert
light's one map of field classes to kind codes, rather than copy it, and
de-duplicate levels with light's own rule (params by bit pattern).  The
library holds a mode secret packed, as Alice draws it; a test that states
one bit per pulse packs it with secret_of.
"""

import math

import numpy as np

from ctqkd import light
from ctqkd.light import Coherent, FieldArray, FockN, Vacuum
from ctqkd.protocol import ModeSecret

_CLASSES = {code: cls for cls, code in light._KINDS.items()}


def from_columns(kind, quarter, param) -> FieldArray:
    """One (kind, quarter, param) per pulse; each distinct (kind, param)
    becomes a level, in order of appearance."""
    kind, param, level = light._distinct(np.asarray(kind, dtype=np.uint8),
                                         np.asarray(param, dtype=np.float64))
    return FieldArray(level, quarter, kind, param)


def secret_of(bits) -> ModeSecret:
    """The mode secret of one bit per pulse (nonzero is 1), packed."""
    bits = np.asarray(bits, dtype=np.uint8)
    return ModeSecret(np.packbits(bits, bitorder="little"), bits.size)


def from_fields(fields) -> FieldArray:
    """One LightField per pulse."""
    levels = [light._level_of(f) for f in fields]
    return from_columns(*(zip(*levels) if levels else ((), (), ())))


def field_at(fa: FieldArray, i: int):
    """The LightField of pulse i."""
    level = fa.level[i]
    cls, param = _CLASSES[int(fa.kind[level])], float(fa.param[level])
    if cls is Coherent:
        return Coherent(math.sqrt(param) * 1j ** int(fa.quarter[i]))
    if cls is FockN:
        return FockN(int(param))
    return Vacuum() if cls is Vacuum else cls(param)
