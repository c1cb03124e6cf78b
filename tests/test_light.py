"""LightField variants and the vectorized FieldArray carrier."""

import cmath
import math

import numpy as np
import pytest

from ctqkd.light import (
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_FOCK,
    KIND_THERMAL,
    KIND_VACUUM,
    Blinding,
    Coherent,
    FieldArray,
    FockN,
    Thermal,
    Vacuum,
)
from ctqkd.detector import click_prob


def _attenuated(field, transmittance, rng=None):
    return FieldArray.uniform(field, 1).attenuated(transmittance, rng).field(0)


def test_field_validation():
    with pytest.raises(ValueError):
        Thermal(-0.1)
    with pytest.raises(ValueError):
        FockN(-1)
    with pytest.raises(ValueError):
        Blinding(1.5)


def test_attenuate_coherent_scales_amplitude():
    out = _attenuated(Coherent(math.sqrt(0.2)), 0.5)
    assert isinstance(out, Coherent)
    assert out.mean_photons == pytest.approx(0.1, abs=1e-12)


def test_attenuate_thermal_scales_mean():
    out = _attenuated(Thermal(0.2), 0.5)
    assert out == Thermal(0.1)


def test_attenuate_identity_and_blinding():
    assert _attenuated(Blinding(0.9), 0.3) == Blinding(0.9)
    f = Coherent(1.0 + 0.5j)
    assert _attenuated(f, 1.0) == f


def test_attenuate_fock_thins_binomially():
    rng = np.random.default_rng(4)
    out = FieldArray.uniform(FockN(5), 4000).attenuated(0.6, rng)
    assert np.all(out.kind == KIND_FOCK)
    outs = out.param
    assert np.all(outs == np.round(outs))
    assert min(outs) >= 0 and max(outs) <= 5
    assert np.mean(outs) == pytest.approx(3.0, abs=0.1)


def test_attenuate_fock_requires_rng():
    with pytest.raises(ValueError):
        _attenuated(FockN(2), 0.5)


def test_phase_shift_field():
    fa = FieldArray.from_fields([Coherent(2.0), Thermal(0.3), FockN(2)])
    out = fa.phase_shifted(cmath.exp(1j * math.pi))
    assert out.field(0).amplitude == pytest.approx(-2.0, abs=1e-12)
    turned = fa.phase_shifted(cmath.exp(1j))
    assert turned.field(1) == Thermal(0.3)
    assert turned.field(2) == FockN(2)


def test_click_prob_per_kind():
    eta, pd = 0.4, 0.01
    fa = FieldArray.from_fields([Vacuum(), Coherent(1.0), Thermal(0.5), FockN(3)])
    p = click_prob(pd, fa.noclick_factors(eta))
    assert p[0] == pytest.approx(pd, abs=1e-15)
    assert p[1] == pytest.approx(1 - (1 - pd) * math.exp(-eta), abs=1e-12)
    assert p[2] == pytest.approx(1 - (1 - pd) / (1 + eta * 0.5), abs=1e-12)
    assert p[3] == pytest.approx(1 - (1 - pd) * (1 - eta) ** 3, abs=1e-12)


def test_blinding_click_ignores_efficiency():
    blinding = FieldArray.uniform(Blinding(0.95), 1)
    for eta in (0.0, 0.3, 1.0):
        assert click_prob(0.0, blinding.noclick_factors(eta))[0] == pytest.approx(0.95, abs=1e-12)


def test_field_array_roundtrip():
    fields = [Vacuum(), Coherent(1j), Thermal(0.2), FockN(4), Blinding(0.8)]
    fa = FieldArray.from_fields(fields)
    assert len(fa) == 5
    assert [fa.field(i) for i in range(5)] == fields


def test_field_array_where():
    a = FieldArray.uniform(Coherent(1.0), 4)
    b = FieldArray.uniform(Thermal(0.5), 4)
    mask = np.array([True, False, True, False])
    sel = FieldArray.where(mask, a, b)
    assert sel.field(0) == Coherent(1.0)
    assert sel.field(1) == Thermal(0.5)


def test_mean_photons_per_kind():
    fa = FieldArray.from_fields([Coherent(2.0), Thermal(0.7), FockN(3), Vacuum(), Blinding(1.0)])
    means = fa.mean_photons()
    assert means[0] == pytest.approx(4.0)
    assert means[1] == pytest.approx(0.7)
    assert means[2] == pytest.approx(3.0)
    assert means[3] == 0.0
    assert math.isinf(means[4])


def test_noclick_factor_bounds():
    with pytest.raises(ValueError):
        FieldArray.uniform(Vacuum(), 1).noclick_factors(1.5)


def _mixture(n, kinds, seed=0):
    """Random mixture of the given kinds, one per pulse, with random content."""
    rng = np.random.default_rng(seed)
    kind = rng.choice(np.asarray(kinds, dtype=np.uint8), n)
    amp = np.where(kind == KIND_COHERENT, rng.normal(size=n) + 1j * rng.normal(size=n), 0j)
    param = np.select(
        [kind == KIND_THERMAL, kind == KIND_FOCK, kind == KIND_BLINDING],
        [rng.uniform(0.0, 3.0, n), rng.integers(0, 8, n).astype(float), rng.uniform(0.0, 1.0, n)],
    )
    return FieldArray(kind, amp, param)


ALL_KINDS = (KIND_VACUUM, KIND_COHERENT, KIND_THERMAL, KIND_FOCK, KIND_BLINDING)


def test_field_array_has_three_columns():
    assert FieldArray.__slots__ == ("kind", "amp", "param")


@pytest.mark.parametrize("column", FieldArray.__slots__)
def test_field_array_columns_are_write_once(column):
    fa = _mixture(10, ALL_KINDS)
    with pytest.raises(ValueError):
        getattr(fa, column)[0] = 1
    for derived in (fa.attenuated(0.5, np.random.default_rng(1)), fa.phase_shifted(1j),
                    FieldArray.where(fa.kind > 1, fa, FieldArray.vacuum(10)), fa.copy()):
        with pytest.raises(ValueError):
            getattr(derived, column)[0] = 1


def test_field_array_does_not_freeze_the_callers_array():
    amps = np.ones(4, dtype=np.complex128)
    FieldArray.coherent(amps)
    amps[0] = 2.0


def test_zero_invariants_hold_after_transforms():
    fa = _mixture(2000, ALL_KINDS)
    for out in (fa, fa.attenuated(0.3, np.random.default_rng(2)), fa.phase_shifted(-1j)):
        assert np.all(out.amp[out.kind != KIND_COHERENT] == 0)
        assert np.all(out.param[out.kind <= KIND_COHERENT] == 0)


def test_transforms_leave_input_unchanged_and_share_columns():
    fa = _mixture(2000, ALL_KINDS)
    before = [getattr(fa, c).copy() for c in FieldArray.__slots__]
    lossy = fa.attenuated(0.4, np.random.default_rng(3))
    shifted = fa.phase_shifted(np.exp(1j * np.linspace(0, 6, 2000)))
    for col, old in zip(FieldArray.__slots__, before):
        assert np.array_equal(getattr(fa, col), old)
        assert getattr(fa, col).tobytes() == old.tobytes()
    assert np.shares_memory(lossy.kind, fa.kind)
    assert np.shares_memory(shifted.kind, fa.kind)
    assert np.shares_memory(shifted.param, fa.param)
    assert not np.shares_memory(shifted.amp, fa.amp)


def _masked_noclick(fa, eta):
    """Per-kind reference: each formula applied only where its kind sits."""
    out = np.ones(len(fa))
    coh, th = fa.kind == KIND_COHERENT, fa.kind == KIND_THERMAL
    out[coh] = np.exp(-eta * np.abs(fa.amp[coh]) ** 2)
    out[th] = 1.0 / (1.0 + eta * fa.param[th])
    return out


@pytest.mark.parametrize("kinds", [(KIND_VACUUM, KIND_COHERENT, KIND_THERMAL), (KIND_COHERENT,),
                                   (KIND_THERMAL,), (KIND_VACUUM,), (KIND_COHERENT, KIND_THERMAL)])
@pytest.mark.parametrize("eta", [0.0, 0.0125, 0.1, 0.37, 1.0])
def test_whole_array_noclick_equals_masked_formulas_bitwise(kinds, eta):
    fa = _mixture(5000, kinds, seed=len(kinds))
    assert fa.max_kind() <= KIND_THERMAL
    got = fa.noclick_factors(eta)
    assert got.tobytes() == _masked_noclick(fa, eta).tobytes()
    lossy = fa.attenuated(0.81)
    assert lossy.noclick_factors(eta).tobytes() == _masked_noclick(lossy, eta).tobytes()


def test_fock_thinning_and_blinding_on_mixed_arrays():
    n = 20000
    five = FieldArray.from_fields([FockN(5), Blinding(0.8), Coherent(2.0), Thermal(0.5), Vacuum()])
    fa = FieldArray(*(np.tile(getattr(five, col), n // 5) for col in FieldArray.__slots__))
    out = fa.attenuated(0.6, np.random.default_rng(5))
    fock, blind = out.kind == KIND_FOCK, out.kind == KIND_BLINDING
    photons = out.param[fock]
    assert np.all(photons == np.round(photons)) and photons.min() >= 0 and photons.max() <= 5
    assert np.mean(photons) == pytest.approx(3.0, abs=0.05)
    assert np.all(out.param[blind] == 0.8)
    assert np.all(out.param[out.kind == KIND_THERMAL] == 0.5 * 0.6)
    assert np.all(out.amp[out.kind == KIND_COHERENT] == 2.0 * np.sqrt(0.6))

    eta = 0.3
    f = out.noclick_factors(eta)
    assert np.array_equal(f[fock], (1.0 - eta) ** photons)
    assert np.all(f[blind] == 1.0 - 0.8)
    rest = ~(fock | blind)
    sub = FieldArray(out.kind[rest], out.amp[rest], out.param[rest])
    assert f[rest].tobytes() == _masked_noclick(sub, eta).tobytes()
    with pytest.raises(ValueError):
        fa.attenuated(0.6)


def test_empty_field_array():
    fa = FieldArray.vacuum(0)
    assert fa.max_kind() == 0
    assert fa.noclick_factors(0.5).size == 0
    assert len(fa.attenuated(0.5)) == 0
