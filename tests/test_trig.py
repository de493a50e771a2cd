import numpy as np
import pytest

from mfrl.errors import InputDomainError
from mfrl.torus import TWO_PI, GridDensity, TorusContext, fourier_coefficients
from mfrl.trig import (
    ZERO_POLY,
    TrigPoly,
    convolve,
    harmonics,
    mean_field_eval,
)


def atom_moments(atoms, deg):
    """The trig moments of the empirical measure of ``atoms``: harmonic means."""
    c, s = harmonics(atoms, deg)
    return c.mean(axis=-1), s.mean(axis=-1)


def test_evaluation_matches_direct_sum():
    p = TrigPoly(0.5, [1.0, 0.0, -0.25], [0.0, 2.0])
    x = np.linspace(0, TWO_PI, 17)
    direct = 0.5 + np.cos(x) - 0.25 * np.cos(3 * x) + 2.0 * np.sin(2 * x)
    assert np.allclose(p(x), direct)


def test_derivative_spot_check():
    p = TrigPoly(0.3, [1.0], [0.5])
    dp = p.derivative()
    x = np.linspace(0, TWO_PI, 33)
    assert np.allclose(dp(x), -np.sin(x) + 0.5 * np.cos(x))
    h = 1e-6
    assert np.allclose(dp(x), (p(x + h) - p(x - h)) / (2 * h), atol=1e-8)


def test_sup_norm():
    p = TrigPoly(0.0, [1.0])
    assert p.sup_norm() == pytest.approx(1.0, abs=1e-6)


def test_zero_poly_flag():
    assert ZERO_POLY.is_zero
    assert not TrigPoly(0.0, [0.0], [1e-12]).is_zero


def test_rejects_nonfinite_coefficients():
    with pytest.raises(InputDomainError):
        TrigPoly(0.0, [np.inf])


def test_moments_of_point_mass():
    c, s = atom_moments(np.full(3, 1.0), 4)
    k = np.arange(1, 5)
    assert np.allclose(c, np.cos(k))
    assert np.allclose(s, np.sin(k))


def test_moments_grid_vs_empirical():
    m = 1024
    nodes = np.arange(m) * (TWO_PI / m)
    dens = GridDensity(1.0 + 0.3 * np.cos(2 * nodes))
    # a density's moments are its Fourier coefficients times sqrt(2 pi):
    # int cos(k x) dmu = Re m_k, int sin(k x) dmu = -Im m_k
    m = np.sqrt(TWO_PI) * fourier_coefficients(dens, TorusContext(1, 3))[4:]
    c, s = m.real, -m.imag
    assert c[1] == pytest.approx(0.15, abs=1e-10)
    assert abs(c[0]) < 1e-10 and abs(s[1]) < 1e-10


def test_convolution_against_quadrature():
    kernel = TrigPoly(0.2, [0.7], [0.0, -0.4])
    rng = np.random.default_rng(3)
    atoms = rng.uniform(0, TWO_PI, 6)
    c, s = atom_moments(atoms, kernel.degree)
    for x in rng.uniform(0, TWO_PI, 5):
        direct = np.mean(kernel(x - atoms))
        conv = convolve(kernel, c, s, *harmonics(np.array(x), kernel.degree))
        assert conv == pytest.approx(direct, abs=1e-12)


def test_mean_field_eval_matches_pairwise_sum():
    kernel = TrigPoly(0.0, [0.5], [0.3])
    rng = np.random.default_rng(8)
    x = rng.uniform(0, TWO_PI, (4, 7))  # four configurations of 7 particles
    out = mean_field_eval(kernel, x)
    for b in range(4):
        for i in range(7):
            direct = np.mean(kernel(x[b, i] - x[b]))
            assert out[b, i] == pytest.approx(direct, abs=1e-12)


def test_serialization_roundtrip_and_unknown_fields():
    p = TrigPoly(0.1, [1.0, 2.0], [3.0])
    q = TrigPoly.from_dict(p.to_dict())
    assert q.const == p.const
    assert np.allclose(q.cos_coeffs, p.cos_coeffs)
    with pytest.raises(InputDomainError):
        TrigPoly.from_dict({"const": 0.0, "tan": [1.0]})
