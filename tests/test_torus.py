import json

import numpy as np
import pytest

from mfrl.errors import InputDomainError, ResourceBudgetError, UnsupportedDimensionError
from mfrl.torus import (
    TWO_PI,
    EmpiricalMeasure,
    FourierVector,
    GridDensity,
    TorusContext,
    canonicalize,
    fourier_coefficients,
    measure_from_json,
    measure_to_json,
    sample_iid,
    torus_geodesic,
    w1_circle,
    w1_circle_density,
    w1_lp,
)


def test_canonicalize_wraps_into_fundamental_domain():
    x = np.array([[-0.5], [TWO_PI + 0.25], [3.0]])
    out = canonicalize(x)
    assert np.all((out >= 0.0) & (out < TWO_PI))
    assert np.allclose(out[2], 3.0)
    assert np.allclose(out[0], TWO_PI - 0.5)


def test_canonicalize_rejects_nonfinite():
    with pytest.raises(InputDomainError):
        canonicalize(np.array([[np.nan]]))


def test_geodesic_antipodal_and_symmetry():
    assert torus_geodesic(np.array([0.0]), np.array([np.pi])) == pytest.approx(np.pi)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, TWO_PI, (2, 50, 1))
    assert np.allclose(torus_geodesic(x, y), torus_geodesic(y, x))
    assert np.all(torus_geodesic(x, y) <= np.pi + 1e-12)


def test_context_modes_and_kstar():
    ctx = TorusContext(1, 8)
    assert ctx.k_star == 3
    assert ctx.modes.shape == (17, 1)
    assert TorusContext(2, 4).k_star == 4


def test_fourier_delta_at_origin():
    # all coefficients of a point mass at 0 equal (2 pi)^{-1/2}
    ctx = TorusContext(1, 16)
    mu = EmpiricalMeasure(np.zeros((1, 1)))
    fv = fourier_coefficients(mu, ctx)
    assert np.allclose(fv.coeffs, TWO_PI ** -0.5)


def test_fourier_grid_matches_empirical_in_the_limit():
    ctx = TorusContext(1, 8)
    m = 512
    nodes = np.arange(m) * (TWO_PI / m)
    dens = GridDensity(1.0 + 0.5 * np.cos(nodes))
    fv = fourier_coefficients(dens, ctx)
    # density (1 + 0.5 cos x)/(2 pi): mode 1 coefficient is (2 pi)^{-1/2}/4
    idx = {int(l): i for i, l in enumerate(ctx.modes[:, 0])}
    expected = 0.25 * TWO_PI**-0.5
    assert fv.coeffs[idx[1]] == pytest.approx(expected, rel=1e-10)
    assert fv.coeffs[idx[0]] == pytest.approx(TWO_PI**-0.5, rel=1e-12)


@pytest.mark.parametrize("d, n, trunc", [(1, 1, 64), (1, 16, 64), (1, 1024, 64), (2, 16, 12), (2, 200, 12)])
def test_fourier_coefficients_match_direct_exponential_sum(d, n, trunc):
    ctx = TorusContext(d, trunc)
    atoms = np.random.default_rng(n).uniform(0.0, TWO_PI, (n, d))
    direct = TWO_PI ** (-d / 2) * np.exp(-1j * (ctx.modes @ atoms.T)).mean(axis=1)
    got = fourier_coefficients(EmpiricalMeasure(atoms), ctx).coeffs
    assert np.max(np.abs(got - direct)) < 1e-13


def test_grid_fourier_coefficients_match_direct_exponential_sum():
    ctx = TorusContext(1, 64)
    rng = np.random.default_rng(3)
    dens = GridDensity(rng.uniform(0.1, 1.0, 64))
    phases = np.exp(-1j * np.outer(ctx.modes[:, 0], dens.nodes))
    direct = TWO_PI**-0.5 * (phases @ dens.values) * (TWO_PI / dens.m)
    got = fourier_coefficients(dens, ctx).coeffs
    assert np.max(np.abs(got - direct)) < 1e-13


def test_grid_density_normalizes_mass():
    vals = np.abs(np.random.default_rng(1).normal(size=64)) + 0.1
    dens = GridDensity(vals)
    assert dens.mass == pytest.approx(1.0)


def test_sample_iid_concentrated_density():
    m = 256
    vals = np.zeros(m)
    vals[100] = 1.0
    dens = GridDensity(vals)
    hat = sample_iid(dens, 5, seed=3)
    node = 100 * TWO_PI / m
    assert np.all(np.abs(hat.atoms[:, 0] - node) <= TWO_PI / m + 1e-12)


def test_w1_circle_identity_and_antipodal():
    mu = EmpiricalMeasure(np.array([[0.1], [2.0], [4.5]]))
    assert w1_circle(mu, mu) == pytest.approx(0.0, abs=1e-14)
    d0 = EmpiricalMeasure(np.array([[0.0]]))
    dpi = EmpiricalMeasure(np.array([[np.pi]]))
    assert w1_circle(d0, dpi) == pytest.approx(np.pi)


def test_w1_circle_translation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1)))
        nu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1)))
        s = float(rng.uniform(0, TWO_PI))
        d1 = w1_circle(mu, nu)
        d2 = w1_circle(mu.shifted(s), nu.shifted(s))
        assert d1 == pytest.approx(d2, abs=1e-10)


def test_w1_circle_agrees_with_lp():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1)))
        nu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1)))
        assert w1_circle(mu, nu) == pytest.approx(w1_lp(mu, nu), abs=1e-7)


def test_w1_lp_budget_guard():
    mu = EmpiricalMeasure(np.zeros((150, 1)))
    nu = EmpiricalMeasure(np.ones((150, 1)))
    with pytest.raises(ResourceBudgetError):
        w1_lp(mu, nu)


def test_w1_density_against_lp_on_quantile_atoms():
    m = 64
    nodes = np.arange(m) * (TWO_PI / m)
    dens = GridDensity(1.0 + 0.4 * np.sin(nodes))
    rng = np.random.default_rng(5)
    mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (6, 1)))
    # equal-weight quantile discretization of the density (W1 error O(1/M))
    big = 1000
    cum = np.concatenate(([0.0], np.cumsum(dens.values) * (TWO_PI / m)))
    grid = np.concatenate((nodes, [TWO_PI]))
    q = np.interp((np.arange(big) + 0.5) / big, cum / cum[-1], grid)
    ref = w1_lp(mu, EmpiricalMeasure(q[:, None]))
    assert w1_circle_density(mu, dens) == pytest.approx(ref, abs=2 * TWO_PI / big + 1e-3)


def test_w1_density_dimension_guard():
    dens = GridDensity(np.ones(32))
    with pytest.raises(UnsupportedDimensionError):
        w1_circle_density(EmpiricalMeasure(np.zeros((2, 2))), dens)


def test_measure_json_roundtrip():
    mu = EmpiricalMeasure(np.array([[0.5], [1.25]]))
    back = measure_from_json(measure_to_json(mu))
    assert isinstance(back, EmpiricalMeasure)
    assert np.allclose(back.atoms, mu.atoms)

    dens = GridDensity(np.ones(16))
    back2 = measure_from_json(measure_to_json(dens))
    assert isinstance(back2, GridDensity)
    assert np.allclose(back2.values, dens.values)


def test_measure_json_rejects_unknown_kind():
    with pytest.raises(InputDomainError):
        measure_from_json(json.dumps({"kind": "mystery"}))
