import numpy as np
import pytest

from mfrl.errors import ConsistencyError, InputDomainError
from mfrl.metric import (
    MetricOrder,
    alpha_rate,
    metric_weights,
    rho,
    rho_sq,
    rho_sq_grad,
    rho_sq_hess,
    rho_star,
    truncation_tail_bound,
)
from mfrl.torus import TWO_PI, EmpiricalMeasure, TorusContext

CTX = TorusContext(1, 64)


def random_measure(rng, n):
    return EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1)))


def series_oracle_delta_pair(k, trunc):
    """Direct series for rho_{-k}^2(delta_0, delta_pi): odd modes carry 4/(2 pi)."""
    ls = np.arange(1, trunc + 1)
    odd = ls[ls % 2 == 1]
    return float((4.0 / TWO_PI) * 2.0 * np.sum((1.0 + odd**2.0) ** (-float(k))))


def test_delta_pair_regression_value():
    d0 = EmpiricalMeasure(np.zeros((1, 1)))
    dpi = EmpiricalMeasure(np.full((1, 1), np.pi))
    val = rho_sq(d0, dpi, MetricOrder(3), CTX)
    assert val == pytest.approx(series_oracle_delta_pair(3, 64), abs=1e-10)
    # frozen regression value
    assert val == pytest.approx(0.1605143083911127, abs=1e-12)


def test_symmetry_and_triangle():
    rng = np.random.default_rng(2)
    order = MetricOrder(CTX.k_star)
    for _ in range(200):
        mu, nu, la = (random_measure(rng, int(rng.integers(1, 17))) for _ in range(3))
        d1 = rho(mu, nu, order, CTX)
        assert d1 == rho(nu, mu, order, CTX)
        assert d1 <= rho(mu, la, order, CTX) + rho(la, nu, order, CTX) + 1e-9


def test_identity_of_indiscernibles_on_support():
    mu = EmpiricalMeasure(np.array([[0.3], [4.0]]))
    assert rho_star(mu, mu, CTX) == 0.0


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    mu = random_measure(rng, 5)
    nu_atoms = rng.uniform(0, TWO_PI, (4, 1))
    nu = EmpiricalMeasure(nu_atoms)
    order = MetricOrder(CTX.k_star)
    j = 2
    for h in (1e-3, 1e-4):
        up = nu_atoms.copy()
        up[j, 0] += h
        dn = nu_atoms.copy()
        dn[j, 0] -= h
        fd = (
            rho_sq(mu, EmpiricalMeasure(up), order, CTX)
            - rho_sq(mu, EmpiricalMeasure(dn), order, CTX)
        ) / (2 * h)
        grad = rho_sq_grad(mu, nu, nu_atoms[j : j + 1], CTX)[0, 0] / nu.N
        assert fd == pytest.approx(grad, rel=10 * h)


def test_grad_vanishes_at_equal_measures():
    mu = EmpiricalMeasure(np.array([[0.5], [2.5], [4.5]]))
    g = rho_sq_grad(mu, mu, mu.atoms, CTX)
    assert np.allclose(g, 0.0, atol=1e-14)


def test_hess_vanishes_at_equal_measures():
    mu = EmpiricalMeasure(np.array([[0.5], [2.5]]))
    pairs = np.array([[[0.5], [2.5]], [[1.0], [1.0]]])
    h = rho_sq_hess(mu, mu, pairs, CTX)
    assert np.allclose(h, 0.0, atol=1e-14)


def test_derivative_bounds_hold_on_random_pairs():
    # |grad|/2 <= c1 rho_star and |hess|/2 <= c2 rho_star
    rng = np.random.default_rng(4)
    mw = metric_weights(CTX, CTX.k_star)
    for _ in range(100):
        mu = random_measure(rng, int(rng.integers(1, 9)))
        nu = random_measure(rng, int(rng.integers(1, 9)))
        r = rho_star(mu, nu, CTX)
        pts = rng.uniform(0, TWO_PI, (8, 1))
        g = rho_sq_grad(mu, nu, pts, CTX)
        assert np.max(np.abs(g)) / 2.0 <= mw.c1 * r + 1e-12
        pairs = rng.uniform(0, TWO_PI, (8, 2, 1))
        hs = rho_sq_hess(mu, nu, pairs, CTX)
        assert np.max(np.abs(hs)) / 2.0 <= mw.c2 * r + 1e-12


def test_weights_constants_monotone_in_truncation():
    c1_small = metric_weights(TorusContext(1, 16), 3).c1
    c1_big = metric_weights(TorusContext(1, 64), 3).c1
    assert c1_big >= c1_small
    assert c1_big == pytest.approx(c1_small, rel=1e-3)  # tail is tiny at k=3


def test_alpha_rate_by_dimension():
    assert alpha_rate(16, 1) == pytest.approx(0.25)
    assert alpha_rate(16, 2) == pytest.approx(0.25 * np.log(16))
    assert alpha_rate(27, 3) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InputDomainError):
        alpha_rate(0, 1)


def test_truncation_tail_decreases_with_trunc():
    t1 = truncation_tail_bound(TorusContext(1, 16), 3)
    t2 = truncation_tail_bound(TorusContext(1, 64), 3)
    assert 0 < t2 < t1 < 1e-3


def test_metric_order_validation():
    with pytest.raises(InputDomainError):
        MetricOrder(0)
