import numpy as np
import pytest

from mfrl.errors import InputDomainError
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, GridDensity, TorusContext
from mfrl.trig import TrigPoly, convolve, harmonics


def grid_moments(rho, deg):
    """Rectangle-rule moments int cos(kx), sin(kx) rho dx, k = 1..deg, of
    densities on a uniform mesh of rho.shape[0] nodes, one per column."""
    dx = TWO_PI / rho.shape[0]
    c, s = harmonics(np.arange(rho.shape[0]) * dx, deg)
    return (c @ rho) * dx, (s @ rho) * dx


def linear_ham():
    return HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4], [0.2]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3]),
    )


def test_family_validation():
    with pytest.raises(InputDomainError):
        HamiltonianSpec("cubic")
    with pytest.raises(InputDomainError):
        HamiltonianSpec("zero", drift_kernel=TrigPoly(0.0, [1.0]))
    with pytest.raises(InputDomainError):
        HamiltonianSpec("linear", lam=0.5)
    assert HamiltonianSpec("quadratic", lam=1.0).is_linear is False
    assert linear_ham().is_linear


def test_terminal_values_on_measures():
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    # mean cos = 0, mean sin(2x) = 0
    assert term.value_atoms(np.array([0.0, np.pi])) == pytest.approx(0.0, abs=1e-14)
    expected = np.cos(0.5) + np.sin(0.5) ** 2
    assert term.value_atoms(np.array([0.5])) == pytest.approx(expected)


def test_terminal_grid_matches_empirical_limit():
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.2))
    m = 2048
    nodes = np.arange(m) * (TWO_PI / m)
    dens = GridDensity(1.0 + 0.5 * np.cos(nodes))
    # int cos dmu = 0.25 for density (1 + 0.5 cos)/2pi
    value = term.value_moments(*grid_moments(dens.values, term.degree))
    assert value == pytest.approx(0.25 + 0.04, abs=1e-10)


def test_terminal_batched_atoms():
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]))
    configs = np.random.default_rng(0).uniform(0, TWO_PI, (5, 3))
    vals = term.value_atoms(configs)
    assert vals.shape == (5,)
    assert np.allclose(vals, np.cos(configs).mean(axis=1))


def _poly(p, x):
    """p(x) written out with numpy's own cos and sin."""
    out = np.full_like(x, p.const)
    for k, (a, b) in enumerate(zip(p.cos_coeffs, p.sin_coeffs), start=1):
        out += a * np.cos(k * x) + b * np.sin(k * x)
    return out


QUAD_TERMINAL = TerminalSpec(
    g=TrigPoly(0.3, [1.0, -0.2], [0.5]), h=TrigPoly(-0.1, [0.0, 0.4], [0.7, 0.2])
)


def test_terminal_moments_match_quadrature_on_atoms():
    term = QUAD_TERMINAL
    configs = np.random.default_rng(4).uniform(0, TWO_PI, (6, 5))
    direct = _poly(term.g, configs).mean(axis=1) + _poly(term.h, configs).mean(axis=1) ** 2
    assert np.max(np.abs(term.value_atoms(configs) - direct)) < 1e-13
    assert term.value_atoms(configs[0]) == pytest.approx(direct[0], abs=1e-13)


def test_terminal_moments_match_quadrature_on_densities():
    term = QUAD_TERMINAL
    m = 64
    dx = TWO_PI / m
    nodes = np.arange(m) * dx
    rho = np.random.default_rng(5).uniform(0.5, 1.5, (m, 3))
    rho /= rho.sum(axis=0) * dx
    direct = (_poly(term.g, nodes) @ rho) * dx + ((_poly(term.h, nodes) @ rho) * dx) ** 2
    batch = term.value_moments(*grid_moments(rho, term.degree))
    assert np.max(np.abs(batch - direct)) < 1e-13
    for j in range(3):
        one = term.value_moments(*grid_moments(GridDensity(rho[:, j]).values, term.degree))
        assert one == pytest.approx(direct[j], abs=1e-13)


@pytest.mark.parametrize("var", [0.05, 0.6, 3.0])
def test_shift_average_matches_gauss_hermite(var):
    # E_z G(tau_z mu), z ~ N(0, var): 64-node Gauss-Hermite over the moments
    # of the shifted measures, e^{ikz} (C_k + i S_k)
    term = QUAD_TERMINAL
    configs = np.random.default_rng(6).uniform(0, TWO_PI, (4, 7))
    cm, sm = (h.mean(axis=-1) for h in harmonics(configs, term.degree))
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    k = np.arange(1, term.degree + 1)[:, None]
    average = 0.0
    for x, w in zip(nodes, weights):
        cz, sz = np.cos(k * np.sqrt(2.0 * var) * x), np.sin(k * np.sqrt(2.0 * var) * x)
        average = average + w / np.sqrt(np.pi) * term.value_moments(
            cz * cm - sz * sm, sz * cm + cz * sm
        )
    assert np.max(np.abs(term.value_moments(cm, sm, var) - average)) < 1e-12


def test_problem_validation():
    ctx = TorusContext(1, 2)
    with pytest.raises(InputDomainError):
        ProblemSpec(linear_ham(), TerminalSpec(), a=-0.1, T=1.0)
    with pytest.raises(InputDomainError):
        ProblemSpec(linear_ham(), TerminalSpec(), T=0.0)
    with pytest.raises(InputDomainError):
        # cost kernel degree 2 exceeds truncation 1
        ProblemSpec(linear_ham(), TerminalSpec(), ctx=TorusContext(1, 1))
    with pytest.raises(InputDomainError, match="d = 1"):
        # every solver is d = 1 only
        ProblemSpec(linear_ham(), TerminalSpec(), ctx=TorusContext(2, 4))
    ProblemSpec(linear_ham(), TerminalSpec(), ctx=ctx)  # degree 2 fits


def test_drift_at_uses_mean_field_convolution():
    # b(x, mu) = int K(x - y) mu(dy) at points x, from the harmonic means of mu
    kernel = linear_ham().drift_kernel
    rng = np.random.default_rng(1)
    atoms = rng.uniform(0, TWO_PI, 5)
    x = rng.uniform(0, TWO_PI, 4)
    cm, sm = (h.mean(axis=-1)[:, None] for h in harmonics(atoms, kernel.degree))
    direct = [np.mean(kernel(xi - atoms)) for xi in x]
    assert np.allclose(convolve(kernel, cm, sm, *harmonics(x, kernel.degree)), direct)


def test_problem_serialization_roundtrip():
    prob = ProblemSpec(
        linear_ham(),
        TerminalSpec(g=TrigPoly(0.0, [1.0])),
        a=0.25,
        T=0.5,
    )
    back = ProblemSpec.from_dict(prob.to_dict())
    assert back.a == prob.a and back.T == prob.T
    assert back.hamiltonian.family == "linear"
    with pytest.raises(InputDomainError):
        ProblemSpec.from_dict({"extra": 1})
