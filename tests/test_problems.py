import numpy as np
import pytest

from mfrl.errors import InputDomainError
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext
from mfrl.trig import TrigPoly, density_moments, harmonics


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
    atoms = np.array([[0.0], [np.pi]])
    mu = EmpiricalMeasure(atoms)
    # mean cos = 0, mean sin(2x) = 0
    assert term.value_measure(mu) == pytest.approx(0.0, abs=1e-14)
    single = EmpiricalMeasure(np.array([[0.5]]))
    expected = np.cos(0.5) + np.sin(0.5) ** 2
    assert term.value_measure(single) == pytest.approx(expected)


def test_terminal_grid_matches_empirical_limit():
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.2))
    m = 2048
    nodes = np.arange(m) * (TWO_PI / m)
    dens = GridDensity(1.0 + 0.5 * np.cos(nodes))
    # int cos dmu = 0.25 for density (1 + 0.5 cos)/2pi
    assert term.value_measure(dens) == pytest.approx(0.25 + 0.04, abs=1e-10)


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
    mu = EmpiricalMeasure(configs[0][:, None])
    assert term.value_measure(mu) == pytest.approx(direct[0], abs=1e-13)


def test_terminal_moments_match_quadrature_on_densities():
    term = QUAD_TERMINAL
    m = 64
    dx = TWO_PI / m
    nodes = np.arange(m) * dx
    rho = np.random.default_rng(5).uniform(0.5, 1.5, (m, 3))
    rho /= rho.sum(axis=0) * dx
    direct = (_poly(term.g, nodes) @ rho) * dx + ((_poly(term.h, nodes) @ rho) * dx) ** 2
    batch = term.value_moments(*density_moments(rho, term.degree))
    assert np.max(np.abs(batch - direct)) < 1e-13
    for j in range(3):
        assert term.value_measure(GridDensity(rho[:, j])) == pytest.approx(direct[j], abs=1e-13)


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
    ProblemSpec(linear_ham(), TerminalSpec(), ctx=ctx)  # degree 2 fits


def test_drift_at_uses_mean_field_convolution():
    prob = ProblemSpec(linear_ham(), TerminalSpec(), T=1.0)
    rng = np.random.default_rng(1)
    mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (5, 1)))
    x = rng.uniform(0, TWO_PI, 4)
    kernel = prob.hamiltonian.drift_kernel
    direct = [np.mean(kernel(xi - mu.atoms[:, 0])) for xi in x]
    assert np.allclose(prob.drift_at(x, mu), direct)


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
