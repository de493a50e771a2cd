import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from mfrl.errors import InputDomainError, ResourceBudgetError, UnsupportedDimensionError
from mfrl.torus import (
    DENSITY_REFINE,
    TWO_PI,
    EmpiricalMeasure,
    GridDensity,
    TorusContext,
    canonicalize,
    circle_arc,
    fourier_coefficients,
    measure_from_json,
    measure_to_json,
    phase_table,
    sample_iid,
    w1_circle,
    w1_circle_density,
    w1_density_rows,
)

#: Hard budget for the exact LP transport oracle (pairs of support points).
LP_SUPPORT_BUDGET = 10_000


def torus_geodesic(x, y):
    """Geodesic distance between points (arrays broadcast over leading axes)."""
    arc = circle_arc(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.sqrt(np.sum(arc * arc, axis=-1))


def w1_lp(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact optimal transport cost between small empirical measures.

    The independent oracle for the circle formula: ground metric the torus
    geodesic, the transport problem solved as an exact linear program
    (HiGHS), any dimension, under a hard support budget.
    """
    if mu.d != nu.d:
        raise InputDomainError("measures live on tori of different dimension")
    n, m = mu.N, nu.N
    if n * m > LP_SUPPORT_BUDGET:
        raise ResourceBudgetError(
            f"support product {n * m} exceeds LP budget {LP_SUPPORT_BUDGET}"
        )
    cost = torus_geodesic(mu.atoms[:, None, :], nu.atoms[None, :, :]).reshape(n * m)
    # Marginal constraints; one row is redundant and dropped.
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.extend([i] * m)
        cols.extend(range(i * m, (i + 1) * m))
        vals.extend([1.0] * m)
    for j in range(m - 1):
        rows.extend([n + j] * n)
        cols.extend(range(j, n * m, m))
        vals.extend([1.0] * n)
    a_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(n + m - 1, n * m))
    b_eq = np.concatenate((np.full(n, 1.0 / n), np.full(m - 1, 1.0 / m)))
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


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


@pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (1, 3), (1, 1024), (2, 1), (2, 7), (2, 200)])
def test_fourier_coefficients_equal_the_mean_of_the_phase_table(d, n):
    ctx = TorusContext(d, 64 if d == 1 else 12)
    atoms = np.random.default_rng(n).uniform(0.0, TWO_PI, (n, d))
    full = TWO_PI ** (-d / 2) * phase_table(atoms, ctx).mean(axis=1)
    got = fourier_coefficients(EmpiricalMeasure(atoms), ctx).coeffs
    assert np.array_equal(got.view(np.int64), full.view(np.int64))


def test_phase_table_rows_of_opposite_modes_are_conjugate():
    ctx = TorusContext(2, 6)
    assert np.array_equal(ctx.modes[::-1], -ctx.modes)
    pts = np.random.default_rng(5).uniform(0.0, TWO_PI, (9, 2))
    table = phase_table(pts, ctx)
    assert np.array_equal(table[::-1], table.conj())
    assert np.max(np.abs(table - np.exp(-1j * (ctx.modes @ pts.T)))) < 1e-13


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
    assert w1_circle(mu, mu) == 0.0
    # equal multisets give exactly 0, also in another order or with every
    # atom doubled (the same measure)
    lattice = np.random.default_rng(13).integers(0, 32, (12, 1)) * (TWO_PI / 32)
    lat = EmpiricalMeasure(lattice)
    assert w1_circle(lat, EmpiricalMeasure(lattice[::-1])) == 0.0
    assert w1_circle(lat, EmpiricalMeasure(np.repeat(lattice, 2, axis=0))) == 0.0
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
    for trial in range(45):
        n = int(rng.integers(2, 8))
        m = n if trial < 15 else int(rng.integers(1, 10))  # then unequal counts
        if trial % 3 == 0:  # atoms on a lattice, shared positions included
            mu = EmpiricalMeasure(rng.integers(0, 12, (n, 1)) * (TWO_PI / 12))
            nu = EmpiricalMeasure(rng.integers(0, 12, (m, 1)) * (TWO_PI / 12))
        else:
            mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1)))
            nu = EmpiricalMeasure(rng.uniform(0, TWO_PI, (m, 1)))
        assert w1_circle(mu, nu) == pytest.approx(w1_lp(mu, nu), abs=1e-12)


def test_w1_circle_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        w1_circle(EmpiricalMeasure(np.zeros((2, 2))), EmpiricalMeasure(np.zeros((2, 2))))


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


def w1_density_on_distinct_breaks(mu: EmpiricalMeasure, rho: GridDensity) -> float:
    """w1_circle_density from ``np.unique`` of the atoms and the refined mesh,
    every step on one 1-d array, and the empirical CDF by ``searchsorted``."""
    atoms = np.sort(mu.atoms[:, 0])
    dx = TWO_PI / rho.m
    cum = np.concatenate(([0.0], np.cumsum(rho.values * dx)))
    fine = rho.m * DENSITY_REFINE
    grid = np.append(np.unique(np.concatenate((np.arange(fine) * (TWO_PI / fine), atoms))), TWO_PI)
    lens = np.diff(grid)
    mids = 0.5 * (grid[:-1] + grid[1:])
    j = np.minimum((mids / dx).astype(int), rho.m - 1)
    g = np.searchsorted(atoms, mids, side="right") / mu.N - (cum[j] + rho.values[j] * (mids - j * dx))
    order = np.argsort(g)
    w = np.cumsum(lens[order])
    t = g[order][np.searchsorted(w, 0.5 * w[-1])]
    return float(np.sum(np.abs(g - t) * lens))


def test_w1_density_rows_equal_the_formula_on_distinct_breakpoints():
    m = 32
    nodes = np.arange(m) * (TWO_PI / m)
    flat_parts = GridDensity(np.maximum(np.cos(2.0 * nodes), 0.0) + 0.1 * (nodes > 5.0))
    smooth = GridDensity(1.0 + 0.4 * np.sin(nodes))
    rng = np.random.default_rng(17)
    step = TWO_PI / (m * DENSITY_REFINE)
    rows = [
        rng.uniform(0.0, TWO_PI, 9),
        rng.integers(0, m * DENSITY_REFINE, 9) * step,  # atoms on the refined mesh
        np.repeat(rng.uniform(0.0, TWO_PI, 3), 3),  # repeated atoms
        np.concatenate(([0.0, 0.0], rng.uniform(0.0, TWO_PI, 7))),  # atoms at 0
        rng.uniform(0.0, TWO_PI, 9),
    ]
    atoms = np.sort(np.array(rows), axis=1)
    for rho in (smooth, flat_parts):
        want = [w1_density_on_distinct_breaks(EmpiricalMeasure(a[:, None]), rho) for a in atoms]
        assert w1_density_rows(atoms, rho).tolist() == want
        for a, w in zip(atoms, want):
            assert w1_circle_density(EmpiricalMeasure(a[::-1, None]), rho) == w


def test_w1_density_dimension_guard():
    dens = GridDensity(np.ones(32))
    with pytest.raises(UnsupportedDimensionError):
        w1_circle_density(EmpiricalMeasure(np.zeros((2, 2))), dens)


def test_package_imports_load_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import mfrl.cli, mfrl.convolution, mfrl.ratelab; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
