import itertools
import logging
import struct

import numpy as np
import pytest

from mfrl import fd
from mfrl.errors import ConfigurationError, InputDomainError, ResourceBudgetError
from mfrl.fd import (
    VALUE_BYTES_BUDGET,
    GridValueFunction,
    extend_value,
    fd_solve,
    lipschitz_probe,
    max_stable_dt,
    required_time_steps,
)
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, TorusContext
from mfrl.trig import TrigPoly

CTX = TorusContext(1, 64)


def null_problem(a=0.0, T=1.0):
    return ProblemSpec(
        HamiltonianSpec("zero"),
        TerminalSpec(g=TrigPoly(0.0, [1.0])),
        a=a,
        T=T,
        ctx=CTX,
    )


def linear_problem(a=0.25, T=0.5):
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4], [0.2]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    return ProblemSpec(ham, term, a=a, T=T, ctx=CTX)


def solve(problem, n, mesh):
    return fd_solve(problem, n, mesh, required_time_steps(problem, n, mesh))


def test_constant_terminal_gives_constant_solution():
    prob = ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.7)), a=0.3, T=0.5, ctx=CTX
    )
    vn = solve(prob, 2, 16)
    assert np.allclose(vn.values, 0.7, atol=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_heat_semigroup_closed_form(a):
    # H = 0, G = int cos dmu: v^N(t,x) = e^{-(1+a)(T-t)} mean cos(x_i)
    prob = null_problem(a=a)
    vn = solve(prob, 2, 48)
    rng = np.random.default_rng(0)
    for t in (0.0, 0.4, 1.0):
        configs = rng.uniform(0, TWO_PI, (20, 2))
        exact = np.exp(-(1 + a) * (prob.T - t)) * np.cos(configs).mean(axis=1)
        assert np.max(np.abs(vn.value(t, configs) - exact)) < 5e-3


def test_permutation_symmetry_exact():
    vn = solve(linear_problem(), 2, 24)
    asym = np.max(np.abs(vn.values - np.swapaxes(vn.values, 1, 2)))
    assert asym <= 1e-15  # machine precision


def test_refinement_order_on_linear_benchmark():
    prob = linear_problem(a=0.0)
    coarse = solve(prob, 1, 32)
    fine = solve(prob, 1, 64)
    finer = solve(prob, 1, 128)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, TWO_PI, (50, 1))
    e1 = np.max(np.abs(coarse.value(0.2, pts) - finer.value(0.2, pts)))
    e2 = np.max(np.abs(fine.value(0.2, pts) - finer.value(0.2, pts)))
    order = np.log2(e1 / e2)
    assert order >= 1.7


def test_comparison_principle():
    base = linear_problem(a=0.0)
    lower = ProblemSpec(
        base.hamiltonian,
        TerminalSpec(g=TrigPoly(0.0, [1.0])),
        a=0.0,
        T=base.T,
        ctx=CTX,
    )
    upper = ProblemSpec(
        base.hamiltonian,
        TerminalSpec(g=TrigPoly(0.5, [1.0])),  # G2 = G1 + 0.5 pointwise
        a=0.0,
        T=base.T,
        ctx=CTX,
    )
    v1 = solve(lower, 2, 24)
    v2 = solve(upper, 2, 24)
    assert np.all(v1.values <= v2.values + 1e-10)


def test_stability_guard_reports_required_steps():
    prob = linear_problem()
    needed = required_time_steps(prob, 2, 32)
    with pytest.raises(ConfigurationError) as err:
        fd_solve(prob, 2, 32, needed // 2)
    assert str(needed) in str(err.value)


def test_state_budget_guard():
    with pytest.raises(ResourceBudgetError):
        fd_solve(null_problem(), 6, 128, 10)


def test_value_bytes_budget_guard():
    # 301 slices of 48^4 doubles: 12.8 GB, refused before anything is allocated
    prob = linear_problem(a=0.5)
    n_t = required_time_steps(prob, 4, 48)
    assert (n_t + 1) * 48**4 * 8 > VALUE_BYTES_BUDGET
    with pytest.raises(ResourceBudgetError):
        fd_solve(prob, 4, 48, n_t)


def _kernel(poly, d):
    """K(d) written out with numpy's own cos and sin."""
    out = np.full_like(d, poly.const)
    for k, (a, b) in enumerate(zip(poly.cos_coeffs, poly.sin_coeffs), start=1):
        out += a * np.cos(k * d) + b * np.sin(k * d)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_fields_equal_direct_sum(n):
    mesh = 10
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.05, [0.4, -0.3], [0.2, 0.25]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3], [0.2]),
    )
    prob = ProblemSpec(ham, TerminalSpec(), T=0.5, ctx=CTX)
    nodes = np.arange(mesh) * (TWO_PI / mesh)
    lattice = np.stack(np.meshgrid(*([nodes] * n), indexing="ij"), axis=-1)
    drift_fields, cost_sum = fd._kernel_fields(prob, lattice)
    diff = lattice[..., :, None] - lattice[..., None, :]  # x_i - x_j
    drift = _kernel(ham.drift_kernel, diff).mean(axis=-1)
    cost = _kernel(ham.cost_kernel, diff).mean(axis=-1)
    for i in range(n):
        assert drift_fields[i].flags.c_contiguous
        assert np.max(np.abs(drift_fields[i] - drift[..., i])) < 1e-13
    assert np.max(np.abs(cost_sum - cost.mean(axis=-1))) < 1e-13


def test_stable_dt_scales_with_particle_count():
    prob = null_problem()
    assert max_stable_dt(prob, 4, 32) < max_stable_dt(prob, 1, 32)


def test_value_interpolation_at_nodes_is_exact():
    vn = solve(null_problem(T=0.5), 2, 16)
    dx = TWO_PI / 16
    cfg = np.array([[3 * dx, 7 * dx]])
    k = vn.n_t // 2
    t = vn.times[k]
    assert vn.value(t, cfg)[0] == pytest.approx(vn.values[k][3, 7], abs=1e-12)


def test_extend_value_shift_identities():
    vn = solve(null_problem(T=0.5), 2, 24)
    atoms = EmpiricalMeasure(np.array([[0.7], [2.9]]))
    base = extend_value(vn, 0.2, 0.0, atoms)
    assert extend_value(vn, 0.2, TWO_PI, atoms) == pytest.approx(base, abs=1e-12)
    z1, z2 = 0.9, 1.7
    lhs = extend_value(vn, 0.2, z1, EmpiricalMeasure(atoms.atoms + z2))
    rhs = extend_value(vn, 0.2, z1 + z2, atoms)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_save_load_roundtrip(tmp_path):
    vn = solve(null_problem(T=0.5), 2, 16)
    path = tmp_path / "v.bin"
    vn.save(path)
    with open(path, "rb") as fh:
        assert fh.read(5) == b"MFRL1"
    back = GridValueFunction.load(path)
    assert back.N == vn.N and back.mesh == vn.mesh and back.n_t == vn.n_t
    assert back.T == vn.T
    assert np.array_equal(back.values, vn.values)


def _header(n, mesh, n_t):
    return struct.pack("<5sIIIIId", b"MFRL1", 1, n, 1, mesh, n_t, 0.5)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "v.bin"
    solve(null_problem(T=0.5), 2, 16).save(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InputDomainError):
        GridValueFunction.load(path)


def test_load_rejects_short_header(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(_header(2, 16, 4)[:12])
    with pytest.raises(InputDomainError):
        GridValueFunction.load(path)


@pytest.mark.parametrize("n", [1, 3])
def test_load_rejects_header_larger_than_body(tmp_path, n):
    # the header asks for mesh 2^31; the body holds two doubles
    path = tmp_path / "v.bin"
    path.write_bytes(_header(n, 2**31, 1) + bytes(16))
    with pytest.raises(InputDomainError):
        GridValueFunction.load(path)


def test_lipschitz_probe_zero_for_constants():
    prob = ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.4)), T=0.5, ctx=CTX
    )
    rep = lipschitz_probe(solve(prob, 2, 16))
    assert rep.max_scaled_gradient == pytest.approx(0.0, abs=1e-12)
    assert rep.time_hoelder == pytest.approx(0.0, abs=1e-12)
    assert rep.w1_lipschitz == pytest.approx(0.0, abs=1e-12)


def test_gradient_bound_uniform_in_n():
    prob = linear_problem(a=0.0)
    bounds = [lipschitz_probe(solve(prob, n, 32)).max_scaled_gradient for n in (1, 2, 3)]
    assert max(bounds) <= 1.5 * min(bounds)


def roll_solve(problem, n, mesh, n_t, upwind):
    """The explicit sweep written out with np.roll and fresh temporaries."""
    dx, dt, lam, a = TWO_PI / mesh, problem.T / n_t, problem.hamiltonian.lam, problem.a
    nodes = np.arange(mesh) * dx
    lattice = np.stack(np.meshgrid(*([nodes] * n), indexing="ij"), axis=-1)
    drift_fields, cost_sum = fd._kernel_fields(problem, lattice)
    v = problem.terminal.value_atoms(lattice)
    out = [v]
    for _ in range(n_t):
        rhs = np.zeros_like(v)
        for i in range(n):
            up, dn = np.roll(v, -1, axis=i), np.roll(v, 1, axis=i)
            rhs += (up - 2.0 * v + dn) / dx**2
            grad_c = (up - dn) / (2.0 * dx)
            if drift_fields is not None:
                b = drift_fields[i]
                if upwind:
                    rhs += np.maximum(b, 0.0) * (up - v) / dx + np.minimum(b, 0.0) * (v - dn) / dx
                else:
                    rhs += b * grad_c
            rhs += 0.5 * lam * n * grad_c**2
        axes = tuple(range(n))
        rhs += a * (np.roll(v, (-1,) * n, axis=axes) - 2.0 * v + np.roll(v, (1,) * n, axis=axes)) / dx**2
        if cost_sum is not None:
            rhs += cost_sum
        v = v + dt * rhs
        out.append(v)
    return np.stack(out[::-1])


@pytest.mark.parametrize("upwind", [False, True])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("n, mesh", [(1, 24), (2, 12), (3, 8)])
def test_fused_step_matches_roll_stencil(n, mesh, a, upwind):
    prob = linear_problem(a=a)
    n_t = required_time_steps(prob, n, mesh)
    got = fd_solve(prob, n, mesh, n_t, upwind=upwind).values
    assert np.max(np.abs(got - roll_solve(prob, n, mesh, n_t, upwind))) < 1e-12


def test_fused_step_matches_roll_stencil_quadratic():
    def problem(lam):
        ham = HamiltonianSpec("quadratic", cost_kernel=TrigPoly(0.1, [0.0, 0.3]), lam=lam)
        return ProblemSpec(ham, linear_problem().terminal, a=0.25, T=0.5, ctx=CTX)

    n_t = required_time_steps(problem(0.8), 2, 12)
    got = fd_solve(problem(0.8), 2, 12, n_t).values
    ref = roll_solve(problem(0.8), 2, 12, n_t, upwind=False)
    assert np.max(np.abs(got - ref)) < 1e-12
    # the quadratic term is not negligible in the comparison
    assert np.max(np.abs(ref - roll_solve(problem(0.0), 2, 12, n_t, upwind=False))) > 1e-3


def test_sorted_solve_matches_roll_stencil_across_the_diagonal_seam():
    # at N = 4, mesh 6 most diagonal neighbours wrap: (1, 2, 4, 5) + 1 is (2, 3, 5, 0)
    prob = linear_problem(a=0.5)
    n_t = required_time_steps(prob, 4, 6)
    got = fd_solve(prob, 4, 6, n_t).values
    assert np.max(np.abs(got - roll_solve(prob, 4, 6, n_t, upwind=False))) < 1e-12


def test_sorted_solve_is_exactly_symmetric():
    values = solve(linear_problem(a=0.5), 3, 10).values
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(values, values.transpose((0,) + tuple(1 + p for p in perm)))


def test_lipschitz_probe_matches_roll_differences():
    vn = solve(linear_problem(a=0.5), 2, 12)
    ids = sorted(set(np.linspace(0, vn.n_t, 17).astype(int)))
    grad = hoelder = 0.0
    for k in ids:
        for i in range(2):
            g = np.abs(np.roll(vn.values[k], -1, axis=i) - np.roll(vn.values[k], 1, axis=i))
            grad = max(grad, 2 * float(np.max(g / (2.0 * vn.dx))))
        for kb in ids:
            if kb > k:
                diff = float(np.max(np.abs(vn.values[kb] - vn.values[k])))
                hoelder = max(hoelder, diff / np.sqrt((kb - k) * vn.dt))
    rep = lipschitz_probe(vn)
    assert (rep.max_scaled_gradient, rep.time_hoelder) == (grad, hoelder)



def test_debug_log_reports_the_solve(caplog):
    prob = linear_problem(a=0.5)
    n_req = required_time_steps(prob, 2, 12)
    with caplog.at_level(logging.DEBUG, logger="mfrl.fd"):
        fd_solve(prob, 2, 12, n_req + 3)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "mfrl.fd"]
    assert line.startswith(f"fd solve: N 2, mesh 12, n_t {n_req + 3} (stability needs {n_req})")
    assert "upwind False" in line and line.endswith(" s")


def cole_hopf_value(lam, s, x, m=1024):
    """u(T - s, x) for -du/dt = u'' + (lam/2) u'^2, u(T) = cos: by the Cole-Hopf
    transform u = (2/lam) log w with w the heat flow of e^{lam cos/2} over a
    time s, its Fourier series summed from m points at the nodes x."""
    grid = np.arange(m) * (TWO_PI / m)
    k = np.fft.fftfreq(m, 1.0 / m)
    w_hat = np.fft.fft(np.exp(0.5 * lam * np.cos(grid))) * np.exp(-s * k**2) / m
    w = (w_hat * np.exp(1j * np.outer(x, k))).sum(axis=1).real
    return (2.0 / lam) * np.log(w)


def cole_hopf_error(n, mesh, lam):
    """Largest FD error at every node of slices 0 and n_t // 2 of the quadratic
    problem H = lam/2 |p|^2, G = int cos dmu, against the exact value
    v^N(t, x) = (1/N) sum_i u(t, x^i)."""
    prob = ProblemSpec(
        HamiltonianSpec("quadratic", lam=lam), TerminalSpec(g=TrigPoly(0.0, [1.0])), T=0.5, ctx=CTX
    )
    vn = solve(prob, n, mesh)
    err = 0.0
    for k in (0, vn.n_t // 2):
        u = cole_hopf_value(lam, vn.T - vn.times[k], np.arange(mesh) * vn.dx)
        exact = sum(np.meshgrid(*[u] * n, indexing="ij")) / n
        err = max(err, float(np.max(np.abs(vn.values[k] - exact))))
    return err


def test_quadratic_scheme_converges_to_the_cole_hopf_value():
    coarse, fine = cole_hopf_error(1, 48, 1.0), cole_hopf_error(1, 96, 1.0)
    assert coarse <= 1e-3 and coarse / fine >= 3.0
    assert cole_hopf_error(2, 48, 1.0) <= 5e-4
    assert cole_hopf_error(3, 32, 4.0) <= 1e-2

