import dataclasses
import itertools
import logging
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from mfrl import fd
from mfrl.convolution import ConvolutionConfig, inf_convolve
from mfrl.errors import ConfigurationError, InputDomainError, ResourceBudgetError
from mfrl.fd import (
    VALUE_BYTES_BUDGET,
    GridValueFunction,
    fd_solve,
    lipschitz_probe,
    max_stable_dt,
    required_time_steps,
)
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, TorusContext, canonicalize, seeded_generator
from mfrl.torus import w1_circle
from mfrl.trig import TrigPoly

from full_lattice import of_full_array

CTX = TorusContext(1, 64)


def null_problem(a=0.0, T=1.0):
    return ProblemSpec(
        HamiltonianSpec("zero"),
        TerminalSpec(g=TrigPoly(0.0, [1.0])),
        a=a,
        T=T,
        ctx=CTX,
    )


def linear_problem(a=0.25, T=0.5, drift_scale=1.0):
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4 * drift_scale], [0.2 * drift_scale]),
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


def test_value_refuses_a_non_finite_time():
    vn = solve(null_problem(T=0.5), 1, 8)
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputDomainError):
            vn.value(t, [1.0])


def test_value_refuses_a_non_finite_coordinate():
    vn = solve(null_problem(T=0.5), 2, 8)
    for bad in ([float("inf"), 1.0], [[0.5, 2.0], [1.0, float("nan")]], [-float("inf"), 0.0]):
        with pytest.raises(InputDomainError, match="finite"):
            vn.value(0.1, bad)


def test_extend_value_shift_identities():
    # the extended value V(t, z, x) = v(t, z + x), read on canonical points
    vn = solve(null_problem(T=0.5), 2, 24)

    def extended(t, z, x):
        return vn.value(t, canonicalize(x + z))

    x = np.array([0.7, 2.9])
    base = extended(0.2, 0.0, x)
    assert extended(0.2, TWO_PI, x) == pytest.approx(base, abs=1e-12)
    z1, z2 = 0.9, 1.7
    lhs = extended(0.2, z1, x + z2)
    rhs = extended(0.2, z1 + z2, x)
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


def _header(n, mesh, n_t, version=fd._VERSION, T=0.5):
    return struct.pack("<5sIIIIId", b"MFRL1", version, n, 1, mesh, n_t, T)


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("n, mesh", [(1, 24), (2, 12), (3, 8)])
def test_value_file_holds_one_value_per_multiset(tmp_path, n, mesh, a):
    # a = 0.5 reads the diagonal neighbours that wrap across the seam
    vn = solve(linear_problem(a=a), n, mesh)
    path = tmp_path / "v.bin"
    vn.save(path)
    assert path.stat().st_size == fd._HEADER.size + 8 * (vn.n_t + 1) * math.comb(mesh + n - 1, n)
    back = GridValueFunction.load(path)
    assert back.values.tobytes() == vn.values.tobytes()
    # a full array gathers the same slices as the solve kept
    full = tmp_path / "full.bin"
    of_full_array(vn.values, vn.T).save(full)
    assert full.read_bytes() == path.read_bytes()


def test_solve_and_save_never_build_the_full_lattice(tmp_path):
    prob = linear_problem(a=0.5)
    n_t = required_time_steps(prob, 3, 24)
    full_bytes = (n_t + 1) * 24**3 * 8
    tracemalloc.start()
    try:
        vn = fd_solve(prob, 3, 24, n_t)
        vn.save(tmp_path / "v.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_bytes / 2
    assert vn.values.nbytes == full_bytes and not vn.values.flags.writeable
    assert vn.values is vn.values


def test_load_refuses_a_version_1_file(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(_header(2, 16, 4, version=1) + bytes(8 * 5 * 16**2))
    with pytest.raises(InputDomainError, match="version 1"):
        GridValueFunction.load(path)


def test_load_refuses_an_expansion_over_the_budget(tmp_path):
    # a 7.8 MB file of the right size whose 2 x 16^8 lattice is 68.7 GB
    assert 2 * 16**8 * 8 > VALUE_BYTES_BUDGET
    path = tmp_path / "v.bin"
    path.write_bytes(_header(8, 16, 1))
    with open(path, "r+b") as fh:
        fh.truncate(fd._HEADER.size + 8 * 2 * math.comb(23, 8))
    with pytest.raises(ResourceBudgetError):
        GridValueFunction.load(path)
    # header only: refused on its size, before anything is allocated
    path.write_bytes(_header(8, 16, 1))
    with pytest.raises(InputDomainError):
        GridValueFunction.load(path)


def test_info_log_reports_each_save_and_load(tmp_path, caplog):
    vn = solve(linear_problem(a=0.5), 2, 12)
    path = tmp_path / "v.bin"
    with caplog.at_level(logging.INFO, logger="mfrl.fd"):
        vn.save(path)
        GridValueFunction.load(path)
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.fd"]
    mb = path.stat().st_size / 1e6
    assert [line.rsplit(", ", 1)[0] for line in lines] == [
        f"fd {what}: N 2, mesh 12, n_t {vn.n_t}, 78 multisets per slice, {mb:.1f} MB"
        for what in ("save", "load")
    ]
    assert all(line.endswith(" s") for line in lines)


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
    # fd_solve picks the scheme by itself from the cell Peclet number
    # max |b| dx / 2 on the lattice.  linear_problem's drift (Peclet 0.05-0.16
    # on these meshes) stays central; scaled by 20 (Peclet 1.05-3.27) it is
    # upwinded.
    prob = linear_problem(a=a, drift_scale=20.0 if upwind else 1.0)
    n_t = required_time_steps(prob, n, mesh)
    got = fd_solve(prob, n, mesh, n_t).values
    assert np.max(np.abs(got - roll_solve(prob, n, mesh, n_t, upwind))) < 1e-12
    # the other scheme is off by 0.012-0.5, so the comparison sees the choice
    assert np.max(np.abs(got - roll_solve(prob, n, mesh, n_t, not upwind))) > 1e-2


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
    # the W1 ratio pair by pair, one w1_circle call each, as the rows formula must give it
    rng, w1_lip = seeded_generator(0), 0.0
    for _ in range(fd._W1_PAIRS):
        ia, ib = rng.integers(0, 12, size=2), rng.integers(0, 12, size=2)
        w1 = w1_circle(EmpiricalMeasure(ia[:, None] * vn.dx), EmpiricalMeasure(ib[:, None] * vn.dx))
        if w1 >= 1e-12:
            for k in (0, vn.n_t // 2):
                diff = abs(float(vn.values[k][tuple(ia)] - vn.values[k][tuple(ib)]))
                w1_lip = max(w1_lip, diff / w1)
    rep = lipschitz_probe(vn)
    assert (rep.max_scaled_gradient, rep.time_hoelder, rep.w1_lipschitz) == (grad, hoelder, w1_lip)


def multisets_by_sorting(n, mesh):
    """The multiset tables by sorting every index tuple and ``np.unique``."""
    shape = (mesh,) * n
    index = np.sort(np.indices(shape).reshape(n, -1), axis=0)
    return np.unique(np.ravel_multi_index(tuple(index), shape), return_inverse=True)


@pytest.mark.parametrize("n, mesh", [
    (n, mesh) for n in (1, 2, 3, 4) for mesh in (1, 2, 8, 48) if mesh**n <= 48**3
])
def test_multisets_equal_the_sorting_construction(n, mesh):
    keys, multiset = fd._multisets(n, mesh)
    want_keys, want_multiset = multisets_by_sorting(n, mesh)
    assert keys.dtype == want_keys.dtype and multiset.dtype == want_multiset.dtype
    assert np.array_equal(keys, want_keys) and np.array_equal(multiset, want_multiset)
    assert keys.size == math.comb(mesh + n - 1, n)


def test_slice_at_gathers_one_slice_without_expanding_the_rest():
    vn = solve(linear_problem(a=0.5), 3, 8)
    ks = (0, 1, vn.n_t // 2, vn.n_t, -1)
    got = [vn.slice_at(k) for k in ks]
    assert "values" not in vars(vn)
    for k, s in zip(ks, got):
        assert s.shape == (8, 8, 8) and np.array_equal(s, vn.values[k])
        assert np.array_equal(vn.slice_at(k), s)  # read from values once they exist


def test_lipschitz_probe_reads_slices_once_per_multiset(tmp_path):
    vn = solve(linear_problem(a=0.5), 3, 12)
    rep = lipschitz_probe(vn, seed=4)
    assert "values" not in vars(vn)
    vn.save(tmp_path / "v.bin")
    back = GridValueFunction.load(tmp_path / "v.bin")
    assert lipschitz_probe(back, seed=4) == rep
    assert "slices" not in vars(back)  # a loaded function gathers only the probed slices
    assert all(type(x) is float for x in dataclasses.astuple(rep))


def test_lipschitz_probe_propagates_nan():
    vn = solve(linear_problem(a=0.5), 2, 12)
    values = np.array(vn.values)
    values[0, 4, 4] = np.nan  # one node of slice 0, symmetric
    rep = lipschitz_probe(of_full_array(values, vn.T))
    assert math.isnan(rep.max_scaled_gradient) and math.isnan(rep.time_hoelder)
    assert type(rep.time_hoelder) is float
    # slice 0 wholly NaN reaches the W1 ratio too
    values[0] = np.nan
    rep = lipschitz_probe(of_full_array(values, vn.T))
    assert all(math.isnan(x) for x in dataclasses.astuple(rep))
    # a NaN in a slice the probe does not read changes nothing (n_t 43 > 16 here)
    vn = solve(linear_problem(a=0.5), 2, 24)
    values = np.array(vn.values)
    unread = next(k for k in range(vn.n_t + 1) if k not in np.linspace(0, vn.n_t, 17).astype(int))
    values[unread, 4, 4] = np.nan
    assert lipschitz_probe(of_full_array(values, vn.T)) == lipschitz_probe(vn)


def test_a_nan_in_a_slice_is_saved_loaded_and_probed(tmp_path):
    vn = solve(linear_problem(a=0.5), 2, 12)
    slices = np.array(vn.slices)
    slices[:, 40] = np.nan  # one multiset at every slice
    slices[2, [0, 1]] = np.nan
    nan = GridValueFunction(2, 12, vn.n_t, vn.T, slices)
    assert slices.flags.writeable  # the object holds a read-only view, not the array
    path = tmp_path / "v.bin"
    nan.save(path)
    back = GridValueFunction.load(path)
    assert np.array_equal(back.slices, slices, equal_nan=True)
    assert np.array_equal(back.values, nan.values, equal_nan=True)
    rep = lipschitz_probe(back)
    assert math.isnan(rep.max_scaled_gradient) and math.isnan(rep.time_hoelder)
    same = dataclasses.astuple(lipschitz_probe(nan))
    assert np.array_equal(dataclasses.astuple(rep), same, equal_nan=True)


@pytest.mark.parametrize("T", [float("nan"), float("inf"), -1.0, 0.0])
def test_a_horizon_that_is_not_finite_and_positive_is_refused(tmp_path, T):
    # a file of the right size whose header horizon alone is wrong
    path = tmp_path / "v.bin"
    path.write_bytes(_header(2, 8, 4, T=T) + bytes(8 * 5 * math.comb(9, 2)))
    with pytest.raises(InputDomainError, match="horizon"):
        GridValueFunction.load(path)
    with pytest.raises(InputDomainError, match="horizon"):
        GridValueFunction(2, 8, 4, T, np.zeros((5, math.comb(9, 2))))


def test_constructor_refuses_slices_of_the_wrong_shape():
    with pytest.raises(InputDomainError, match="shape"):
        GridValueFunction(2, 8, 4, 0.5, np.zeros((5, 8, 8)))
    with pytest.raises(InputDomainError, match="grid"):
        GridValueFunction(0, 8, 4, 0.5, np.zeros((5, 1)))


@pytest.mark.parametrize("n, mesh", [(1, 24), (2, 12), (3, 8)])
def test_a_solved_function_and_its_loaded_copy_read_alike(tmp_path, n, mesh):
    vn = solve(linear_problem(a=0.5), n, mesh)
    rng = np.random.default_rng(n)
    configs = rng.uniform(-1.0, 7.0, (20, n))
    times = [-0.1, 0.0, *rng.uniform(0.0, vn.T, 3), vn.T, 1.0]

    def reads(f):
        values = [f.value(t, configs) for t in times] + [f.value(0.2, configs[0])]
        slices = [f.slice_at(k) for k in (0, vn.n_t // 3, vn.n_t)]
        return [np.asarray(a).tobytes() for a in values + slices], lipschitz_probe(f, seed=3)

    got = reads(vn)
    assert "values" not in vars(vn)  # neither value(), slice_at nor the probe expands
    vn.save(tmp_path / "v.bin")
    back = GridValueFunction.load(tmp_path / "v.bin")
    assert reads(back) == got and "slices" not in vars(back)
    back.save(tmp_path / "back.bin")
    assert (tmp_path / "back.bin").read_bytes() == (tmp_path / "v.bin").read_bytes()
    mu = EmpiricalMeasure(rng.uniform(0.0, TWO_PI, (n, 1)))
    cfg = ConvolutionConfig(epsilon=0.1, n_time=17, shift_refine=2)
    for target in ((0.0, 0.0, mu), (0.3 * vn.T, 1.9, mu), (vn.T, 5.0, mu)):
        (val, rec), (val_back, rec_back) = (
            inf_convolve(vn, target, cfg), inf_convolve(back, target, cfg)
        )
        assert val == val_back and rec.x0.tobytes() == rec_back.x0.tobytes()
        assert [getattr(rec, f) for f in ("s0", "w0", "t_gap", "z_gap", "rho_gap")] == [
            getattr(rec_back, f) for f in ("s0", "w0", "t_gap", "z_gap", "rho_gap")
        ]
    assert "values" not in vars(vn)


def test_a_function_builds_its_rank_table_once(monkeypatch, tmp_path):
    built = []

    def multisets(N, mesh):
        built.append((N, mesh))
        return real(N, mesh)

    real = fd._multisets
    monkeypatch.setattr(fd, "_multisets", multisets)
    monkeypatch.setattr(fd, "_RANK_TABLES", weakref.WeakValueDictionary())
    mu = EmpiricalMeasure(np.array([[0.4], [3.3]]))
    cfg = ConvolutionConfig(epsilon=0.1, n_time=9)

    def read_every_way(vn):
        vn.value(0.2, [[0.3, 1.7], [4.0, 2.2]])
        vn.slice_at(1)
        lipschitz_probe(vn)
        inf_convolve(vn, (0.3, 1.9, mu), cfg)
        vn.save(tmp_path / "v.bin")
        assert not vn.values.flags.writeable  # expanded, or read, through the table

    vn = solve(linear_problem(a=0.5), 2, 8)
    read_every_way(vn)
    assert built == [(2, 8)]
    # a loaded copy shares the table while the solved function lives ...
    read_every_way(GridValueFunction.load(tmp_path / "v.bin"))
    assert built == [(2, 8)]
    # ... and builds its own, once, when it is alone
    del vn
    read_every_way(GridValueFunction.load(tmp_path / "v.bin"))
    assert built == [(2, 8)] * 2


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

