import itertools
import logging
import re

import numpy as np
import pytest

from mfrl import convolution, fd
from mfrl.convolution import (
    ArgminRecord,
    ConvolutionConfig,
    GapTable,
    _config_rho_sq,
    gap_scaling_probe,
    inf_convolve,
)
from mfrl.errors import ConfigurationError, InputDomainError
from mfrl.fd import fd_solve, required_time_steps
from mfrl.metric import MetricOrder, rho_sq
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, TorusContext, canonicalize, circle_arc
from mfrl.trig import TrigPoly

from full_lattice import of_full_array

CTX = TorusContext(1, 64)


def solved(n=2, mesh=16, T=0.5, g_amp=1.0):
    prob = ProblemSpec(
        HamiltonianSpec("zero"),
        TerminalSpec(g=TrigPoly(0.0, [g_amp])),
        T=T,
        ctx=CTX,
    )
    return fd_solve(prob, n, mesh, required_time_steps(prob, n, mesh))


def test_config_validation():
    for eps in (0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputDomainError):
            ConvolutionConfig(epsilon=eps)
    with pytest.raises(ConfigurationError):
        ConvolutionConfig(epsilon=0.1, n_time=1)
    with pytest.raises(ConfigurationError):
        ConvolutionConfig(epsilon=0.1, shift_refine=0)


def test_non_finite_target_time_or_shift_is_refused():
    vn = solved(n=1, mesh=8)
    cfg = ConvolutionConfig(epsilon=0.1, n_time=9)
    mu = EmpiricalMeasure(np.array([[1.0]]))
    nan, inf = float("nan"), float("inf")
    for t, z in ((nan, 0.0), (inf, 0.0), (0.1, nan), (0.1, -inf)):
        with pytest.raises(InputDomainError):
            inf_convolve(vn, (t, z, mu), cfg)


def test_config_rho_penalty_matches_direct_metric():
    vn = solved(n=2, mesh=8)
    mu = EmpiricalMeasure(np.array([[0.4], [3.3]]))
    flat = _config_rho_sq(vn, mu)
    assert flat.shape == (36,)  # C(9, 2) multisets
    rank = fd._multisets(2, 8)[1]
    order = MetricOrder(CTX.k_star)
    rng = np.random.default_rng(0)
    for _ in range(6):
        i, j = rng.integers(0, 8, size=2)
        atoms = EmpiricalMeasure(np.array([[i * vn.dx], [j * vn.dx]]))
        assert flat[rank[i * 8 + j]] == pytest.approx(
            rho_sq(atoms, mu, order, CTX), abs=1e-12
        )


def test_inf_convolution_below_value_on_grid():
    # domination holds when the scan's time grid contains the target time,
    # so align it with the stored slices
    vn = solved()
    cfg = ConvolutionConfig(epsilon=0.1, n_time=vn.n_t + 1, shift_refine=4)
    rng = np.random.default_rng(1)
    for _ in range(5):
        k = int(rng.integers(0, vn.n_t, endpoint=True))
        idx = rng.integers(0, vn.mesh, size=vn.N)
        atoms = EmpiricalMeasure((idx * vn.dx)[:, None])
        t = vn.times[k]
        target = (float(t), 0.0, atoms)
        val, _ = inf_convolve(vn, target, cfg)
        direct = float(vn.values[k][tuple(idx)])
        assert val <= direct + 1e-12


def test_inf_convolution_of_constant_recovers_constant():
    prob = ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.8)), T=0.5, ctx=CTX
    )
    vn = fd_solve(prob, 2, 12, required_time_steps(prob, 2, 12))
    # targets on the search grid so every penalty can vanish exactly
    mu = EmpiricalMeasure(np.array([[0.0], [3 * vn.dx]]))
    t_on_grid = vn.T * 16 / 32  # node of the default 33-point time grid
    val, rec = inf_convolve(
        vn, (t_on_grid, vn.dx, mu), ConvolutionConfig(epsilon=0.05)
    )
    assert val == pytest.approx(0.8, abs=1e-12)
    assert rec.t_gap == pytest.approx(0.0, abs=1e-12)
    assert rec.rho_gap == pytest.approx(0.0, abs=1e-10)


def test_large_epsilon_approaches_global_minimum():
    vn = solved(n=1, mesh=32)
    mu = EmpiricalMeasure(np.array([[0.0]]))
    val, _ = inf_convolve(
        vn, (0.0, 0.0, mu), ConvolutionConfig(epsilon=1e6, n_time=11, shift_refine=4)
    )
    assert val == pytest.approx(float(vn.values.min()), abs=1e-5)


def test_monotone_in_epsilon():
    # smaller eps means a heavier penalty, so the inf-convolution increases
    vn = solved()
    mu = EmpiricalMeasure(np.array([[0.9], [2.1]]))
    target = (0.13, 0.4, mu)
    vals = [
        inf_convolve(vn, target, ConvolutionConfig(epsilon=e, n_time=11))[0]
        for e in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_argmin_record_consistency():
    vn = solved(n=1, mesh=32)
    mu = EmpiricalMeasure(np.array([[1.5]]))
    target = (0.2, 1.0, mu)
    cfg = ConvolutionConfig(epsilon=0.05, n_time=21, shift_refine=8)
    val, rec = inf_convolve(vn, target, cfg)
    assert isinstance(rec, ArgminRecord)
    # reported value equals the objective recomputed at the reported argmin:
    # the extended value V(s0, w0, x0) is v(s0, w0 + x0)
    inv = 1.0 / (2.0 * cfg.epsilon)
    direct = (
        vn.value(rec.s0, canonicalize(rec.x0 + rec.w0))
        + inv * rec.t_gap**2
        + inv * rec.z_gap**2
        + inv * rec.rho_gap**2
    )
    assert val == pytest.approx(direct, abs=1e-10)


def test_gap_probe_rows_and_csv():
    vn = solved(n=1, mesh=16, T=0.5, g_amp=0.05)
    targets = [(0.2, 1.0, EmpiricalMeasure(np.array([[1.0]])))]
    table = gap_scaling_probe(
        vn, targets, [0.2, 0.1, 0.05], n_time=41, shift_refine=16
    )
    assert isinstance(table, GapTable)
    assert [r.epsilon for r in table.rows] == [0.2, 0.1, 0.05]
    # penalties tighten monotonically as eps shrinks
    t_gaps = [r.t_gap for r in table.rows]
    assert all(a >= b - 1e-12 for a, b in zip(t_gaps, t_gaps[1:]))
    assert np.isfinite(table.t_slope) and np.isfinite(table.z_slope)


def test_gap_probe_requires_three_epsilons():
    vn = solved(n=1, mesh=8)
    with pytest.raises(InputDomainError):
        gap_scaling_probe(vn, [], [0.1, 0.05])


def pinned():
    """Criterion 7's single-particle problem, weak drift and small terminal, at mesh 64."""
    ham = HamiltonianSpec("linear", drift_kernel=TrigPoly(0.1), cost_kernel=TrigPoly())
    prob = ProblemSpec(ham, TerminalSpec(g=TrigPoly(0.0, [0.02])), T=0.5, ctx=CTX)
    return fd_solve(prob, 1, 64, required_time_steps(prob, 1, 64))


def two_particle_problem():
    """Criterion 3's problem at a = 0.5: drift and running-cost kernels, quadratic terminal."""
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.0, [0.4], [0.2]), cost_kernel=TrigPoly(0.1, [0.0, 0.3])
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    return ProblemSpec(ham, term, a=0.5, T=0.5, ctx=CTX)


def scan_both_ways(monkeypatch, vn, target, cfg):
    """inf_convolve with the time window and with every time node scanned."""
    pruned = inf_convolve(vn, target, cfg)
    with monkeypatch.context() as m:
        m.setattr(convolution, "_time_window", lambda vn, t, inv, n: np.linspace(0.0, vn.T, n))
        full = inf_convolve(vn, target, cfg)
    return pruned, full


def assert_same_scan(pruned, full):
    (val, rec), (val_full, rec_full) = pruned, full
    assert val == val_full
    for name in ("s0", "w0", "t_gap", "z_gap", "rho_gap"):
        assert getattr(rec, name) == getattr(rec_full, name), name
    assert np.array_equal(rec.x0, rec_full.x0)


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025])
def test_time_window_keeps_the_scan_bit_identical_on_criterion_7_targets(monkeypatch, eps):
    vn = pinned()
    cfg = ConvolutionConfig(epsilon=eps, n_time=201, shift_refine=16)
    inv = 1.0 / (2.0 * eps)
    for ti, xi in ((10, 5), (22, 20), (34, 41), (46, 58)):
        t, x = ti / 64.0 * vn.T, xi * vn.dx
        target = (t, x, EmpiricalMeasure(np.array([[x]])))
        assert_same_scan(*scan_both_ways(monkeypatch, vn, target, cfg))
        assert convolution._time_window(vn, t, inv, cfg.n_time).size < cfg.n_time


def test_time_window_is_narrower_than_the_global_value_range_on_criterion_7_targets():
    # the window bounds v(s, y) - v(s*, y) by the oscillation over the slices
    # between s and the node s* nearest t, not by the largest oscillation over
    # all slices at one lattice node, nor by the range of v over all nodes
    vn = pinned()
    osc = np.max(np.ptp(vn.values, axis=0))
    assert osc < 0.25 * np.ptp(vn.values)
    s_vals = np.linspace(0.0, vn.T, 1001)
    kept = kept_global = 0
    for eps in (0.2, 0.1, 0.05, 0.025):
        inv = 1.0 / (2.0 * eps)
        for ti in (10, 22, 34, 46):
            t = ti / 64.0 * vn.T
            t_pen = inv * (t - s_vals) ** 2
            margin = 1e-12 * (1.0 + np.max(np.abs(vn.values)) + t_pen.max())
            wide = s_vals[~(t_pen > t_pen.min() + np.ptp(vn.values) + margin)]
            global_osc = s_vals[~(t_pen > t_pen.min() + osc + margin)]
            window = convolution._time_window(vn, t, inv, 1001)
            assert np.all(np.isin(window, global_osc)) and np.all(np.isin(global_osc, wide))
            kept, kept_global = kept + window.size, kept_global + global_osc.size
    assert 3 * kept < kept_global


@pytest.mark.parametrize("t, dip, s_min", [(0.0, 3, 0.7), (1.0, 1, 0.3)])
def test_time_window_counts_both_slices_a_node_blends(monkeypatch, t, dip, s_min):
    # v is 0 but for a dip to -1 at one slice, after or before the target
    # node s* = t.  The node s_min, 0.05 from the dip's slice, blends it with
    # the slice on the side of s* and holds the minimum; the oscillation over
    # the slices from s* up to that other slice alone is 0
    values = np.zeros((5, 8))
    values[dip] = -1.0
    vn = of_full_array(values, 1.0)
    cfg = ConvolutionConfig(epsilon=0.5, n_time=11, shift_refine=2)
    target = (t, 0.0, EmpiricalMeasure(np.array([[0.0]])))
    (val, rec), full = scan_both_ways(monkeypatch, vn, target, cfg)
    assert_same_scan((val, rec), full)
    assert rec.s0 == pytest.approx(s_min) and val == pytest.approx(-0.8 + 0.7**2)


def test_time_window_keeps_every_node_of_a_value_with_a_nan_in_one_slice():
    values = np.array(pinned().values)
    vn = of_full_array(values, 0.5)
    cfg = ConvolutionConfig(epsilon=0.025, n_time=201, shift_refine=4)
    target = (10 / 64.0 * vn.T, 5 * vn.dx, EmpiricalMeasure(np.array([[5 * vn.dx]])))
    inv = 1.0 / (2.0 * cfg.epsilon)
    assert convolution._time_window(vn, target[0], inv, 201).size < 201
    # far in time from the target, where the finite array's window never reaches
    values[-3, 40] = np.nan
    vn = of_full_array(values, 0.5)
    window = convolution._time_window(vn, target[0], inv, 201)
    assert np.array_equal(window, np.linspace(0.0, vn.T, 201))
    assert_same_scan(inf_convolve(vn, target, cfg), roll_inf_convolve(vn, target, cfg))


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_time_window_keeps_the_scan_bit_identical_for_two_particles(monkeypatch, eps):
    prob = two_particle_problem()
    vn = fd_solve(prob, 2, 12, required_time_steps(prob, 2, 12))
    cfg = ConvolutionConfig(epsilon=eps, n_time=vn.n_t + 1, shift_refine=4)
    for k, idx, z in ((0, (3, 7), 0.0), (vn.n_t // 2, (11, 0), 0.3), (vn.n_t, (5, 5), 2.0)):
        atoms = EmpiricalMeasure((np.array(idx) * vn.dx)[:, None])
        target = (float(vn.times[k]), z, atoms)
        assert_same_scan(*scan_both_ways(monkeypatch, vn, target, cfg))


def test_time_window_of_a_constant_value_keeps_the_nearest_nodes(monkeypatch):
    prob = ProblemSpec(HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.8)), T=0.5, ctx=CTX)
    vn = fd_solve(prob, 2, 8, required_time_steps(prob, 2, 8))
    assert np.ptp(vn.values) == 0.0
    cfg = ConvolutionConfig(epsilon=0.05, n_time=33)
    mu = EmpiricalMeasure(np.array([[0.3], [2.0]]))
    # nodes k / 64; t = 13 / 128 is equally far from two of them, a tie
    for t in (0.0, 0.1, 13 / 128, 0.5):
        assert_same_scan(*scan_both_ways(monkeypatch, vn, (t, 0.4, mu), cfg))
        assert convolution._time_window(vn, t, 10.0, 33).size <= 2


def test_time_window_keeps_the_scan_bit_identical_on_a_value_steep_in_time(monkeypatch):
    # v(s, x) = 5 (T - s) + G: the minimizing s lies well inside the window,
    # about a quarter of the oscillation of v above the smallest penalty
    ham = HamiltonianSpec("linear", cost_kernel=TrigPoly(5.0))
    prob = ProblemSpec(ham, TerminalSpec(g=TrigPoly(0.0, [0.02])), T=0.5, ctx=CTX)
    vn = fd_solve(prob, 1, 16, required_time_steps(prob, 1, 16))
    cfg = ConvolutionConfig(epsilon=0.05, n_time=65, shift_refine=4)
    for t in (0.0, 0.1):
        target = (t, 1.0, EmpiricalMeasure(np.array([[1.0]])))
        (val, rec), full = scan_both_ways(monkeypatch, vn, target, cfg)
        assert_same_scan((val, rec), full)
        assert rec.t_gap > 0.2


@pytest.mark.parametrize("n", [1, 2])
def test_config_penalty_of_an_on_lattice_target_is_exactly_zero(n):
    vn = solved(n=n, mesh=16)
    idx = np.array([3, 11])[:n]
    mu = EmpiricalMeasure((idx * vn.dx)[:, None])
    flat = _config_rho_sq(vn, mu)
    assert flat[fd._multisets(n, 16)[1][np.ravel_multi_index(tuple(idx), (16,) * n)]] == 0.0


def roll_inf_convolve(vn, target, cfg):
    """inf_convolve with its time envelope written out for every time node
    (the slice blended into a fresh array, corners by np.roll, masked
    updates) and every shift q scanned in ascending order."""
    t, z, mu = target
    inv = 1.0 / (2.0 * cfg.epsilon)
    rho_pen = _config_rho_sq(vn, mu)[fd._multisets(vn.N, vn.mesh)[1]]
    n_cfg, mesh, refine = rho_pen.size, vn.mesh, cfg.shift_refine
    w_vals = np.arange(mesh * refine) * (vn.dx / refine)
    z_pen = (inv * circle_arc(z - w_vals) ** 2).reshape(mesh, refine)
    corners = list(itertools.product((0, 1), repeat=vn.N))
    fracs = (np.arange(refine) * (1.0 / refine))[:, None]
    corner_w = np.empty((refine, len(corners)))
    for ci, e in enumerate(corners):
        corner_w[:, ci : ci + 1] = fracs ** sum(e) * (1.0 - fracs) ** (vn.N - sum(e))
    envelope = np.full((refine, n_cfg), np.inf)
    env_s = np.zeros((refine, n_cfg))
    for s in np.linspace(0.0, vn.T, cfg.n_time):
        pos = np.clip(s, 0.0, vn.T) / vn.dt
        k = min(int(pos), vn.n_t - 1)
        grid = (1.0 - (pos - k)) * vn.values[k] + (pos - k) * vn.values[k + 1]
        stack = np.empty((len(corners), n_cfg))
        for ci, e in enumerate(corners):
            arr = grid
            for axis in range(vn.N):
                if e[axis]:
                    arr = np.roll(arr, -1, axis=axis)
            stack[ci] = arr.reshape(-1)
        cand = corner_w @ stack + inv * (t - s) ** 2
        better = cand < envelope
        envelope[better] = cand[better]
        env_s[better] = s
    shape = (mesh,) * vn.N
    best, best_key = np.inf, (0, 0, 0)
    for q in range(mesh):
        rolled = envelope.reshape((refine,) + shape)
        for axis in range(vn.N):
            rolled = np.roll(rolled, -q, axis=1 + axis)
        flat = (rolled.reshape(refine, n_cfg) + z_pen[q][:, None] + inv * rho_pen).reshape(-1)
        k = int(np.argmin(flat))
        if flat[k] < best:
            best, best_key = float(flat[k]), (q, *divmod(k, n_cfg))
    q0, f_idx, c_idx = best_key
    w0 = float(w_vals[q0 * refine + f_idx])
    idx = np.unravel_index(c_idx, shape)
    y_flat = int(np.ravel_multi_index(tuple((i + q0) % mesh for i in idx), shape))
    s0 = float(env_s[f_idx, y_flat])
    rec = ArgminRecord(
        s0, w0, np.array(idx, dtype=float) * vn.dx, abs(t - s0),
        float(circle_arc(z - w0)), float(np.sqrt(max(rho_pen[c_idx], 0.0))),
    )
    return best, rec


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025])
def test_in_place_envelope_matches_the_roll_scan_on_criterion_7_targets(eps):
    vn = pinned()
    cfg = ConvolutionConfig(epsilon=eps, n_time=201, shift_refine=16)
    for ti, xi in ((10, 5), (22, 20), (34, 41), (46, 58)):
        t, x = ti / 64.0 * vn.T, xi * vn.dx
        target = (t, x, EmpiricalMeasure(np.array([[x]])))
        assert_same_scan(inf_convolve(vn, target, cfg), roll_inf_convolve(vn, target, cfg))


def test_in_place_envelope_matches_the_roll_scan_for_two_particles():
    prob = two_particle_problem()
    vn = fd_solve(prob, 2, 12, required_time_steps(prob, 2, 12))
    for eps, n_time in ((0.1, vn.n_t + 1), (0.01, 33)):
        cfg = ConvolutionConfig(epsilon=eps, n_time=n_time, shift_refine=4)
        for k, idx, z in ((0, (3, 7), 0.0), (vn.n_t // 2, (11, 0), 0.3), (vn.n_t, (5, 5), 2.0)):
            atoms = EmpiricalMeasure((np.array(idx) * vn.dx)[:, None])
            target = (float(vn.times[k]), z, atoms)
            assert_same_scan(inf_convolve(vn, target, cfg), roll_inf_convolve(vn, target, cfg))


def test_shift_bound_matches_the_full_scan_on_the_benchmark_pair_targets():
    # fd_analysis's N = 2 convolutions: mesh 48, eps 0.1, the stored slices
    # as time grid, on-grid targets drawn as the benchmark draws them
    prob = two_particle_problem()
    vn = fd_solve(prob, 2, 48, required_time_steps(prob, 2, 48))
    cfg = ConvolutionConfig(epsilon=0.1, n_time=vn.n_t + 1, shift_refine=4)
    rng = np.random.default_rng(501)
    for z in (0.0, 0.0, 0.0, 2.5):
        kt, idx = int(rng.integers(0, vn.n_t + 1)), rng.integers(0, 48, 2)
        atoms = EmpiricalMeasure((idx * vn.dx)[:, None])
        target = (float(vn.times[kt]), z, atoms)
        assert_same_scan(inf_convolve(vn, target, cfg), roll_inf_convolve(vn, target, cfg))


def test_shift_bound_keeps_the_smallest_key_among_ties():
    # a constant value: the envelope is the same at every lattice point.  At
    # eps = 1e18 every penalty is below half an ulp of the value, so every
    # candidate ties and the smallest key (q, f, c) = (0, 0, 0) must win,
    # although the scan starts at the shift nearest z
    vn = of_full_array(np.full((5, 8, 8), 0.7), 0.5)
    mu = EmpiricalMeasure(np.array([[0.0], [np.pi]]))
    for eps in (0.2, 1e18):
        for z, refine in ((0.0, 1), (2.0, 2), (5.5, 4)):
            cfg = ConvolutionConfig(epsilon=eps, n_time=9, shift_refine=refine)
            got = inf_convolve(vn, (0.25, z, mu), cfg)
            assert_same_scan(got, roll_inf_convolve(vn, (0.25, z, mu), cfg))
            if eps == 1e18:
                assert got[0] == 0.7 and got[1].w0 == 0.0 and not got[1].x0.any()


def test_shift_bound_matches_the_full_scan_on_a_value_with_a_nan():
    values = np.array(solved(n=2, mesh=8).values)
    values[:, [3, 5], [5, 3]] = np.nan
    values[2, [0, 1], [1, 0]] = np.nan
    vn = of_full_array(values, 0.5)
    mu = EmpiricalMeasure(np.array([[0.4], [3.3]]))
    for t, z in ((0.0, 0.0), (0.3, 1.9), (0.5, 5.0)):
        cfg = ConvolutionConfig(epsilon=0.1, n_time=17, shift_refine=2)
        assert_same_scan(inf_convolve(vn, (t, z, mu), cfg), roll_inf_convolve(vn, (t, z, mu), cfg))


def test_multiset_scan_matches_the_roll_scan_for_three_particles():
    # at N = 3 the full-lattice envelope is symmetric only up to rounding (a
    # permuted point sums its corners in another order), so the roll scan may
    # find an unsorted x0, or a minimum an ulp lower, at a permuted point
    prob = two_particle_problem()
    vn = fd_solve(prob, 3, 8, required_time_steps(prob, 3, 8))
    unsorted = 0
    for eps, n_time in ((0.05, vn.n_t + 1), (0.1, 33)):
        cfg = ConvolutionConfig(epsilon=eps, n_time=n_time, shift_refine=4)
        rng = np.random.default_rng(0)
        for _ in range(6):
            kt, idx = int(rng.integers(0, vn.n_t + 1)), rng.integers(0, 8, 3)
            atoms = EmpiricalMeasure((idx * vn.dx)[:, None])
            target = (float(vn.times[kt]), float(rng.uniform(0.0, TWO_PI)), atoms)
            (val, rec), (val_roll, rec_roll) = (
                inf_convolve(vn, target, cfg), roll_inf_convolve(vn, target, cfg)
            )
            assert val == pytest.approx(val_roll, abs=1e-14)
            for name in ("s0", "w0", "t_gap", "z_gap", "rho_gap"):
                assert getattr(rec, name) == getattr(rec_roll, name), name
            assert np.array_equal(rec.x0, np.sort(rec_roll.x0))
            unsorted += not np.array_equal(rec.x0, rec_roll.x0)
    assert unsorted > 0  # the targets reach the rounding asymmetry


def test_lattice_tables_are_built_once_per_value_function_and_kept_read_only(monkeypatch):
    built = []

    def neighbour_ranks(N, mesh, steps):
        built.append((N, mesh))
        return fd.neighbour_ranks(N, mesh, steps)

    monkeypatch.setattr(convolution, "neighbour_ranks", neighbour_ranks)
    vn, single = solved(n=2, mesh=8), solved(n=1, mesh=8)
    mu = EmpiricalMeasure(np.array([[0.4], [3.3]]))
    for t, eps in ((0.3, 0.1), (0.1, 0.05), (0.5, 0.2)):
        inf_convolve(vn, (t, 1.9, mu), ConvolutionConfig(epsilon=eps, n_time=9))
    assert built == [(2, 8)]
    corners, *tables = convolution._lattice(vn)
    assert corners == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert not any(arr.flags.writeable for arr in tables)
    # the next value function's tables replace them, and go with it
    inf_convolve(single, (0.3, 1.9, EmpiricalMeasure(np.array([[0.4]]))), ConvolutionConfig(0.1))
    assert built == [(2, 8), (1, 8)] and list(convolution._TABLES) == [single]
    del single
    assert not convolution._TABLES


def test_debug_log_reports_the_scanned_nodes_and_shifts(caplog):
    vn = pinned()
    cfg = ConvolutionConfig(epsilon=0.05, n_time=201, shift_refine=16)
    target = (22 / 64.0 * vn.T, 20 * vn.dx, EmpiricalMeasure(np.array([[20 * vn.dx]])))
    quiet = inf_convolve(vn, target, cfg)
    with caplog.at_level(logging.DEBUG, logger="mfrl.convolution"):
        loud = inf_convolve(vn, target, cfg)
    assert_same_scan(loud, quiet)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "mfrl.convolution"]
    match = re.fullmatch(r"inf_convolve: (\d+) of 201 time nodes, (\d+) of 64 shifts", line)
    assert match, line
    nodes, shifts = map(int, match.groups())
    inv = 1.0 / (2.0 * cfg.epsilon)
    assert nodes == convolution._time_window(vn, target[0], inv, 201).size
    assert 1 <= shifts < 64
