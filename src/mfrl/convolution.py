"""Inf- and sup-convolution scans over discretized (time, shift, configuration) grids.

The inf-convolution of an extended value function V(s, w, x) = v(s, w + x) at a
target (t, z, mu) is

    inf over (s, w, x) of  V(s, w, x)
        + ( |t - s|^2 + dist(z, w)^2 + rho_star^2(mu^x, mu) ) / (2 eps),

taken here as an exact minimum over a finite search grid: time nodes on [0, T],
a refined shift grid on the circle, and the full configuration lattice of the
grid solution.  The scan exploits that shifting every particle by a mesh
multiple is an index roll of the value array, so only the fractional part of
the shift needs multilinear corner weights.

Only time nodes inside an exact window are scanned.  A blended value v(s, y)
weighs the same lattice nodes c with the same corner weights at every s, and
at each node blends two stored slices in time, so v(s, y) and v(s', y) differ
by at most the largest temporal oscillation at one node,

    osc = max_c (max_k v_k[c] - min_k v_k[c]).

A node s with

    |t - s|^2 / (2 eps) > min_s' |t - s'|^2 / (2 eps) + osc + margin

is beaten at every y by the node nearest t and can never hold a minimum.  The
margin, 1e-12 (1 + max|v| + largest time penalty), covers the rounding of the
corner weights and of the sums.  Dropping such nodes, and keeping the others
in ascending order, leaves the minimum and its argmin record bit for bit as
the full scan gives them.

Shifts are bounded the same way.  At shift q the candidates are

    fl(fl(M[f, c + q] + z_pen[q, f]) + rho_term[c]),

with M the time envelope and c + q the configuration c with every lattice
index moved by q.  Rounded addition is monotone in each term, so none
is below

    fl(fl(min M + min_f z_pen[q, f]) + min rho_term).

The scan visits shifts in ascending order of min_f z_pen[q], nearest z first,
and skips a shift whose bound is above the best value so far, or equal to it
with a larger q: it cannot hold a smaller value, nor a tie with a smaller
key.  A tie goes to the smallest (q, f, c), as in the ascending scan, and a
NaN bound compares false, so a NaN envelope turns the skip off.  Value and
argmin record are again those of the full scan, bit for bit.

The argmin gaps |t - s0|, dist(z, w0), rho_star(mu^{x0}, mu) shrink with eps at
known rates (2/3, 1, and an eps + alpha(N) mix respectively), which
``gap_scaling_probe`` measures by log-log fits across an eps sweep.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConfigurationError, InputDomainError
from .fd import GridValueFunction
from .metric import metric_weights
from .torus import TWO_PI, EmpiricalMeasure, Measure, TorusContext, circle_arc
from .torus import fourier_coefficients, phase_table

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConvolutionConfig:
    """Search-grid resolution and metric context for the convolution scans."""

    epsilon: float
    n_time: int = 33
    shift_refine: int = 8
    ctx: TorusContext = field(default_factory=lambda: TorusContext(1, 64))

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InputDomainError("epsilon must be > 0")
        if self.n_time < 2 or self.shift_refine < 1:
            raise ConfigurationError("search grid is empty or degenerate")


@dataclass(frozen=True)
class ArgminRecord:
    s0: float
    w0: float
    x0: np.ndarray
    t_gap: float
    z_gap: float
    rho_gap: float


def _config_rho_sq(vn: GridValueFunction, mu: Measure, ctx: TorusContext) -> np.ndarray:
    """rho_star^2(mu^x, mu) for every configuration x of the value lattice.

    Returns a flat array of length mesh**N in C order of the lattice indices.
    The per-config Fourier coefficients are the mean over particles of a
    per-node coefficient table, accumulated axis by axis.
    """
    mw = metric_weights(ctx, ctx.k_star)
    nodes = np.arange(vn.mesh) * vn.dx
    table = phase_table(nodes[:, None], ctx)  # (n_modes, mesh)
    n_modes = table.shape[0]
    shape = (vn.mesh,) * vn.N
    total = np.zeros((n_modes,) + shape, dtype=complex)
    for axis in range(vn.N):
        view = [None] * (vn.N + 1)
        view[0] = slice(None)
        view[axis + 1] = slice(None)
        total += table[tuple(view)]
    # normalized as fourier_coefficients normalizes a mean, so a target on
    # the lattice (N <= 2) reads exactly 0 at its own configuration
    norm = TWO_PI ** (-0.5)
    coeffs = norm * (total / vn.N).reshape(n_modes, -1)  # (n_modes, n_cfg)
    target = fourier_coefficients(mu, ctx).coeffs
    diff = coeffs - target[:, None]
    return np.einsum("m,mc->c", mw.weights, np.abs(diff) ** 2).real


def _time_window(vn: GridValueFunction, t: float, inv: float, n_time: int) -> np.ndarray:
    """The time nodes that can hold a minimum, in ascending order.

    The exact window of the module docstring; a value array with a
    non-finite entry keeps every node.
    """
    s_vals = np.linspace(0.0, vn.T, n_time)
    t_pen = inv * (t - s_vals) ** 2
    v_lo, v_hi = vn.values.min(axis=0), vn.values.max(axis=0)
    osc = float((v_hi - v_lo).max())
    v_abs = max(abs(float(v_lo.min())), abs(float(v_hi.max())))
    margin = 1e-12 * (1.0 + v_abs + float(t_pen.max()))
    return s_vals[~(t_pen > t_pen.min() + osc + margin)]


def inf_convolve(
    vn: GridValueFunction,
    target: tuple[float, float, Measure],
    cfg: ConvolutionConfig,
) -> tuple[float, ArgminRecord]:
    """Exact minimum of the penalized extended value over the search grid.

    The scan factorizes through the physical configuration y = w + x: the
    value v(s, y) and the time penalty depend on (s, y) only, so the minimum
    over s is taken once per refined-diagonal point y (a Moreau envelope in
    time), after which the (w, x) split only weighs the shift and measure
    penalties.  Ties are broken toward the smallest (w, lexicographic x) with
    the smallest minimizing s per physical point: time nodes are scanned in
    ascending order with strict-less comparisons, and shifts under the bound
    of the module docstring.  ``MFRL_LOG=debug`` prints one line per call:
    the time nodes and the shifts it scanned.
    """
    t, z, mu = target
    inv = 1.0 / (2.0 * cfg.epsilon)
    rho_pen = _config_rho_sq(vn, mu, cfg.ctx)  # (n_cfg,) C-order
    n_cfg = rho_pen.size
    mesh = vn.mesh
    refine = cfg.shift_refine
    delta = vn.dx / refine
    n_shift = mesh * refine
    w_vals = np.arange(n_shift) * delta
    z_pen = (inv * circle_arc(z - w_vals) ** 2).reshape(mesh, refine)
    s_vals = _time_window(vn, t, inv, cfg.n_time)

    # multilinear blend of a lattice slice at uniform diagonal offset f*dx:
    # 2^N corners with weight f^{|e|} (1-f)^{N-|e|}
    corners = list(product((0, 1), repeat=vn.N))
    fracs = (np.arange(refine) * (1.0 / refine))[:, None]
    corner_w = np.empty((refine, len(corners)))
    for ci, e in enumerate(corners):
        ones = sum(e)
        corner_w[:, ci : ci + 1] = fracs**ones * (1.0 - fracs) ** (vn.N - ones)

    # time envelope per refined diagonal point: M[f, c] = min_s v(s, y) + t-pen.
    # v(s) blends stored slices k and k + 1 with weight theta, and is written
    # into a periodic halo one plane wider per axis, so corner e of the
    # multilinear blend is the view starting at e
    pos = np.clip(s_vals, 0.0, vn.T) / vn.dt
    ks = np.minimum(pos.astype(int), vn.n_t - 1)
    thetas = pos - ks
    t_pens = inv * (t - s_vals) ** 2
    shape = (mesh,) * vn.N
    halo = np.empty((mesh + 1,) * vn.N)
    inner = halo[(slice(0, mesh),) * vn.N]
    faces = [
        ((slice(None),) * axis + (mesh,), (slice(None),) * axis + (0,)) for axis in range(vn.N)
    ]
    views = [halo[tuple(slice(b, b + mesh) for b in e)] for e in corners]
    stack = np.empty((len(corners), n_cfg))
    rows = stack.reshape((len(corners),) + shape)
    tmp = np.empty(shape)
    cand = np.empty((refine, n_cfg))
    better = np.empty((refine, n_cfg), dtype=bool)
    envelope = np.full((refine, n_cfg), np.inf)
    env_s = np.zeros((refine, n_cfg))
    for s, k, theta, pen in zip(s_vals, ks, thetas, t_pens):
        np.multiply(vn.values[k], 1.0 - theta, out=inner)
        inner += np.multiply(vn.values[k + 1], theta, out=tmp)
        for end, src in faces:
            halo[end] = halo[src]
        for row, view in zip(rows, views):
            row[...] = view
        np.matmul(corner_w, stack, out=cand)
        cand += pen
        np.less(cand, envelope, out=better)
        np.copyto(envelope, cand, where=better)
        np.copyto(env_s, s, where=better)

    # w = (q + f/refine) dx shifts the lattice part by q on every axis: the
    # envelope rolled by -q is the view at offset q of the envelope doubled
    # along each lattice axis
    doubled = np.tile(envelope.reshape((refine,) + shape), (1,) + (2,) * vn.N)
    col = (refine,) + (1,) * vn.N
    rho_term = (inv * rho_pen).reshape(shape)
    obj = np.empty((refine,) + shape)
    flat = obj.reshape(-1)
    # the shift bound of the module docstring, nearest shifts to z first
    z_min = z_pen.min(axis=1)
    bounds = (envelope.min() + z_min) + rho_term.min()
    best = np.inf
    best_key = (0, 0, 0)
    scanned = 0
    for q in np.argsort(z_min, kind="stable").tolist():
        if bounds[q] > best or (bounds[q] == best and q > best_key[0]):
            continue
        scanned += 1
        rolled = doubled[(slice(None),) + (slice(q, q + mesh),) * vn.N]
        np.add(rolled, z_pen[q].reshape(col), out=obj)
        obj += rho_term
        k = int(np.argmin(flat))
        if flat[k] < best or (flat[k] == best and q < best_key[0]):
            best = float(flat[k])
            f_idx, c_idx = divmod(k, n_cfg)
            best_key = (q, f_idx, c_idx)
    log.debug(
        "inf_convolve: %d of %d time nodes, %d of %d shifts",
        s_vals.size, cfg.n_time, scanned, mesh,
    )

    q0, f_idx, c_idx = best_key
    w0 = float(w_vals[q0 * refine + f_idx])
    idx = np.unravel_index(c_idx, shape)
    x0 = np.array(idx, dtype=float) * vn.dx
    # env_s is indexed by the physical lattice point y = x + q dx
    y_idx = tuple((i + q0) % mesh for i in idx)
    s0 = float(env_s[(f_idx,) + (int(np.ravel_multi_index(y_idx, shape)),)])
    rho_gap = float(np.sqrt(max(rho_pen[c_idx], 0.0)))
    rec = ArgminRecord(
        s0=s0,
        w0=w0,
        x0=x0,
        t_gap=abs(t - s0),
        z_gap=float(circle_arc(z - w0)),
        rho_gap=rho_gap,
    )
    return best, rec


def sup_convolve_testfn(
    phi_at_z,
    t0: float,
    s: float,
    w: float,
    atoms: EmpiricalMeasure,
    mu0: Measure,
    cfg: ConvolutionConfig,
    n_z: int = 512,
) -> float:
    """Sup-convolved test function

        sup_z { phi(z) - dist(w, z)^2 / (2 eps) }
            - |s - t0|^2 / (2 eps) - rho_star^2(mu^x, mu0) / (2 eps),

    with the supremum taken over a uniform circle grid that contains w, so the
    result is >= phi(w) minus the time and measure penalties exactly.
    """
    inv = 1.0 / (2.0 * cfg.epsilon)
    z_grid = np.arange(n_z) * (TWO_PI / n_z)
    z_grid = np.append(z_grid, w)
    phi_vals = np.asarray([float(phi_at_z(z)) for z in z_grid])
    pen = inv * circle_arc(w - z_grid) ** 2
    sup_term = float(np.max(phi_vals - pen))
    from .metric import rho_sq as _rho_sq
    from .metric import MetricOrder

    rho_pen = _rho_sq(atoms, mu0, MetricOrder(cfg.ctx.k_star), cfg.ctx)
    return sup_term - inv * (s - t0) ** 2 - inv * rho_pen


@dataclass(frozen=True)
class GapRow:
    epsilon: float
    t_gap: float
    z_gap: float
    rho_gap: float


@dataclass(frozen=True)
class GapTable:
    rows: tuple[GapRow, ...]
    t_slope: float
    z_slope: float
    t_cell: float
    z_cell: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epsilon,t_gap,z_gap,rho_gap,fit_slope\n")
        for i, r in enumerate(self.rows):
            slope = self.t_slope if i == 0 else ""
            buf.write(
                f"{r.epsilon:.12g},{r.t_gap:.12g},{r.z_gap:.12g},"
                f"{r.rho_gap:.12g},{slope}\n"
            )
        return buf.getvalue()


def _fit_slope(eps: np.ndarray, gaps: np.ndarray, floor: float) -> float:
    """Log-log slope of gap vs eps; zero gaps are clamped to half a grid cell."""
    g = np.maximum(gaps, 0.5 * floor)
    coef = np.polyfit(np.log(eps), np.log(g), 1)
    return float(coef[0])


def gap_scaling_probe(
    vn: GridValueFunction,
    targets: list[tuple[float, float, Measure]],
    eps_list: list[float],
    n_time: int = 33,
    shift_refine: int = 8,
    ctx: TorusContext | None = None,
) -> GapTable:
    """Max argmin gaps per epsilon across targets, with fitted log-log slopes."""
    if len(eps_list) < 3:
        raise InputDomainError("slope fits require at least 3 epsilon values")
    if ctx is None:
        ctx = TorusContext(1, 64)
    eps_sorted = sorted(eps_list, reverse=True)
    rows = []
    for eps in eps_sorted:
        cfg = ConvolutionConfig(
            epsilon=eps, n_time=n_time, shift_refine=shift_refine, ctx=ctx
        )
        t_gap = z_gap = rho_gap = 0.0
        for target in targets:
            _, rec = inf_convolve(vn, target, cfg)
            t_gap = max(t_gap, rec.t_gap)
            z_gap = max(z_gap, rec.z_gap)
            rho_gap = max(rho_gap, rec.rho_gap)
        rows.append(GapRow(eps, t_gap, z_gap, rho_gap))
    eps_arr = np.array([r.epsilon for r in rows])
    t_cell = vn.T / (n_time - 1)
    z_cell = vn.dx / shift_refine
    t_slope = _fit_slope(eps_arr, np.array([r.t_gap for r in rows]), t_cell)
    z_slope = _fit_slope(eps_arr, np.array([r.z_gap for r in rows]), z_cell)
    return GapTable(tuple(rows), t_slope, z_slope, t_cell, z_cell)
