"""Inf-convolution scans over discretized (time, shift, configuration) grids.

The inf-convolution of an extended value function V(s, w, x) = v(s, w + x) at a
target (t, z, mu) is

    inf over (s, w, x) of  V(s, w, x)
        + ( |t - s|^2 + dist(z, w)^2 + rho_star^2(mu^x, mu) ) / (2 eps),

taken here as an exact minimum over a finite search grid: time nodes on [0, T],
a refined shift grid on the circle, and the configurations of the grid
solution, one per multiset of lattice indices as ``GridValueFunction.slices``
holds them (v^N and rho_star see only the multiset).  The multilinear corners
of a point, and the point moved by a mesh multiple on every axis, are read
through the rank tables of ``fd.neighbour_ranks``, so only the fractional
part of the shift needs corner weights; the measure penalty is
``metric.rho_sq_rows`` of each multiset's row of ``torus.empirical_coefficients``,
bit for bit ``metric.rho_sq`` of its measure.  These tables are built on a
function's first scan, each cell ranked in closed form, and kept for its
later scans.

Only time nodes inside an exact window are scanned.  A blended value v(s, y)
weighs the same lattice nodes c with the same corner weights at every s, and
at each node blends the stored slices k(s) and k(s) + 1 around s.  Against
the node s* nearest t, both v(s, y) and v(s*, y) are convex combinations of
the values v_k[c] with k between

    lo(s) = min(k(s), k(s*))  and  hi(s) = max(k(s), k(s*)) + 1,

so they differ by at most the largest oscillation at one node over those
slices,

    osc(s) = max_c (max_k v_k[c] - min_k v_k[c]),  lo(s) <= k <= hi(s).

A node s with

    |t - s|^2 / (2 eps) > |t - s*|^2 / (2 eps) + osc(s) + margin

is beaten at every y by s* and can never hold a minimum.  The margin,
1e-12 (1 + max|v| + largest time penalty), covers the rounding of the
corner weights and of the sums.  osc(s) grows as s moves away from s*, so
it is kept as running max/min arrays widened one slice at a time outward
from k(s*); only the slices of the wider window that the oscillation over
all slices gives are visited.  Dropping such nodes, and keeping the others
in ascending order, leaves the minimum and its argmin record bit for bit as
the full scan gives them.  A value array with a non-finite entry keeps
every node.

Shifts are bounded the same way.  At shift q the candidates are

    fl(fl(M[f, c + q] + z_pen[q, f]) + rho_term[c]),

with M the time envelope and c + q the multiset c with every lattice index
moved by q.  Rounded addition is monotone in each term, so none
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
``gap_scaling_probe`` measures across an eps sweep by the least-squares
log-log line that ``ratelab.fit_rate`` also fits.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InputDomainError
from .fd import GridValueFunction, _slice_positions, neighbour_ranks
from .metric import MetricOrder, _log_log_line, rho_sq_rows
from .torus import Measure, TorusContext, circle_arc
from .torus import empirical_coefficients, fourier_coefficients

log = logging.getLogger(__name__)

#: the context of the measure penalty rho_star^2(mu^x, mu)
PENALTY_CTX = TorusContext(1, 64)

#: multiply-adds (M N K) of the largest product OpenBLAS keeps on the calling
#: thread; a larger one wakes a second, which spins ~0.12 s of CPU after it
_BLAS_ONE_THREAD = 65_536 * 4


@dataclass(frozen=True)
class ConvolutionConfig:
    """Penalty scale and search-grid resolution of the convolution scans."""

    epsilon: float
    n_time: int = 33
    shift_refine: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InputDomainError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
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


class _Lattice(NamedTuple):
    """Read-only tables of the lattice of one value function, shared by its scans."""

    corners: list  # the multilinear corners {0, 1}^N
    cells: np.ndarray  # the sorted cells of ``neighbour_ranks``, (n_sorted, N)
    corner_ranks: np.ndarray  # rank of each cell moved by each corner
    shift_ranks: np.ndarray  # rank of each cell moved by each shift (q, ..., q)
    coeffs: np.ndarray  # Fourier coefficients of mu^x at ``PENALTY_CTX``, (n_sorted, n_modes)


#: the tables of the last value function scanned, dropped with it
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _lattice(vn: GridValueFunction) -> _Lattice:
    """The tables of the lattice of ``vn``, built on its first scan.

    Only the tables of the last value function asked for are kept, and only
    while it lives.  A cell's coefficients are its C-contiguous row of
    ``empirical_coefficients``, as ``fourier_coefficients`` gives a target's,
    so a target on the lattice (N <= 2) reads exactly 0 at its own cell.
    """
    tables = _TABLES.get(vn)
    if tables is not None:
        return tables
    _TABLES.clear()
    N, mesh = vn.N, vn.mesh
    corners = list(product((0, 1), repeat=N))
    cells, table = neighbour_ranks(N, mesh, corners + [(q,) * N for q in range(mesh)])
    coeffs = empirical_coefficients(cells[:, :, None] * vn.dx, PENALTY_CTX)
    for arr in (cells, table, coeffs):
        arr.flags.writeable = False
    tables = _TABLES[vn] = _Lattice(
        corners, cells, table[: len(corners)], table[len(corners) :], coeffs
    )
    return tables


def _config_rho_sq(vn: GridValueFunction, mu: Measure) -> np.ndarray:
    """rho_star^2(mu^x, mu) at ``PENALTY_CTX`` for every multiset x of the
    value lattice.

    Returns a flat array in the rank order of ``vn.slices``.
    """
    diff = _lattice(vn).coeffs - fourier_coefficients(mu, PENALTY_CTX)
    return rho_sq_rows(diff, MetricOrder(PENALTY_CTX.k_star), PENALTY_CTX)


def _time_window(vn: GridValueFunction, t: float, inv: float, n_time: int) -> np.ndarray:
    """The time nodes that can hold a minimum, in ascending order.

    The exact window of the module docstring; a value array with a
    non-finite entry keeps every node.
    """
    s_vals = np.linspace(0.0, vn.T, n_time)
    t_pen = inv * (t - s_vals) ** 2
    slices = vn.slices
    v_lo, v_hi = slices.min(axis=0), slices.max(axis=0)
    osc = float((v_hi - v_lo).max())
    if not math.isfinite(osc):
        return s_vals
    v_abs = max(abs(float(v_lo.min())), abs(float(v_hi.max())))
    margin = 1e-12 * (1.0 + v_abs + float(t_pen.max()))
    floor = t_pen.min()
    ks = _slice_positions(vn, s_vals)[0]
    wide = ks[~(t_pen > floor + osc + margin)]
    k_near = int(ks[np.argmin(t_pen)])
    # osc_at[k]: the oscillation over slices min(k, k_near) .. max(k, k_near) + 1,
    # widened outward from k_near across the window of the global osc (later
    # slices, then earlier ones); outside it the global osc drops every node
    osc_at = np.full(vn.n_t, osc)
    run_lo, run_hi, spread = np.empty((3, slices.shape[1]))
    for first, outward, ahead in (
        (k_near, range(k_near, int(wide.max()) + 1), 1),
        (k_near + 1, range(k_near, int(wide.min()) - 1, -1), 0),
    ):
        run_lo[:] = run_hi[:] = slices[first]
        for k in outward:
            np.minimum(run_lo, slices[k + ahead], out=run_lo)
            np.maximum(run_hi, slices[k + ahead], out=run_hi)
            osc_at[k] = np.subtract(run_hi, run_lo, out=spread).max()
    return s_vals[~(t_pen > floor + osc_at[ks] + margin)]


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
    penalties.  Ties are broken toward the smallest (w, sorted x) with the
    smallest minimizing s per physical point: time nodes are scanned in
    ascending order with strict-less comparisons, and shifts under the bound
    of the module docstring.  A target time or shift that is not finite is
    refused with ``InputDomainError``.  ``MFRL_LOG=debug`` prints one
    line per call: the time nodes and the shifts it scanned.
    """
    t, z, mu = target
    if not (math.isfinite(t) and math.isfinite(z)):
        raise InputDomainError(f"target time and shift must be finite, got {t!r}, {z!r}")
    inv = 1.0 / (2.0 * cfg.epsilon)
    slices = vn.slices
    rho_pen = _config_rho_sq(vn, mu)  # (n_sorted,) by rank
    mesh = vn.mesh
    refine = cfg.shift_refine
    w_vals = np.arange(mesh * refine) * (vn.dx / refine)
    z_pen = (inv * circle_arc(z - w_vals) ** 2).reshape(mesh, refine)
    s_vals = _time_window(vn, t, inv, cfg.n_time)

    # multilinear blend of a lattice slice at uniform diagonal offset f*dx:
    # 2^N corners with weight f^{|e|} (1-f)^{N-|e|}
    corners, cells, corner_ranks, shift_ranks, _ = _lattice(vn)
    fracs = (np.arange(refine) * (1.0 / refine))[:, None]
    corner_w = np.empty((refine, len(corners)))
    for ci, e in enumerate(corners):
        ones = sum(e)
        corner_w[:, ci : ci + 1] = fracs**ones * (1.0 - fracs) ** (vn.N - ones)
    n_sorted = cells.shape[0]
    width = max(1, _BLAS_ONE_THREAD // corner_w.size)  # columns of a blend chunk
    chunks = [slice(lo, lo + width) for lo in range(0, n_sorted, width)]

    # time envelope per refined diagonal point: M[f, c] = min_s v(s, y) + t-pen.
    # v(s) blends stored slices k and k + 1 with weight theta; corner e of the
    # multilinear blend is gathered through its rank table
    ks, thetas = _slice_positions(vn, s_vals)
    t_pens = inv * (t - s_vals) ** 2
    blend, tmp = np.empty((2, n_sorted))
    stack = np.empty((len(corners), n_sorted))
    cand = np.empty((refine, n_sorted))
    better = np.empty((refine, n_sorted), dtype=bool)
    envelope = np.full((refine, n_sorted), np.inf)
    env_s = np.zeros((refine, n_sorted))
    for s, k, theta, pen in zip(s_vals, ks, thetas, t_pens):
        np.multiply(slices[k], 1.0 - theta, out=blend)
        blend += np.multiply(slices[k + 1], theta, out=tmp)
        # every index is in range; any mode but "raise" lets take write to out unbuffered
        np.take(blend, corner_ranks, out=stack, mode="wrap")
        for cols in chunks:
            np.matmul(corner_w, stack[:, cols], out=cand[:, cols])
        cand += pen
        np.less(cand, envelope, out=better)
        np.copyto(envelope, cand, where=better)
        np.copyto(env_s, s, where=better)

    # w = (q + f/refine) dx moves the lattice part by q on every axis: the
    # candidate at c reads the envelope at the multiset of c + (q, ..., q)
    rho_term = inv * rho_pen
    obj = np.empty((refine, n_sorted))
    flat = obj.reshape(-1)
    # the shift bound of the module docstring, nearest shifts to z first
    z_min = z_pen.min(axis=1)
    bounds = (envelope.min() + z_min) + rho_term.min()
    best, best_key = np.inf, (0, 0, 0)
    scanned = 0
    for q in np.argsort(z_min, kind="stable").tolist():
        if bounds[q] > best or (bounds[q] == best and q > best_key[0]):
            continue
        scanned += 1
        np.take(envelope, shift_ranks[q], axis=1, out=obj, mode="wrap")
        obj += z_pen[q][:, None]
        obj += rho_term
        k = int(np.argmin(flat))
        if flat[k] < best or (flat[k] == best and q < best_key[0]):
            best, best_key = float(flat[k]), (q, *divmod(k, n_sorted))
    log.debug(
        "inf_convolve: %d of %d time nodes, %d of %d shifts",
        s_vals.size, cfg.n_time, scanned, mesh,
    )

    q0, f_idx, c_idx = best_key
    w0 = float(w_vals[q0 * refine + f_idx])
    x0 = cells[c_idx] * vn.dx
    # env_s is indexed by the physical lattice point y = x + q dx
    s0 = float(env_s[f_idx, shift_ranks[q0, c_idx]])
    rho_gap = float(np.sqrt(rho_pen[c_idx]))
    rec = ArgminRecord(s0=s0, w0=w0, x0=x0, t_gap=abs(t - s0),
                       z_gap=float(circle_arc(z - w0)), rho_gap=rho_gap)
    return best, rec


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


def gap_scaling_probe(
    vn: GridValueFunction,
    targets: list[tuple[float, float, Measure]],
    eps_list: list[float],
    n_time: int = 33,
    shift_refine: int = 8,
) -> GapTable:
    """Max argmin gaps per epsilon across targets, with fitted log-log slopes
    (a gap of 0 counted as half a grid cell); fewer than 3 distinct epsilon
    values are refused before any scan."""
    if len(set(eps_list)) < 3:
        raise InputDomainError("slope fits need at least 3 distinct epsilon values")
    rows = []
    for eps in sorted(eps_list, reverse=True):
        cfg = ConvolutionConfig(epsilon=eps, n_time=n_time, shift_refine=shift_refine)
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
    t_slope = _log_log_line(eps_arr, np.maximum([r.t_gap for r in rows], 0.5 * t_cell))[0]
    z_slope = _log_log_line(eps_arr, np.maximum([r.z_gap for r in rows], 0.5 * z_cell))[0]
    return GapTable(tuple(rows), t_slope, z_slope, t_cell, z_cell)
