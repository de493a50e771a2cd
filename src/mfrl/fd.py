"""Finite-difference solver for the N-particle HJB equation (d = 1).

The equation solved backward from the terminal slice is

    -dv/dt = sum_i [ b(x^i, mu^x) dv/dx^i + (1/N) f(x^i, mu^x)
                     + (lambda N / 2) (dv/dx^i)^2 ]
             + sum_i d^2 v / d(x^i)^2
             + a * sum_{i,j} d^2 v / dx^i dx^j ,
    v(T, x) = G(mu^x),

on the periodic tensor grid (2 pi / m) Z^N.  Spatial derivatives use central
differences; the drift term switches to monotone upwinding when the cell
Peclet number exceeds one.  The common-noise cross term is discretized through
the shift identity sum_{i,j} d^2_{ij} v = d^2/dw^2 [v(w + x)] at w = 0, i.e. a
3-point stencil along the global diagonal, which avoids N^2 mixed stencils.
Time stepping is explicit Euler under a diffusion-dominated stability bound.

v^N is a function of the empirical measure mu^x, so the scheme, which
treats every axis alike, is solved once per multiset of lattice indices:
C(mesh + N - 1, N) sorted configurations instead of mesh^N nodes (19,600 of
110,592 at N = 3, mesh 48).  Each step reads the neighbours of a sorted node
(+-e_i on every axis, and +-(1, ..., 1) for the diagonal, which wraps across
the seam: (3, 47) + 1 is (4, 0), stored as (0, 4)) through the integer rank
tables of ``neighbour_ranks``; the inf-convolution and ``lipschitz_probe``
read through the same tables.  All come from one rank table per lattice, the
sorted cells (found without a sort) and every node's multiset, shared while
a value function of that lattice lives.  A ``GridValueFunction`` holds one
value per multiset and time slice, as the solve and the value file (version
2) do, and every read takes its rows through ``_rows``.  ``values``, the
full lattice, is expanded one slice at a time: by a solution on first read,
and by ``load`` as it reads the file.

The step is fused: every linear term is folded, once per solve, into
coefficients of the node itself, of its two neighbours along each axis
(arrays when there is drift, since the drift and the upwind choice vary by
node; scalars otherwise) and of its two diagonal neighbours (a scalar), plus
dt f.  Neighbours are gathered into buffers allocated once per solve, so the
step loop allocates no array.  The quadratic (lambda > 0) term adds one pass
per axis.
"""

from __future__ import annotations

import logging
import os
import struct
import time
import weakref
from dataclasses import dataclass
from functools import cached_property
from math import ceil, comb, isfinite, log2

import numpy as np

from .errors import ConfigurationError, DivergenceError, InputDomainError, ResourceBudgetError
from .problems import ProblemSpec
from .torus import TWO_PI, seeded_generator, w1_circle_rows
from .torus import w1_circle  # noqa: F401  (the benchmark times fd's W1 under this name)
from .trig import mean_field_eval

_MAGIC = b"MFRL1"
_VERSION = 2

#: hard cap on the bytes of the value array of one solve, (n_t + 1) mesh^N doubles
VALUE_BYTES_BUDGET = 1 << 30

#: magic, version, N, d, mesh, n_t, T
_HEADER = struct.Struct("<5sIIIIId")

_CFL_SAFETY = 0.9

log = logging.getLogger(__name__)


class GridValueFunction:
    """Backward-in-time solution on the periodic tensor grid.

    ``slices[k]`` is the slice at ``t_k = k T / n_t``, one value per multiset
    in the order of ``neighbour_ranks``; the last slice is G(mu^x) exactly.
    ``values[k]`` is the same slice on the full lattice.  A function is built
    from its slices; only ``load`` makes one that holds ``values`` instead.
    ``_rows`` alone knows which of the two is held: every read goes through it.
    """

    def __init__(self, N: int, mesh: int, n_t: int, T: float, slices: np.ndarray):
        _check_grid(N, mesh, n_t, T)
        s = np.asarray(slices, dtype=float).view()  # the caller's array stays writable
        expected = (n_t + 1, comb(mesh + N - 1, N))
        if s.shape != expected:
            raise InputDomainError(f"value slices of shape {s.shape} != {expected}")
        s.flags.writeable = False
        self.N, self.mesh, self.n_t, self.T = N, mesh, n_t, T
        self._ranks = _rank_table(N, mesh)
        self.slices = s  # fills the cached property below

    @cached_property
    def values(self) -> np.ndarray:  # shape (n_t + 1,) + (mesh,) * N, read-only
        return _expand(self, (self._rows(k) for k in range(self.n_t + 1)))

    @cached_property
    def slices(self) -> np.ndarray:  # shape (n_t + 1, C(mesh + N - 1, N)), read-only
        slices = self._rows(slice(None))
        slices.flags.writeable = False
        return slices

    def _rows(self, ks) -> np.ndarray:
        """``slices[ks]`` for any index ``ks`` of the time axis: read from
        ``slices``, or, if only ``values`` are held, gathered from them."""
        if "slices" in vars(self):
            return self.slices[ks]
        keys, flat = self._ranks.keys, self.values.reshape(self.n_t + 1, -1)
        ks = np.arange(self.n_t + 1)[ks]
        rows = np.empty(ks.shape + keys.shape)
        for k, row in zip(ks.reshape(-1), rows.reshape(-1, keys.size)):
            np.take(flat[k], keys, out=row)
        return rows

    @property
    def dx(self) -> float:
        return TWO_PI / self.mesh

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_t + 1) * self.dt

    def slice_at(self, k: int) -> np.ndarray:
        """Time slice k on the full lattice, expanded from its row alone."""
        return self._rows(k)[self._ranks.multiset].reshape((self.mesh,) * self.N)

    def value(self, t: float, configs) -> np.ndarray | float:
        """Multilinear-in-space, linear-in-time interpolation.

        ``configs`` is one configuration (N,) or a stack (M, N) of finite
        coordinates.  Only the two slices around ``t`` are read.
        """
        x = np.atleast_2d(np.asarray(configs, dtype=float))
        if x.shape[1] != self.N:
            raise InputDomainError("configuration size does not match N")
        if not np.isfinite(x).all():
            raise InputDomainError("configuration coordinates must be finite")
        t = float(t)
        if not isfinite(t):
            raise InputDomainError(f"time {t} is not finite")
        (kt,), (wt,) = _slice_positions(self, np.array([t]))
        below, above = self._rows(slice(kt, kt + 2))
        u = np.mod(x, TWO_PI) / self.dx
        i0 = np.floor(u).astype(int) % self.mesh
        frac = u - np.floor(u)
        out = np.zeros(x.shape[0])
        for corner in range(2**self.N):
            bits = (corner >> np.arange(self.N)) & 1
            idx = (i0 + bits[None, :]) % self.mesh
            w = np.prod(np.where(bits[None, :] == 1, frac, 1.0 - frac), axis=1)
            # the corner is unsorted in general: its flat node names its multiset
            rank = self._ranks.multiset[np.ravel_multi_index(tuple(idx.T), (self.mesh,) * self.N)]
            out += w * ((1.0 - wt) * below[rank] + wt * above[rank])
        return float(out[0]) if np.asarray(configs).ndim == 1 else out

    def save(self, path) -> None:
        """Binary layout: magic, version u32, N, d, mesh, n_t u32, T f64, then
        the n_t + 1 rows of ``slices``, C(mesh + N - 1, N) f64 LE values each."""
        start = time.perf_counter()
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, self.N, 1, self.mesh, self.n_t, self.T))
            np.ascontiguousarray(self._rows(slice(None)), dtype="<f8").tofile(fh)
            size = fh.tell()
        _log_io("save", self, self._ranks.keys.size, size, start)

    @classmethod
    def load(cls, path) -> "GridValueFunction":
        start = time.perf_counter()
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise InputDomainError(f"value file of {len(head)} bytes has no full header")
            magic, version, n, d, mesh, n_t, t_horizon = _HEADER.unpack(head)
            if magic != _MAGIC:
                raise InputDomainError(f"bad magic {magic!r}")
            if version != _VERSION:
                raise InputDomainError(
                    f"value file version {version}; this reader reads version {_VERSION}"
                )
            if d != 1:
                raise InputDomainError(f"value file of dimension {d}; only d = 1 is solved")
            # every check comes before anything is allocated
            _check_grid(n, mesh, n_t, t_horizon)
            n_sorted = comb(mesh + n - 1, n)
            size, needed = os.fstat(fh.fileno()).st_size, _HEADER.size + 8 * (n_t + 1) * n_sorted
            if size != needed:
                raise InputDomainError(f"value file has {size} bytes; its header needs {needed}")
            _check_value_bytes(n, mesh, n_t)
            vn = cls.__new__(cls)  # holds values alone, expanded slice by slice as read
            vn.N, vn.mesh, vn.n_t, vn.T, vn._ranks = n, mesh, n_t, t_horizon, _rank_table(n, mesh)
            vn.values = _expand(vn, _read_slices(fh, n_t + 1, n_sorted))
        _log_io("load", vn, n_sorted, size, start)
        return vn


def _check_grid(N: int, mesh: int, n_t: int, T: float) -> None:
    # mesh^N < 2^64 bounds an absurd file header before a huge power or binomial
    if min(N, mesh, n_t) < 1 or N * log2(mesh) > 64:
        raise InputDomainError(f"bad value grid N={N} mesh={mesh} n_t={n_t}")
    if not (isfinite(T) and T > 0):
        raise InputDomainError(f"value horizon T = {T!r} is not finite and > 0")


def _check_value_bytes(N: int, mesh: int, n_t: int) -> None:
    value_bytes = (n_t + 1) * mesh**N * 8
    if value_bytes > VALUE_BYTES_BUDGET:
        raise ResourceBudgetError(
            f"value array of {value_bytes} bytes exceeds budget {VALUE_BYTES_BUDGET}"
        )


def _slice_positions(vn: GridValueFunction, times: np.ndarray):
    """The stored slice k below each time and the weight theta of slice k + 1."""
    pos = np.clip(times, 0.0, vn.T) / vn.dt
    ks = np.minimum(pos.astype(int), vn.n_t - 1)
    return ks, pos - ks


def _multisets(N: int, mesh: int) -> tuple[np.ndarray, np.ndarray]:
    """The multisets of lattice indices, and the multiset of each lattice node.

    Sorting an index tuple names its multiset.  Returns the flat lattice
    index of each node whose index tuple does not decrease, ascending
    (C(mesh + N - 1, N) of them), and for every flat lattice node the rank
    of its multiset among them: the rank, in a dense mesh^N array, of its
    tuple sorted by a network of N (N - 1) / 2 min/max exchanges.  int32
    indices (mesh < 2^27 under the value budget) halve the set-up arrays.
    """
    shape = (mesh,) * N
    index = np.indices(shape, dtype=np.int32).reshape(N, -1)
    keys = np.flatnonzero((index[1:] >= index[:-1]).all(axis=0))
    for top in range(N - 1, 0, -1):
        for i in range(top):  # compare-exchange rows i and i + 1
            index[i : i + 2] = np.minimum(index[i], index[i + 1]), np.maximum(index[i], index[i + 1])
    rank = np.zeros(mesh**N, dtype=np.intp)
    rank[keys] = np.arange(keys.size)
    return keys, rank[np.ravel_multi_index(tuple(index), shape)]


class _Ranks:  # the rank table of one lattice, weakly referable
    pass  # its arrays stay writable: np.take copies a read-only index array per call


#: the rank table of each lattice (N, mesh), while a value function holds it
_RANK_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _rank_table(N: int, mesh: int) -> _Ranks:
    """``_multisets(N, mesh)`` as ``keys`` and ``multiset``: a function's
    solve, reads, scans and loaded copies share one table."""
    ranks = _RANK_TABLES.get((N, mesh))
    if ranks is None:
        ranks = _RANK_TABLES[N, mesh] = _Ranks()
        ranks.keys, ranks.multiset = _multisets(N, mesh)
    return ranks


def neighbour_ranks(N: int, mesh: int, steps) -> tuple[np.ndarray, np.ndarray]:
    """The sorted cells, and the rank of every cell moved by each step.

    Returns the sorted index tuples, shape (C(mesh + N - 1, N), N), ranked
    by ascending flat lattice index (the order of ``slices`` and of the value
    file), and a table whose row j holds the rank of the multiset of each
    cell moved by ``steps[j]`` on the periodic lattice.
    """
    shape, ranks = (mesh,) * N, _rank_table(N, mesh)
    cells = np.stack(np.unravel_index(ranks.keys, shape), axis=-1)
    table = np.empty((len(steps), cells.shape[0]), dtype=ranks.multiset.dtype)
    for row, step in zip(table, steps):
        # the moved cell is unsorted in general: its flat node names its multiset
        moved = np.ravel_multi_index(tuple(((cells + step) % mesh).T), shape)
        np.take(ranks.multiset, moved, out=row)
    return cells, table


def _expand(vn: GridValueFunction, rows) -> np.ndarray:
    """Read-only full-lattice array of ``vn``, each of its n_t + 1 multiset
    rows (an iterable) gathered into its time slice."""
    values = np.empty((vn.n_t + 1,) + (vn.mesh,) * vn.N)
    flat = values.reshape(vn.n_t + 1, -1)  # a view: the gather writes into values
    multiset = vn._ranks.multiset
    for k, row in enumerate(rows):
        # every index is in range; any mode but "raise" lets take write to out unbuffered
        np.take(row, multiset, out=flat[k], mode="wrap")
    values.flags.writeable = False
    return values


def _read_slices(fh, count: int, n_sorted: int):
    """The next ``count`` slices of ``n_sorted`` f64 LE values, read one at a
    time into the same buffer."""
    row = np.empty(n_sorted, dtype="<f8")
    for _ in range(count):
        if fh.readinto(row) != row.nbytes:
            raise InputDomainError("value file ended before its last slice")
        yield row


def _log_io(what: str, vn: GridValueFunction, n_sorted: int, size: int, start: float) -> None:
    log.info(
        "fd %s: N %d, mesh %d, n_t %d, %d multisets per slice, %.1f MB, %.3f s",
        what, vn.N, vn.mesh, vn.n_t, n_sorted, size / 1e6, time.perf_counter() - start,
    )


def _kernel_fields(problem: ProblemSpec, configs: np.ndarray):
    """Per-axis drift fields b_i(x) and the aggregated running cost.

    ``configs`` stacks configurations on the last axis, shape (..., N).
    """
    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    drift_fields = None
    if not drift.is_zero:
        b = mean_field_eval(drift, configs)
        # contiguous per axis: the sweep reads each of them every step
        drift_fields = [np.ascontiguousarray(b[..., i]) for i in range(configs.shape[-1])]
    cost_sum = None if cost.is_zero else mean_field_eval(cost, configs).mean(axis=-1)
    return drift_fields, cost_sum


def _gradient_bound_estimate(problem: ProblemSpec) -> float:
    """Heuristic bound on |N dv/dx^i| used only for quadratic-family CFL."""
    term = problem.terminal
    return 2.0 * (
        term.g.derivative().sup_norm()
        + 2.0 * term.h.sup_norm() * term.h.derivative().sup_norm()
        + problem.hamiltonian.cost_kernel.derivative().sup_norm() * problem.T
    )


def max_stable_dt(problem: ProblemSpec, N: int, mesh: int) -> float:
    """Largest explicit-Euler step under the diffusion + advection bound.

    Diffusion contributes rate 2 (N + a) / dx^2 (N axis Laplacians plus the
    common-noise diagonal stencil of strength a); advection contributes
    sum_i |b_i| / dx.
    """
    dx = TWO_PI / mesh
    drift = problem.hamiltonian.drift_kernel
    b_max = drift.sup_norm() if not drift.is_zero else 0.0
    if problem.hamiltonian.lam > 0:
        b_max += problem.hamiltonian.lam * _gradient_bound_estimate(problem)
    rate = 2.0 * (N + problem.a) / dx**2 + N * b_max / dx
    return _CFL_SAFETY / rate


def required_time_steps(problem: ProblemSpec, N: int, mesh: int) -> int:
    return max(1, ceil(problem.T / max_stable_dt(problem, N, mesh)))


def fd_solve(
    problem: ProblemSpec,
    N: int,
    mesh: int,
    n_t: int,
) -> GridValueFunction:
    """Solve the N-particle HJB equation by an explicit backward sweep.

    The drift is differenced centrally while the cell Peclet number
    max |b| dx / 2 is at most one, exactly where that is monotone, and upwind
    beyond it: the scheme is always monotone, as the comparison tests need.
    """
    if N < 1:
        raise InputDomainError("N must be >= 1")
    _check_value_bytes(int(N), int(mesh), int(n_t))
    n_req = required_time_steps(problem, N, mesh)
    if n_t < n_req:
        raise ConfigurationError(
            f"n_t = {n_t} violates the stability bound; need n_t >= {n_req} "
            f"at mesh {mesh}, N {N}"
        )

    start = time.perf_counter()
    dx = TWO_PI / mesh
    dt = problem.T / n_t
    diag = problem.a * dt / dx**2
    # dt (lam N / 2) ((v(+e_i) - v(-e_i)) / (2 dx))^2
    quad = dt * problem.hamiltonian.lam * N / (8.0 * dx**2)
    # one node per multiset of lattice indices; rows of the neighbour table:
    # +e_i, then -e_i, then the diagonal +-(1, ..., 1)
    unit = np.eye(N, dtype=int)
    steps = [*unit, *(-unit)] + ([[1] * N, [-1] * N] if diag > 0 else [])
    slices = np.empty((n_t + 1, comb(mesh + N - 1, N)))
    # the solution reads the slices written below; it holds the rank table first
    vn = GridValueFunction(N, mesh, n_t, problem.T, slices)
    cells, table = neighbour_ranks(N, mesh, steps)
    n_sorted = cells.shape[0]
    configs = cells * dx
    del cells

    drift_fields, cost_sum = _kernel_fields(problem, configs)
    b_max = max((float(np.max(np.abs(b))) for b in drift_fields or ()), default=0.0)
    upwind = b_max * dx / 2.0 > 1.0
    slices[n_t] = problem.terminal.value_atoms(configs)
    del configs
    center, plus, minus = _step_coefficients(drift_fields, N, problem.a, dx, dt, upwind)
    del drift_fields
    source = None if cost_sum is None else dt * cost_sum

    nb = np.empty(table.shape)
    ups, dns = nb[:N], nb[N : 2 * N]
    tmp = np.empty(n_sorted)
    finite = np.empty(n_sorted, dtype=bool)
    for k in range(n_t - 1, -1, -1):
        v, out = slices[k + 1], slices[k]
        # every index is in range; any mode but "raise" lets take write to out unbuffered
        np.take(v, table, out=nb, mode="wrap")
        np.multiply(center, v, out=out)
        for i in range(N):
            out += np.multiply(plus[i], ups[i], out=tmp)
            out += np.multiply(minus[i], dns[i], out=tmp)
            if quad > 0:
                np.subtract(ups[i], dns[i], out=tmp)
                np.square(tmp, out=tmp)
                out += np.multiply(tmp, quad, out=tmp)
        if diag > 0:
            out += np.multiply(np.add(nb[2 * N], nb[2 * N + 1], out=tmp), diag, out=tmp)
        if source is not None:
            out += source
        if not np.isfinite(out, out=finite).all():
            raise DivergenceError(f"non-finite values at time step {k}")
    log.debug(
        "fd solve: N %d, mesh %d, n_t %d (stability needs %d), %d of %d nodes, upwind %s, %.3f s",
        N, mesh, n_t, n_req, n_sorted, mesh**N, upwind, time.perf_counter() - start,
    )
    return vn


def _step_coefficients(drift_fields, N: int, a: float, dx: float, dt: float, upwind: bool):
    """Node coefficients of the linear part of one explicit step.

    ``v_k = center v + sum_i (plus_i v(+e_i) + minus_i v(-e_i)) + ...``: the
    N axis Laplacians, the common-noise diagonal's centre weight and the
    drift (central, or monotone upwind) folded into one array per neighbour.
    Without drift every coefficient is a scalar.
    """
    lap = dt / dx**2
    center = 1.0 - 2.0 * (N + a) * lap
    plus, minus = [lap] * N, [lap] * N
    if drift_fields is None:
        return center, plus, minus
    center = np.full(drift_fields[0].shape, center)
    for i, b in enumerate(drift_fields):
        if upwind:
            fwd = np.maximum(b, 0.0) * (dt / dx)
            bwd = np.minimum(b, 0.0) * (dt / dx)
            plus[i], minus[i] = lap + fwd, lap - bwd
            center += bwd - fwd
        else:
            half = b * (dt / (2.0 * dx))
            plus[i], minus[i] = lap + half, lap - half
    return center, plus, minus


@dataclass(frozen=True)
class LipschitzReport:
    """Finite-difference estimates of the regularity constants of v^N."""

    max_scaled_gradient: float  # max_i N |dv/dx^i| over probed nodes
    time_hoelder: float         # max |v(t,x)-v(s,x)| / sqrt(t-s)
    w1_lipschitz: float         # max |v(t,x)-v(t,y)| / W1(mu^x, mu^y)


#: random lattice pairs over which ``lipschitz_probe`` takes its W1 ratio
_W1_PAIRS = 200


def lipschitz_probe(vn: GridValueFunction, seed: int = 0) -> LipschitzReport:
    """The constants of ``LipschitzReport`` on 17 time slices (the W1 ratio
    on the first and the middle one), read once per multiset.  By symmetry
    the differences at the sorted cells are those at every node.  A NaN
    makes NaN the constants it enters.
    """
    N, m = vn.N, vn.mesh
    ids = np.array(sorted(set(np.linspace(0, vn.n_t, 17).astype(int))))
    rows = vn._rows(ids)
    unit = np.eye(N, dtype=int)
    table = neighbour_ranks(N, m, [*unit, *(-unit)])[1]
    steep = np.max([np.max(np.abs(row[table[:N]] - row[table[N:]])) for row in rows])
    diff = np.empty((len(ids) - 1, rows.shape[1]))  # diff[a:] holds the pairs of slice a
    hoelder = np.max(np.concatenate([
        np.max(np.abs(np.subtract(rows[a + 1 :], rows[a], out=diff[a:]), out=diff[a:]), axis=1)
        / np.sqrt((ids[a + 1 :] - ids[a]) * vn.dt)
        for a in range(len(ids) - 1)
    ]))

    rng = seeded_generator(seed)
    # one draw per tuple: a single draw of all of them would give other pairs
    pairs = np.array([[rng.integers(0, m, size=N) for _ in "ab"] for _ in range(_W1_PAIRS)])
    nodes = np.arange(m) * vn.dx
    w1 = w1_circle_rows(nodes[pairs[:, 0]], nodes[pairs[:, 1]])
    far = w1 >= 1e-12
    # an unsorted tuple's flat node names its multiset
    ranks = vn._ranks.multiset[np.ravel_multi_index(tuple(pairs[far].T), (m,) * N)]
    at = rows[np.searchsorted(ids, [0, vn.n_t // 2])]  # n_t // 2 is the linspace's midpoint
    w1_lip = np.max(np.abs(at[:, ranks[0]] - at[:, ranks[1]]) / w1[far], initial=0.0)
    return LipschitzReport(float(N * (steep / (2.0 * vn.dx))), float(hoelder), float(w1_lip))
