"""Probability measures on the flat torus T^d = R^d / (2 pi Z)^d.

Two concrete representations are provided:

* :class:`EmpiricalMeasure` -- N uniform atoms, the object ``mu^x = (1/N) sum_i
  delta_{x^i}`` attached to a particle configuration.
* :class:`GridDensity` -- a d=1 probability density sampled on the uniform
  periodic mesh ``x_j = 2 pi j / m`` (used by the mean-field reference solvers).

On top of the representations the module implements Fourier coefficients with
respect to the orthonormal basis ``e_l(x) = (2 pi)^{-d/2} exp(i l.x)``, i.i.d.
sampling from grid densities, a seeded counter-based generator, and
1-Wasserstein distances on the circle (d = 1).  Sampling, the empirical
Fourier mean and both W1 distances run on rows, one empirical measure (or
pair of them) per row, and keep every sort, sum and search within a row;
the one-measure functions are their one-row case.  The empirical Fourier
mean and W1 against a density run the rows in blocks under one memory
budget, ``_BLOCK_NUMBERS``.  W1 between two empirical measures and W1
against a density share one formula,
``W1 = min_t integral |F_mu - F_nu - t| dx`` over [0, 2 pi) (Rabin, Delon &
Gousseau 2011): the CDF gap is read at the midpoints of the
intervals between its breakpoints and t is its length-weighted median.

Convention: for a measure ``eta`` we use the conjugated pairing
``F_l(eta) = (2 pi)^{-d/2} integral exp(-i l.x) eta(dx)``, so that
measure coefficients agree with the coefficients of a density viewed as an
L^2 function.  Only magnitudes ``|F_l|`` enter the negative-Sobolev metrics,
so this choice does not affect any distance value.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from math import log2

import numpy as np

from .errors import InputDomainError, ResourceBudgetError, UnsupportedDimensionError
from .errors import check_fields, plan_float, plan_int

TWO_PI = 2.0 * np.pi

#: hard cap on the retained Fourier modes of one context, (2 trunc + 1)^d
MODE_BUDGET = 1 << 18

#: mesh refinement of ``w1_circle_density``: breakpoints every 1/8 grid cell
DENSITY_REFINE = 8

#: numbers held by the largest array of one block of rows, counted in
#: entries of the complex phase table: the batch budget of
#: ``empirical_coefficients`` and ``w1_density_rows``
_BLOCK_NUMBERS = 1 << 18

#: phase-table entries (16.5 bytes) as large as what ``w1_density_rows`` holds
#: per breakpoint: 93-105 bytes at its peak (tracemalloc, 16 to 1024 atoms)
_W1_NUMBERS_PER_BREAKPOINT = 6


def _row_blocks(n_rows: int, numbers_per_row: int) -> list[slice]:
    """Consecutive blocks of rows, each of at most ``_BLOCK_NUMBERS`` numbers, or one row."""
    step = max(1, _BLOCK_NUMBERS // numbers_per_row)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def canonicalize(point):
    """Reduce a point of R^d to its canonical representative in [0, 2 pi)^d.

    Idempotent; raises :class:`InputDomainError` on non-finite coordinates.
    """
    p = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InputDomainError("point has non-finite coordinates")
    return np.mod(p, TWO_PI)


def circle_arc(diff):
    """Geodesic distance on the circle of circumference 2 pi, from a coordinate difference."""
    diff = np.mod(diff, TWO_PI)
    return np.minimum(diff, TWO_PI - diff)


def seeded_generator(seed) -> np.random.Generator:
    """The package's random generator: counter-based Philox keyed by ``seed``,
    so every run is bit-reproducible."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass(frozen=True)
class TorusContext:
    """Ambient torus dimension together with the spectral truncation.

    ``k_star = floor(d/2) + 3`` is the Sobolev order used by the
    Fourier-Wasserstein metric; ``trunc`` is the number L of retained
    Fourier modes ``|l|_inf <= L``.  A context of more than ``MODE_BUDGET``
    modes is refused before its mode lattice is built.
    """

    d: int
    trunc: int = 64
    k_star: int = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise InputDomainError("dimension d must be >= 1")
        if self.trunc < 1:
            raise InputDomainError("truncation level must be >= 1")
        n_side = 2 * self.trunc + 1  # compared in logs: an absurd d computes no huge power
        if self.d * log2(n_side) > log2(MODE_BUDGET):
            raise ResourceBudgetError(f"{n_side}^{self.d} Fourier modes exceed {MODE_BUDGET}")
        object.__setattr__(self, "k_star", self.d // 2 + 3)

    @property
    def modes(self):
        """Integer lattice of retained modes, shape (n_modes, d)."""
        return _modes(self.d, self.trunc)


@functools.cache
def _modes(d: int, trunc: int) -> np.ndarray:
    arr = np.array(list(itertools.product(range(-trunc, trunc + 1), repeat=d)), dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure ``(1/N) sum_i delta_{x^i}`` on T^d."""

    atoms: np.ndarray  # shape (N, d), canonical representatives

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.shape[0] < 1:
            raise InputDomainError("atoms must be a non-empty (N, d) array")
        a = canonicalize(a)
        a.flags.writeable = False
        object.__setattr__(self, "atoms", a)

    @property
    def N(self) -> int:
        return self.atoms.shape[0]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class GridDensity:
    """d=1 probability density on the uniform periodic mesh x_j = 2 pi j / m.

    Values are normalized so the rectangle-rule mass is exactly one.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise InputDomainError("grid density needs a 1-d array of >= 2 values")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise InputDomainError("grid density values must be finite and >= 0")
        mass = v.sum() * (TWO_PI / v.size)
        if mass <= 0:
            raise InputDomainError("grid density has zero mass")
        v = v / mass
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def d(self) -> int:
        return 1

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m) * (TWO_PI / self.m)


Measure = EmpiricalMeasure | GridDensity


def _upper_phase_table(points: np.ndarray, ctx: TorusContext) -> np.ndarray:
    """exp(-i l.x) for the upper half ``ctx.modes[n_modes // 2:]`` of the
    modes (mode 0 first) and every point x of an (n, d) array.

    One complex exponential per point and coordinate: the powers z^l of
    z = exp(-i x_c), l = 1..L, come by repeated multiplication, and a mode of
    d > 1 is the product of its coordinates' powers, a negative power being
    the conjugate of the positive one.  For d = 1 the upper half is the
    powers themselves.
    """
    L = ctx.trunc
    # powers[c, l, j] = z_jc^l, l = 0..L, each row contiguous
    powers = np.empty((ctx.d, L + 1, points.shape[0]), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1] = np.exp(-1j * points.T)
    for row in range(2, L + 1):
        np.multiply(powers[:, row - 1], powers[:, 1], out=powers[:, row])
    if ctx.d == 1:
        return powers[0]
    # signed[c, L + l] = z^l for l = -L..L
    signed = np.concatenate((powers[:, :0:-1].conj(), powers), axis=1)
    index = ctx.modes[ctx.modes.shape[0] // 2 :].astype(np.intp) + L
    table = signed[0, index[:, 0]]
    for c in range(1, ctx.d):
        table *= signed[c, index[:, c]]
    return table


def _mirror(upper: np.ndarray) -> np.ndarray:
    """Rows for every mode, in ``ctx.modes`` order, from the rows of the
    upper half.

    ``modes[::-1] == -modes``, and the row of -l is the conjugate of the row
    of l, exactly: conjugation commutes with every product and mean taken.
    """
    return np.concatenate((upper[:0:-1].conj(), upper))


def phase_table(points, ctx: TorusContext) -> np.ndarray:
    """exp(-i l.x) for every retained mode l (rows, in ``ctx.modes`` order)
    and every point x of an (n, d) array (columns).

    Each power carries at most about l roundings, so the table agrees with
    ``np.exp(-1j * modes @ x.T)`` to a few times L ulp.
    """
    return _mirror(_upper_phase_table(np.asarray(points, dtype=float), ctx))


def empirical_coefficients(atoms, ctx: TorusContext) -> np.ndarray:
    """F_l of the empirical measures whose atoms are the rows of an (R, n, d)
    array: an (R, n_modes) array, modes in ``ctx.modes`` order.

    The mean over each row's atoms of the upper half of the phase table,
    mirrored, which is bit for bit the mean of the whole table.  The rows go
    in blocks whose upper table holds at most ``_BLOCK_NUMBERS`` entries.
    Each row's mean is a pairwise sum over its own atoms, in their order, so
    a row's coefficients do not depend on the other rows or the blocks.
    """
    R, n, d = atoms.shape
    blocks = _row_blocks(R, (ctx.modes.shape[0] // 2 + 1) * n)
    if len(blocks) > 1:
        return np.concatenate([empirical_coefficients(atoms[rows], ctx) for rows in blocks])
    upper = _upper_phase_table(atoms.reshape(R * n, d), ctx)
    means = upper.reshape(-1, R, n).mean(axis=-1)
    # contiguous rows, so that ``metric.rho_sq_rows`` sums each row in mode order
    return np.ascontiguousarray((TWO_PI ** (-d / 2.0) * _mirror(means)).T)


def fourier_coefficients(mu: Measure, ctx: TorusContext) -> np.ndarray:
    """Truncated Fourier coefficients F_l(mu), |l|_inf <= ctx.trunc: a
    complex array aligned with ``ctx.modes``.

    Empirical measures are summed exactly, as one row of
    ``empirical_coefficients``.  Grid densities use the rectangle rule, which
    is spectrally accurate for smooth periodic densities.  Its sum is an
    ``einsum``, not a BLAS product: OpenBLAS hands a complex table times a
    vector of this size to a second thread, which then spins for about
    0.12 s of CPU time on the caller's cores, and numpy's einsum runs on one
    thread.
    """
    if isinstance(mu, EmpiricalMeasure):
        if mu.d != ctx.d:
            raise InputDomainError("measure dimension does not match context")
        return empirical_coefficients(mu.atoms[None], ctx)[0]
    if isinstance(mu, GridDensity):
        if ctx.d != 1:
            raise InputDomainError("grid densities are d=1 only")
        norm = (TWO_PI) ** (-ctx.d / 2.0)
        upper = np.einsum("mj,j->m", _upper_phase_table(mu.nodes[:, None], ctx), mu.values)
        return norm * _mirror(upper) * (TWO_PI / mu.m)
    raise InputDomainError(f"unsupported measure type {type(mu)!r}")


def sample_rows(mu: GridDensity, n: int, seeds) -> np.ndarray:
    """One row of n i.i.d. atoms from a grid density per seed, by inverse-CDF
    sampling: an (R, n) array of canonical coordinates.

    The CDF is piecewise linear over mesh cells (density constant per cell).
    Each row draws its uniforms from its own counter-based (Philox) generator,
    so a row is bit-reproducible and does not depend on the other rows.
    """
    if n < 1:
        raise InputDomainError("sample size must be >= 1")
    u = np.empty((len(seeds), n))
    for row, seed in zip(u, seeds):
        seeded_generator(seed).random(out=row)
    dx = TWO_PI / mu.m
    cell_mass = mu.values * dx
    cum = np.concatenate(([0.0], np.cumsum(cell_mass)))
    cum[-1] = 1.0  # close rounding
    idx = np.searchsorted(cum, u, side="right") - 1
    idx = np.clip(idx, 0, mu.m - 1)
    local = np.where(cell_mass[idx] > 0, (u - cum[idx]) / np.maximum(cell_mass[idx], 1e-300), 0.0)
    return canonicalize((idx + local) * dx)


def sample_iid(mu: GridDensity, n: int, seed: int) -> EmpiricalMeasure:
    """Draw n i.i.d. atoms from a grid density: the one row of
    ``sample_rows`` for ``seed``."""
    return EmpiricalMeasure(sample_rows(mu, n, [seed])[0][:, None])


def _circle_w1(merged, below, cdf_gap) -> np.ndarray:
    """min_t integral_0^{2 pi} |g(x) - t| dx for CDF gaps g = F_mu - F_nu, one per row.

    A row of ``merged`` holds 0 and every point of [0, 2 pi) where its g is
    not linear, ascending, maybe repeated; each array of ``below`` counts per
    row the atoms at or below each point, closed by the total at 2 pi.  Rows
    keep the last of each run of equal points and are measured in groups of
    equal distinct count, each on exactly its distinct breakpoints.
    ``cdf_gap(mids, *counts)`` gives g at the interval midpoints from the
    counts at or before each interval (at its right end when the rounded
    midpoint lands on it), exact where g is constant on each interval; t is
    the length-weighted median of those values.  Every step sorts, sums or
    searches within a row, so a row's result does not depend on the others.
    """
    R, B = merged.shape
    last = np.ones((R, B + 1), dtype=bool)
    np.not_equal(merged[:, 1:], merged[:, :-1], out=last[:, : B - 1])
    size = last.sum(axis=1)
    out = np.empty(R)
    for K in np.unique(size):
        rows = np.flatnonzero(size == K)
        keep = last[rows]
        grid = np.full((rows.size, K), TWO_PI)
        grid[:, :-1] = merged[rows][keep[:, :-1]].reshape(rows.size, K - 1)
        mids = 0.5 * (grid[:, :-1] + grid[:, 1:])
        at_end = mids == grid[:, 1:]
        counts = (c[rows][keep].reshape(rows.size, K) for c in below)
        g = cdf_gap(mids, *(np.where(at_end, c[:, 1:], c[:, :-1]) for c in counts))
        lens = np.diff(grid, axis=1)
        order = np.argsort(g, axis=1)
        w = np.cumsum(np.take_along_axis(lens, order, axis=1), axis=1)
        # the first sorted interval whose cumulative length reaches half the total
        median = np.sum(w < 0.5 * w[:, -1:], axis=1, keepdims=True)
        t = np.take_along_axis(g, np.take_along_axis(order, median, axis=1), axis=1)
        out[rows] = np.sum(np.abs(g - t) * lens, axis=1)
    return out


def _sorted_circle_atoms(mu: EmpiricalMeasure, name: str) -> np.ndarray:
    if mu.d != 1:
        raise UnsupportedDimensionError(f"{name} supports d=1 only")
    return np.sort(mu.atoms[:, 0])


def w1_circle_rows(xs, ys) -> np.ndarray:
    """W1 between the empirical measures whose atoms are the rows of an
    (R, n) and an (R, m) array of canonical coordinates, in any order.

    Both CDFs jump only at atoms, so the gap is constant between breakpoints
    (0 and both rows' atoms): exact, and exactly 0 for equal multisets.
    """
    (R, n), m = xs.shape, ys.shape[1]
    atoms = np.concatenate((np.zeros((R, 1)), xs, ys), axis=1)
    order = np.argsort(atoms, axis=1)
    # the closing column holds index 0, no atom, so each count ends at its total
    source = np.pad(order, ((0, 0), (0, 1)))
    below = [np.cumsum((source > lo) & (source <= hi), axis=1) for lo, hi in ((0, n), (n, n + m))]
    return _circle_w1(
        np.take_along_axis(atoms, order, axis=1), below, lambda mids, cx, cy: cx / n - cy / m
    )


def w1_circle(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance on the circle of circumference 2 pi:
    the one row of ``w1_circle_rows``.  Any atom counts."""
    xs = _sorted_circle_atoms(mu, "w1_circle")
    ys = _sorted_circle_atoms(nu, "w1_circle")
    return float(w1_circle_rows(xs[None], ys[None])[0])


def w1_density_rows(atoms, rho: GridDensity) -> np.ndarray:
    """W1 between rho and each empirical measure whose atoms are a row of an
    (R, n) array of ascending canonical coordinates.

    The breakpoints of a row are its atoms merged with the density mesh
    refined ``DENSITY_REFINE`` times (each atom after the mesh points equal
    to it); the density's CDF is linear between them and the gap is read at
    the midpoints, where the empirical CDF counts the atoms merged at or
    before the interval.  The rows go in blocks of at most
    ``_BLOCK_NUMBERS`` numbers, ``_W1_NUMBERS_PER_BREAKPOINT`` a breakpoint.
    """
    R, n = atoms.shape
    fine = rho.m * DENSITY_REFINE
    blocks = _row_blocks(R, _W1_NUMBERS_PER_BREAKPOINT * (fine + n + 1))
    if len(blocks) > 1:
        return np.concatenate([w1_density_rows(atoms[rows], rho) for rows in blocks])
    refined = np.arange(fine) * (TWO_PI / fine)
    is_atom = np.zeros((R, fine + n), dtype=bool)
    slots = np.searchsorted(refined, atoms, side="right") + np.arange(n)
    np.put_along_axis(is_atom, slots, True, axis=1)
    merged = np.empty((R, fine + n))
    merged[is_atom] = atoms.ravel()
    merged[~is_atom] = np.broadcast_to(refined, (R, fine)).ravel()
    # atoms at or below each breakpoint, closed by 2 pi above every atom
    below = np.empty((R, fine + n + 1), dtype=np.intp)
    np.cumsum(is_atom, axis=1, out=below[:, :-1])
    below[:, -1] = n
    dx = TWO_PI / rho.m
    cum = np.concatenate(([0.0], np.cumsum(rho.values * dx)))

    def cdf_gap(mids, counts):
        j = np.minimum((mids / dx).astype(int), rho.m - 1)
        return counts / n - (cum[j] + rho.values[j] * (mids - j * dx))

    return _circle_w1(merged, [below], cdf_gap)


def w1_circle_density(mu: EmpiricalMeasure, rho: GridDensity) -> float:
    """Exact-up-to-quadrature W1 between an empirical measure and a density:
    the one row of ``w1_density_rows``."""
    atoms = _sorted_circle_atoms(mu, "w1_circle_density")
    return float(w1_density_rows(atoms[None], rho)[0])


# ---------------------------------------------------------------------------
# JSON serialization


def measure_to_json(mu: Measure) -> str:
    if isinstance(mu, EmpiricalMeasure):
        obj = {"kind": "empirical", "d": mu.d, "atoms": mu.atoms.tolist()}
    elif isinstance(mu, GridDensity):
        obj = {"kind": "grid", "m": mu.m, "values": mu.values.tolist()}
    else:
        raise InputDomainError(f"unsupported measure type {type(mu)!r}")
    return json.dumps(obj)


def _json_list(obj: dict, name: str) -> list:
    value = obj.get(name)
    if not isinstance(value, list):
        raise InputDomainError(f"measure field {name} must be a list, got {value!r}")
    return value


def measure_from_json(text: str) -> Measure:
    """The measure of a JSON document as ``measure_to_json`` writes it; empirical
    atoms may also be plain numbers for d = 1.  Any other document raises
    ``InputDomainError``."""
    obj = json.loads(text)
    check_fields(obj, ("kind", "d", "atoms", "m", "values"), "measure")
    kind = obj.get("kind")
    if kind == "empirical":
        rows = [row if isinstance(row, list) else [row] for row in _json_list(obj, "atoms")]
        d = plan_int("d", obj.get("d", len(rows[0]) if rows else 1))
        if any(len(row) != d for row in rows):
            raise InputDomainError(f"every atom must have the d = {d} coordinates declared")
        atoms = [plan_float("atoms", x) for row in rows for x in row]
        return EmpiricalMeasure(np.array(atoms).reshape(len(rows), d))
    if kind == "grid":
        values = np.array([plan_float("values", v) for v in _json_list(obj, "values")])
        if "m" in obj and values.size != plan_int("m", obj["m"]):
            raise InputDomainError("declared mesh size does not match values")
        return GridDensity(values)
    raise InputDomainError(f"unknown measure kind {kind!r}")
