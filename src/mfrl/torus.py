"""Probability measures on the flat torus T^d = R^d / (2 pi Z)^d.

Two concrete representations are provided:

* :class:`EmpiricalMeasure` -- N uniform atoms, the object ``mu^x = (1/N) sum_i
  delta_{x^i}`` attached to a particle configuration.
* :class:`GridDensity` -- a d=1 probability density sampled on the uniform
  periodic mesh ``x_j = 2 pi j / m`` (used by the mean-field reference solvers).

On top of the representations the module implements Fourier coefficients with
respect to the orthonormal basis ``e_l(x) = (2 pi)^{-d/2} exp(i l.x)``, i.i.d.
sampling from grid densities, a seeded counter-based generator, and
1-Wasserstein distances on the circle (d = 1).  Both W1 entry points share
one formula, ``W1 = min_t integral |F_mu - F_nu - t| dx`` over [0, 2 pi)
(Rabin, Delon & Gousseau 2011): the CDF gap is read at the midpoints of the
intervals between its breakpoints and t is its length-weighted median.

Convention: for a measure ``eta`` we use the conjugated pairing
``F_l(eta) = (2 pi)^{-d/2} integral exp(-i l.x) eta(dx)``, so that
measure coefficients agree with the coefficients of a density viewed as an
L^2 function.  Only magnitudes ``|F_l|`` enter the negative-Sobolev metrics,
so this choice does not affect any distance value.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, UnsupportedDimensionError

TWO_PI = 2.0 * np.pi

#: mesh refinement of ``w1_circle_density``: breakpoints every 1/8 grid cell
_DENSITY_REFINE = 8


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
    Fourier modes ``|l|_inf <= L``.
    """

    d: int
    trunc: int = 64
    k_star: int = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise InputDomainError("dimension d must be >= 1")
        if self.trunc < 1:
            raise InputDomainError("truncation level must be >= 1")
        object.__setattr__(self, "k_star", self.d // 2 + 3)

    @property
    def modes(self):
        """Integer lattice of retained modes, shape (n_modes, d)."""
        return _modes_cached(self.d, self.trunc)


_MODES_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _modes_cached(d: int, trunc: int) -> np.ndarray:
    key = (d, trunc)
    if key not in _MODES_CACHE:
        rng = range(-trunc, trunc + 1)
        arr = np.array(list(itertools.product(rng, repeat=d)), dtype=float)
        arr.flags.writeable = False
        _MODES_CACHE[key] = arr
    return _MODES_CACHE[key]


@dataclass(frozen=True)
class FourierVector:
    """Truncated Fourier coefficients ``F_l`` aligned with ``ctx.modes``."""

    ctx: TorusContext
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.ctx.modes.shape[0],):
            raise InputDomainError("coefficient vector does not match mode lattice")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


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

    def shifted(self, z) -> "EmpiricalMeasure":
        """Push-forward under translation by z (all atoms shifted)."""
        return EmpiricalMeasure(self.atoms + np.asarray(z, dtype=float))


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

    @property
    def mass(self) -> float:
        return float(self.values.sum() * (TWO_PI / self.m))


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


def fourier_coefficients(mu: Measure, ctx: TorusContext) -> FourierVector:
    """Truncated Fourier coefficients F_l(mu), |l|_inf <= ctx.trunc.

    Empirical measures are summed exactly: the mean over atoms of the upper
    half of the phase table, mirrored, which is bit for bit the mean of the
    whole table.  Grid densities use the rectangle rule, which is spectrally
    accurate for smooth periodic densities.
    """
    norm = (TWO_PI) ** (-ctx.d / 2.0)
    if isinstance(mu, EmpiricalMeasure):
        if mu.d != ctx.d:
            raise InputDomainError("measure dimension does not match context")
        coeffs = norm * _mirror(_upper_phase_table(mu.atoms, ctx).mean(axis=1))
    elif isinstance(mu, GridDensity):
        if ctx.d != 1:
            raise InputDomainError("grid densities are d=1 only")
        coeffs = norm * (phase_table(mu.nodes[:, None], ctx) @ mu.values) * (TWO_PI / mu.m)
    else:
        raise InputDomainError(f"unsupported measure type {type(mu)!r}")
    return FourierVector(ctx, coeffs)


def sample_iid(mu: GridDensity, n: int, seed: int) -> EmpiricalMeasure:
    """Draw n i.i.d. atoms from a grid density by inverse-CDF sampling.

    The CDF is piecewise linear over mesh cells (density constant per cell);
    the generator is counter-based (Philox) so runs are bit-reproducible.
    """
    if n < 1:
        raise InputDomainError("sample size must be >= 1")
    rng = seeded_generator(seed)
    dx = TWO_PI / mu.m
    cell_mass = mu.values * dx
    cum = np.concatenate(([0.0], np.cumsum(cell_mass)))
    cum[-1] = 1.0  # close rounding
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right") - 1
    idx = np.clip(idx, 0, mu.m - 1)
    local = np.where(cell_mass[idx] > 0, (u - cum[idx]) / np.maximum(cell_mass[idx], 1e-300), 0.0)
    atoms = (idx + local) * dx
    return EmpiricalMeasure(atoms[:, None])


def _circle_w1(breaks, cdf_gap) -> float:
    """min_t integral_0^{2 pi} |g(x) - t| dx for a CDF gap g = F_mu - F_nu.

    ``breaks`` holds 0 and every point of [0, 2 pi) where g is not linear;
    ``cdf_gap`` evaluates g at the interval midpoints, which is exact where g
    is constant on each interval.  The minimizing t is the length-weighted
    median of the midpoint values.
    """
    grid = np.append(np.unique(breaks), TWO_PI)
    lens = np.diff(grid)
    g = cdf_gap(0.5 * (grid[:-1] + grid[1:]))
    order = np.argsort(g)
    w = np.cumsum(lens[order])
    t = g[order][np.searchsorted(w, 0.5 * w[-1])]
    return float(np.sum(np.abs(g - t) * lens))


def _sorted_circle_atoms(mu: EmpiricalMeasure, name: str) -> np.ndarray:
    if mu.d != 1:
        raise UnsupportedDimensionError(f"{name} supports d=1 only")
    return np.sort(mu.atoms[:, 0])


def w1_circle(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance on the circle of circumference 2 pi.

    Any atom counts.  Both CDFs are step functions that jump only at atoms,
    so the gap is constant between consecutive atoms and the formula is
    exact; equal multisets give exactly 0.
    """
    xs = _sorted_circle_atoms(mu, "w1_circle")
    ys = _sorted_circle_atoms(nu, "w1_circle")
    return _circle_w1(
        np.concatenate(([0.0], xs, ys)),
        lambda mids: np.searchsorted(xs, mids, side="right") / xs.size
        - np.searchsorted(ys, mids, side="right") / ys.size,
    )


def w1_circle_density(mu: EmpiricalMeasure, rho: GridDensity) -> float:
    """Exact-up-to-quadrature W1 between an empirical measure and a density.

    The breakpoints are the atoms and the density mesh refined
    ``_DENSITY_REFINE`` times; the density's CDF is linear between them and
    the gap is read at the midpoints.
    """
    atoms = _sorted_circle_atoms(mu, "w1_circle_density")
    dx = TWO_PI / rho.m
    cum = np.concatenate(([0.0], np.cumsum(rho.values * dx)))

    def cdf_gap(mids):
        j = np.minimum((mids / dx).astype(int), rho.m - 1)
        f_rho = cum[j] + rho.values[j] * (mids - j * dx)
        return np.searchsorted(atoms, mids, side="right") / mu.N - f_rho

    fine = rho.m * _DENSITY_REFINE
    return _circle_w1(np.concatenate((np.arange(fine) * (TWO_PI / fine), atoms)), cdf_gap)


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


def measure_from_json(text: str) -> Measure:
    obj = json.loads(text)
    kind = obj.get("kind")
    if kind == "empirical":
        atoms = np.asarray(obj["atoms"], dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if "d" in obj and atoms.shape[1] != int(obj["d"]):
            raise InputDomainError("declared dimension does not match atom shape")
        return EmpiricalMeasure(atoms)
    if kind == "grid":
        values = np.asarray(obj["values"], dtype=float)
        if "m" in obj and values.size != int(obj["m"]):
            raise InputDomainError("declared mesh size does not match values")
        return GridDensity(values)
    raise InputDomainError(f"unknown measure kind {kind!r}")
