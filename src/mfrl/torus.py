"""Probability measures on the flat torus T^d = R^d / (2 pi Z)^d.

Two concrete representations are provided:

* :class:`EmpiricalMeasure` -- N uniform atoms, the object ``mu^x = (1/N) sum_i
  delta_{x^i}`` attached to a particle configuration.
* :class:`GridDensity` -- a d=1 probability density sampled on the uniform
  periodic mesh ``x_j = 2 pi j / m`` (used by the mean-field reference solvers).

On top of the representations the module implements Fourier coefficients with
respect to the orthonormal basis ``e_l(x) = (2 pi)^{-d/2} exp(i l.x)``, i.i.d.
sampling from grid densities, and exact 1-Wasserstein distances: a sorted
rotation scan on the circle plus a small exact linear-program oracle for
general dimension.

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
from scipy import sparse
from scipy.optimize import linprog

from .errors import InputDomainError, ResourceBudgetError, UnsupportedDimensionError

TWO_PI = 2.0 * np.pi

#: Hard budget for the exact LP transport oracle (pairs of support points).
LP_SUPPORT_BUDGET = 10_000


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


def torus_geodesic(x, y):
    """Geodesic distance between points (arrays broadcast over leading axes)."""
    arc = circle_arc(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.sqrt(np.sum(arc * arc, axis=-1))


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


def phase_table(points, ctx: TorusContext) -> np.ndarray:
    """exp(-i l.x) for every retained mode l (rows, in ``ctx.modes`` order)
    and every point x of an (n, d) array (columns).

    One complex exponential per point and coordinate: the powers z^l of
    z = exp(-i x_c), l = 1..L, come by repeated multiplication, the negative
    modes as their conjugates, and a mode of d > 1 is the product of its
    coordinates' powers.  Each power carries at most about l roundings, so
    the table agrees with ``np.exp(-1j * modes @ x.T)`` to a few times L ulp.
    """
    pts = np.asarray(points, dtype=float)
    L = ctx.trunc
    # powers[c, L + l, j] = z_jc^l, each row contiguous
    powers = np.empty((ctx.d, 2 * L + 1, pts.shape[0]), dtype=complex)
    powers[:, L] = 1.0
    powers[:, L + 1] = np.exp(-1j * pts.T)
    for row in range(L + 2, 2 * L + 1):
        np.multiply(powers[:, row - 1], powers[:, L + 1], out=powers[:, row])
    np.conjugate(powers[:, : L : -1], out=powers[:, :L])
    index = ctx.modes.astype(np.intp) + L
    table = powers[0, index[:, 0]]
    for c in range(1, ctx.d):
        table *= powers[c, index[:, c]]
    return table


def fourier_coefficients(mu: Measure, ctx: TorusContext) -> FourierVector:
    """Truncated Fourier coefficients F_l(mu), |l|_inf <= ctx.trunc.

    Empirical measures are summed exactly; grid densities use the rectangle
    rule, which is spectrally accurate for smooth periodic densities.  Both
    read their phases off ``phase_table``.
    """
    norm = (TWO_PI) ** (-ctx.d / 2.0)
    if isinstance(mu, EmpiricalMeasure):
        if mu.d != ctx.d:
            raise InputDomainError("measure dimension does not match context")
        coeffs = norm * phase_table(mu.atoms, ctx).mean(axis=1)
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
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
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


def _check_circle_pair(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    if mu.d != 1 or nu.d != 1:
        raise UnsupportedDimensionError(
            "w1_circle supports d=1 only; use w1_lp for the general-d oracle"
        )


def w1_circle(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-Wasserstein distance on the circle of circumference 2 pi.

    Equal atom counts take the fast path: sort both supports and scan the N
    cyclic rotations of the order-preserving matching, which is exact for
    uniform weights.  Unequal counts fall back to the LP oracle.
    """
    _check_circle_pair(mu, nu)
    if mu.N != nu.N:
        return w1_lp(mu, nu)
    xs = np.sort(mu.atoms[:, 0])
    ys = np.sort(nu.atoms[:, 0])
    n = xs.size
    i = np.arange(n)
    # ys[(i + k) % n] for all rotations k, shape (n, n): rows i, cols k
    rot = ys[(i[:, None] + i[None, :]) % n]
    # canonical atoms give |xs - rot| < 2 pi, which the mod keeps exact (a
    # negative difference would be rounded by it)
    arc = circle_arc(np.abs(xs[:, None] - rot))
    return float(arc.mean(axis=0).min())


def w1_lp(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact optimal transport cost between small empirical measures.

    Ground metric is the torus geodesic; the transport problem is solved as
    an exact linear program (HiGHS).  Intended as a brute-force oracle, hence
    the hard support budget.
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
    if not res.success:  # pragma: no cover - HiGHS is reliable on feasible LPs
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def w1_circle_density(mu: EmpiricalMeasure, rho: GridDensity, refine: int = 8) -> float:
    """Exact-up-to-quadrature W1 between an empirical measure and a density.

    Uses the circle formula ``W1 = min_t integral |F_mu - F_rho - t| dx``
    evaluated on the mesh refined around the atoms; the minimizing shift t is
    the Lebesgue-weighted median of the CDF difference.
    """
    if mu.d != 1:
        raise UnsupportedDimensionError("w1_circle_density supports d=1 only")
    grid = np.union1d(
        np.arange(rho.m * refine) * (TWO_PI / (rho.m * refine)),
        np.sort(mu.atoms[:, 0]),
    )
    grid = np.concatenate((grid, [TWO_PI]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    lens = np.diff(grid)
    atoms = np.sort(mu.atoms[:, 0])
    f_emp = np.searchsorted(atoms, mids, side="right") / mu.N
    dx = TWO_PI / rho.m
    cum = np.concatenate(([0.0], np.cumsum(rho.values * dx)))
    j = np.minimum((mids / dx).astype(int), rho.m - 1)
    f_rho = cum[j] + rho.values[j] * (mids - j * dx)
    g = f_emp - f_rho
    order = np.argsort(g)
    w = np.cumsum(lens[order])
    t = g[order][np.searchsorted(w, 0.5 * w[-1])]
    return float(np.sum(np.abs(g - t) * lens))


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
