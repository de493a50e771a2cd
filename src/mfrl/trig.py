"""Real trigonometric polynomials on the circle.

These are the coefficient fields out of which problem data (drift kernels,
running-cost kernels, terminal integrands) is built.  Two functions here are
the only evaluation of that data: ``harmonics``, the table cos(k x), sin(k x)
of a point set, and ``convolve``, the identity

    int K(x - y) mu(dy) = c0 + sum_k cos(kx) (a_k C_k - b_k S_k) + sin(kx) (a_k S_k + b_k C_k)

on such a table, with C_k, S_k the trigonometric moments of mu, so
interacting-particle drifts cost O(N deg) instead of O(N^2).  Pointwise
evaluation is the convolution with the point mass at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, check_fields, plan_float
from .torus import TWO_PI

#: points at which ``TrigPoly.sup_norm`` evaluates the polynomial
_SUP_SAMPLES = 4096


@dataclass(frozen=True)
class TrigPoly:
    """c0 + sum_{k=1}^{deg} a_k cos(k x) + b_k sin(k x)."""

    const: float = 0.0
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        deg = max(a.size, b.size)
        a = np.pad(a, (0, deg - a.size))
        b = np.pad(b, (0, deg - b.size))
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.isfinite(self.const)):
            raise InputDomainError("trig polynomial coefficients must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def degree(self) -> int:
        return self.cos_coeffs.size

    @property
    def is_zero(self) -> bool:
        return (
            self.const == 0.0
            and not np.any(self.cos_coeffs)
            and not np.any(self.sin_coeffs)
        )

    def __call__(self, x):
        """p(x), the convolution of p with the point mass at 0."""
        return convolve(self, 1.0, 0.0, *harmonics(x, self.degree))

    def integrate(self, cm, sm) -> np.ndarray:
        """int p dmu from the trig moments of mu (mass one), leading axis k - 1.

        The harmonic table integrated against mu is mu's moments, so this is
        p evaluated on a copy of the moments in place of the table.
        """
        return convolve(self, 1.0, 0.0, np.array(cm, dtype=float), np.array(sm, dtype=float))

    def derivative(self) -> "TrigPoly":
        k = np.arange(1, self.degree + 1, dtype=float)
        return TrigPoly(0.0, k * self.sin_coeffs, -k * self.cos_coeffs)

    def sup_norm(self) -> float:
        """max |p| over ``_SUP_SAMPLES`` equally spaced points."""
        x = np.arange(_SUP_SAMPLES) * (TWO_PI / _SUP_SAMPLES)
        return float(np.max(np.abs(self(x))))

    def to_dict(self) -> dict:
        return {
            "const": float(self.const),
            "cos": self.cos_coeffs.tolist(),
            "sin": self.sin_coeffs.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrigPoly":
        check_fields(obj, ("const", "cos", "sin"), "trig polynomial")

        def coeffs(name):
            values = obj.get(name, [])
            if not isinstance(values, list):
                raise InputDomainError(f"plan field {name} must be a list of numbers")
            return np.array([plan_float(name, v) for v in values])

        return cls(plan_float("const", obj.get("const", 0.0)), coeffs("cos"), coeffs("sin"))


ZERO_POLY = TrigPoly()


def harmonics(x, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """The harmonic table (cos(k x), sin(k x)), k = 1..deg, of the points x.

    Each array has shape (deg,) + x.shape; row k - 1 holds harmonic k.  The
    table is float32 for float32 points, where numpy's sin and cos are
    vectorized and 10-40x cheaper, and float64 for any other input.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(float, copy=False)
    c = np.empty((deg,) + x.shape, dtype=x.dtype)
    s = np.empty_like(c)
    for k in range(1, deg + 1):
        ck, sk = c[k - 1, ...], s[k - 1, ...]
        # ck holds k x until its cosine overwrites it
        arg = x if k == 1 else np.multiply(x, k, out=ck)
        np.sin(arg, out=sk)
        np.cos(arg, out=ck)
    return c, s


def convolve(poly: TrigPoly, cm, sm, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x -> int K(x - y) mu(dy) on the harmonic table (c, s) of the points x.

    ``cm[k-1] = int cos(k y) mu(dy)`` and likewise ``sm`` (mu of mass one),
    or scalars meaning the same moments for every k.  The moments broadcast
    against the table rows, which already have the shape of the result;
    rows past the degree of ``poly`` are ignored.  The table is overwritten
    and the result is stored in its first row, in the table's dtype: the
    coefficients are cast to it, so a float32 table is never up-cast.
    """
    deg = poly.degree
    c, s = c[:deg], s[:deg]
    const = c.dtype.type(poly.const)
    if deg == 0:
        return np.full(c.shape[1:], const)
    if np.ndim(cm):
        cm, sm = cm[:deg], sm[:deg]
    col = (deg,) + (1,) * (c.ndim - 1)
    a = poly.cos_coeffs.astype(c.dtype, copy=False).reshape(col)
    b = poly.sin_coeffs.astype(c.dtype, copy=False).reshape(col)
    c_weight = a * cm - b * sm
    s_weight = a * sm + b * cm
    # in place, and each harmonic's two terms are added before it joins the
    # sum in harmonic order: the same operations as a per-harmonic loop
    c *= c_weight
    s *= s_weight
    c += s
    out = c[0, ...]
    out += const
    for k in range(1, deg):
        out += c[k]
    return out


def density_moments(rho: np.ndarray, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Moments of densities on the uniform mesh of rho.shape[0] nodes, one per column."""
    dx = TWO_PI / rho.shape[0]
    c, s = harmonics(np.arange(rho.shape[0]) * dx, deg)
    return (c @ rho) * dx, (s @ rho) * dx


def particle_mean(x: np.ndarray) -> np.ndarray:
    """(1/N) sum_j x_j over the last (particle) axis, in the dtype of ``x``.

    Each row's mean depends on that row alone, not on how many rows come
    with it, so a step evaluated in row chunks equals the whole step bit for
    bit (a BLAS product ``x @ w`` need not be: its blocking follows the
    shape and the core count).  Over the few particles of a row, the row-wise
    ``einsum`` is 2-3x cheaper than ``x.mean(axis=-1)``.
    """
    return np.einsum("...j->...", x) / x.shape[-1]


def mean_field_eval(poly: TrigPoly, x: np.ndarray) -> np.ndarray:
    """(1/N) sum_j K(x_i - x_j) for configurations stacked on the last axis.

    ``x`` has shape (..., N); the result has the same shape and, like the
    harmonic table, is float32 for float32 ``x`` and float64 otherwise.  The
    self term j = i is included, matching b(x^i, mu^x) with mu^x containing
    atom i.
    """
    c, s = harmonics(x, poly.degree)
    return convolve(poly, particle_mean(c)[..., None], particle_mean(s)[..., None], c, s)
