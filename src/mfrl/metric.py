"""Negative-Sobolev (Fourier-Wasserstein) metrics between torus measures.

The squared distance of order k between probability measures is the weighted
spectral sum

    rho_{-k}^2(mu, nu) = sum_l (1 + |l|^2)^{-k} |F_l(mu - nu)|^2,

truncated at ``|l|_inf <= ctx.trunc``.  The distinguished order
``k = k_star = floor(d/2) + 3`` gives the metric used throughout the HJB
machinery; its closed-form first and second measure derivatives and the
Cauchy-Schwarz bounds on them are implemented below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputDomainError, UnsupportedDimensionError
from .torus import TWO_PI, Measure, TorusContext, fourier_coefficients, phase_table

#: imaginary residue above this level signals a convention bug
_IMAG_HARD_LIMIT = 1e-8


@dataclass(frozen=True)
class MetricOrder:
    """Sobolev order k of the distance rho_{-k}."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputDomainError("metric order must be >= 1")


@dataclass(frozen=True)
class MetricWeights:
    """Per-mode weights (1+|l|^2)^{-k} plus the derivative-bound constants.

    ``c1 = sqrt(sum |l|^2 (1+|l|^2)^{-k_star})`` bounds the gradient of
    rho_star^2 by ``2 c1 rho_star``.  ``c2 = sqrt(sum |l|^4
    (1+|l|^2)^{-k_star})`` bounds, by ``2 c2 rho_star``, only the term of the
    Hessian that carries ``F(nu - mu)``: ``d^2_x (delta rho_star^2 / delta
    nu)(x)``.  The other term, ``D^2(x, y) = 2 (2 pi)^{-d} sum_l w_l l l^T
    cos(l.(y - x))``, does not depend on the measures and is not small with
    rho_star: ``|D^2| <= 2 (2 pi)^{-d} c1^2``, with equality on the diagonal
    x = y (see ``rho_sq_hess``).  Both sums are over the truncated lattice
    (the analytic tails are negligible for k_star >= 3).
    """

    ctx: TorusContext
    k: int
    weights: np.ndarray
    c1: float
    c2: float


@functools.cache
def metric_weights(ctx: TorusContext, k: int) -> MetricWeights:
    """The weights of order k on the modes of ``ctx``, built once per (ctx, k)."""
    lsq = np.sum(ctx.modes * ctx.modes, axis=1)
    weights = (1.0 + lsq) ** (-float(k))
    weights.flags.writeable = False
    wstar = (1.0 + lsq) ** (-float(ctx.k_star))
    c1 = math.sqrt(float(np.sum(lsq * wstar)))
    c2 = math.sqrt(float(np.sum(lsq * lsq * wstar)))
    return MetricWeights(ctx=ctx, k=k, weights=weights, c1=c1, c2=c2)


def rho_sq_rows(diff: np.ndarray, order: MetricOrder, ctx: TorusContext) -> np.ndarray:
    """rho_{-k}^2 for each row of Fourier-coefficient differences
    ``F(mu) - F(nu)``, an (..., n_modes) array: the weighted sum over the
    last axis, pairwise within each row."""
    w = metric_weights(ctx, order.k).weights
    return np.sum(w * np.abs(diff) ** 2, axis=-1)


def rho_sq(mu: Measure, nu: Measure, order: MetricOrder, ctx: TorusContext) -> float:
    """Squared negative-Sobolev distance rho_{-k}^2(mu, nu)."""
    diff = fourier_coefficients(mu, ctx) - fourier_coefficients(nu, ctx)
    return float(rho_sq_rows(diff, order, ctx))


def rho(mu, nu, order: MetricOrder, ctx: TorusContext) -> float:
    return math.sqrt(max(rho_sq(mu, nu, order, ctx), 0.0))


def rho_star(mu, nu, ctx: TorusContext) -> float:
    """The Fourier-Wasserstein metric rho_* = rho_{-k_star}."""
    return rho(mu, nu, MetricOrder(ctx.k_star), ctx)


def _real_with_residue_check(values: np.ndarray, scale: float) -> np.ndarray:
    """Drop the imaginary residue of a series that must be real by symmetry."""
    resid = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if resid > max(_IMAG_HARD_LIMIT, _IMAG_HARD_LIMIT * scale):
        raise ConsistencyError(
            f"imaginary residue {resid:.3e} exceeds tolerance; "
            "Fourier convention is inconsistent"
        )
    return values.real


def rho_sq_grad(mu: Measure, nu: Measure, eval_points, ctx: TorusContext) -> np.ndarray:
    """First measure derivative of rho_star^2(mu, .) at nu, evaluated pointwise.

    Returns the vector field ``D_nu rho_star^2(mu, nu)(x)`` at each evaluation
    point, shape (n_points, d).  Callers differentiating through an atom of an
    empirical measure must apply the 1/N chain factor themselves.
    """
    mw = metric_weights(ctx, ctx.k_star)
    diff = fourier_coefficients(nu, ctx) - fourier_coefficients(mu, ctx)  # F_l(nu - mu)
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[1] != ctx.d:
        raise InputDomainError("evaluation points do not match context dimension")
    norm = TWO_PI ** (-ctx.d / 2.0)
    phases = phase_table(pts, ctx)  # (n_modes, n_pts)
    # d/dx of the linear derivative: sum_l w_l conj(F_l) (-2 i l) e_l^*(x)
    total = norm * np.einsum("mp,mD,m->pD", phases, -2j * ctx.modes, mw.weights * np.conj(diff))
    scale = float(np.max(np.abs(total))) if total.size else 1.0
    return _real_with_residue_check(total, scale)


def rho_sq_hess(mu: Measure, nu: Measure, eval_pairs, ctx: TorusContext) -> np.ndarray:
    """Two-point spectral series of rho_star^2 at pairs (x, y), as specified.

    Implements the closed-form series

        S(x, y) = -2 sum_l l l^T w_l F_l(nu-mu) e_l^*(x) e_l(y),
        w_l = (1+|l|^2)^{-k_star},

    with the scalar per-mode weight read as the outer product ``l l^T`` in
    d > 1.  Returns real symmetric matrices, shape (n_pairs, d, d).

    ``S`` is not a second derivative of rho_star^2.  Write ``w_l`` as above
    and ``nu = mu^y = (1/N) sum_j delta_{y_j}``.  The true particle Hessian is

        d^2 rho_star^2 / dy_j dy_k
            = (1/N) delta_jk d^2_x (delta rho_star^2 / delta nu)(y_j)
              + (1/N^2) D^2(y_j, y_k),
        D^2(x, y) = 2 (2 pi)^{-d} sum_l w_l l l^T cos(l.(y - x)).

    The first term is a one-point field that carries ``F(nu - mu)``.  Only
    that term satisfies ``|.|/2 <= c2 rho_star`` (Cauchy-Schwarz).  The
    second term, ``D^2``, does not depend on mu or nu; it matches the mixed
    finite difference of rho_star^2 at two distinct atoms, and it reaches
    ``D^2(x, x)/2 = (2 pi)^{-d} c1^2`` even where rho_star = 0.  ``S`` mixes
    the state factor of the first term with the two-point phase of the
    second, so it equals neither; acceptance criterion 2 compares ``S`` with
    the mixed finite difference and fails.
    """
    mw = metric_weights(ctx, ctx.k_star)
    diff = fourier_coefficients(nu, ctx) - fourier_coefficients(mu, ctx)
    pairs = np.asarray(eval_pairs, dtype=float)
    if pairs.ndim == 2 and ctx.d == 1 and pairs.shape[1] == 2:
        pairs = pairs[:, :, None]
    pairs = pairs.reshape(-1, 2, ctx.d)
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    modes = ctx.modes
    norm = TWO_PI ** (-ctx.d)
    # e_l^*(x) e_l(y) = (2 pi)^{-d} exp(i l.(y-x)); F_l under the conjugated
    # convention enters through its conjugate, mirroring rho_sq_grad.
    phase = phase_table(xs - ys, ctx)  # exp(i l.(y-x)), (n_modes, n_pairs)
    outer = modes[:, :, None] * modes[:, None, :]  # (n_modes, d, d)
    total = -2.0 * norm * np.einsum(
        "mp,mij,m->pij", phase, outer, mw.weights * np.conj(diff)
    )
    scale = float(np.max(np.abs(total))) if total.size else 1.0
    return _real_with_residue_check(total, scale)


def alpha_rate(N: int, d: int) -> float:
    """Sample-complexity rate alpha(N) of empirical measures in W1.

    alpha(N) = N^{-1/2} for d=1, N^{-1/2} log N for d=2, N^{-1/d} for d>2.
    Note alpha(1) = 0 in d=2; callers using alpha as a denominator must
    start sweeps at N >= 2.
    """
    if N < 1:
        raise InputDomainError("N must be >= 1")
    if d == 1:
        return N ** -0.5
    if d == 2:
        return N ** -0.5 * math.log(N)
    return N ** (-1.0 / d)


def truncation_tail_bound(ctx: TorusContext, k: int) -> float:
    """Upper bound on the rho_{-k}^2 mass beyond the truncation level (d = 1).

    Every mode of a difference of probability measures satisfies
    ``|F_l(mu - nu)| <= 2 (2 pi)^{-1/2}``, so the tail is bounded by
    ``sum_{|l| > L} (1+l^2)^{-k} (2 (2 pi)^{-1/2})^2``, evaluated by
    extended summation plus an integral remainder.
    """
    if ctx.d != 1:
        raise UnsupportedDimensionError("truncation_tail_bound supports d = 1 only")
    L = ctx.trunc
    far = np.arange(L + 1, 16 * L + 1, dtype=float)
    s = 2.0 * float(np.sum((1.0 + far * far) ** (-float(k))))
    # integral remainder beyond 16 L
    rem = 2.0 * (16 * L) ** (1 - 2 * k) / (2 * k - 1)
    return (2.0 * TWO_PI**-0.5) ** 2 * (s + rem)
