"""Problem data: Hamiltonian families, terminal functionals, full problem specs.

The Hamiltonian families are

* ``zero``       H = 0,
* ``linear``     H(x, p, mu) = b(x, mu) . p + f(x, mu),
* ``quadratic``  H(x, p, mu) = (lambda/2) |p|^2 + b(x, mu) . p + f(x, mu),

with b(x, mu) = int K(x - y) mu(dy) and f(x, mu) = int J(x - y) mu(dy) for
trig-polynomial kernels K, J.  Terminal functionals have the form
G(mu) = int g dmu + (int h dmu)^2.  These families are smooth with bounded
derivatives of every order, so the standing regularity assumptions hold by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import InputDomainError, check_fields, plan_float, plan_int
from .torus import Measure, TorusContext
from .trig import ZERO_POLY, TrigPoly, convolve, harmonics, trig_moments

Family = Literal["zero", "linear", "quadratic"]


@dataclass(frozen=True)
class HamiltonianSpec:
    family: Family = "zero"
    drift_kernel: TrigPoly = ZERO_POLY
    cost_kernel: TrigPoly = ZERO_POLY
    lam: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "linear", "quadratic"):
            raise InputDomainError(f"unknown Hamiltonian family {self.family!r}")
        if self.lam < 0:
            raise InputDomainError("quadratic coefficient must be >= 0")
        if self.family == "zero" and not (
            self.drift_kernel.is_zero and self.cost_kernel.is_zero and self.lam == 0.0
        ):
            raise InputDomainError("zero family admits no kernels")
        if self.family == "linear" and self.lam != 0.0:
            raise InputDomainError("linear family has lambda = 0")

    @property
    def is_linear(self) -> bool:
        """True when the induced PDE is linear (zero or linear-in-p family)."""
        return self.family in ("zero", "linear")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "drift": self.drift_kernel.to_dict(),
            "cost": self.cost_kernel.to_dict(),
            "lambda": self.lam,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "HamiltonianSpec":
        check_fields(obj, ("family", "drift", "cost", "lambda"), "Hamiltonian")
        return cls(
            family=obj.get("family", "zero"),
            drift_kernel=TrigPoly.from_dict(obj.get("drift", {})),
            cost_kernel=TrigPoly.from_dict(obj.get("cost", {})),
            lam=plan_float("lambda", obj.get("lambda", 0.0)),
        )


@dataclass(frozen=True)
class TerminalSpec:
    """G(mu) = int g dmu + (int h dmu)^2."""

    g: TrigPoly = ZERO_POLY
    h: TrigPoly = ZERO_POLY

    @property
    def degree(self) -> int:
        return max(self.g.degree, self.h.degree)

    def value_moments(self, cm: np.ndarray, sm: np.ndarray, var: float = 0.0) -> np.ndarray:
        """E_z G(tau_z mu), z ~ N(0, var), from the trig moments of mu.

        Row k - 1 of ``cm``, ``sm`` holds harmonic k; further axes index
        measures, one value each.  ``tau_z mu``, mu shifted by z, has moments
        e^{ikz} m_k (m_k = C_k + i S_k), and E e^{ijz} = phi_j = e^{-j^2 var/2}:
        the moments of g are damped by phi_k, and with q_k = (a_k - i b_k) m_k
        the coefficients of h,

            E <h, tau_z mu>^2 = h_0^2 + 2 h_0 sum_k Re(phi_k q_k)
                + 1/2 sum_{k,k'} Re(phi_{k+k'} q_k q_k' + phi_{k-k'} q_k conj(q_k')).

        ``var = 0`` is G(mu) = <g, mu> + <h, mu>^2 itself.
        """
        if var == 0.0:
            hm = self.h.integrate(cm, sm)
            return self.g.integrate(cm, sm) + hm * hm
        cm, sm = np.asarray(cm, dtype=float), np.asarray(sm, dtype=float)
        col = (1,) * (cm.ndim - 1)
        g, h = self.g, self.h
        phi = np.exp(-0.5 * var * np.arange(2 * self.degree + 1) ** 2)
        damp = phi[1 : g.degree + 1].reshape((g.degree,) + col)
        mean_g = g.integrate(damp * cm[: g.degree], damp * sm[: g.degree])
        k = np.arange(1, h.degree + 1)
        coef = (h.cos_coeffs - 1j * h.sin_coeffs).reshape((h.degree,) + col)
        q = coef * (cm[: h.degree] + 1j * sm[: h.degree])
        linear = np.einsum("k,k...->...", phi[k], q)
        pairs = np.einsum("kl,k...,l...->...", phi[k[:, None] + k], q, q) + np.einsum(
            "kl,k...,l...->...", phi[np.abs(k[:, None] - k)], q, q.conj()
        )
        return mean_g + (h.const**2 + 2.0 * h.const * linear.real + 0.5 * pairs.real)

    def value_measure(self, mu: Measure) -> float:
        return float(self.value_moments(*trig_moments(mu, self.degree)))

    def value_atoms(self, atoms: np.ndarray) -> float | np.ndarray:
        """G(mu^x) for configurations stacked on the last axis."""
        c, s = harmonics(atoms, self.degree)
        out = self.value_moments(c.mean(axis=-1), s.mean(axis=-1))
        return float(out) if out.ndim == 0 else out

    def to_dict(self) -> dict:
        return {"g": self.g.to_dict(), "h": self.h.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "TerminalSpec":
        check_fields(obj, ("g", "h"), "terminal")
        return cls(
            g=TrigPoly.from_dict(obj.get("g", {})),
            h=TrigPoly.from_dict(obj.get("h", {})),
        )


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the mean-field / particle HJB pair."""

    hamiltonian: HamiltonianSpec
    terminal: TerminalSpec
    a: float = 0.0
    T: float = 1.0
    ctx: TorusContext = field(default_factory=lambda: TorusContext(1, 64))

    def __post_init__(self):
        if self.a < 0:
            raise InputDomainError("common-noise intensity a must be >= 0")
        if self.T <= 0:
            raise InputDomainError("horizon T must be > 0")
        maxdeg = max(
            self.hamiltonian.drift_kernel.degree,
            self.hamiltonian.cost_kernel.degree,
            self.terminal.g.degree,
            self.terminal.h.degree,
        )
        if maxdeg > self.ctx.trunc:
            raise InputDomainError(
                f"kernel degree {maxdeg} exceeds truncation {self.ctx.trunc}"
            )

    def drift_at(self, x: np.ndarray, mu: Measure) -> np.ndarray:
        """b(x, mu) evaluated at points x."""
        kernel = self.hamiltonian.drift_kernel
        x = np.asarray(x, dtype=float)
        cm, sm = (m.reshape(m.shape + (1,) * x.ndim) for m in trig_moments(mu, kernel.degree))
        return convolve(kernel, cm, sm, *harmonics(x, kernel.degree))

    def to_dict(self) -> dict:
        return {
            "d": self.ctx.d,
            "trunc": self.ctx.trunc,
            "T": self.T,
            "a": self.a,
            "hamiltonian": self.hamiltonian.to_dict(),
            "terminal": self.terminal.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ProblemSpec":
        check_fields(obj, ("d", "trunc", "T", "a", "hamiltonian", "terminal"), "problem")
        return cls(
            hamiltonian=HamiltonianSpec.from_dict(obj.get("hamiltonian", {})),
            terminal=TerminalSpec.from_dict(obj.get("terminal", {})),
            a=plan_float("a", obj.get("a", 0.0)),
            T=plan_float("T", obj.get("T", 1.0)),
            ctx=TorusContext(
                plan_int("d", obj.get("d", 1)), plan_int("trunc", obj.get("trunc", 64))
            ),
        )
