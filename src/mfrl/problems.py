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

from .errors import InputDomainError
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
        unknown = set(obj) - {"family", "drift", "cost", "lambda"}
        if unknown:
            raise InputDomainError(f"unknown Hamiltonian fields {sorted(unknown)}")
        return cls(
            family=obj.get("family", "zero"),
            drift_kernel=TrigPoly.from_dict(obj.get("drift", {})),
            cost_kernel=TrigPoly.from_dict(obj.get("cost", {})),
            lam=float(obj.get("lambda", 0.0)),
        )


@dataclass(frozen=True)
class TerminalSpec:
    """G(mu) = int g dmu + (int h dmu)^2."""

    g: TrigPoly = ZERO_POLY
    h: TrigPoly = ZERO_POLY

    @property
    def degree(self) -> int:
        return max(self.g.degree, self.h.degree)

    def value_moments(self, cm: np.ndarray, sm: np.ndarray) -> np.ndarray:
        """G(mu) = <g, mu> + <h, mu>^2 from the trig moments of mu.

        Row k - 1 of ``cm``, ``sm`` holds harmonic k; further axes index
        measures, one value each.
        """
        hm = self.h.integrate(cm, sm)
        return self.g.integrate(cm, sm) + hm * hm

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
        unknown = set(obj) - {"g", "h"}
        if unknown:
            raise InputDomainError(f"unknown terminal fields {sorted(unknown)}")
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
        unknown = set(obj) - {"d", "trunc", "T", "a", "hamiltonian", "terminal"}
        if unknown:
            raise InputDomainError(f"unknown problem fields {sorted(unknown)}")
        return cls(
            hamiltonian=HamiltonianSpec.from_dict(obj.get("hamiltonian", {})),
            terminal=TerminalSpec.from_dict(obj.get("terminal", {})),
            a=float(obj.get("a", 0.0)),
            T=float(obj.get("T", 1.0)),
            ctx=TorusContext(int(obj.get("d", 1)), int(obj.get("trunc", 64))),
        )
