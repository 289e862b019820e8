"""Exponential time differencing steps for the semi-discrete diffusion system.

After eliminating Dirichlet rows the method of lines gives

    du/dt = A u + F(t),

with A the (negative definite) Dirichlet Laplacian and F the source plus
boundary closure.  Integrating the variation-of-constants formula over
one step and freezing F at the endpoint gives the first-order step

    ETD1:  u_{m+1} = e^{dt A} u_m + dt phi_1(dt A) F(t_{m+1}),

while linear interpolation of F over the step gives the second-order

    ETD2:  u_{m+1} = e^{dt A} u_m + dt phi_1(dt A) F(t_m)
                     + dt phi_2(dt A) (F(t_{m+1}) - F(t_m)).

Both are unconditionally stable here and inherit a discrete maximum
principle from the entrywise nonnegativity of e^{dt A} and the phi
kernels.  The kernels are diagonal in sine-mode space; workspaces cache
the scaled kernels for a fixed dt.  The drivers in `schwarz` march with
them; a monodomain run is method 1 on the layout of one piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .matfunc import SpectralFactorization, phi_scalar

__all__ = [
    "TimeGrid",
    "StepWorkspace",
    "make_workspace",
    "Scheme",
]

Scheme = Literal["etd1", "etd2"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_m = m * horizon / steps, m = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def t(self, m: int) -> float:
        return m * self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


@dataclass(frozen=True)
class StepWorkspace:
    """Spectral step kernels for a fixed operator and step size.

    exp_kernel  = e^{dt lambda}
    phi1_kernel = dt phi_1(dt lambda)
    phi2_kernel = dt phi_2(dt lambda)

    so that one ETD1 step in mode space is exp_kernel * u + phi1_kernel * F
    and the ETD2 correction is phi2_kernel * (F_next - F_now).
    """

    fact: SpectralFactorization
    dt: float
    exp_kernel: np.ndarray
    phi1_kernel: np.ndarray
    phi2_kernel: np.ndarray


def make_workspace(fact: SpectralFactorization, dt: float) -> StepWorkspace:
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    z = dt * fact.spectrum
    return StepWorkspace(
        fact=fact,
        dt=dt,
        exp_kernel=phi_scalar(0, z),
        phi1_kernel=dt * phi_scalar(1, z),
        phi2_kernel=dt * phi_scalar(2, z),
    )
