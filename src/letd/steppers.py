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
kernels.  The kernels are diagonal in sine-mode space, so one step costs
a couple of DSTs; workspaces cache the scaled kernels for a fixed dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .geometry import Box, Grid, Problem, assemble_forcing, boundary_data, box_forcing
from .matfunc import SpectralFactorization, phi_scalar

__all__ = [
    "TimeGrid",
    "StepWorkspace",
    "make_workspace",
    "run_monodomain",
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


def run_monodomain(
    problem: Problem,
    grid: Grid,
    timegrid: TimeGrid,
    scheme: Scheme,
    ws: StepWorkspace,
    *,
    final_only: bool = False,
) -> np.ndarray:
    """March the whole domain; returns the trajectory including t = 0.

    Shape (steps + 1, *grid.shape).  The state is kept in mode space
    across steps so each step costs two DSTs.  With `final_only` the
    trajectory holds level 0 and the last level alone, shape
    (2, *grid.shape), and only the last level is transformed back.
    """
    if scheme not in ("etd1", "etd2"):
        raise ValueError(f"unknown scheme {scheme!r}")
    fa = ws.fact
    fc = box_forcing(problem, grid, Box((1,) * len(grid.shape), grid.shape))
    u0 = fc.initial_state()

    def forcing(t: float) -> np.ndarray:
        return assemble_forcing(fc, t, [boundary_data(fc, k, t) for k in range(len(fc.edges))])

    steps = timegrid.steps
    keep = 2 if final_only else steps + 1  # level 0 and the trailing keep - 1 levels
    traj = np.empty((keep,) + u0.shape)
    traj[0] = u0
    u_hat = fa.to_modes(u0)
    f_hat_now = fa.to_modes(forcing(0.0)) if scheme == "etd2" else None
    for m in range(steps):
        f_hat_next = fa.to_modes(forcing(timegrid.t(m + 1)))
        if scheme == "etd1":
            u_hat = ws.exp_kernel * u_hat + ws.phi1_kernel * f_hat_next
        else:
            u_hat = (
                ws.exp_kernel * u_hat
                + ws.phi1_kernel * f_hat_now
                + ws.phi2_kernel * (f_hat_next - f_hat_now)
            )
            f_hat_now = f_hat_next
        row = m + keep - steps  # the row of level m + 1; below 1 if it is not kept
        if row >= 1:
            traj[row] = fa.from_modes(u_hat)
    return traj
