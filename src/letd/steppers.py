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

`coupled_step_direct` advances a two-piece overlapping layout by solving
the pair of interface equations exactly: with the outer boundary data
fixed, each piece's end state depends affinely on the single unknown
trace value it reads, so the two traces satisfy a 2x2 linear system.
This provides an iteration-free oracle for the per-step Schwarz driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .geometry import (
    Box,
    Decomposition,
    Grid,
    Problem,
    Problem1D,
    assemble_forcing,
    boundary_data,
    box_forcing,
)
from .matfunc import SpectralFactorization, phi_scalar

__all__ = [
    "TimeGrid",
    "StepWorkspace",
    "make_workspace",
    "etd1_step",
    "etd2_step",
    "coupled_step_direct",
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


def etd1_step(ws: StepWorkspace, u: np.ndarray, forcing_next: np.ndarray) -> np.ndarray:
    """One first-order step with the forcing frozen at t_{m+1}."""
    fa = ws.fact
    u_hat = fa.to_modes(np.asarray(u, dtype=float))
    f_hat = fa.to_modes(np.asarray(forcing_next, dtype=float))
    return fa.from_modes(ws.exp_kernel * u_hat + ws.phi1_kernel * f_hat)


def etd2_step(
    ws: StepWorkspace,
    u: np.ndarray,
    forcing_now: np.ndarray,
    forcing_next: np.ndarray,
) -> np.ndarray:
    """One second-order step with the forcing linear over the step."""
    fa = ws.fact
    u_hat = fa.to_modes(np.asarray(u, dtype=float))
    f0_hat = fa.to_modes(np.asarray(forcing_now, dtype=float))
    f1_hat = fa.to_modes(np.asarray(forcing_next, dtype=float))
    return fa.from_modes(
        ws.exp_kernel * u_hat
        + ws.phi1_kernel * f0_hat
        + ws.phi2_kernel * (f1_hat - f0_hat)
    )


def _kernel_times_unit(ws: StepWorkspace, kernel: np.ndarray, idx: int) -> np.ndarray:
    e = np.zeros(ws.fact.op.shape)
    e[idx] = 1.0
    fa = ws.fact
    return fa.from_modes(kernel * fa.to_modes(e))


def coupled_step_direct(
    ws1: StepWorkspace,
    ws2: StepWorkspace,
    scheme: Scheme,
    u1: np.ndarray,
    u2: np.ndarray,
    problem: Problem1D,
    grid: Grid,
    layout: Decomposition,
    t_now: float,
    t_next: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance both pieces of a two-piece 1d layout one step, coupling exact.

    Each piece's new state is affine in the one trace value it reads at
    t_next, so the two unknown traces solve a 2x2 system and the states
    follow by substitution.  Matches the per-step Schwarz iteration in
    the limit of vanishing tolerance.
    """
    if layout.counts != (2,):
        raise ValueError("direct coupled step requires exactly two pieces")
    p1, p2 = layout.pieces
    w = problem.nu / grid.h**2
    # Read nodes: piece 1 reads its right border hi1+1 (owned by piece 2),
    # piece 2 reads its left border lo2-1 (owned by piece 1).
    ia = p1.local((p2.lo[0] - 1,))   # where piece 1's state is read
    ib = p2.local((p1.hi[0] + 1,))   # where piece 2's state is read
    fc1, fc2 = box_forcing(problem, grid, p1), box_forcing(problem, grid, p2)

    def forcing1(t: float, trace: float) -> np.ndarray:  # physical data on the left
        return assemble_forcing(fc1, t, [boundary_data(fc1, 0, t), np.array([trace])])

    def forcing2(t: float, trace: float) -> np.ndarray:  # physical data on the right
        return assemble_forcing(fc2, t, [np.array([trace]), boundary_data(fc2, 1, t)])

    if scheme == "etd1":
        base1 = etd1_step(ws1, u1, forcing1(t_next, 0.0))
        base2 = etd1_step(ws2, u2, forcing2(t_next, 0.0))
        k1, k2 = ws1.phi1_kernel, ws2.phi1_kernel
    elif scheme == "etd2":
        # At t_now the bordering values are the current neighbor traces.
        base1 = etd2_step(ws1, u1, forcing1(t_now, np.asarray(u2)[ib]), forcing1(t_next, 0.0))
        base2 = etd2_step(ws2, u2, forcing2(t_now, np.asarray(u1)[ia]), forcing2(t_next, 0.0))
        k1, k2 = ws1.phi2_kernel, ws2.phi2_kernel
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    gv1 = w * _kernel_times_unit(ws1, k1, p1.shape[0] - 1)
    gv2 = w * _kernel_times_unit(ws2, k2, 0)

    g1 = gv1[ia]  # d s_a / d s_b
    g2 = gv2[ib]  # d s_b / d s_a
    det = 1.0 - g1 * g2
    if abs(det) < 1e-12:
        raise ValueError(f"interface system nearly singular: 1 - g1 g2 = {det}")
    s_a = (base1[ia] + g1 * base2[ib]) / det
    s_b = (base2[ib] + g2 * base1[ia]) / det
    return base1 + gv1 * s_b, base2 + gv2 * s_a


def run_monodomain(
    problem: Problem,
    grid: Grid,
    timegrid: TimeGrid,
    scheme: Scheme,
    ws: StepWorkspace,
) -> np.ndarray:
    """March the whole domain; returns the trajectory including t = 0.

    Shape (steps + 1, *grid.shape).  The state is kept in mode space
    across steps so each step costs two DSTs.
    """
    if scheme not in ("etd1", "etd2"):
        raise ValueError(f"unknown scheme {scheme!r}")
    fa = ws.fact
    fc = box_forcing(problem, grid, Box((1,) * len(grid.shape), grid.shape))
    u0 = fc.initial_state()

    def forcing(t: float) -> np.ndarray:
        return assemble_forcing(fc, t, [boundary_data(fc, k, t) for k in range(len(fc.edges))])

    traj = np.empty((timegrid.steps + 1,) + u0.shape)
    traj[0] = u0
    u_hat = fa.to_modes(u0)
    f_hat_now = fa.to_modes(forcing(0.0)) if scheme == "etd2" else None
    for m in range(timegrid.steps):
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
        traj[m + 1] = fa.from_modes(u_hat)
    return traj
