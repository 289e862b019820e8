"""Overlapping Schwarz drivers coupling the per-piece ETD steps.

Two ways to resolve the interface coupling:

* Per-time-step iteration ("method 1"): at each time level all pieces
  step in parallel from the converged previous level, exchanging the
  Dirichlet values they read from their neighbors, until the interface
  values stop moving.  Each Schwarz iteration costs one local step per
  piece.

* Waveform relaxation ("method 2"): each iteration re-marches every
  piece over the whole time interval (or a time window) against the
  neighbor traces of the previous iteration, exchanging entire
  time-histories.  Convergence is linear with a factor depending only
  on the overlap: over two iterations the interface error contracts by
  at least kappa = alpha (1 - beta) / (beta (1 - alpha)), where alpha
  and beta are the overlap fractions; on short windows an erfc-type
  superlinear bound applies instead.

Both drivers are dimension-agnostic: they operate on `LocalPiece`
records (one per subdomain) that carry the spectral step workspace,
the initial state, the forcing data and per-edge closures prepared by
`build_local_pieces`, and share one sweep loop.  Interface traces are
stored per directed interface as arrays of shape (size,) at a single
level and (steps + 1, size) over a window; size is 1 in 1d and the
edge length in 2d.

The stopping rule mirrors the iteration's relative-update criterion:
the update of every interface trace, normalized by the magnitude of
the initial guess on that interface, must drop below the tolerance.
A vanishing initial guess flips the criterion to absolute updates.
A non-finite update stops either driver with an error, also under a
fixed sweep budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    BoxForcing,
    Decomposition,
    Grid,
    Interface,
    Problem,
    assemble_forcing,
    boundary_data,
    box_forcing,
)
from .matfunc import DirichletLaplacian, spectral_factorization
from .steppers import Scheme, StepWorkspace, TimeGrid, make_workspace

__all__ = [
    "SolverConfig",
    "IterationLog",
    "LocalPiece",
    "build_local_pieces",
    "build_local_pieces_2d",
    "random_trace_guess",
    "initial_traces",
    "method1_advance",
    "method1_march",
    "method2_solve",
    "theoretical_rate",
    "superlinear_bound",
]

# Below this magnitude an initial-guess trace is treated as zero and the
# stopping test falls back to absolute updates.
_DENOM_FLOOR = 1e-14

TraceSet = list  # one ndarray per interface; (size,) or (steps + 1, size)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by both Schwarz drivers.

    Without `fixed_iterations` a solve iterates until the relative
    interface updates drop below `tolerance` (at most `max_iterations`
    sweeps); with it, a solve performs exactly that many sweeps, as
    decay-curve studies require.  `window_steps` splits a
    waveform-relaxation run into successive time windows of that many
    steps.
    """

    scheme: Scheme = "etd1"
    tolerance: float = 1e-6
    max_iterations: int = 200
    fixed_iterations: Optional[int] = None
    window_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheme not in ("etd1", "etd2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise ValueError("fixed_iterations must be >= 1 when given")
        if self.window_steps is not None and self.window_steps < 1:
            raise ValueError("window_steps must be >= 1 when given")

    @property
    def budget(self) -> int:
        return self.max_iterations if self.fixed_iterations is None else self.fixed_iterations


@dataclass
class IterationLog:
    """Per-iteration interface update and error curves of one solve.

    updates[k, i]: magnitude of the k-th sweep's change of interface i
    (max over the edge and, for waveform relaxation, over time levels).
    errors[k, i]:  distance of the k-th iterate's trace from a reference
    (supplied by error studies; row 0 is the initial guess), same norm.
    """

    updates: np.ndarray
    errors: Optional[np.ndarray]
    converged: bool
    iterations: int
    windows: tuple["IterationLog", ...] = ()

    def curve(self) -> np.ndarray:
        """Aggregate decay curve: max over interfaces, errors preferred."""
        rows = self.errors if self.errors is not None else self.updates
        return rows.max(axis=1)

    def normalized(self) -> np.ndarray:
        """curve() scaled so the first logged entry is 1."""
        c = self.curve()
        denom = c[0] if c.size and c[0] > 0 else 1.0
        return c / denom


def theoretical_rate(alpha: float, beta: float) -> float:
    """Two-iteration Schwarz contraction kappa = alpha(1-beta)/(beta(1-alpha))."""
    if not 0.0 < alpha < beta < 1.0:
        raise ValueError(f"need 0 < alpha < beta < 1, got {alpha}, {beta}")
    return alpha * (1.0 - beta) / (beta * (1.0 - alpha))


def superlinear_bound(k: int, alpha: float, beta: float, length: float, nu: float, horizon: float) -> float:
    """Short-window waveform-relaxation bound erfc(k (beta-alpha) L / (2 sqrt(nu T)))."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    if not 0.0 < alpha < beta < 1.0:
        raise ValueError(f"need 0 < alpha < beta < 1, got {alpha}, {beta}")
    if length <= 0 or nu <= 0 or horizon <= 0:
        raise ValueError("length, nu and horizon must be positive")
    return math.erfc(k * (beta - alpha) * length / (2.0 * math.sqrt(nu * horizon)))


@dataclass
class LocalPiece:
    """One subdomain prepared for the Schwarz drivers.

    edges: one entry per edge of the piece in (axis, side) order;
    ("physical", fn) edges carry a callable t -> boundary data,
    ("trace", i) edges read interface i.  owned: (interface index, node
    index) pairs for the values this piece provides to neighbors.
    """

    ws: StepWorkspace
    u0: np.ndarray
    closure: BoxForcing
    edges: tuple
    owned: tuple

    def forcing(self, t: float, traces: Optional[TraceSet],
                level: Optional[int] = None) -> np.ndarray:
        """Closed forcing at t; trace edges read `traces` (at `level` over a window)."""
        vals = []
        for kind, ref in self.edges:
            if kind == "physical":
                vals.append(ref(t))
            elif traces is None:
                raise ValueError("interface edge present but no traces supplied")
            else:
                tr = traces[ref]
                vals.append(tr[level] if level is not None else tr)
        return assemble_forcing(self.closure, t, vals)

    def extract(self, state: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Owned interface values of one state (n...) or a trajectory
        (levels, n...), flattened per level."""
        lead = state.shape[: state.ndim - self.u0.ndim]
        return [(idx, state[(Ellipsis,) + index].reshape(lead + (-1,)).copy())
                for idx, index in self.owned]


def build_local_pieces(
    problem: Problem, grid: Grid, layout: Decomposition, dt: float
) -> list[LocalPiece]:
    """Per-piece workspaces, initial states and edge closures of a layout."""
    pieces = []
    for i, box in enumerate(layout.pieces):
        op = DirichletLaplacian(box.shape, problem.nu, grid.spacings)
        ws = make_workspace(spectral_factorization(op), dt)
        closure = box_forcing(problem, grid, box)
        trace_for = {(itf.axis, itf.side): itf.index
                     for itf in layout.interfaces if itf.reader == i}
        edges = tuple(
            ("trace", trace_for[axis, side]) if (axis, side) in trace_for
            else ("physical", partial(boundary_data, closure, 2 * axis + side))
            for axis in range(len(box.shape)) for side in (0, 1)
        )
        owned = tuple((itf.index, box.slices_of(itf.read))
                      for itf in layout.interfaces if itf.owner == i)
        pieces.append(LocalPiece(ws=ws, u0=closure.initial_state(), closure=closure,
                                 edges=edges, owned=owned))
    return pieces


build_local_pieces_2d = build_local_pieces


def random_trace_guess(
    interfaces: Sequence[Interface], seed: int, steps: Optional[int] = None
) -> TraceSet:
    """Uniform(0, 1) interface guesses, deterministic per seed, never 0.

    With `steps` given the guess covers all levels 0..steps (level 0 is
    overwritten by the pinned initial trace inside the waveform driver).
    """
    rng = np.random.default_rng(seed)
    out = []
    for itf in interfaces:
        shape = (itf.size,) if steps is None else (steps + 1, itf.size)
        draw = rng.random(shape)
        while np.any(draw == 0.0):  # astronomically rare; keeps the open interval
            draw[draw == 0.0] = rng.random(np.count_nonzero(draw == 0.0))
        out.append(draw)
    return out


def initial_traces(pieces: Sequence[LocalPiece], states: Sequence[np.ndarray],
                   n_interfaces: int) -> TraceSet:
    """Extract every owned interface value from the given states."""
    traces: TraceSet = [None] * n_interfaces
    for piece, state in zip(pieces, states):
        for idx, val in piece.extract(state):
            traces[idx] = val
    return traces


def _trace_diff(a: TraceSet, b: TraceSet, time_axis: bool) -> np.ndarray:
    # max |a - b| per interface; over a window, level 0 is pinned data.
    out = np.empty(len(a))
    for i, (x, y) in enumerate(zip(a, b)):
        d = x - y
        if time_axis and d.ndim == 2:
            d = d[1:]
        out[i] = np.abs(d).max() if d.size else 0.0
    return out


def _stop(updates: np.ndarray, denoms: np.ndarray, tol: float) -> bool:
    rel = np.where(denoms > _DENOM_FLOOR, updates / np.maximum(denoms, _DENOM_FLOOR), updates)
    return bool(np.all(rel < tol))


def _sweep_loop(
    sweep: Callable[[TraceSet], list],
    pieces: Sequence[LocalPiece],
    traces: TraceSet,
    config: SolverConfig,
    reference: Optional[TraceSet],
    time_axis: bool,
    where: str,
) -> tuple[list[np.ndarray], IterationLog]:
    """Iterate sweep(traces) -> per-piece states from the initial traces.

    Each sweep's owned interface values become the next traces; the loop
    logs the per-interface updates (and distances from `reference`),
    stops by the relative-update rule unless the budget is fixed, and
    raises on a non-finite update either way.  Without interfaces one
    sweep is the solution.
    """
    n_if = len(traces)
    if n_if == 0:
        return sweep([]), IterationLog(
            updates=np.zeros((1, 0)), errors=None, converged=True, iterations=1,
        )
    fixed = config.fixed_iterations is not None
    denoms = _trace_diff(traces, [0.0] * n_if, time_axis)  # |initial traces|
    err_rows = [] if reference is None else [_trace_diff(traces, reference, time_axis)]
    upd_rows = []
    converged = fixed
    for k in range(1, config.budget + 1):
        states = sweep(traces)
        new_traces = initial_traces(pieces, states, n_if)
        update = _trace_diff(new_traces, traces, time_axis)
        bad = np.flatnonzero(~np.isfinite(update))
        if bad.size:
            raise FloatingPointError(
                f"non-finite interface update {where}: sweep {k}, interface {bad[0]}")
        upd_rows.append(update)
        if reference is not None:
            err_rows.append(_trace_diff(new_traces, reference, time_axis))
        traces = new_traces
        if not fixed and _stop(update, denoms, config.tolerance):
            converged = True
            break
    log = IterationLog(
        updates=np.array(upd_rows),
        errors=np.array(err_rows) if reference is not None else None,
        converged=converged,
        iterations=len(upd_rows),
    )
    return states, log


def method1_advance(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    states: Sequence[np.ndarray],
    t_now: float,
    t_next: float,
    config: SolverConfig,
    init_guess: Optional[TraceSet] = None,
    reference: Optional[TraceSet] = None,
) -> tuple[list[np.ndarray], IterationLog]:
    """Advance all pieces one time level by per-step Schwarz iteration.

    ETD1 sweeps re-solve each piece against the latest neighbor values at
    t_next; the default initial guess is the previous level's traces.
    ETD2 freezes the t_now forcing at the converged previous level, so
    only the linear-in-time correction term moves during the iteration;
    the default initial guess comes from the first-order predictor.
    With `reference` given (error studies), per-iteration distances of
    the traces from the reference are logged, guess included.
    """
    n_if = len(interfaces)
    scheme = config.scheme
    # Bordering values at t_now are the converged ones: physical data or
    # the neighbor's current state.
    now_traces = initial_traces(pieces, states, n_if)
    base_hat = []
    predictor_hat = []
    for piece, u in zip(pieces, states):
        fa = piece.ws.fact
        u_hat = fa.to_modes(np.asarray(u, dtype=float))
        if scheme == "etd1":
            base_hat.append(piece.ws.exp_kernel * u_hat)
        else:
            f_now_hat = fa.to_modes(piece.forcing(t_now, now_traces))
            base_hat.append(
                piece.ws.exp_kernel * u_hat
                + (piece.ws.phi1_kernel - piece.ws.phi2_kernel) * f_now_hat
            )
            # First-order prediction of the new level from t_now data only.
            predictor_hat.append(piece.ws.exp_kernel * u_hat + piece.ws.phi1_kernel * f_now_hat)
    gain_kernel = [
        (p.ws.phi1_kernel if scheme == "etd1" else p.ws.phi2_kernel) for p in pieces
    ]

    def sweep(traces: TraceSet) -> list[np.ndarray]:
        new_states = []
        for piece, bh, gk in zip(pieces, base_hat, gain_kernel):
            fa = piece.ws.fact
            f_next = piece.forcing(t_next, traces)
            new_states.append(fa.from_modes(bh + gk * fa.to_modes(f_next)))
        return new_states

    if init_guess is not None:
        traces = [np.array(tr, dtype=float).reshape(itf.size)
                  for tr, itf in zip(init_guess, interfaces)]
    elif scheme == "etd1" or n_if == 0:
        traces = now_traces
    else:
        predictor = [p.ws.fact.from_modes(ph) for p, ph in zip(pieces, predictor_hat)]
        traces = initial_traces(pieces, predictor, n_if)
    return _sweep_loop(sweep, pieces, traces, config, reference, time_axis=False,
                       where=f"at t={t_next:g}")


def method1_march(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    timegrid: TimeGrid,
    config: SolverConfig,
) -> tuple[list[np.ndarray], list[IterationLog]]:
    """March the per-step Schwarz iteration over the whole time grid.

    Returns per-piece trajectories of shape (steps + 1, *piece shape)
    and the iteration log of every level.
    """
    states = [p.u0.copy() for p in pieces]
    trajs = [np.empty((timegrid.steps + 1,) + p.u0.shape) for p in pieces]
    for traj, u in zip(trajs, states):
        traj[0] = u
    logs = []
    for m in range(timegrid.steps):
        states, log = method1_advance(
            pieces, interfaces, states, timegrid.t(m), timegrid.t(m + 1), config
        )
        logs.append(log)
        for traj, u in zip(trajs, states):
            traj[m + 1] = u
    return trajs, logs


def _march_window(
    pieces: Sequence[LocalPiece],
    u_start: Sequence[np.ndarray],
    t_start: float,
    dt: float,
    steps: int,
    scheme: Scheme,
    traces: TraceSet,
) -> list[np.ndarray]:
    """One waveform sweep: every piece re-marches the window against the
    given neighbor traces.

    All forcing levels are known up front (they depend only on the given
    traces), so the forward and inverse transforms are batched over
    levels and only the cheap diagonal recursion runs per step.
    """
    trajs = []
    for d, piece in enumerate(pieces):
        fa = piece.ws.fact
        u0 = np.asarray(u_start[d], dtype=float)
        f_stack = np.empty((steps + 1,) + u0.shape)
        for m in range(steps + 1):
            t = t_start + m * dt
            f_stack[m] = piece.forcing(t, traces, m)
        f_hat = fa.to_modes(f_stack)
        out_hat = np.empty_like(f_hat)
        u_hat = fa.to_modes(u0)
        out_hat[0] = u_hat
        E, K1, K2 = piece.ws.exp_kernel, piece.ws.phi1_kernel, piece.ws.phi2_kernel
        for m in range(steps):
            if scheme == "etd1":
                u_hat = E * u_hat + K1 * f_hat[m + 1]
            else:
                u_hat = E * u_hat + K1 * f_hat[m] + K2 * (f_hat[m + 1] - f_hat[m])
            out_hat[m + 1] = u_hat
        traj = fa.from_modes(out_hat)
        traj[0] = u0  # keep the start state free of transform round-off
        trajs.append(traj)
    return trajs


def _solve_window(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    u_start: Sequence[np.ndarray],
    t_start: float,
    dt: float,
    steps: int,
    config: SolverConfig,
    guess: Optional[TraceSet],
    reference: Optional[TraceSet],
) -> tuple[list[np.ndarray], IterationLog]:
    pinned = initial_traces(pieces, u_start, len(interfaces))
    if guess is None:
        traces = [np.repeat(p[None, :], steps + 1, axis=0) for p in pinned]
    else:
        traces = [np.array(g, dtype=float).reshape(steps + 1, itf.size)
                  for g, itf in zip(guess, interfaces)]
    for tr, p in zip(traces, pinned):
        tr[0] = p

    def sweep(traces: TraceSet) -> list[np.ndarray]:
        return _march_window(pieces, u_start, t_start, dt, steps, config.scheme, traces)

    return _sweep_loop(sweep, pieces, traces, config, reference, time_axis=True,
                       where=f"in the window from t={t_start:g}")


def method2_solve(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    timegrid: TimeGrid,
    config: SolverConfig,
    init_guess: Optional[TraceSet] = None,
    reference: Optional[TraceSet] = None,
) -> tuple[list[np.ndarray], IterationLog]:
    """Waveform relaxation over [0, horizon], optionally in time windows.

    Returns per-piece trajectories (steps + 1, *shape) and an
    IterationLog; with windows, the log aggregates one child log per
    window.  Level-0 traces are always pinned to the initial state, and
    init_guess/reference (shape (steps + 1, size) per interface) are
    sliced accordingly per window.
    """
    steps = timegrid.steps
    win = config.window_steps or steps
    starts = list(range(0, steps, win))
    states = [p.u0.copy() for p in pieces]
    trajs = [np.empty((steps + 1,) + p.u0.shape) for p in pieces]
    for traj, u in zip(trajs, states):
        traj[0] = u
    logs = []
    for s in starts:
        n = min(win, steps - s)
        guess = None
        ref = None
        if init_guess is not None:
            guess = [np.asarray(g, dtype=float)[s : s + n + 1] for g in init_guess]
        if reference is not None:
            ref = [np.asarray(r, dtype=float)[s : s + n + 1] for r in reference]
        wtrajs, wlog = _solve_window(
            pieces, interfaces, states, timegrid.t(s), timegrid.dt, n, config, guess, ref
        )
        logs.append(wlog)
        for traj, wt in zip(trajs, wtrajs):
            traj[s + 1 : s + n + 1] = wt[1:]
        states = [wt[-1] for wt in wtrajs]
    if len(logs) == 1:
        return trajs, logs[0]
    return trajs, IterationLog(
        updates=np.concatenate([lg.updates for lg in logs]),
        errors=None,
        converged=all(lg.converged for lg in logs),
        iterations=sum(lg.iterations for lg in logs),
        windows=tuple(logs),
    )
