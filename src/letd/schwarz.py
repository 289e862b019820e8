"""Overlapping Schwarz drivers coupling the per-piece ETD steps.

Two ways to resolve the interface coupling:

* Per-time-step iteration ("method 1"): at each time level all pieces
  step in parallel from the converged previous level, exchanging the
  Dirichlet values they read from their neighbors, until the interface
  values stop moving.  With a uniform step a piece's new state is affine
  in the traces it reads at the new level, through one fixed kernel
  (phi1 for ETD1, phi2 for ETD2).  Each level therefore transforms the
  state and the trace-independent forcing of every piece once and reads
  the resulting base (and the ETD2 predictor) on the outflow edges in
  mode space; a sweep is then a sum of small dense products of the
  incoming traces with per-piece edge gains G[o, i] of shape
  (|i|, |o|), built on first use and held on the piece.  A sweep
  assembles no forcing and runs no DST; the new states are rebuilt by
  one inverse DST per piece after the last sweep.

* Waveform relaxation ("method 2"): each iteration re-marches every
  piece over the whole time interval (or a time window) against the
  neighbor traces of the previous iteration, exchanging entire
  time-histories.  Convergence is linear with a factor depending only
  on the overlap: over two iterations the interface error contracts by
  at least kappa = alpha (1 - beta) / (beta (1 - alpha)), where alpha
  and beta are the overlap fractions; on short windows an erfc-type
  superlinear bound applies instead.

  The sweeps iterate on the traces alone, in sine-mode space.  A piece's
  state is affine in the traces it reads, so the trace-independent part
  (start state, source and physical boundary data) is transformed once
  per window.  Every trace edge moves a history between nodes and modes
  the same way in any dimension: the history times the dense sine
  matrix of the edge's other axes ([[1.0]] in 1d), times the stencil
  weight, enters the forcing modes through the sine row of the border
  node along the edge axis; an owned trace is read out by contracting
  the mode-space trajectory with the sine row of its read node and
  multiplying by that matrix.  A sweep therefore assembles no forcing
  and runs no DST; the fields are rebuilt by one batched inverse DST
  per piece after the last sweep.

  In 1d each trace is a single value per level, and with a uniform step
  the map from an incoming trace history to an owned one is linear,
  causal and time-invariant.  Each window therefore marches every piece
  only to find the read-out of its trace-independent part and, per
  (outflow, inflow) pair, the responses to a unit trace at level 0 and
  at level 1; a sweep is then one causal convolution per pair, with no
  per-step loop.  In 2d the edge-to-edge responses are dense, so every
  sweep runs the mode-space recursion.

Both drivers are dimension-agnostic: they operate on `LocalPiece`
records (one per subdomain) that carry the spectral step workspace,
the initial state, the forcing data, per-edge closures and the trace
edges (`EdgeRow`: a sine row along the edge axis and a sine matrix over
the others) prepared by `build_local_pieces`, and share one sweep loop.
The interface maps a driver derives from a piece alone (method 1's edge
gains, the 1d waveform responses) are built on first use and held on
the piece, so they live as long as its piece set.
Interface traces are stored per directed interface as arrays of shape
(size,) at a single level and (steps + 1, size) over a window; size is
1 in 1d and the edge length in 2d.

The stopping rule mirrors the iteration's relative-update criterion:
the update of every interface trace, normalized by the magnitude of
the initial guess on that interface, must drop below the tolerance.
A vanishing initial guess flips the criterion to absolute updates.
A non-finite update stops either driver with an error, also under a
fixed sweep budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
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
from .matfunc import DirichletLaplacian, sine_matrix, sine_row, spectral_factorization
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
        if not self.tolerance > 0:
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


@dataclass(frozen=True)
class EdgeRow:
    """One trace edge of a piece in sine-mode space.

    The edge's node row lies at index `node` along `axis`; `modes` is the
    sine row of that node along the axis, `weight` the factor on the
    trace (the stencil weight nu / h^2 for a trace the piece reads, 1 for
    one it owns), `shape` the piece's extent over its other axes and
    `basis` their orthonormal sine matrix (`sine_matrix(shape)`, [[1.0]]
    in 1d).  A trace row is the edge's values in C order over `shape`, so
    it moves between nodes and modes by one product with `basis`.
    """

    interface: int
    axis: int
    node: int
    modes: np.ndarray
    weight: float
    shape: tuple[int, ...]
    basis: np.ndarray

    @property
    def size(self) -> int:
        """Number of nodes on the edge."""
        return len(self.basis)

    def spread(self, history: np.ndarray) -> np.ndarray:
        """Forcing modes (levels, *piece shape) of a trace history (levels, size)."""
        h = ((self.weight * history) @ self.basis).reshape((len(history),) + self.shape)
        cut = 1 + self.axis
        return (h.reshape(h.shape[:cut] + (1,) + h.shape[cut:])
                * self.modes.reshape((-1,) + (1,) * (h.ndim - cut)))

    def read(self, u_hat: np.ndarray) -> np.ndarray:
        """Trace history (levels, size) of a mode-space trajectory (levels, *piece shape)."""
        v = np.moveaxis(u_hat, 1 + self.axis, -1) @ self.modes
        return v.reshape(len(v), -1) @ self.basis


@dataclass
class LocalPiece:
    """One subdomain prepared for the Schwarz drivers.

    edges: one entry per edge of the piece in (axis, side) order;
    ("physical", fn) edges carry a callable t -> boundary data,
    ("trace", i) edges read interface i.  inflow: those trace edges;
    outflow: the node rows whose values this piece provides to neighbors.
    maps: interface maps derived from the piece alone, keyed by kind,
    scheme and (for windows) step count; filled on first use by `_cached`.
    """

    ws: StepWorkspace
    u0: np.ndarray
    closure: BoxForcing
    edges: tuple
    inflow: tuple[EdgeRow, ...]
    outflow: tuple[EdgeRow, ...]
    maps: dict = field(default_factory=dict, repr=False, compare=False)

    def forcing(self, t: float, traces: Optional[TraceSet] = None) -> np.ndarray:
        """Closed forcing at t; trace edges read `traces` (one value set per
        interface) or, without them, add nothing: the trace-independent part."""
        vals = []
        for kind, ref in self.edges:
            if kind == "physical":
                vals.append(ref(t))
            else:
                vals.append(None if traces is None else traces[ref])
        return assemble_forcing(self.closure, t, vals)

    def extract(self, state: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Owned interface values of one state (n...) or a trajectory
        (levels, n...), flattened per level."""
        lead = state.shape[: state.ndim - self.u0.ndim]
        return [(e.interface,
                 np.take(state, e.node, axis=len(lead) + e.axis).reshape(lead + (-1,)))
                for e in self.outflow]


def build_local_pieces(
    problem: Problem, grid: Grid, layout: Decomposition, dt: float
) -> list[LocalPiece]:
    """Per-piece workspaces, initial states, edge closures and trace-edge
    sine rows and bases of a layout; edges of one shape share a basis."""
    pieces = []
    basis = cache(sine_matrix)
    for i, box in enumerate(layout.pieces):
        op = DirichletLaplacian(box.shape, problem.nu, grid.spacings)
        ws = make_workspace(spectral_factorization(op), dt)
        closure = box_forcing(problem, grid, box)

        def edge_row(itf: Interface, node: int, weight: float) -> EdgeRow:
            shape = box.shape[:itf.axis] + box.shape[itf.axis + 1:]
            return EdgeRow(itf.index, itf.axis, node, sine_row(box.shape[itf.axis], node),
                           weight, shape, basis(shape))

        reads = [itf for itf in layout.interfaces if itf.reader == i]
        trace_for = {(itf.axis, itf.side): itf.index for itf in reads}
        edges = tuple(
            ("trace", trace_for[axis, side]) if (axis, side) in trace_for
            else ("physical", partial(boundary_data, closure, 2 * axis + side))
            for axis in range(len(box.shape)) for side in (0, 1)
        )
        inflow = tuple(
            edge_row(itf, itf.side * (box.shape[itf.axis] - 1),
                     closure.edges[2 * itf.axis + itf.side].weight)
            for itf in reads)
        outflow = tuple(edge_row(itf, itf.read.lo[itf.axis] - box.lo[itf.axis], 1.0)
                        for itf in layout.interfaces if itf.owner == i)
        pieces.append(LocalPiece(ws=ws, u0=closure.initial_state(), closure=closure,
                                 edges=edges, inflow=inflow, outflow=outflow))
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
    sweep: Callable[[TraceSet], TraceSet],
    traces: TraceSet,
    config: SolverConfig,
    reference: Optional[TraceSet],
    time_axis: bool,
    where: str,
) -> IterationLog:
    """Iterate traces <- sweep(traces) from the initial traces.

    The loop logs the per-interface updates (and distances from
    `reference`), stops by the relative-update rule unless the budget is
    fixed, and raises on a non-finite update either way.  Without
    interfaces one sweep is the solution.  The caller's sweep keeps the
    states of its last call.
    """
    n_if = len(traces)
    if n_if == 0:
        sweep([])
        return IterationLog(
            updates=np.zeros((1, 0)), errors=None, converged=True, iterations=1,
        )
    fixed = config.fixed_iterations is not None
    denoms = _trace_diff(traces, [0.0] * n_if, time_axis)  # |initial traces|
    err_rows = [] if reference is None else [_trace_diff(traces, reference, time_axis)]
    upd_rows = []
    converged = fixed
    for k in range(1, config.budget + 1):
        new_traces = sweep(traces)
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
    return IterationLog(
        updates=np.array(upd_rows),
        errors=np.array(err_rows) if reference is not None else None,
        converged=converged,
        iterations=len(upd_rows),
    )


def _cached(piece: LocalPiece, key: tuple, build: Callable, *args):
    """piece.maps[key], made by build(piece, *args) on first use."""
    if key not in piece.maps:
        piece.maps[key] = build(piece, *args)
    return piece.maps[key]


def _step_kernel(ws: StepWorkspace, scheme: Scheme) -> np.ndarray:
    """The kernel through which the forcing at the new level enters a step."""
    return ws.phi1_kernel if scheme == "etd1" else ws.phi2_kernel


def _step_gains(piece: LocalPiece, scheme: Scheme) -> list[np.ndarray]:
    """The edge gains of one step, per outflow edge o of the piece.

    The gain G[o, i] of an inflow edge i has shape (|i|, |o|): its row k
    is o's trace after one step from a zero state and zero
    trace-independent forcing, with a unit trace at node k of i at the
    new level, i.e. o.read(K * i.spread(I)) with K the step kernel (phi1
    for ETD1, phi2 for ETD2, times dt).  Per o the gains of all inflow
    edges are stacked in inflow order, (sum of |i|, |o|), so a sweep
    takes one product per outflow edge.
    """
    kernel = _step_kernel(piece.ws, scheme)
    # one inflow edge at a time, so only one unit field is held
    units = (kernel * i.spread(np.eye(i.size)) for i in piece.inflow)
    blocks = [[o.read(u) for o in piece.outflow] for u in units]
    return [np.concatenate(column) for column in zip(*blocks)]


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

    The sweeps iterate on the traces.  Per piece the level transforms the
    state, the trace-independent forcing at t_next and (ETD2) the forcing
    at t_now once, and reads the base of the new state and the ETD2
    predictor on the outflow edges in mode space.  A sweep is then
    out[o] = base[o] + sum_i trace[i] @ G[o, i] with the gains of
    `_step_gains`, held on the pieces; it assembles no forcing and runs
    no DST.  The new states are rebuilt by one inverse DST per piece
    against the traces of the last sweep.
    """
    n_if = len(interfaces)
    scheme = config.scheme
    # Bordering values at t_now are the converged ones: physical data or
    # the neighbor's current state.
    now_traces = initial_traces(pieces, states, n_if)
    base_hat, readouts, gains = [], [], []
    for piece, u in zip(pieces, states):
        ws, fa = piece.ws, piece.ws.fact
        e_u = ws.exp_kernel * fa.to_modes(np.asarray(u, dtype=float))
        if scheme == "etd1":
            base, predictor = e_u, []
        else:
            f_now_hat = fa.to_modes(piece.forcing(t_now, now_traces))
            base = e_u + (ws.phi1_kernel - ws.phi2_kernel) * f_now_hat
            # First-order prediction of the new level from t_now data only.
            predictor = [e_u + ws.phi1_kernel * f_now_hat]
        base = base + _step_kernel(ws, scheme) * fa.to_modes(piece.forcing(t_next))
        base_hat.append(base)
        both = np.stack([base, *predictor])
        readouts.append([o.read(both) for o in piece.outflow])
        gains.append(_cached(piece, ("step", scheme), _step_gains, scheme))

    last: TraceSet = []

    def sweep(traces: TraceSet) -> TraceSet:
        last[:] = traces
        new: TraceSet = [None] * n_if
        for piece, reads, gain in zip(pieces, readouts, gains):
            if piece.outflow:  # a lone piece has no trace edges
                x = np.concatenate([traces[i.interface] for i in piece.inflow])
                for o, read, g in zip(piece.outflow, reads, gain):
                    new[o.interface] = read[0] + x @ g
        return new

    if init_guess is not None:
        traces = [np.array(tr, dtype=float).reshape(itf.size)
                  for tr, itf in zip(init_guess, interfaces)]
    elif scheme == "etd1" or n_if == 0:
        traces = now_traces
    else:
        traces = [None] * n_if
        for piece, reads in zip(pieces, readouts):
            for o, read in zip(piece.outflow, reads):
                traces[o.interface] = read[1]
    log = _sweep_loop(sweep, traces, config, reference, time_axis=False,
                      where=f"at t={t_next:g}")
    new_states = []
    for piece, base in zip(pieces, base_hat):
        spread = sum(i.spread(last[i.interface][None])[0] for i in piece.inflow)
        new_states.append(piece.ws.fact.from_modes(base + _step_kernel(piece.ws, scheme) * spread))
    return new_states, log


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


def _march_modes(ws: StepWorkspace, scheme: Scheme, u_hat: np.ndarray,
                 f_hat: np.ndarray) -> np.ndarray:
    """Diagonal ETD recursion in mode space over forcing modes f_hat
    (steps + 1, ...) from the start modes u_hat; returns all levels.

    The forcing terms of every step are formed up front, so only the
    update E u + terms runs per step, in place and summed in the order of
    the single-step formula.
    """
    E, mul, add = ws.exp_kernel, np.multiply, np.add
    out = np.empty_like(f_hat)
    out[0] = u_hat
    rows = list(out)
    if scheme == "etd1":
        for prev, nxt, g in zip(rows, rows[1:], ws.phi1_kernel * f_hat[1:]):
            add(mul(E, prev, out=nxt), g, out=nxt)
    else:
        for prev, nxt, g0, g1 in zip(rows, rows[1:], ws.phi1_kernel * f_hat[:-1],
                                     ws.phi2_kernel * (f_hat[1:] - f_hat[:-1])):
            add(add(mul(E, prev, out=nxt), g0, out=nxt), g1, out=nxt)
    return out


def _window_responses(piece: LocalPiece, scheme: Scheme,
                      steps: int) -> list[list[tuple[int, np.ndarray, np.ndarray]]]:
    """The causal response map of a 1d piece over a window of `steps` steps.

    Per outflow edge o and inflow edge i: (interface of i, r0, r1), o's
    traces (steps + 1,) of the march from a zero state against a unit
    trace on i at level 0 (r0) and at level 1 (r1).  The recursion is
    linear and its kernels do not change over a uniform window, so a unit
    trace at level j >= 1 gives r1 shifted by j - 1 levels; ETD2 uses
    level 0 only through (phi1 - phi2), hence its own response (zero for
    ETD1).  The map depends on the piece, the scheme and `steps` alone.
    """
    zero = np.zeros(piece.u0.shape)

    def response(edge: EdgeRow, level: int) -> np.ndarray:
        unit = np.zeros((steps + 1, 1))
        unit[level] = 1.0
        return _march_modes(piece.ws, scheme, zero, edge.spread(unit))

    units = [(i.interface, response(i, 0), response(i, 1)) for i in piece.inflow]
    return [[(idx, o.read(u0)[:, 0], o.read(u1)[:, 0]) for idx, u0, u1 in units]
            for o in piece.outflow]


def _window_sweep(
    pieces: Sequence[LocalPiece],
    u_start: Sequence[np.ndarray],
    t_start: float,
    dt: float,
    steps: int,
    scheme: Scheme,
) -> tuple[Callable[[TraceSet], TraceSet], Callable[[Sequence[np.ndarray]], None]]:
    """The interface-reduced waveform sweep of one window.

    Transforms every piece's start state and trace-independent forcing
    stack once.  Returns `sweep(traces)`, which maps the given trace
    histories to the owned traces of every piece, and `fields(out)`,
    which writes levels 1..steps of the last sweep's trajectories into
    out[d] (steps + 1, *shape): the march against the last traces is
    repeated piece by piece and transformed back by one batched inverse
    DST, so no mode-space trajectory is held between sweeps.  `fields`
    releases the forcing stacks as it goes and is called once, after the
    last sweep.

    In 1d (every trace edge a single node) each piece is marched once
    here for the base read-out of its trace-independent part, the
    responses of `_window_responses` are taken from the piece (built for
    the first window of this length), and a sweep is the causal
    convolution out = base + r0 x[0] + r1 * x[1:] per (outflow, inflow)
    pair: no per-step loop and no mode-space work.  In 2d the
    edge-to-edge responses are dense, so every sweep marches each piece
    in mode space against the spread traces and reads its outflow edges.
    """
    times = [t_start + m * dt for m in range(steps + 1)]
    starts = [p.ws.fact.to_modes(np.asarray(u, dtype=float)) for p, u in zip(pieces, u_start)]
    bases = [p.ws.fact.to_modes(np.stack([p.forcing(t) for t in times])) for p in pieces]
    last: TraceSet = []

    def march(d: int, traces: TraceSet) -> np.ndarray:
        f_hat = bases[d]
        for edge in pieces[d].inflow:
            f_hat = f_hat + edge.spread(traces[edge.interface])
        return _march_modes(pieces[d].ws, scheme, starts[d], f_hat)

    if all(edge.size == 1 for p in pieces for edge in p.inflow):
        maps = []
        for p, s, b in zip(pieces, starts, bases):
            u_base = _march_modes(p.ws, scheme, s, b)
            pairs = _cached(p, ("window", scheme, steps), _window_responses, scheme, steps)
            maps.append([(o.interface, o.read(u_base)[:, 0], row)
                         for o, row in zip(p.outflow, pairs)])

        def owned(d: int, traces: TraceSet) -> list[tuple[int, np.ndarray]]:
            out = []
            for idx, tr, pairs in maps[d]:
                tr = tr.copy()
                for i, r0, r1 in pairs:
                    x = traces[i][:, 0]
                    tr[1:] += r0[1:] * x[0] + np.convolve(r1[1:], x[1:])[:steps]
                out.append((idx, tr[:, None]))
            return out
    else:
        def owned(d: int, traces: TraceSet) -> list[tuple[int, np.ndarray]]:
            u_hat = march(d, traces)
            return [(edge.interface, edge.read(u_hat)) for edge in pieces[d].outflow]

    def sweep(traces: TraceSet) -> TraceSet:
        last[:] = traces
        new: TraceSet = [None] * len(traces)
        for d in range(len(pieces)):
            for idx, tr in owned(d, traces):
                tr[0] = traces[idx][0]  # level 0 is pinned data
                new[idx] = tr
        return new

    def fields(out: Sequence[np.ndarray]) -> None:
        for d, piece in enumerate(pieces):
            out[d][1:] = piece.ws.fact.from_modes(march(d, last)[1:])
            bases[d] = None

    return sweep, fields


def _solve_window(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    window: Sequence[np.ndarray],
    t_start: float,
    dt: float,
    config: SolverConfig,
    guess: Optional[TraceSet],
    reference: Optional[TraceSet],
) -> IterationLog:
    """Solve one window in place: window[d] is piece d's trajectory
    (steps + 1, *shape) over the window, level 0 holding its start state;
    levels 1..steps receive the solution."""
    steps = len(window[0]) - 1
    u_start = [w[0] for w in window]
    pinned = initial_traces(pieces, u_start, len(interfaces))
    if guess is None:
        traces = [np.repeat(p[None, :], steps + 1, axis=0) for p in pinned]
    else:
        traces = [np.array(g, dtype=float).reshape(steps + 1, itf.size)
                  for g, itf in zip(guess, interfaces)]
    for tr, p in zip(traces, pinned):
        tr[0] = p
    sweep, fields = _window_sweep(pieces, u_start, t_start, dt, steps, config.scheme)
    log = _sweep_loop(sweep, traces, config, reference, time_axis=True,
                      where=f"in the window from t={t_start:g}")
    fields(window)
    return log


def method2_solve(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    timegrid: TimeGrid,
    config: SolverConfig,
    init_guess: Optional[TraceSet] = None,
    reference: Optional[TraceSet] = None,
) -> tuple[list[np.ndarray], IterationLog]:
    """Waveform relaxation over [0, horizon], optionally in time windows.

    Each window iterates interface-reduced sweeps: the trace-independent
    forcing is assembled and transformed once per window, and the fields
    are rebuilt once after the window's last sweep.  In 1d a sweep is a
    causal convolution of the incoming trace histories with per-window
    responses (no per-step loop); in 2d it runs the mode-space recursion
    and the dense edge products of `EdgeRow`.  Neither assembles forcing
    or runs a DST.

    Returns per-piece trajectories (steps + 1, *shape) and an
    IterationLog; with windows, the log aggregates one child log per
    window.  Level-0 traces are always pinned to the initial state, and
    init_guess/reference (shape (steps + 1, size) per interface) are
    sliced accordingly per window.
    """
    steps = timegrid.steps
    win = config.window_steps or steps
    trajs = [np.empty((steps + 1,) + p.u0.shape) for p in pieces]
    for traj, p in zip(trajs, pieces):
        traj[0] = p.u0
    logs = []
    for s in range(0, steps, win):
        n = min(win, steps - s)
        guess = None
        ref = None
        if init_guess is not None:
            guess = [np.asarray(g, dtype=float)[s : s + n + 1] for g in init_guess]
        if reference is not None:
            ref = [np.asarray(r, dtype=float)[s : s + n + 1] for r in reference]
        window = [traj[s : s + n + 1] for traj in trajs]
        logs.append(_solve_window(pieces, interfaces, window, timegrid.t(s), timegrid.dt,
                                  config, guess, ref))
    if len(logs) == 1:
        return trajs, logs[0]
    return trajs, IterationLog(
        updates=np.concatenate([lg.updates for lg in logs]),
        errors=None,
        converged=all(lg.converged for lg in logs),
        iterations=sum(lg.iterations for lg in logs),
        windows=tuple(logs),
    )
