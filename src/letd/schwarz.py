"""Overlapping Schwarz drivers coupling the per-piece ETD steps.

Two ways to resolve the interface coupling, which differ only in the
time span one sweep covers:

* Waveform relaxation ("method 2"): each iteration re-marches every
  piece over the whole time interval (or a time window) against the
  neighbor traces of the previous iteration, exchanging entire
  time-histories.  Convergence is linear with a factor depending only
  on the overlap: over two iterations the interface error contracts by
  at least kappa = alpha (1 - beta) / (beta (1 - alpha)), where alpha
  and beta are the overlap fractions; on short windows an erfc-type
  superlinear bound applies instead.

* Per-time-step iteration ("method 1"): at each time level all pieces
  step in parallel from the converged previous level, exchanging the
  Dirichlet values they read from their neighbors, until the interface
  values stop moving.  A level is the waveform window of one step; only
  its ETD2 starting guess, the first-order predictor, is its own.

Both iterate on the traces alone, in sine-mode space: one-step windows
(every method-1 level) through one engine, longer windows through
another.  A piece's state is affine in the traces it reads, so the
trace-independent forcing (source and physical boundary data) is
assembled once per window, in one call over the window's time levels,
and transformed in one batch per piece.  Every trace edge moves a
history between nodes and modes the same way in any dimension: the
history times the dense sine matrix of the edge's other axes ([[1.0]] in
1d), times the stencil weight, enters the forcing modes through the sine
row of the border node along the edge axis; an owned trace is read out
by contracting the mode-space trajectory with the sine row of its read
node and multiplying by that matrix.  A sweep therefore assembles no
forcing and runs no DST.

A window hands its successor its last level in sine-mode space (`Level`):
per piece the state modes and the trace-independent forcing modes, per
interface the pinned trace, which is the last sweep's owned trace and
enters the successor's level-0 forcing through the edge.  Only a run's
first window starts from fields, transformed in the batch of its forcing.
Both drivers write the levels they keep into their trajectories as modes
(every level, or with `final_only` the last one alone), and each
trajectory is transformed to fields by one inverse DST per piece at the
end.  A method-1 level transforms one field per piece, and its march
assembles the forcing of four levels at a time.

With a uniform step the map from the incoming trace histories of a piece
to its owned ones is linear, causal and time-invariant.  Its response
table (per lag, from every inflow node to every outflow node) depends on
the piece, the scheme and the window length alone, so it is built on
first use and held on the piece, and lives as long as its piece set.  A
one-step sweep is then one small dense product per piece over one flat
vector of traces, and its new state one step from the base step's start
part, with no march; a longer 1d window is one causal convolution per
(outflow, inflow) pair.  Only longer 2d windows, whose per-lag tables
would be large, run the mode-space recursion in every sweep.

Both drivers are dimension-agnostic: they operate on `LocalPiece`
records (one per subdomain) that carry the spectral step workspace,
the initial state, the forcing data, per-edge closures and the trace
edges (`EdgeRow`: a sine row along the edge axis and a sine matrix over
the others) prepared by `build_local_pieces`, and share one sweep loop,
which holds levels 1.. of every interface trace (size values per level:
1 in 1d, the edge length in 2d) in one vector.

The stopping rule mirrors the iteration's relative-update criterion:
the update of every interface trace, normalized by the magnitude of
the initial guess on that interface, must drop below the tolerance.
A vanishing initial guess flips the criterion to absolute updates.
A non-finite update stops either driver with an error, also under a
fixed sweep budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .matfunc import DirichletLaplacian, sine_matrix, sine_row, spectral_factorization
from .steppers import Scheme, StepWorkspace, TimeGrid, make_workspace

__all__ = [
    "SolverConfig",
    "IterationLog",
    "LocalPiece",
    "Level",
    "build_local_pieces",
    "build_local_pieces_2d",
    "random_trace_guess",
    "initial_traces",
    "method1_advance",
    "method1_march",
    "method2_solve",
    "theoretical_rate",
]

# Below this magnitude an initial-guess trace is treated as zero and the
# stopping test falls back to absolute updates.
_DENOM_FLOOR = 1e-14

# Unit traces marched together when a response table is built; bounds the
# unit fields held at once.
_UNITS_PER_MARCH = 8

# Levels whose trace-independent forcing a per-step march assembles in one
# call per piece.  Each level held ahead costs a field per piece; more
# levels save fewer calls and raise the peak memory (CHANGES.md).
_AHEAD = 4

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
    With time windows both hold the rows of every window in turn.
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


def theoretical_rate(alpha: float, beta: float) -> float:
    """Two-iteration Schwarz contraction kappa = alpha(1-beta)/(beta(1-alpha))."""
    if not 0.0 < alpha < beta < 1.0:
        raise ValueError(f"need 0 < alpha < beta < 1, got {alpha}, {beta}")
    return alpha * (1.0 - beta) / (beta * (1.0 - alpha))


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
        cut = 1 + self.axis
        v = u_hat.transpose(*range(cut), *range(cut + 1, u_hat.ndim), cut) @ self.modes
        return v.reshape(len(v), -1) @ self.basis


@dataclass
class LocalPiece:
    """One subdomain prepared for the Schwarz drivers.

    edges: one entry per edge of the piece in (axis, side) order;
    ("physical", fn) edges carry a callable t -> boundary data,
    ("trace", i) edges read interface i.  inflow: those trace edges;
    outflow: the node rows whose values this piece provides to neighbors.
    maps: the piece's response tables (`_window_responses`), keyed by
    scheme and window length, and one-step gains (`_step_gains`), keyed
    by "step" and scheme; filled on first use by `_cached`.
    """

    ws: StepWorkspace
    u0: np.ndarray
    closure: BoxForcing
    edges: tuple
    inflow: tuple[EdgeRow, ...]
    outflow: tuple[EdgeRow, ...]
    maps: dict = field(default_factory=dict, repr=False, compare=False)

    def forcing(self, t, traces: Optional[TraceSet] = None) -> np.ndarray:
        """Closed forcing at one time t, or the stack (levels, *shape) over a
        1-D array of times, in one `assemble_forcing` call; trace edges read
        `traces` (one value set per interface, per level over an array of
        times) or, without them, add nothing: the trace-independent part."""
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


@dataclass(frozen=True)
class Level:
    """Every piece's state at one time level, as a window starts from it.

    A run's first level holds the per-piece fields and nothing else.  A
    level that a window hands on is held in sine-mode space: per piece
    the state modes and the trace-independent forcing modes (at the
    level's time, then at any later levels assembled ahead), and per
    interface the pinned (owned) trace, so that the next window transforms
    no state and rebuilds no field.
    """

    states: Sequence[np.ndarray]
    forcing: Optional[Sequence[np.ndarray]] = None  # None: `states` are fields
    pinned: Optional[TraceSet] = None


def build_local_pieces(
    problem: Problem, grid: Grid, layout: Decomposition, dt: float
) -> list[LocalPiece]:
    """Per-piece workspaces, initial states, edge closures and trace-edge
    sine rows and bases of a layout."""
    pieces = []
    for i, box in enumerate(layout.pieces):
        op = DirichletLaplacian(box.shape, problem.nu, grid.spacings)
        ws = make_workspace(spectral_factorization(op), dt)
        closure = box_forcing(problem, grid, box)

        def edge_row(itf: Interface, node: int, weight: float) -> EdgeRow:
            shape = box.shape[:itf.axis] + box.shape[itf.axis + 1:]
            return EdgeRow(itf.index, itf.axis, node, sine_row(box.shape[itf.axis], node),
                           weight, shape, sine_matrix(shape))

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
    pinned data, which the drivers do not read).
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


def _stop(updates: np.ndarray, denoms: np.ndarray, tol: float) -> bool:
    rel = np.where(denoms > _DENOM_FLOOR, updates / np.maximum(denoms, _DENOM_FLOOR), updates)
    return bool(np.all(rel < tol))


def _sweep_loop(sweep: Callable[[np.ndarray, np.ndarray], np.ndarray], now: np.ndarray,
                at: np.ndarray, config: SolverConfig, reference: Optional[np.ndarray],
                where: str) -> tuple[IterationLog, np.ndarray, np.ndarray]:
    """Iterate now <- sweep(now, new) from the initial traces `now`: levels
    >= 1 of every interface's trace (level 0 is pinned data) in one
    vector, interface i at at[i]:at[i + 1], as is `reference`.  A sweep
    writes its traces into `new`; `now` and one more vector take the
    iterates in turn, and a third each update.  The loop logs the
    per-interface updates (and distances from `reference`), max norms
    over each interface's slice, stops by the relative-update rule unless
    the budget is fixed, and raises on a non-finite update either way.
    Without interfaces one sweep is the solution.  Returns the log and the
    last sweep's input and output.
    """
    if len(at) == 1:
        log = IterationLog(updates=np.zeros((1, 0)), errors=None, converged=True, iterations=1)
        return log, now, sweep(now, np.empty(0))
    norm = lambda v: np.maximum.reduceat(np.abs(v, out=v), at[:-1])  # max |v| per interface; overwrites v
    new, spare = np.empty(len(now)), np.empty(len(now))
    denoms = norm(now.copy())  # |initial traces|
    err_rows = [] if reference is None else [norm(now - reference)]
    upd_rows = []
    fixed = config.fixed_iterations is not None
    converged = fixed
    last = now
    for k in range(1, config.budget + 1):
        sweep(now, new)
        if reference is not None:
            err_rows.append(norm(new - reference))
        update = norm(np.subtract(new, now, out=spare))
        bad = np.flatnonzero(~np.isfinite(update))
        if bad.size:
            raise FloatingPointError(
                f"non-finite interface update {where}: sweep {k}, interface {bad[0]}")
        upd_rows.append(update)
        last, now, new = now, new, now
        if not fixed and _stop(update, denoms, config.tolerance):
            converged = True
            break
    errors = np.array(err_rows) if reference is not None else None
    return IterationLog(np.array(upd_rows), errors, converged, len(upd_rows)), last, now


def _flat(rows) -> np.ndarray:
    """The 1-d arrays `rows` in one vector, in order; empty without rows."""
    return np.concatenate([np.empty(0), *rows])


def _cached(piece: LocalPiece, key: tuple, build: Callable, *args):
    """piece.maps[key], made by build(piece, *args) on first use."""
    if key not in piece.maps:
        piece.maps[key] = build(piece, *args)
    return piece.maps[key]


def method1_advance(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    states: Sequence[np.ndarray] | Level,
    t_now: float,
    t_next: float,
    config: SolverConfig,
    init_guess: Optional[TraceSet] = None,
    reference: Optional[TraceSet] = None,
) -> tuple[list[np.ndarray] | Level, IterationLog]:
    """Advance all pieces one time level by per-step Schwarz iteration.

    A level is the one-step window of the waveform driver, solved by
    `_solve_window`.  ETD1 sweeps re-solve each piece against the latest
    neighbor values at t_next; the default initial guess is the previous
    level's traces.  ETD2 freezes the t_now forcing at the converged
    previous level (the window's pinned level 0), so only the
    linear-in-time correction term moves during the iteration; the
    default initial guess comes from the first-order predictor.
    init_guess and reference hold one value set (size,) per interface at
    t_next; with `reference` given (error studies), per-iteration
    distances of the traces from the reference are logged, guess included.

    `states` are either the per-piece fields at t_now, and the new fields
    come back, or a `Level` (a run's first level as fields, or the level a
    previous call returned), and the level at t_next comes back in
    sine-mode space, so that a march transforms no state between levels.
    """
    carried = isinstance(states, Level)
    window = [np.empty((2,) + p.u0.shape) for p in pieces]
    # as histories over the window, whose level 0 is pinned data, not read
    held = lambda rows: None if rows is None else [np.array([r, r], dtype=float) for r in rows]
    log, level = _solve_window(pieces, interfaces, states if carried else Level(states), window,
                               (t_now, t_next), config, held(init_guess), held(reference),
                               where=f"at t={t_next:g}",
                               predict=init_guess is None and config.scheme == "etd2")
    if carried:
        return level, log
    _rebuild(pieces, window)
    return [w[1] for w in window], log


def method1_march(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    timegrid: TimeGrid,
    config: SolverConfig,
    *,
    final_only: bool = False,
) -> tuple[list[np.ndarray], list[IterationLog]]:
    """March the per-step Schwarz iteration over the whole time grid.

    Each level is one `method1_advance` call, which hands the next one its
    level in sine-mode space.  From level 2 on, each piece assembles the
    trace-independent forcing of `_AHEAD` levels (fewer at the horizon) in
    one call into the level handed on, each level transformed as a block
    of its own.  The kept levels are written into the trajectories as
    modes and transformed to fields once per piece at the end.  Returns
    per-piece trajectories of shape (steps + 1, *piece shape)
    and the iteration log of every level.  With `final_only` the
    trajectories hold level 0 and the last level alone, shape
    (2, *piece shape), and only the last carried level is written.
    """
    steps = timegrid.steps
    keep = 2 if final_only else steps + 1  # level 0 and the trailing keep - 1 levels
    trajs = [np.empty((keep,) + p.u0.shape) for p in pieces]
    for traj, p in zip(trajs, pieces):
        traj[0] = p.u0
    times = timegrid.times()
    level = Level([p.u0 for p in pieces])
    logs = []
    for m in range(steps):
        if m and len(level.forcing[0]) == 1:  # no level assembled ahead is left
            ahead = times[m + 1: m + 1 + _AHEAD]
            level = Level(level.states, [
                np.concatenate([f, p.ws.fact.to_modes(p.forcing(ahead)[:, None])[:, 0]])
                for p, f in zip(pieces, level.forcing)], level.pinned)
        level, log = method1_advance(
            pieces, interfaces, level, timegrid.t(m), timegrid.t(m + 1), config
        )
        logs.append(log)
        row = m + keep - steps  # the row of level m + 1; below 1 if it is not kept
        if row >= 1:
            for traj, u_hat in zip(trajs, level.states):
                traj[row] = u_hat
    _rebuild(pieces, trajs)
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
        slopes = f_hat[1:] - f_hat[:-1]
        slopes *= ws.phi2_kernel
        for prev, nxt, g0, g1 in zip(rows, rows[1:], ws.phi1_kernel * f_hat[:-1], slopes):
            add(add(mul(E, prev, out=nxt), g0, out=nxt), g1, out=nxt)
    return out


def _window_responses(piece: LocalPiece, scheme: Scheme, steps: int) -> np.ndarray:
    """The response table R (steps, sum of |i|, sum of |o|) of a piece.

    Rows run over the nodes of the inflow edges i, columns over those of
    the outflow edges o, each in edge order: R[lag, k, n] is the trace at
    outflow node n `lag` levels after a unit trace at inflow node k
    enters, marched from a zero state and zero trace-independent forcing.
    It does not depend on the level the trace enters at (>= 1; level 0 is
    pinned data, carried by the window's base).  R[0] holds the one-step
    gains o.read(K * i.spread(I)), K = dt phi1 for ETD1 and dt phi2 for
    ETD2.
    """
    rows = []
    for i in piece.inflow:
        # a few nodes of one inflow edge at a time, so few unit fields are held
        for units in np.array_split(np.eye(i.size), -(-i.size // _UNITS_PER_MARCH)):
            f_hat = np.zeros((steps + 1, len(units)) + piece.u0.shape)
            f_hat[1] = i.spread(units)
            u_hat = _march_modes(piece.ws, scheme, 0.0, f_hat)[1:].reshape((-1,) + piece.u0.shape)
            rows.append(np.concatenate([o.read(u_hat) for o in piece.outflow], axis=1)
                        .reshape(steps, len(units), -1))
    return np.concatenate(rows, axis=1)


def _window_start(pieces: Sequence[LocalPiece], start: Level, times: Sequence[float],
                  scheme: Scheme) -> tuple[TraceSet, list[tuple[np.ndarray, ...]]]:
    """The pinned traces of the level `start` at times[0] and per piece its
    state modes u, forcing modes f0 at times[0] (pinned traces included;
    ETD2 alone reads them) and trace-independent forcing modes F at
    times[1:], assembled in one `LocalPiece.forcing` call and transformed
    in one batch unless `start.forcing` holds them ahead.  A start given
    as fields is transformed in that batch, f0 assembled against the
    traces the fields own; a level handed on in mode space brings f0's
    trace-independent part, to which `EdgeRow.spread` adds the pinned
    traces."""
    later = np.asarray(times[1:], dtype=float)
    if start.forcing is None:
        pinned = initial_traces(pieces, start.states, sum(len(p.outflow) for p in pieces))
    else:
        pinned = start.pinned
    parts = []
    for d, p in enumerate(pieces):
        if start.forcing is None:
            head = [start.states[d]] + ([p.forcing(times[0], pinned)] if scheme == "etd2" else [])
            modes = p.ws.fact.to_modes(np.concatenate([np.stack(head), p.forcing(later)]))
            parts.append((modes[0], modes[len(head) - 1], modes[len(head):]))
            continue
        f0, ahead = start.forcing[d][0], start.forcing[d][1:]
        if scheme == "etd2":
            f0 = f0.copy()
            for edge in p.inflow:
                f0 += edge.spread(pinned[edge.interface][None])[0]
        if len(ahead) < len(later):
            ahead = p.ws.fact.to_modes(p.forcing(later))
        parts.append((start.states[d], f0, ahead))
    return pinned, parts


def _step(ws: StepWorkspace, scheme: Scheme, a: np.ndarray, f0: np.ndarray,
          f1: np.ndarray) -> np.ndarray:
    """The new level of one step from a = E u + phi1 f0 (ETD1: E u) over the
    forcing modes f0, f1: the operations of `_march_modes`, in its order."""
    return a + ws.phi1_kernel * f1 if scheme == "etd1" else a + (f1 - f0) * ws.phi2_kernel


def _step_gains(piece: LocalPiece, scheme: Scheme,
                at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The places of a piece's inflow and outflow nodes, each in edge order,
    in the flat level-1 traces, and its one-step gains R[0]."""
    nodes = lambda edges: np.concatenate([np.arange(at[e.interface], at[e.interface + 1])
                                          for e in edges])
    return nodes(piece.inflow), nodes(piece.outflow), _window_responses(piece, scheme, 1)[0]


def _step_sweep(pieces: Sequence[LocalPiece], start: Level, times: Sequence[float], scheme: Scheme,
                at: np.ndarray, predict: bool = False) -> tuple[Callable, Callable, np.ndarray]:
    """The one-step window from `start` at times[0] to times[1] (every
    method-1 level, and method-2 windows of one step), with the protocol
    of `_window_sweep`.  Once per window each piece forms A = E u + phi1 f0
    (ETD1: E u) and the base read-out, the owned traces of the step from
    A over F[0]; a sweep is new[out] = base + now[in] @ R[0] per piece.
    `finish` adds the spreads of the last sweep's input to F[0] and steps
    from A once, in the order of `_march_modes`: the bits of a march,
    without one.  It hands F on as the new level's forcing.  The default
    initial traces are the pinned ones or, with `predict` (ETD2 levels of
    method 1), those of the predictor A.
    """
    pinned, parts = _window_start(pieces, start, times, scheme)
    initial, tables = _flat(pinned), []
    for d, (p, (u, f0, ahead)) in enumerate(zip(pieces, parts)):
        a = p.ws.exp_kernel * u
        if scheme == "etd2":
            a += p.ws.phi1_kernel * f0
        parts[d] = (a, f0, ahead)
        if p.outflow:  # a lone piece has no trace edges
            ins, outs, gains = _cached(p, ("step", scheme), _step_gains, scheme, at)
            u_hat = np.empty((2,) + u.shape)  # A and the base step, read out together
            u_hat[0], u_hat[1] = a, _step(p.ws, scheme, a, f0, ahead[0])
            base = np.concatenate([o.read(u_hat) for o in p.outflow], axis=1)
            if predict:
                initial[outs] = base[0]
            tables.append((ins, outs, base[1], gains))

    def sweep(now: np.ndarray, new: np.ndarray) -> np.ndarray:
        for ins, outs, base, gains in tables:
            new[outs] = base + now[ins] @ gains
        return new

    def finish(out: Sequence[np.ndarray], last: np.ndarray, latest: np.ndarray) -> Level:
        states = []
        for p, o, (a, f0, ahead) in zip(pieces, out, parts):
            f1 = ahead[0].copy()
            for edge in p.inflow:
                f1 += edge.spread(last[at[edge.interface]:at[edge.interface + 1]][None])[0]
            o[1] = u1 = _step(p.ws, scheme, a, f0, f1)
            states.append(u1)
        # the last row of a block assembled ahead goes on alone, and frees the block
        return Level(states, [ahead if len(ahead) > 1 else ahead.copy() for _, _, ahead in parts],
                     [latest[i:j] for i, j in zip(at, at[1:])])

    return sweep, finish, initial


def _window_sweep(pieces: Sequence[LocalPiece], start: Level, times: Sequence[float],
                  scheme: Scheme, at: np.ndarray) -> tuple[Callable, Callable, np.ndarray]:
    """The sweep of a window of two or more steps over the level times
    `times` (steps + 1, spaced by the pieces' step) from the level `start`
    at times[0], on flat traces (levels 1..steps of interface i at
    at[i]:at[i + 1]).  Returns `sweep(now, new)`, which writes the owned
    traces of every piece against the incoming ones `now` into `new` and
    returns it; `finish(out, last, latest)`, which
    marches each piece again against the last sweep's input `last`,
    writes the trailing len(out[d]) - 1 levels of its mode-space
    trajectory into out[d][1:] and returns the level at times[-1] in mode
    space, pinned to the last level of the last sweep's output `latest`
    (called once, it releases the stacks); and the default initial
    traces, level 0 at every level.  Over the response table R of
    `_window_responses` and the base read-out of one march per piece, a
    1d window is one causal convolution per (outflow, inflow) pair; a 2d
    window marches each piece in mode space in every sweep.
    """
    steps = len(times) - 1
    pinned, parts = _window_start(pieces, start, times, scheme)
    history = lambda v, i: v[at[i]:at[i + 1]].reshape(steps, -1)  # levels 1..steps of interface i

    def march(d: int, v: Optional[np.ndarray]) -> np.ndarray:
        """Piece d's trajectory against the incoming traces v (None: none)."""
        u, f0, ahead = parts[d]
        f_hat = np.empty((steps + 1,) + u.shape)
        f_hat[0], f_hat[1:] = f0, ahead[:steps]
        for edge in pieces[d].inflow if v is not None else ():
            f_hat[1:] += edge.spread(history(v, edge.interface))
        return _march_modes(pieces[d].ws, scheme, u, f_hat)

    tables = None  # 1d: per outflow edge its interface, base read-out and responses
    if all(edge.size == 1 for p in pieces for edge in p.inflow):
        tables = [[] for _ in pieces]
        for d, (p, table) in enumerate(zip(pieces, tables)):
            if p.outflow:  # a lone piece has no trace edges
                u_hat = march(d, None)
                r = _cached(p, (scheme, steps), _window_responses, scheme, steps)
                table += [(o.interface, o.read(u_hat)[1:, 0], rows) for o, rows
                          in zip(p.outflow, np.ascontiguousarray(r.transpose(2, 1, 0)))]

    def sweep(v: np.ndarray, new: np.ndarray) -> np.ndarray:
        for d, p in enumerate(pieces):
            if tables is None:
                u_hat = march(d, v)
                for edge in p.outflow:
                    new[at[edge.interface]:at[edge.interface + 1]] = edge.read(u_hat)[1:].ravel()
                del u_hat  # before the next piece's march
                continue
            for idx, base, rows in tables[d]:
                out = base.copy()
                for i, r in zip(p.inflow, rows):
                    out += np.convolve(r, v[at[i.interface]:at[i.interface + 1]])[:steps]
                new[at[idx]:at[idx + 1]] = out
        return new

    def finish(out: Sequence[np.ndarray], last: np.ndarray, latest: np.ndarray) -> Level:
        states, forcing = [], []
        for d in range(len(pieces)):
            out[d][1:] = march(d, last)[1 - len(out[d]):]
            states.append(out[d][-1].copy())
            forcing.append(parts[d][2][steps - 1:steps].copy())
            parts[d] = None
        return Level(states, forcing, [history(latest, i)[-1].copy() for i in range(len(at) - 1)])

    return sweep, finish, _flat(np.tile(p, steps) for p in pinned)


def _solve_window(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    start: Level,
    window: Sequence[np.ndarray],
    times: Sequence[float],
    config: SolverConfig,
    guess: Optional[TraceSet],
    reference: Optional[TraceSet],
    where: str,
    predict: bool = False,
) -> tuple[IterationLog, Level]:
    """Solve one window from the level `start` at times[0]: the trailing
    len(window[d]) - 1 levels of piece d's solution go, in sine-mode
    space, into window[d][1:] (all of levels 1..steps for a window of
    steps + 1 rows).  Returns the log and the level at times[-1].
    A one-step window runs on `_step_sweep`, with the predictor's initial
    traces if `predict`, a longer one on `_window_sweep`.  Without a
    guess the iteration starts from their default traces; level 0 of a
    guess is pinned data and not read."""
    steps = len(times) - 1
    at = np.cumsum([0] + [steps * itf.size for itf in interfaces])
    sweep, finish, now = (_step_sweep(pieces, start, times, config.scheme, at, predict)
                          if steps == 1 else _window_sweep(pieces, start, times, config.scheme, at))
    flat = lambda rows: _flat(np.asarray(r, dtype=float).reshape(len(times), itf.size)[1:].ravel()
                              for r, itf in zip(rows, interfaces))
    if guess is not None:
        now = flat(guess)
    log, last, latest = _sweep_loop(sweep, now, at, config,
                                    None if reference is None else flat(reference), where)
    return log, finish(window, last, latest)


def _rebuild(pieces: Sequence[LocalPiece], trajs: Sequence[np.ndarray]) -> None:
    """Transform levels 1.. of every piece's mode-space trajectory to
    fields in place, one inverse DST per piece.  Each level goes as a
    block of its own, so its fields do not depend on how many levels the
    trajectory keeps: a 1d batch would be one matrix product, whose
    round-off per row BLAS makes depend on the row count."""
    for p, traj in zip(pieces, trajs):
        traj[1:] = p.ws.fact.from_modes(traj[1:, None])[:, 0]


def method2_solve(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    timegrid: TimeGrid,
    config: SolverConfig,
    init_guess: Optional[TraceSet] = None,
    reference: Optional[TraceSet] = None,
    *,
    final_only: bool = False,
) -> tuple[list[np.ndarray], IterationLog]:
    """Waveform relaxation over [0, horizon], optionally in time windows.

    Each window iterates interface-reduced sweeps (`_step_sweep` for one
    step, `_window_sweep` for more): the trace-independent forcing is
    assembled and transformed once per window.  A sweep is a dense product per piece in one-step windows, a
    causal convolution per edge pair in longer 1d ones and the mode-space
    recursion in longer 2d ones; none assembles forcing or runs a DST.
    A window hands its successor its last level in sine-mode space and
    writes its levels into the trajectories as modes; each trajectory is
    transformed to fields once, at the end.

    Returns per-piece trajectories (steps + 1, *shape) and an
    IterationLog; with windows, the log aggregates one child log per
    window.  With `final_only` the trajectories hold level 0 and the last
    level alone, shape (2, *shape): every window writes its last level
    into the same two-level buffer.  Level-0 traces are always pinned to
    the initial state, and init_guess/reference (shape (steps + 1, size)
    per interface) are sliced accordingly per window.
    """
    steps = timegrid.steps
    win = config.window_steps or steps
    trajs = [np.empty((2 if final_only else steps + 1,) + p.u0.shape) for p in pieces]
    for traj, p in zip(trajs, pieces):
        traj[0] = p.u0
    level = Level([p.u0 for p in pieces])
    logs = []
    for s in range(0, steps, win):
        n = min(win, steps - s)
        part = lambda rows: None if rows is None else [np.asarray(r)[s : s + n + 1] for r in rows]
        log, level = _solve_window(pieces, interfaces, level,
                                   trajs if final_only else [traj[s : s + n + 1] for traj in trajs],
                                   [timegrid.t(s + m) for m in range(n + 1)], config,
                                   part(init_guess), part(reference),
                                   where=f"in the window from t={timegrid.t(s):g}")
        logs.append(log)
    _rebuild(pieces, trajs)
    if len(logs) == 1:
        return trajs, logs[0]
    return trajs, IterationLog(
        updates=np.concatenate([lg.updates for lg in logs]),
        errors=None if reference is None else np.concatenate([lg.errors for lg in logs]),
        converged=all(lg.converged for lg in logs),
        iterations=sum(lg.iterations for lg in logs),
        windows=tuple(logs),
    )
