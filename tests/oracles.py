"""Independent routes that the tests check the library against: the dense
Laplacian and dense matrix functions for the sine-mode phi products,
single ETD1/ETD2 steps on fields (the field route of the drivers'
mode-space recursion), the retired per-level forcing route
(`assemble_forcing` of `Problem.source` and `boundary_data` at one time,
`nodal_forcing` of a piece, transformed by `forcing_modes`: the oracle of
the data terms' route), the retired monodomain march (`run_monodomain`,
the oracle of the one-piece method-1 march), the retired field route of
`method1_advance` (`advance_fields`), the retired sweep loop
(`sweep_loop`, the oracle of the library's), the retired per-piece
one-step engine (`step_sweep`, the oracle of the geometry-grouped one),
the retired 1d window sweep of one causal convolution per (outflow,
inflow) pair (`convolution_window_sweep`, the oracle of the window-matrix
products) and the response tables marched over every level
(`marched_responses`),
iteration-free and field-marching routes for the Schwarz drivers (whose
traces enter the forcing at the nodes, `nodal_forcing`), the per-edge
forms of the edge stacks' spreads and read-outs, and the closed-form
bounds (`theoretical_rate` of the `overlap_fractions`,
`superlinear_bound`) and index helpers the tests state their
expectations with; `one_piece_march` runs the library's monodomain route
for the property tests.  Not a test module: pytest collects no tests
here, the test modules import it."""
import math

import numpy as np
from scipy.linalg import expm

from letd.analysis import ErrorReport
from letd.geometry import (
    Box,
    BoxForcing,
    Decomposition,
    Grid,
    Problem,
    box_forcing,
    decompose,
)
from letd.matfunc import (
    DirichletLaplacian,
    SpectralFactorization,
    phi_scalar,
    sine_matrix,
    sine_row,
    spectral_factorization,
)
from letd import schwarz
from letd.schwarz import (
    _DENOM_FLOOR,
    _window_sweep,
    IterationLog,
    Level,
    SolverConfig,
    build_local_pieces,
    initial_traces,
    method1_march,
)
from letd.steppers import Scheme, StepWorkspace, TimeGrid, make_workspace


def dense_laplacian(op: DirichletLaplacian) -> np.ndarray:
    """The operator as a dense matrix; row index = nodes in C order, axis 0
    slowest: sum_k I x .. x A_k x .. x I, A_k = (nu / h_k^2) tridiag(1, -2, 1)."""
    total = math.prod(op.shape)
    out = np.zeros((total, total))
    for k, n in enumerate(op.shape):
        w = op.nu / op.spacings[k] ** 2
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = -2.0 * w
        a[idx[:-1], idx[:-1] + 1] = w
        a[idx[:-1] + 1, idx[:-1]] = w
        before = math.prod(op.shape[:k])
        after = total // (before * n)
        out += np.kron(np.kron(np.eye(before), a), np.eye(after))
    return out


def theoretical_rate(alpha: float, beta: float) -> float:
    """Two-iteration Schwarz contraction kappa = alpha(1-beta)/(beta(1-alpha))."""
    if not 0.0 < alpha < beta < 1.0:
        raise ValueError(f"need 0 < alpha < beta < 1, got {alpha}, {beta}")
    return alpha * (1.0 - beta) / (beta * (1.0 - alpha))


def overlap_fractions(layout: Decomposition) -> tuple[float, float]:
    """The classical overlap fractions of two pieces on one axis: alpha =
    N_alpha / (n + 1), beta = N_beta / (n + 1), N_alpha piece 2's left read
    node and N_beta piece 1's right read node."""
    if layout.counts != (2,):
        raise ValueError("overlap fractions are defined for two pieces")
    n_alpha = layout.pieces[1].lo[0] - 1
    n_beta = layout.pieces[0].hi[0] + 1
    return n_alpha / (layout.shape[0] + 1), n_beta / (layout.shape[0] + 1)


def superlinear_bound(k: int, alpha: float, beta: float, length: float, nu: float, horizon: float) -> float:
    """Short-window waveform-relaxation bound erfc(k (beta-alpha) L / (2 sqrt(nu T)))."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    if not 0.0 < alpha < beta < 1.0:
        raise ValueError(f"need 0 < alpha < beta < 1, got {alpha}, {beta}")
    if length <= 0 or nu <= 0 or horizon <= 0:
        raise ValueError("length, nu and horizon must be positive")
    return math.erfc(k * (beta - alpha) * length / (2.0 * math.sqrt(nu * horizon)))


def normalized_curve(log: IterationLog) -> np.ndarray:
    """log.curve() scaled so the first logged entry is 1."""
    c = log.curve()
    denom = c[0] if c.size and c[0] > 0 else 1.0
    return c / denom


def interior_nodes(grid: Grid, axis: int = 0) -> np.ndarray:
    """Coordinates of the interior nodes 1..n of one grid axis."""
    return grid.coords(np.arange(1, grid.shape[axis] + 1), axis)


def relative_spacetime(report: ErrorReport) -> float:
    """The report's space-time error relative to its reference scale."""
    if report.reference_scale <= 0.0:
        raise ValueError("reference is identically zero; relative error undefined")
    return report.linf_spacetime / report.reference_scale


def local_index(box: Box, node: tuple) -> tuple:
    """0-based local index of a global node the box owns."""
    if not all(lo <= j <= hi for lo, j, hi in zip(box.lo, node, box.hi)):
        raise ValueError(f"node {node} not owned by box {box.lo}..{box.hi}")
    return tuple(j - lo for j, lo in zip(node, box.lo))


def apply_phi(fact: SpectralFactorization, k: int, dt: float, v: np.ndarray) -> np.ndarray:
    """phi_k(dt A) v through the sine-mode factorization; v is a nodal field."""
    if dt < 0.0:
        raise ValueError(f"time increment must be nonnegative, got dt={dt}")
    v = np.asarray(v, dtype=float)
    w = fact.to_modes(v)
    w = w * phi_scalar(k, dt * fact.spectrum)
    return fact.from_modes(w)


def expm_dense(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential (scaling-and-squaring Pade), oracle route."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return expm(a)


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


def edge_spread(shape, edge, history):
    """Forcing modes (levels, *shape) of one trace edge's history (levels,
    size) on a piece of `shape`: the weighted history times the sine matrix
    of the edge's other axes, entering through the sine row of the edge's
    node along its axis; `EdgeStack.spread` of the edge alone."""
    other = shape[:edge.axis] + shape[edge.axis + 1:]
    h = ((edge.weight * history) @ sine_matrix(other)).reshape((len(history),) + other)
    cut = 1 + edge.axis
    return (h.reshape(h.shape[:cut] + (1,) + h.shape[cut:])
            * sine_row(shape[edge.axis], edge.node).reshape((-1,) + (1,) * (h.ndim - cut)))


def edge_read(shape, edge, u_hat):
    """The trace history (levels, size) of one edge of mode-space levels
    u_hat (levels, *shape): the levels contracted with the sine row of the
    edge's node, times the sine matrix of its other axes;
    `EdgeStack.read` of the edge alone."""
    cut = 1 + edge.axis
    v = (u_hat.transpose(*range(cut), *range(cut + 1, u_hat.ndim), cut)
         @ sine_row(shape[edge.axis], edge.node))
    return v.reshape(len(v), -1) @ sine_matrix(shape[:edge.axis] + shape[edge.axis + 1:])


def edge_columns(edges):
    """Per edge, its values' slice of a trace vector over `edges`."""
    ends = np.cumsum([0] + [e.size for e in edges])
    return [slice(i, j) for i, j in zip(ends, ends[1:])]


def step_sweep(pieces, start, times, scheme, predict=False):
    """`schwarz._step_sweep` as it ran before the layout grouped its pieces
    by geometry: per piece its read-out, its gains product and its spread,
    here through the per-edge forms (`edge_read`, `edge_spread`) and one
    product of the piece's incoming traces with its gains; same arguments
    and results."""
    lay, pinned, u, f0, forcing = schwarz._window_start(pieces, start, times)
    exp, phi1, _ = lay.kernels
    ins = [schwarz._nodes(p.inflow, lay.traces)[0] for p in pieces]
    outs = [schwarz._nodes(p.outflow, lay.traces)[0] for p in pieces]
    ab = np.empty((2, lay.size))
    a = np.multiply(exp, u, out=ab[0])
    if scheme == "etd2":
        a += np.multiply(phi1, f0, out=ab[1])
    reads, gains = [], []
    if any(len(o) for o in outs):
        schwarz._step(lay, scheme, a, f0, forcing[0], out=ab[1])
    for p, v in zip(pieces, lay.views(ab)):
        reads.append(np.concatenate([np.empty((2, 0))]
                                    + [edge_read(p.u0.shape, e, v) for e in p.outflow], axis=1))
        gains.append(schwarz._step_gains(p, scheme))
    initial = pinned.copy()
    if predict:
        for o, r in zip(outs, reads):
            initial[o] = r[0]

    def sweep(now, new):
        for i, o, r, g in zip(ins, outs, reads, gains):
            if len(o):
                new[o] = now[i] @ g + r[1]
        return new

    def finish(out, last, latest):
        traces = np.stack((last, latest))
        f = np.repeat(forcing, 2, axis=0)
        for p, i, part in zip(pieces, ins, lay.views(f)):
            for e, cols in zip(p.inflow, edge_columns(p.inflow)):
                part += edge_spread(p.u0.shape, e, traces[:, i][:, cols])
        u1 = schwarz._step(lay, scheme, a, f0, f[0], out=f[0])
        if out is not None:
            for o, state in zip(out, lay.views(u1)):
                o[1] = state
        return Level(lay, u1, latest, f[1])

    return sweep, finish, initial


def marched_responses(piece, scheme, steps):
    """`schwarz._window_responses` as it was built before its levels past
    the second were one cumulative product: the unit traces of one inflow
    edge at a time marched over every level of the window."""
    rows = []
    for units in schwarz._edge_units(piece, schwarz._UNITS_PER_MARCH):
        f_hat = np.zeros((steps + 1, len(units)) + piece.u0.shape)
        piece.inflow_stack.spread(units, f_hat[1])
        u_hat = schwarz._march_modes(piece.ws, scheme, 0.0, f_hat)[1:]
        rows.append(piece.outflow_stack.read(u_hat.reshape((-1,) + piece.u0.shape))
                    .reshape(steps, len(units), -1))
    return np.concatenate(rows, axis=1)


def convolution_window_sweep(pieces, start, times, scheme):
    """`schwarz._window_sweep` of a 1d window as it ran before its sweep
    was a window-matrix product: per owned trace its base read-out of one
    march against no traces, plus one causal `np.convolve` of each incoming
    history with the response of the (outflow, inflow) pair, marched
    (`marched_responses`).  Same arguments and results; `finish`
    and the initial traces are the library's (`_window_sweep`, bound when
    this module is imported, so that a test may put this oracle in the
    library's place)."""
    _, finish, initial = _window_sweep(pieces, start, times, scheme)
    steps = len(times) - 1
    lay, _, u, f0, forcing = schwarz._window_start(pieces, start, times)
    assert all(e.size == 1 for p in pieces for e in p.inflow), "a 1d window"
    at = lay.traces * steps
    span = lambda i: slice(at[i], at[i + 1])
    plan = []
    for p, u_p, f0_p, f_p in zip(pieces, *map(lay.views, (u, f0, forcing))):
        if p.outflow:  # a lone piece has no trace edges
            march = schwarz._march_modes(p.ws, scheme, u_p, np.concatenate([f0_p[None], f_p]))
            base = p.outflow_stack.read(march)[1:]
            r = marched_responses(p, scheme, steps)
            srcs = [span(e.interface) for e in p.inflow]
            plan += [(span(o.interface), b, tuple(zip(rows, srcs))) for o, b, rows
                     in zip(p.outflow, base.T, np.ascontiguousarray(r.transpose(2, 1, 0)))]

    def sweep(v, new):
        for dst, base, terms in plan:
            out = new[dst]
            out[...] = base
            for r, src in terms:
                out += np.convolve(r, v[src])[:steps]
        return new

    return sweep, finish, initial


def boundary_data(forcing: BoxForcing, edge: int, t: float) -> np.ndarray:
    """The physical Dirichlet data beyond one edge of a box at one time t,
    `Problem.boundary` at the edge's face, shaped like its node row."""
    e = forcing.edges[edge]
    return np.broadcast_to(forcing.problem.boundary(*e.face, t), e.shape)


def assemble_forcing(forcing: BoxForcing, t: float, edge_values) -> np.ndarray:
    """The field of the forcing on a box at one time t, the per-level route
    the library retired: `Problem.source` sampled at the nodes, with the
    Dirichlet closure (nu / h_k^2) times the bordering values folded into
    the edge node rows.  edge_values: one array per edge in (axis, side)
    order, one value per node of the edge row (flattened or in the row's
    shape), or None for no closure term.  The independent oracle of the
    library's route, which sums the data terms' spatial forcing, each
    assembled once, times their factors (`term_forcing`, `term_factors`)."""
    f = np.array(np.broadcast_to(forcing.problem.source(*forcing.mesh, t), forcing.shape),
                 dtype=float)
    for e, values in zip(forcing.edges, edge_values):
        if values is not None:
            f[e.index] += e.weight * np.reshape(values, e.shape)
    return f


def nodal_forcing(piece, t, traces=None):
    """The closed forcing of a piece at one time t, by `assemble_forcing`:
    the physical boundary data on its physical edges and, with `traces`
    given (one value set per interface), those on its trace edges, folded
    in at the nodes; the field route's closure, independent of the edge
    stacks through which the library spreads traces in mode space."""
    return assemble_forcing(piece.closure, t, [
        boundary_data(piece.closure, k, t) if i is None else None if traces is None else traces[i]
        for k, i in enumerate(piece.edges)])


def forcing_modes(pieces, lay, times, out):
    """`schwarz._forcing_modes` by the per-level route: per piece and time
    its trace-independent forcing assembled (`nodal_forcing`) into the
    rows `out` and transformed, each level a block of its own."""
    for p, part in zip(pieces, lay.views(out)):
        part[...] = p.ws.fact.to_modes(np.stack([nodal_forcing(p, t) for t in times])[:, None])[:, 0]


def field_window_sweep(pieces, u_start, times, scheme, predict=False):
    """The waveform sweep on fields, on trace histories whose level 0 is
    pinned (`flat_sweep` gives it the flat traces of the library's
    sweeps): every sweep assembles each piece's forcing at
    every level against the given traces (at level 0 the pinned ones),
    transforms the stack, runs the diagonal recursion and transforms back;
    the owned traces are read from the physical trajectories.  The default
    initial traces repeat the pinned level 0 or, with `predict`, take
    level 1 from the physical first-order predictor E u + phi1 f(times[0])."""
    steps = len(times) - 1
    n_if = sum(len(p.outflow) for p in pieces)
    pinned = initial_traces(pieces, u_start, n_if)
    start = [np.repeat(p[None], steps + 1, axis=0) for p in pinned]
    if predict:
        predicted = [
            p.ws.fact.from_modes(p.ws.exp_kernel * p.ws.fact.to_modes(np.asarray(u, dtype=float))
                                 + p.ws.phi1_kernel
                                 * p.ws.fact.to_modes(nodal_forcing(p, times[0], pinned)))
            for p, u in zip(pieces, u_start)]
        for tr, value in zip(start, initial_traces(pieces, predicted, n_if)):
            tr[1] = value
    trajs = []

    def sweep(traces):
        trajs.clear()
        for piece, u0 in zip(pieces, u_start):
            fa = piece.ws.fact
            u0 = np.asarray(u0, dtype=float)
            f_stack = np.empty((steps + 1,) + u0.shape)
            for m, t in enumerate(times):  # level 0 of the traces is pinned data
                f_stack[m] = nodal_forcing(piece, t, [tr[m] for tr in traces] if m else pinned)
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
            traj[0] = u0
            trajs.append(traj)
        return initial_traces(pieces, trajs, len(traces))

    def fields(out):
        for o, traj in zip(out, trajs):
            o[1:] = traj[1:]

    return sweep, fields, start


def flat_traces(traces):
    """Levels >= 1 of trace histories (levels, size) in one vector, interface
    by interface: the traces as `schwarz._sweep_loop` holds them."""
    return np.concatenate([np.empty(0)] + [np.asarray(tr, dtype=float)[1:].ravel()
                                           for tr in traces])


def trace_offsets(pinned, steps):
    """Where each interface's levels 1..steps start in the flat traces, and
    their end: interface i at at[i]:at[i + 1]."""
    return np.cumsum([0] + [steps * np.size(p) for p in pinned])


def trace_histories(v, pinned, steps):
    """The trace histories (steps + 1, size) of flat traces, level 0 pinned."""
    at = trace_offsets(pinned, steps)
    return [np.concatenate([np.reshape(p, (1, -1)), v[a:b].reshape(steps, -1)])
            for p, a, b in zip(pinned, at, at[1:])]


def flat_sweep(sweep, pinned, steps):
    """A sweep on trace histories as a sweep on flat traces, which writes
    its result into the vector given second, as the library's do."""
    def swept(v, new):
        new[:] = flat_traces(sweep(trace_histories(v, pinned, steps)))
        return new

    return swept


def history_sweep(sweep, pinned, steps):
    """A sweep on flat traces, as the library's, as a sweep on trace
    histories whose level 0 holds the pinned traces."""
    def swept(traces):
        v = flat_traces(traces)
        return trace_histories(sweep(v, np.empty(len(v))), pinned, steps)

    return swept


def _stop(updates, denoms, tol):
    rel = np.where(denoms > _DENOM_FLOOR, updates / np.maximum(denoms, _DENOM_FLOOR), updates)
    return bool(np.all(rel < tol))


def sweep_loop(sweep, now, at, config, reference, where):
    """The sweep loop as the library ran it before its logs were written in
    place: rows appended per sweep, the relative-update rule rebuilt from
    the guess norms at every sweep (`_stop`), every update searched for a
    non-finite entry.  Same arguments and results as `schwarz._sweep_loop`;
    it overwrites `now` as that does."""
    if len(at) == 1:
        log = IterationLog(updates=np.zeros((0, 0)), errors=None, converged=True, iterations=0)
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


def direct_window_traces(sweep, pinned, steps):
    """The fixed point of one window's sweep, without iterating.

    The sweep is affine in the unknown levels 1..steps of every interface
    trace, x = b + M x; b and the columns of M come from sweeping the
    history that holds the pinned level 0 and zeros, and unit histories.
    (I - M) x = b is solved densely.
    """
    n = trace_offsets(pinned, steps)[-1]
    history = lambda x: trace_histories(x, pinned, steps)
    b = flat_traces(sweep(history(np.zeros(n))))
    m = np.empty((n, n))
    for k, unit in enumerate(np.eye(n)):
        m[:, k] = flat_traces(sweep(history(unit))) - b
    return history(np.linalg.solve(np.eye(n) - m, b))


def direct_step(pieces, interfaces, states, t_now, dt, scheme):
    """One step of every piece from `states` at t_now, with the interface
    coupling solved exactly, in any dimension and layout: the one-step
    window of `field_window_sweep`, solved by `direct_window_traces`.
    The fully discrete multidomain solution over that step, which the
    per-step iteration converges to; returns the new states."""
    sweep, fields, _ = field_window_sweep(pieces, states, (t_now, t_now + dt), scheme)
    sweep(direct_window_traces(sweep, initial_traces(pieces, states, len(interfaces)), 1))
    out = [np.empty((2,) + np.shape(u)) for u in states]
    fields(out)
    return [o[1] for o in out]


def advance_fields(pieces, interfaces, states, t_now, t_next, config, init_guess=None,
                   reference=None):
    """`schwarz.method1_advance` on fields, as the library's route for
    fields was before the driver took levels alone: the level
    `Level.of(pieces, states, t_now)`, advanced one step, and the
    new fields transformed back from its state modes, each piece a block of
    its own.  Returns the new fields and the log."""
    level, log = schwarz.method1_advance(pieces, interfaces,
                                         Level.of(pieces, states, t_now), t_now,
                                         t_next, config, init_guess, reference)
    return [p.ws.fact.from_modes(u[None, None])[0, 0] for p, u in zip(pieces, level.states)], log


def run_monodomain(
    problem: Problem,
    grid: Grid,
    timegrid: TimeGrid,
    scheme: Scheme,
    *,
    final_only: bool = False,
) -> np.ndarray:
    """March the whole domain; returns the trajectory including t = 0.

    Shape (steps + 1, *grid.shape).  The step kernels are built from
    problem.nu, the grid and timegrid.dt, as `build_local_pieces` builds a
    piece's.  The state is kept in mode space across steps so each step
    costs two DSTs.  With `final_only` the trajectory holds level 0 and
    the last level alone, shape (2, *grid.shape), and only the last level
    is transformed back.
    """
    if scheme not in ("etd1", "etd2"):
        raise ValueError(f"unknown scheme {scheme!r}")
    ws = make_workspace(
        spectral_factorization(DirichletLaplacian(grid.shape, problem.nu, grid.spacings)),
        timegrid.dt)
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


def one_piece_march(problem: Problem, grid: Grid, timegrid: TimeGrid, scheme: Scheme, *,
                    final_only: bool = False) -> np.ndarray:
    """The library's monodomain route: `method1_march` on the one-piece
    layout, with the trajectory shaped as `run_monodomain`'s."""
    layout = decompose(grid.shape, (1,) * len(grid.shape), (0, 0))
    pieces = build_local_pieces(problem, grid, layout, timegrid.dt)
    (traj,), _ = method1_march(pieces, layout.interfaces, timegrid, SolverConfig(scheme=scheme),
                               final_only=final_only)
    return traj
