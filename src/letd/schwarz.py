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

Both iterate the same affine map on the traces alone, in sine-mode
space, new = base + M x: per level in method 1, per window in method 2.
A piece's state is affine in the traces it reads, so the
trace-independent forcing (source and physical boundary data) of a
window's levels 1..n is formed once, as the window starts, before its
sweeps (`_forcing_modes`); ETD1 and ETD2 read the forcing only at the
ends of each step, so no level's forcing is formed ahead.  The data
(`Problem.terms`), a sum of time factors times functions of space, need
no assembly and no transform there: each term's spatial forcing is
assembled and transformed once per run, when its layout is built, and a
level's forcing modes are the factors at its time times those term
modes.  The traces enter the forcing in sine-mode space alone.  A trace
edge moves a history between nodes and modes the same way in any
dimension: the weighted history times the dense sine matrix of the
edge's other axes ([[1.0]] in 1d) enters the forcing modes through the
sine row of its border node along the edge axis; an owned trace is read
out by contracting the modes with the sine row of its read node and
multiplying by that matrix.  A piece stacks the edges of one axis
(`EdgeStack`), so that a spread or a read-out is one pair of products
per axis.  A sweep therefore assembles no forcing and runs no DST.

The pieces of one geometry (shape and edge layout; 9 on a uniform P x P
layout with P >= 3) share their stacks and tables, and form a geometry
group.  A one-step level runs every per-level operation once per group,
over its pieces stacked as leading rows: the read-out, the gains product
of each sweep and the spread.  In 1d, where a product over more rows
rounds each row differently, each piece keeps a product of its own
inside the group's call, and 1d results keep their bits; 2d results move
within round-off.

Every window starts from a level in sine-mode space (`Level`): per piece
the state modes and the level's forcing modes f0, per interface the
pinned trace, which f0 holds spread in through the edge.  A run's first
level comes from the initial fields (`Level.of`), or is given to
`method2_solve` as `start`, which no window writes into; every later one
is the last level of the window before, pinned to its last sweep's
owned traces, with its f0 formed by that window.  Each lies in one flat
vector over every piece, group by group, at offsets fixed for the run
(`_Layout`), which also holds the pieces' step kernels, concatenated
once, and the modes of the data terms; so the start part A = E u +
phi1 f0 of a window and each step of a march are one operation per
level, not one per piece.
Both drivers run on one loop (`_march`), over windows of one step
(method 1) or of `window_steps` (method 2), which writes the levels a
run keeps into its trajectories as modes (every level, or with
`final_only` the last one alone); each trajectory is transformed to
fields by one inverse DST per piece at the end.

With a uniform step the map from the incoming trace histories of a piece
to its owned ones is linear, causal and time-invariant.  Its response
table (per lag, from every inflow node to every outflow node) depends on
the piece, the scheme and the window length alone, so it is built on
first use and held on the piece, and lives as long as its piece set.  No
table needs a march (`_window_responses`): level 1 is K times the spread
of unit traces (the one-step gains), level 2 one step more, and later
levels a cumulative product by E.  M is block lower-triangular Toeplitz
in the levels, so it is one dense block of the table per geometry group,
and above `_LAG_LEVELS` levels the same product over blocks of levels,
one stored block per lag (`_lag_blocks`).

Every window of both drivers, one-step or longer, runs one window engine
(`_window_sweep`): it forms its forcing and the start part A once, its
every march starts from A (so a one-step march is one step, with the
bits of a march from u), and it runs one flat march of every piece for
its base read-out (none at rest) and one more, in level blocks, in its
`finish`, after spreading the last sweep's inflow histories and the next
level's pinned traces in.  Only the sweep is chosen from the input.
One-step windows (every method-1 level) and 1d windows run one
matrix-sweep engine (`_sweep_plan`): one take of every piece's inflow
traces, one product per geometry group, the base added and one scatter.
Its indices, products and scratch, the plan, are built once per run,
scheme and window length and held on the run's layout, with the places
of the window's traces.  2d windows of two or more steps, whose per-lag
tables would be large, march each piece from A in mode space in every
sweep.

Both drivers are dimension-agnostic: they operate on `LocalPiece`
records (one per subdomain) that carry the spectral step workspace, the
initial state, the forcing data, the interface each edge reads and the
trace edges (`EdgeRow`) with their stacks, prepared by
`build_local_pieces`, and share one sweep loop, which holds levels 1..
of every interface trace (size values per level: 1 in 1d, the edge
length in 2d) in one vector.  On the one-piece layout, which has no
interfaces, method 1 is the monodomain march: a level's one sweep is its
solution, and its log holds no Schwarz sweep.

The stopping rule mirrors the iteration's relative-update criterion:
the update of every interface trace, normalized by the magnitude of
the initial guess on that interface, must drop below the tolerance.
A vanishing initial guess (at most `_DENOM_FLOOR`) flips the criterion
to absolute updates on that interface.  The loop folds this into a scale
per interface, built once per solve (the guess magnitude, or 1), so
the test is one divide and one max, run as each sweep finishes.  A fixed
sweep budget has no stop test: its sweeps run in blocks of as many as
fit `_BLOCK_VALUES` held values, and a block's update and error rows are
each one reduction over the block.  A non-finite update stops either
driver with an error, also under a fixed budget; the max of the updates
(of a sweep, or of a block) detects it, and only then are the rows
searched for the sweep and interface to name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate, pairwise, repeat
from numbers import Integral
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import (
    BoxForcing,
    Decomposition,
    Grid,
    Interface,
    Problem,
    box_forcing,
    term_factors,
    term_forcing,
)
from .matfunc import (_PRODUCT_MAX, DirichletLaplacian, sine_matrix, sine_row,
                      spectral_factorization)
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
]

# Below this magnitude an initial-guess trace is treated as zero and the
# stopping test falls back to absolute updates.
_DENOM_FLOOR = 1e-14

# Levels of a lag block (`_lag_blocks`): a 1d window of more levels applies
# its product over blocks of at most this many, one stored block per lag, so
# an (outflow, inflow) pair holds about steps x 128 values, not steps^2.  A
# piece with two inflow and two outflow nodes then makes 256 x 256 products,
# below `_PRODUCT_MAX`.  Measured on a 2-core host against one causal
# convolution per pair: a dense block is at parity at 256 levels and 1.5x
# slower at 1,000 (two inflow and two outflow nodes); blocks of 128 levels
# take 0.3 to 0.7 of the convolutions' time at 1,000-4,000 levels, and less
# than a dense block from 160 levels on.
_LAG_LEVELS = 128

# Log rows a tolerance-mode solve allocates at first; they double as they
# fill, up to the sweep budget.
_LOG_ROWS = 32

# Trace values a solve holds per block of sweeps (`_sweep_loop`): as many
# sweeps as fit, at least one.  A 1d rate study's whole budget is one block,
# and a C06 level's 4 sweeps of 1,812 values; the C06 whole-horizon 2d
# window (232,000 values a sweep) holds one sweep.  Also the mode values a
# window's `finish` marches per block of levels (at least one), in place
# in the window's forcing, with one row of scratch per level of the block:
# a 1d window's levels are one block, and the C06 whole-horizon window
# (22,801 values a level) marches 2 levels a block.
_BLOCK_VALUES = 2**16

TraceSet = list  # one ndarray per interface; (size,) or (steps + 1, size)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by both Schwarz drivers.

    Without `fixed_iterations` a solve iterates until the relative
    interface updates drop below `tolerance` (at most `max_iterations`
    sweeps); with it, a solve performs exactly that many sweeps, as
    decay-curve studies require.  `window_steps` splits a
    waveform-relaxation run into successive time windows of that many
    steps.  The tolerance must be positive and finite, and the counts
    positive integers (not bools).
    """

    scheme: Scheme = "etd1"
    tolerance: float = 1e-6
    max_iterations: int = 200
    fixed_iterations: Optional[int] = None
    window_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheme not in ("etd1", "etd2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        for name in ("max_iterations", "fixed_iterations", "window_steps"):
            value = getattr(self, name)  # None: not given, but a budget needs a max
            if (value is not None or name == "max_iterations") and (
                    isinstance(value, bool) or not isinstance(value, Integral) or value < 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

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


@dataclass(frozen=True)
class EdgeRow:
    """One trace edge of a piece: its node row lies at index `node` along
    `axis`, and its `size` values run in C order over the piece's other
    axes.  `weight` is the factor on the trace: the stencil weight nu / h^2
    for a trace the piece reads, 1 for one it owns."""

    interface: int
    axis: int
    node: int
    weight: float
    size: int


class _Group(NamedTuple):
    """The edges of one axis and weight in an `EdgeStack`: their values at
    `cols` of a trace vector (a slice where they are adjacent), the sine
    rows of their nodes along the axis as the columns of `rows` (n_axis,
    E), the sine matrix `basis` of the other axes and `weighted`, the
    weight times it."""

    axis: int
    cols: slice | np.ndarray
    rows: np.ndarray
    basis: np.ndarray
    weighted: np.ndarray


class EdgeStack(NamedTuple):
    """The inflow or the outflow edges of a piece in sine-mode space,
    stacked per axis, shared by the pieces of its geometry group.

    A trace vector holds the edges' values edge after edge.  Moving a trace
    row between nodes and modes takes one product with the orthonormal sine
    matrix of the edge's other axes ([[1.0]] in 1d), and the sine row of its
    node along its axis.  The edges of one axis share that matrix and stack
    their rows, so a spread or a read-out costs one pair of products per
    axis, whatever the leading (batch) dims: one piece's levels, or a
    group's pieces and their levels.  A spread multiplies the edges' rows by
    the rows of the stack, with the axis first, as does a read-out, which
    contracts the modes with them, as the per-edge form does.  A 2d stack
    with edges on both axes spreads them in one product per level,
    [rows0 | Y1^T] @ [Y0 ; rows1^T], Yk the weighted histories of axis k's
    edges.  A 1d piece keeps one edge per group, in edge order, and reads
    out each matrix of the last leading dim (one piece's levels) in a
    product of its own: a product over two edges sums them in BLAS, and one
    over more rows rounds each row differently, and 1d results keep their
    bits.
    """

    groups: tuple[_Group, ...]
    size: int  # values in a trace vector
    shape: tuple[int, ...]  # the piece's

    def spread(self, x: np.ndarray, out: np.ndarray) -> None:
        """Add the forcing modes of traces x (..., size) into out
        (..., *piece shape): in 2d with edges on both axes in one product
        per level, else one group after another."""
        lead, d = x.shape[:-1], len(self.shape)
        if d == 2 and [g.axis for g in self.groups] == [0, 1]:
            (g0, g1), (n0, n1) = self.groups, self.shape
            e = g0.rows.shape[1]
            a = np.empty(lead + (n0, e + g1.rows.shape[1]))
            b = np.empty(lead + a.shape[-1:] + (n1,))
            a[..., :e], b[..., e:, :] = g0.rows, g1.rows.T
            np.matmul(x[..., g0.cols].reshape(lead + (-1, n1)), g0.weighted, out=b[..., :e, :])
            np.matmul(x[..., g1.cols].reshape(lead + (-1, n0)), g1.weighted,
                      out=a[..., e:].swapaxes(-1, -2))
            out += np.matmul(a, b)
            return
        for g in self.groups:
            n, e = len(g.basis), g.rows.shape[1]
            y = (x[..., g.cols].reshape(-1, n) @ g.weighted).reshape(lead + (e, n))
            o = out.transpose(_axis_first(out.ndim, d, g.axis))
            o += np.matmul(g.rows, y).reshape(o.shape)

    def read(self, u_hat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The traces (..., size) of mode-space levels u_hat (..., *piece
        shape), written into `out` if it is given."""
        d = len(self.shape)
        lead = u_hat.shape[:u_hat.ndim - d]
        out = np.empty(lead + (self.size,)) if out is None else out
        for g in self.groups:
            if d == 1:  # the other axes' matrix is [[1.0]]
                out[..., g.cols] = u_hat @ g.rows
                continue
            n, k = len(g.basis), len(g.rows)
            v = u_hat.transpose(_axis_first(u_hat.ndim, d, g.axis))
            v = np.matmul(g.rows.T, v.reshape(lead + (k, -1)))  # (..., E, other nodes)
            out[..., g.cols] = (v.reshape(-1, n) @ g.basis).reshape(lead + (-1,))
        return out


@cache
def _axis_first(ndim: int, d: int, axis: int) -> tuple[int, ...]:
    """The axes of an array whose last d are a piece's, with the piece's
    axis `axis` before its others, for `ndarray.transpose` (which costs
    less than `np.moveaxis`)."""
    lead = ndim - d
    return (*range(lead), lead + axis, *(lead + i for i in range(d) if i != axis))


def _edge_stack(edges: Sequence[EdgeRow], shape: tuple[int, ...], weighted: dict) -> EdgeStack:
    """The stack of a piece's edges; their values run in the given order.
    `weighted` holds the weighted sine matrices by (other shape, weight),
    shared by every stack of a piece set, so that few of them are read."""
    d, runs, lo = len(shape), {}, 0
    for e in edges:
        runs.setdefault((e.axis, e.weight) if d > 1 else lo, []).append((e, lo))
        lo += e.size
    groups = []
    for run in runs.values():
        (first, start), (last, end) = run[0], run[-1]
        k, w, other = first.axis, first.weight, shape[:first.axis] + shape[first.axis + 1:]
        basis = sine_matrix(other)
        if (other, w) not in weighted:
            weighted[other, w] = w * basis
        groups.append(_Group(
            k, slice(start, end + last.size) if end + last.size - start == len(run) * first.size
            else np.concatenate([np.arange(i, i + e.size) for e, i in run]),
            np.stack([sine_row(shape[k], e.node) for e, _ in run], axis=1), basis,
            weighted[other, w]))
    return EdgeStack(tuple(sorted(groups, key=lambda g: g.axis)), lo, shape)


@dataclass
class LocalPiece:
    """One subdomain prepared for the Schwarz drivers.

    edges: one entry per edge of the piece in (axis, side) order: the
    interface the edge reads, or None for a physical edge.  inflow: the
    trace edges;
    outflow: the node rows whose values this piece provides to neighbors;
    inflow_stack and outflow_stack: their `EdgeStack`s, which spread the
    inflow traces into forcing modes and read the outflow traces out of
    state modes.
    maps: the piece's response tables (`_window_responses`), keyed by
    scheme and window length (1 for the one-step gains); filled on first
    use by `_cached`, and shared with the pieces of the set that have the
    same shape and edge layout.
    """

    ws: StepWorkspace
    u0: np.ndarray
    closure: BoxForcing
    edges: tuple[Optional[int], ...]
    inflow: tuple[EdgeRow, ...]
    outflow: tuple[EdgeRow, ...]
    inflow_stack: EdgeStack
    outflow_stack: EdgeStack
    maps: dict = field(default_factory=dict, repr=False, compare=False)

    def extract(self, state: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Owned interface values of one state (n...) or a trajectory
        (levels, n...), flattened per level."""
        lead = state.shape[: state.ndim - self.u0.ndim]
        return [(e.interface,
                 np.take(state, e.node, axis=len(lead) + e.axis).reshape(lead + (-1,)))
                for e in self.outflow]


class Level(NamedTuple):
    """Every piece's state at one time level, as a window starts from it, in
    sine-mode space, in flat vectors placed by `layout`: the state modes
    (size,), per interface the pinned (owned) trace, and f0, the level's
    forcing modes (size,) with the pinned traces spread in.  A run's first
    level comes from fields (`Level.of`); every later one a window hands
    on, with the f0 it formed."""

    layout: "_Layout"
    modes: np.ndarray
    pinned: np.ndarray
    f0: np.ndarray

    @classmethod
    def of(cls, pieces: Sequence[LocalPiece], fields: Sequence[np.ndarray], t: float) -> "Level":
        """The level of the per-piece `fields` at time t, pinned to the
        traces the fields own, on the layout of `pieces`: the fields are
        transformed (`_to_modes`), and the forcing at t formed
        (`_forcing_modes`) with the pinned traces spread in."""
        lay = _Layout.of(pieces)
        v = np.empty((2, lay.size))  # the state and the forcing
        for part, u in zip(lay.views(v[0]), fields):
            part[...] = u
        _to_modes(lay, v[:1])
        _forcing_modes(pieces, lay, [t], v[1:])
        pinned = _flat(initial_traces(pieces, fields, len(lay.traces) - 1))
        _spread_all(lay, pinned[lay.ins][None], v[1:])
        return cls(lay, v[0], pinned, v[1])

    @property
    def states(self) -> list[np.ndarray]:
        """Per piece, in piece order, a view of its state modes."""
        return self.layout.views(self.modes)


class _Block(NamedTuple):
    """A geometry group of a layout: the pieces `members` (in piece order)
    that share their stacks and their tables, `piece` the first of them.
    Their modes lie at lo:hi of a level's vectors, piece after piece, so
    that a group's levels are (..., k, *shape); their inflow and outflow
    places at ins and outs of the layout's, (k, nodes) flattened."""

    piece: LocalPiece
    members: tuple
    lo: int
    hi: int
    ins: slice
    outs: slice

    def modes(self, v: np.ndarray) -> np.ndarray:
        """The view (..., k, *shape) of the group's part of flat modes v
        (..., size)."""
        return v[..., self.lo:self.hi].reshape(v.shape[:-1] + (len(self.members),)
                                               + self.piece.u0.shape)


class _Layout(NamedTuple):
    """Where the pieces of a run sit in the flat vectors of its levels,
    built when the run starts and handed on with its levels.

    The pieces go by geometry group (`_Block`), so that each group's modes
    form one block of a level's state and forcing vectors; piece d's lie at
    at[d]:at[d] + its size.  Interface i's trace lies at
    traces[i]:traces[i + 1] of its pinned traces (and of the level-1 traces
    of a one-step window).  ins and outs hold the places of every piece's
    inflow and outflow nodes there, in edge order, piece after piece of each
    group, group after group.  kernels: E, dt phi1 and dt phi2 over the flat
    modes.  terms: the sine modes (K, size) of the K data terms of the
    pieces' problem (`Problem.terms`), each term's spatial forcing
    assembled and transformed once, when the layout is built.  plans: the
    sweep plan (`_sweep_plan`) of the run's windows of each scheme and
    length, with the places of those windows' traces (`_window_places`),
    keyed by (scheme, steps) and built by `_cached` on first use; its
    scratch serves one sweep call at a time.
    """

    at: tuple
    shapes: tuple
    traces: np.ndarray
    ins: np.ndarray
    outs: np.ndarray
    blocks: tuple[_Block, ...]
    kernels: tuple[np.ndarray, np.ndarray, np.ndarray]
    terms: np.ndarray
    plans: dict

    @classmethod
    def of(cls, pieces: Sequence[LocalPiece]) -> "_Layout":
        """The layout of `pieces`, grouped by the stacks and tables they
        share, in order of their first pieces, with the modes of their
        problem's data terms."""
        owned = sorted((e.interface, e.size) for p in pieces for e in p.outflow)
        traces = np.cumsum([0] + [size for _, size in owned])
        groups = {}
        for d, p in enumerate(pieces):
            groups.setdefault((id(p.inflow_stack), id(p.outflow_stack), id(p.maps)), []).append(d)
        order = [d for members in groups.values() for d in members]
        at = dict(zip(order, accumulate([0] + [pieces[d].u0.size for d in order])))
        blocks, i, o = [], 0, 0
        for members in groups.values():
            p, k = pieces[members[0]], len(members)
            blocks.append(_Block(p, tuple(members), at[members[0]], at[members[0]] + k * p.u0.size,
                                 slice(i, i + k * p.inflow_stack.size),
                                 slice(o, o + k * p.outflow_stack.size)))
            i, o = blocks[-1].ins.stop, blocks[-1].outs.stop
        edges = lambda flow: [e for d in order for e in getattr(pieces[d], flow)]
        nodes = lambda flow: _nodes(edges(flow), traces)[0]
        kernels = tuple(np.concatenate([getattr(pieces[d].ws, k).ravel() for d in order])
                        for k in ("exp_kernel", "phi1_kernel", "phi2_kernel"))
        lay = cls(tuple(at[d] for d in range(len(pieces))), tuple(p.u0.shape for p in pieces),
                  traces, nodes("inflow"), nodes("outflow"), tuple(blocks), kernels,
                  np.empty((len(pieces[0].closure.problem.terms), len(kernels[0]))), {})
        for p, part in zip(pieces, lay.views(lay.terms)):
            part[...] = term_forcing(p.closure, [i is None for i in p.edges])
        _to_modes(lay, lay.terms)
        return lay

    @property
    def size(self) -> int:
        return len(self.kernels[0])

    def views(self, v: np.ndarray) -> list[np.ndarray]:
        """Per piece, in piece order, the view (..., *shape) of flat modes v
        (..., size)."""
        return [v[..., i:i + math.prod(s)].reshape(v.shape[:-1] + s)
                for i, s in zip(self.at, self.shapes)]


def _nodes(edges: Sequence[EdgeRow], at: np.ndarray, steps: int = 1) -> np.ndarray:
    """The places (steps, nodes) of the nodes of `edges`, edge after edge,
    in flat traces that hold levels 1..steps of interface i at
    at[i]:at[i + 1]."""
    return np.concatenate([np.empty((steps, 0), dtype=int)]
                          + [np.arange(at[e.interface], at[e.interface + 1]).reshape(steps, -1)
                             for e in edges], axis=1)


def build_local_pieces(
    problem: Problem, grid: Grid, layout: Decomposition, dt: float
) -> list[LocalPiece]:
    """Per-piece workspaces, initial states, box closures, the interface
    each edge reads and trace-edge stacks of a layout.  Pieces of one shape
    and edge layout share their stacks and their tables (`maps`), which
    that geometry fixes; such pieces form a geometry group, whose one-step
    levels run each spread, read-out and gains product once for the
    group."""
    pieces, weighted, shared = [], {}, {}
    for i, box in enumerate(layout.pieces):
        op = DirichletLaplacian(box.shape, problem.nu, grid.spacings)
        ws = make_workspace(spectral_factorization(op), dt)
        closure = box_forcing(problem, grid, box)

        def edge_row(itf: Interface, node: int, weight: float) -> EdgeRow:
            return EdgeRow(itf.index, itf.axis, node, weight, itf.size)

        reads = [itf for itf in layout.interfaces if itf.reader == i]
        trace_for = {(itf.axis, itf.side): itf.index for itf in reads}
        edges = tuple(trace_for.get((axis, side))
                      for axis in range(len(box.shape)) for side in (0, 1))
        inflow = tuple(
            edge_row(itf, itf.side * (box.shape[itf.axis] - 1),
                     closure.edges[2 * itf.axis + itf.side].weight)
            for itf in reads)
        outflow = tuple(edge_row(itf, itf.read.lo[itf.axis] - box.lo[itf.axis], 1.0)
                        for itf in layout.interfaces if itf.owner == i)
        key = (box.shape, tuple((e.axis, e.node, e.weight) for e in inflow),
               tuple((e.axis, e.node) for e in outflow))
        if key not in shared:
            shared[key] = (_edge_stack(inflow, box.shape, weighted),
                           _edge_stack(outflow, box.shape, weighted), {})
        ins, outs, maps = shared[key]
        pieces.append(LocalPiece(ws=ws, u0=closure.initial_state(), closure=closure,
                                 edges=edges, inflow=inflow, outflow=outflow,
                                 inflow_stack=ins, outflow_stack=outs, maps=maps))
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


def _sweep_loop(sweep: Callable[[np.ndarray, np.ndarray], np.ndarray], now: np.ndarray,
                at: np.ndarray, config: SolverConfig, reference: Optional[np.ndarray],
                where: str) -> tuple[IterationLog, np.ndarray, np.ndarray]:
    """Iterate now <- sweep(now, new) from the initial traces `now`: levels
    >= 1 of every interface's trace (level 0 is pinned data) in one
    vector, interface i at at[i]:at[i + 1], as is `reference`.  A sweep
    writes its traces into `new`.  The loop logs the per-interface updates
    (and distances from `reference`), max norms over each interface's
    slice, reduced straight into log rows that are allocated up front: the
    whole budget when it is fixed, else `_LOG_ROWS` rows that double as
    they fill, up to the budget.

    The sweeps run in blocks, as many as fit `_BLOCK_VALUES` held values
    (at least one; under a tolerance at most `_LOG_ROWS`): the block's
    input and each sweep's output are the rows of one array, whose row
    views are made once.  A block of one sweep (a sweep of more than
    `_BLOCK_VALUES` values) takes turns with `now`, which the loop then
    writes into, so that it holds two trace vectors: its output and their
    difference.  Under a fixed budget a block's sweeps run back to back,
    and its update rows, its error rows and its finiteness test are each
    one reduction over the block.  Under a tolerance each sweep's rows and
    stop test run as that sweep finishes, so no sweep runs past the stop;
    the rows of a block are zipped, so a sweep makes no view of its own.
    The guess norms
    become a scale vector once per solve (the norm where it exceeds
    `_DENOM_FLOOR`, else 1), so the stop test is one divide and one max:
    the relative-update rule stops the loop when that max is below the
    tolerance.  The max (of the updates alone under a fixed budget) is
    also the finiteness test: when it is not finite the rows are searched,
    and the first non-finite update raises, naming its sweep and
    interface.  Inside a fixed-budget block every floating-point event
    that numpy would report to the caller (`np.geterr`) raises instead; at
    one, the block goes on sweep by sweep from the sweep that met it,
    which runs again, so that warnings and errors come as from a loop that
    logs each sweep as it finishes.  A sweep must therefore depend on its
    input alone.  A lone piece sweeps once, its solution, and logs no
    Schwarz sweep.  Returns the log and the last sweep's input and output.
    """
    if len(at) == 1:
        log = IterationLog(updates=np.zeros((0, 0)), errors=None, converged=True, iterations=0)
        return log, now, sweep(now, np.empty(0))
    starts, budget, tol = at[:-1], config.budget, config.tolerance
    fixed = config.fixed_iterations is not None
    upd = np.empty((budget if fixed else min(budget, _LOG_ROWS), len(starts)))
    err = None if reference is None else np.empty((len(upd) + 1, len(starts)))
    size = max(1, min(len(upd), _BLOCK_VALUES // len(now)))
    # a block's input, then each of its sweeps' outputs, as rows, and each
    # difference; blocks of one sweep take turns with `now` instead
    iterates = np.empty((size + 1 if size > 1 else 1, len(now)))
    rows, spare = list(iterates) if size > 1 else [now, *iterates], np.empty((size, len(now)))

    def dist(a: np.ndarray, b: np.ndarray, out: np.ndarray, d: np.ndarray = spare[0]) -> None:
        """max |a - b| over each interface's slice of a trace vector, or with
        d of each row of a block of them, into out."""
        np.maximum.reduceat(np.abs(np.subtract(a, b, out=d), out=d), starts, axis=-1, out=out)

    if err is not None:
        dist(now, reference, err[0])
    if not fixed:
        guess = np.maximum.reduceat(np.abs(now), starts)
        scale = np.where(guess > _DENOM_FLOOR, guess, 1.0)  # u / 1.0 == u: absolute updates
        rel = np.empty(len(starts))
    # every floating-point event the caller would see, raised inside a block
    guard = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}

    def check(rows: np.ndarray, first: int) -> float:
        """The stop test's max over the log rows of sweep first + 1 or of the
        sweeps from it on (of the updates alone under a fixed budget), which
        raises at the first non-finite update."""
        top = np.maximum.reduce(rows if fixed else np.divide(rows, scale, out=rel), axis=None)
        if not math.isfinite(top):
            bad = np.argwhere(~np.isfinite(np.atleast_2d(rows)))
            if len(bad):
                raise FloatingPointError(f"non-finite interface update {where}: "
                                         f"sweep {first + bad[0, 0] + 1}, interface {bad[0, 1]}")
        return top

    k, b, stopped = 0, 0, False
    while k < budget and not stopped:
        if size > 1:
            iterates[0] = rows[b] if k else now
        else:  # the last output is the next input
            rows[0], rows[b] = rows[b], rows[0]
        b = min(size, budget - k)
        if k + b > len(upd):
            more = np.empty((min(budget, 2 * len(upd)) - len(upd), len(starts)))
            upd = np.concatenate((upd, more))
            err = None if err is None else np.concatenate((err, more))
        ran = logged = 0
        if fixed and b > 1:
            try:
                with np.errstate(**guard):
                    while ran < b:
                        sweep(rows[ran], rows[ran + 1])
                        ran += 1
                    new = iterates[1:b + 1]
                    if err is not None:
                        dist(new, reference, err[k + 1:k + b + 1], spare[:b])
                    dist(new, iterates[:b], upd[k:k + b], spare[:b])
            except FloatingPointError:
                pass  # sweep by sweep from the sweep that met the event
            else:
                logged = b
                check(upd[k:k + b], k)
        # sweep by sweep: under a tolerance, or from a sweep that met an event on
        errs = repeat(None) if err is None else err[k + logged + 1:k + b + 1]
        for i, old, new, row, e in zip(range(logged, b), rows[logged:], rows[logged + 1:],
                                       upd[k + logged:k + b], errs):
            if i >= ran:  # a sweep that met an event runs again
                sweep(old, new)
            if e is not None:
                dist(new, reference, e)
            dist(new, old, row)
            if check(row, k + i) < tol and not fixed:
                b, stopped = i + 1, True
                break
        k += b
    return (IterationLog(upd[:k], None if err is None else err[:k + 1], fixed or stopped, k),
            rows[b - 1], rows[b])


def _flat(rows, dtype=float) -> np.ndarray:
    """The 1-d arrays `rows` in one vector, in order; empty without rows."""
    return np.concatenate([np.empty(0, dtype), *rows])


def _cached(maps: dict, key: tuple, build: Callable, *args):
    """maps[key], made by build(*args) on first use."""
    if key not in maps:
        maps[key] = build(*args)
    return maps[key]


def method1_advance(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    start: Level,
    t_now: float,
    t_next: float,
    config: SolverConfig,
    init_guess: Optional[TraceSet] = None,
    reference: Optional[TraceSet] = None,
) -> tuple[Level, IterationLog]:
    """Advance all pieces one time level by per-step Schwarz iteration,
    from the level `start` at t_now (`Level.of`, or a previous call's) to
    the level at t_next, both in sine-mode space.

    A level is the one-step window of the waveform driver, solved by
    `_solve_window` on the one window engine (`_window_sweep`), as every
    method-2 window is.  ETD1 sweeps re-solve each piece against the latest
    neighbor values at t_next; the default initial guess is the previous
    level's traces.  ETD2 freezes the t_now forcing at the converged
    previous level (the window's pinned level 0), so only the
    linear-in-time correction term moves during the iteration; the
    default initial guess comes from the first-order predictor.
    init_guess and reference hold one value set (size,) per interface at
    t_next; with `reference` given (error studies), per-iteration
    distances of the traces from the reference are logged, guess included.
    """
    log, level = _solve_window(pieces, interfaces, start, None, (t_now, t_next), config,
                               init_guess, reference, where=f"at t={t_next:g}",
                               predict=init_guess is None and config.scheme == "etd2")
    return level, log


def _march(pieces: Sequence[LocalPiece], timegrid: TimeGrid, win: int, final_only: bool,
           solve: Callable, start: Optional[Level] = None
           ) -> tuple[list[np.ndarray], list[IterationLog]]:
    """The run loop of both drivers, from the level `start` of the initial
    states (by default `Level.of` them) in windows of `win` steps (the last
    may be shorter): solve(level, s, n, window) solves the one from step s
    over n steps and returns its log and last level.  No window writes into
    `start`, so one start serves many runs.  `window` is per piece the rows
    s..s + n of its trajectory, for levels 1..n as modes; with `final_only`
    the last window gets the two-level trajectories and the others None.
    Returns the trajectories, rebuilt to fields, and the logs."""
    steps = timegrid.steps
    trajs = [np.empty((2 if final_only else steps + 1,) + p.u0.shape) for p in pieces]
    for traj, p in zip(trajs, pieces):
        traj[0] = p.u0
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0) if start is None else start
    logs = []
    for s in range(0, steps, win):
        n = min(win, steps - s)
        window = ((trajs if s + n == steps else None) if final_only
                  else [traj[s:s + n + 1] for traj in trajs])
        log, level = solve(level, s, n, window)
        logs.append(log)
    _rebuild(pieces, trajs)
    return trajs, logs


def method1_march(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    timegrid: TimeGrid,
    config: SolverConfig,
    *,
    final_only: bool = False,
) -> tuple[list[np.ndarray], list[IterationLog]]:
    """March the per-step Schwarz iteration over the whole time grid.

    The run loop `_march` in windows of one step, each one
    `method1_advance` call, which forms the forcing of its new level and
    hands the next one that level in sine-mode space.  Returns per-piece
    trajectories of shape (steps + 1, *piece shape) and the iteration log
    of every level.  With `final_only` the trajectories hold level 0 and
    the last level alone, shape (2, *piece shape), and only the last level
    is written.  On the one-piece layout (`decompose(shape, (1,) * d, (0,
    0))`) no level iterates, and the march is the monodomain ETD march with
    the state kept in sine-mode space.
    """
    def step(level: Level, s: int, n: int, window) -> tuple[IterationLog, Level]:
        level, log = method1_advance(pieces, interfaces, level, timegrid.t(s),
                                     timegrid.t(s + 1), config)
        for w, u_hat in zip(window or (), level.states):
            w[1] = u_hat
        return log, level

    return _march(pieces, timegrid, 1, final_only, step)


def _start_part(kernels: Sequence[np.ndarray], scheme: Scheme, u: np.ndarray, f0: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """The start part A = E u + phi1 f0 (ETD1: E u) of a step from the
    state modes u over the forcing modes f0, written into out[0], with
    out[1] as scratch (rows of one array, or two arrays); returns out[0]."""
    exp, phi1, _ = kernels
    a = np.multiply(exp, u, out=out[0])
    if scheme == "etd2":
        a += np.multiply(phi1, f0, out=out[1])
    return a


def _march_modes(kernels: Sequence[np.ndarray], scheme: Scheme, a: np.ndarray, f0: np.ndarray,
                 forcing: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Diagonal ETD recursion in mode space, with the kernels (E, dt phi1,
    dt phi2): levels 1..steps over the forcing modes `forcing` (steps, ...)
    of those levels, from the start part `a` of the first step
    (`_start_part`), f0 the forcing modes of level 0, written into `out`
    (steps, ...), which may be `forcing`; returns out.

    Each step's forcing term is formed up front, in the row of its level,
    so only E u + term runs per step, in place and summed in the order of
    the single-step formula: a one-step march is A + phi1 f1 (ETD2: A +
    phi2 (f1 - f0)).
    """
    exp, phi1, phi2 = kernels
    if scheme == "etd1":
        np.multiply(phi1, forcing, out=out)
        starts = repeat(None)
    else:
        starts = forcing[:-1].copy()  # each step's start forcing, before out overwrites it
        np.subtract(forcing[1:], starts, out=out[1:])
        np.subtract(forcing[0], f0, out=out[0])
        out *= phi2
        starts *= phi1
    rows = list(out)
    np.add(a, rows[0], out=rows[0])
    e = np.empty_like(rows[0]) if len(rows) > 1 else None
    for prev, nxt, g0 in zip(rows, rows[1:], starts):
        np.multiply(exp, prev, out=e)
        if g0 is not None:
            e += g0
        np.add(e, nxt, out=nxt)
    return out


def _edge_units(piece: LocalPiece) -> list[np.ndarray]:
    """Unit traces (units, inflow nodes) of a piece's inflow nodes, the
    nodes of one edge at a time."""
    ends = np.cumsum([e.size for e in piece.inflow])
    return np.split(np.eye(piece.inflow_stack.size), ends[:-1])


def _window_responses(piece: LocalPiece, scheme: Scheme, steps: int) -> np.ndarray:
    """The response table R (steps, inflow nodes, outflow nodes) of a piece,
    with no march.

    Rows run over the nodes of the inflow edges i, columns over those of
    the outflow edges o, each in edge order: R[lag, k, n] is the trace at
    outflow node n `lag` levels after a unit trace at inflow node k
    enters, marched from a zero state and zero trace-independent forcing.
    It does not depend on the level the trace enters at (>= 1; level 0 is
    pinned data, carried by the window's base).  The unit traces of one
    inflow edge at a time enter the forcing f of level 1, so level 1 is K f,
    K = dt phi1 for ETD1 and dt phi2 for ETD2, and R[0] holds the one-step
    gains; level 2 is E times level 1, plus dt phi1 f and dt phi2 (0 - f)
    for ETD2, the operations of `_march_modes` in its order; no forcing
    reaches a later step, so levels 3.. are one cumulative product by E:
    the march's bits.  R[0] is read out in a product of its own, which in 1d
    a read-out of more levels would round differently.
    """
    ws, out, rows = piece.ws, piece.outflow_stack, []
    for units in _edge_units(piece):
        u_hat = np.zeros((steps, len(units)) + piece.u0.shape)
        f, kernel = u_hat[0], ws.phi1_kernel if scheme == "etd1" else ws.phi2_kernel
        piece.inflow_stack.spread(units, f)
        if steps > 1:  # a one-step table (every 2d one) forms no later level
            u1 = kernel * f
            u_hat[1] = (ws.exp_kernel * u1 if scheme == "etd1" else
                        ws.exp_kernel * u1 + ws.phi1_kernel * f + (0.0 - f) * ws.phi2_kernel)
            u_hat[2:] = ws.exp_kernel
            np.multiply.accumulate(u_hat[1:], axis=0, out=u_hat[1:])
        f *= kernel  # level 1, in place of its forcing
        rows.append(out.read(u_hat.reshape((-1,) + piece.u0.shape)).reshape(steps, len(units), -1))
        if steps > 1:
            out.read(u_hat[0], rows[-1][0])  # level 1 again, alone
    return np.concatenate(rows, axis=1)


def _lag_blocks(r: np.ndarray, n: int) -> np.ndarray:
    """The lag blocks B (lags, n in, n out) of the response table r (steps,
    in, out) over blocks of n levels, lags = ceil(steps / n).  A block's
    traces run level after level, nodes in edge order within a level, and
    B[d] takes the inflow traces of one block to their share of the owned
    traces d blocks later: B[d][j in + k, i out + o] = r[d n + i - j, k, o],
    0 where that lag is negative or at least steps.  The window's product
    is block lower-triangular Toeplitz in them (`_lag_product`).  Blocks of
    one level are r itself, not a copy."""
    if n == 1:
        return r
    steps, n_in, n_out = r.shape
    lags = -(-steps // n)
    padded = np.zeros((n - 1 + lags * n, n_in, n_out))
    padded[n - 1:n - 1 + steps] = r
    s0, s1, s2 = padded.strides
    # [d, j, k, i, o] = padded[n - 1 + d n - j + i, k, o], one copy of a strided view
    w = as_strided(padded[n - 1:], (lags, n, n_in, n, n_out), (n * s0, -s0, s1, s0, s2),
                   writeable=False)
    return np.ascontiguousarray(w).reshape(lags, n * n_in, n * n_out)


def _lag_product(x: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """out[a] = the sum over d <= a of x[a - d] @ blocks[d], for level
    blocks x (lags, n in) and out (lags, n out): the causal product of
    `_lag_blocks`, one matrix product per lag, cut into runs of level
    blocks below `_PRODUCT_MAX` multiply-adds, so that each stays on one
    thread."""
    lags, run = len(blocks), max(1, _PRODUCT_MAX // blocks[0].size)
    out[...] = 0.0
    for d, b in enumerate(blocks):
        for a in range(d, lags, run):
            out[a:a + run] += x[a - d:min(a + run, lags) - d] @ b


def _sweep_plan(pieces: Sequence[LocalPiece], lay: _Layout, scheme: Scheme,
                steps: int) -> tuple[Callable, tuple]:
    """The sweep plan of windows of `steps` levels on the layout `lay` of
    `pieces`, with the places of their traces (`_window_places`):
    sweep(base, now, new) writes new = base + M now at the owned traces of
    every piece, on flat traces that hold levels 1..steps of interface i at
    at[i]:at[i + 1], at = steps times the layout's trace offsets.  M is per
    geometry group the lag blocks (`_lag_blocks`) of its response table
    (`_window_responses`, held on its pieces) over blocks of n levels, one
    dense block while steps <= `_LAG_LEVELS`.  A sweep takes
    every piece's inflow traces in one take, level after level, the last
    block padded with copies of level steps, which reach only the padded
    levels of its output, which are not put; runs one product per group:
    `np.dot` for a group of one piece, else one matmul of its pieces' rows,
    each a (1, in) row of its own in 1d, so that 1d results keep the bits
    of a piece alone, and `_lag_product` per piece above `_LAG_LEVELS`
    levels; adds the base and puts the owned traces in one scatter.  The
    indices, the products and their scratch are built once, so a plan
    serves one sweep call at a time."""
    lags = -(-steps // _LAG_LEVELS)
    n = -(-steps // lags)
    at, pad = lay.traces * steps, np.minimum(np.arange(lags * n), steps - 1)
    groups = [b for b in lay.blocks if b.piece.outflow]  # a lone piece has no trace edges
    takes, puts = (_flat((_nodes(getattr(pieces[d], flow), at, steps)[levels].ravel()
                          for b in groups for d in b.members), int)
                   for flow, levels in (("inflow", pad), ("outflow", slice(None))))
    x, y, owned = np.empty(len(takes)), np.empty(len(puts) // steps * lags * n), np.empty(len(puts))
    products, keep, i, o = [], [], 0, 0
    for b in groups:
        blocks = _lag_blocks(_cached(b.piece.maps, (scheme, steps), _window_responses,
                                     b.piece, scheme, steps), n)
        (_, n_in, n_out), k = blocks.shape, len(b.members)
        rows, out = x[i:i + k * lags * n_in], y[o:o + k * lags * n_out]
        if lags > 1:
            products += [partial(_lag_product, r, blocks, q) for r, q
                         in zip(rows.reshape(k, lags, n_in), out.reshape(k, lags, n_out))]
        elif k == 1:
            products.append(partial(np.dot, rows, blocks[0], out))  # out positional: no kwargs
        else:
            shape = (k, 1, -1) if b.piece.u0.ndim == 1 else (k, -1)
            products.append(partial(np.matmul, rows.reshape(shape), blocks[0], out.reshape(shape)))
        keep += [np.arange(j, j + steps * n_out // n) for j in range(o, o + len(out), lags * n_out)]
        i, o = i + len(rows), o + len(out)
    keep = slice(None) if lags * n == steps else _flat(keep, int)

    def sweep(base: np.ndarray, now: np.ndarray, new: np.ndarray) -> np.ndarray:
        now.take(takes, out=x)
        for product in products:
            product()
        new[puts] = np.add(y[keep], base, out=owned)
        return new

    return sweep, _window_places(pieces, lay, steps)


def _window_places(pieces: Sequence[LocalPiece], lay: _Layout, steps: int) -> tuple:
    """The places in flat window traces (levels 1..steps of interface i at
    at[i]:at[i + 1], at = steps times the offsets of the layout `lay` of
    `pieces`): (steps, inflow nodes) of every piece's inflow nodes at each
    level, in the layout's order (`_Layout.ins`); those of every
    interface's trace at the last level; for each value of the default
    initial traces, its place in the pinned traces, whose level 0 they
    hold at every level; and for each value of a plan's base, piece after
    piece, level after level (`_sweep_plan`), its place in read-outs
    (steps, outflow nodes), level after level."""
    at, reads = lay.traces * steps, np.arange(steps * len(lay.outs)).reshape(steps, -1)
    return (_nodes([e for b in lay.blocks for d in b.members for e in pieces[d].inflow], at, steps),
            _flat((np.arange(j - (j - i) // steps, j) for i, j in pairwise(at)), int),
            _flat((np.tile(np.arange(i, j), steps) for i, j in pairwise(lay.traces)), int),
            _flat((reads[:, b.outs].reshape(steps, len(b.members), -1).swapaxes(0, 1).ravel()
                   for b in lay.blocks), int))


def _spread_all(lay: _Layout, x: np.ndarray, out: np.ndarray) -> None:
    """Add the forcing modes of inflow traces x (levels, inflow nodes), every
    piece's inflow nodes in the layout's order (`_Layout.ins`), into the
    flat modes `out` (levels, size), one spread per geometry group; nothing
    on a layout without inflow nodes (one piece)."""
    if not len(lay.ins):
        return
    for b in lay.blocks:
        b.piece.inflow_stack.spread(x[:, b.ins].reshape(len(x), len(b.members), -1), b.modes(out))


def _to_modes(lay: _Layout, v: np.ndarray) -> None:
    """Transform the flat modes v (rows, size) from fields in place, one
    call per geometry group, as (rows, k, 1, *shape): each piece-row a block
    of its own, with the bits it has alone."""
    if len(v):
        for b in lay.blocks:
            part = b.modes(v)
            part[...] = b.piece.ws.fact.to_modes(part[:, :, None])[:, :, 0]


def _forcing_modes(pieces: Sequence[LocalPiece], lay: _Layout, times: Sequence[float],
                   out: np.ndarray) -> None:
    """Write the trace-independent forcing modes of every piece at `times`
    into the flat rows `out` (len(times), size): per row the sum over the
    data terms, in term order, of each factor at its time times the term's
    modes (`_Layout.terms`), with no assembly and no transform."""
    out[...] = 0.0
    for factor, modes in zip(term_factors(pieces[0].closure.problem,
                                          np.asarray(times, dtype=float)), lay.terms):
        out += factor[:, None] * modes


def _window_sweep(pieces: Sequence[LocalPiece], start: Level, times: Sequence[float],
                  scheme: Scheme, predict: bool = False) -> tuple[Callable, Callable, np.ndarray]:
    """The window over the level times `times` (steps + 1, spaced by the
    pieces' step) from the level `start` at times[0]: the one engine of
    every window of both drivers, on flat traces (levels 1..steps of
    interface i at at[i]:at[i + 1], at = steps times the layout's trace
    offsets, placed by `_window_places`).  Returns `sweep(now, new)`, which
    writes the owned traces of every piece against the incoming ones `now`
    into `new` and returns it; `finish(out, last, latest)`, which writes the
    trailing len(out[d]) - 1 levels of piece d's mode-space trajectory
    against the last sweep's input `last` into out[d][1:] if `out` is
    given, and returns the level at times[-1] in mode space, pinned to the
    last level of the last sweep's output `latest`, with those traces
    spread into its f0; and the initial traces: the pinned ones at every
    level or, with `predict` (ETD2 levels of method 1), those of the
    predictor A.

    Once per window it forms the trace-independent forcing F of levels
    1..steps (`_forcing_modes`) and the start part A = E u + phi1 f0 (ETD1:
    E u, `_start_part`), one operation each over every piece's modes.  Every
    march starts from A, so a one-step march is one step with the bits of a
    march from u.  The sweep alone is chosen from the input.  One-step
    windows and 1d ones run the layout's plan for windows of this length
    (`_sweep_plan`), new = base + M x, with the base read out of one flat
    march from A over F, A included, once per geometry group.  A window at
    rest (state modes, f0 and F all zero, as in every error-equation solve
    from t = 0) marches nothing for its base, since a march of zeros reads
    out +0.0; nor does a layout without outflow edges (one piece).  In a 1d
    window of two or more steps a non-finite incoming trace reaches every
    level of its piece's product (0 times NaN), not only the later ones.  A 2d
    window of two or more steps, whose per-lag tables would be large,
    marches each piece from A in mode space in every sweep.  `finish`, the
    window's last use of F, spreads into F the last sweep's inflow
    histories and into a copy of its last row, the next level's f0, that
    level's pinned traces, one `_spread_all` per block of levels, and
    marches each block flat from the end of the one before; a block holds
    at most `_BLOCK_VALUES` values.
    """
    steps, (lay, u, pinned, f0) = len(times) - 1, start
    forcing = np.empty((steps + 1, lay.size))  # F, and a row for scratch, then the next f0
    _forcing_modes(pieces, lay, times[1:], forcing[:steps])
    planned = steps == 1 or all(e.size == 1 for p in pieces for e in p.inflow)
    rows = np.empty((steps + 1 if planned else 1, lay.size))  # A, then the base march's levels
    a = _start_part(lay.kernels, scheme, u, f0, (rows[0], forcing[-1]))
    plan, (inflow, ends, tiled, order) = (
        _cached(lay.plans, (scheme, steps), _sweep_plan, pieces, lay, scheme, steps) if planned
        else (None, _window_places(pieces, lay, steps)))
    initial = pinned[tiled]
    if planned:
        reads = np.zeros((steps + 1, len(lay.outs)))  # A's and the base's, level by level
        if len(lay.outs) and any(v.any() for v in (u, f0, forcing[:steps])):
            _march_modes(lay.kernels, scheme, a, f0, forcing[:steps], rows[1:])
            for b in lay.blocks:
                # piece-major (k, levels, ...): a 1d read contracts each piece's levels alone
                b.piece.outflow_stack.read(b.modes(rows).swapaxes(0, 1), reads[:, b.outs].reshape(
                    steps + 1, len(b.members), -1).swapaxes(0, 1))
        if predict:
            initial[lay.outs] = reads[0]
        sweep = partial(plan, reads[1:].ravel()[order])
    else:
        at = lay.traces * steps
        ins, outs = ([_nodes(getattr(p, flow), at, steps) for p in pieces]
                     for flow in ("inflow", "outflow"))
        parts = list(zip(zip(*map(lay.views, lay.kernels)),
                         *map(lay.views, (a, f0, forcing[:steps]))))

        def sweep(v: np.ndarray, new: np.ndarray) -> np.ndarray:
            # the trajectory goes before the next piece's march
            for p, (kernels, a_d, f0_d, forcing_d), i, o in zip(pieces, parts, ins, outs):
                f_hat = np.empty((steps + 1,) + p.u0.shape)  # A and levels 1..steps
                f_hat[0], f_hat[1:] = a_d, forcing_d
                p.inflow_stack.spread(v[i], f_hat[1:])
                _march_modes(kernels, scheme, a_d, f0_d, f_hat[1:], f_hat[1:])
                new[o] = p.outflow_stack.read(f_hat)[1:]
            return new

    def finish(out: Optional[Sequence[np.ndarray]], last: np.ndarray,
               latest: np.ndarray) -> Level:
        pins, size = latest[ends], max(1, min(steps, _BLOCK_VALUES // lay.size))
        forcing[-1] = forcing[-2]
        head, f_start = a, f0
        for s in range(0, steps, size):
            e = min(s + size, steps)
            if s:  # the block marches on from the last level of the one before
                head = _start_part(lay.kernels, scheme, forcing[s - 1], f_start,
                                   np.empty((2, lay.size)))
            # the last block spreads the pinned traces too.  A one-step window
            # gathers as np.stack((last, latest))[:, ins] does, F-ordered, and
            # keeps the 2d bits of that spread; a longer one's rows are
            # C-ordered, each with the bits of a spread of its own
            f = forcing[s:e + (e == steps)]
            x = np.concatenate((last[inflow[s:e]], latest[inflow[-1:]]))[:len(f)]
            _spread_all(lay, np.asfortranarray(x) if steps == 1 else x, f)
            f_next = forcing[e - 1].copy() if e < steps else None  # which the march overwrites
            block = _march_modes(lay.kernels, scheme, head, f_start, forcing[s:e], forcing[s:e])
            f_start = f_next
            for o, v in zip(out, lay.views(block)) if out is not None else ():
                kept = o[1:][s - steps:e - steps or None]  # the block's levels that o keeps
                kept[...] = v[len(v) - len(kept):]
        # a longer window copies them out, so that the next holds none of its rows
        state, f0_next = forcing[-2:] if steps == 1 else forcing[-2:].copy()
        return Level(lay, state, pins, f0_next)

    return sweep, finish, initial


def _solve_window(
    pieces: Sequence[LocalPiece],
    interfaces: Sequence[Interface],
    start: Level,
    window: Optional[Sequence[np.ndarray]],
    times: Sequence[float],
    config: SolverConfig,
    guess: Optional[TraceSet],
    reference: Optional[TraceSet],
    where: str,
    predict: bool = False,
    levels: Optional[int] = None,
    first: int = 1,
) -> tuple[IterationLog, Level]:
    """Solve one window from the level `start` at times[0]: the trailing
    len(window[d]) - 1 levels of piece d's solution go, in sine-mode
    space, into window[d][1:] unless `window` is None.  Returns the log
    and the level at times[-1].  Every window runs on `_window_sweep`,
    which chooses its sweep from the input alone, from its default
    traces (with `predict` the predictor's) unless a guess is given.
    A guess and a reference hold one entry per interface: with `levels`
    given, that many levels of the run's trace (levels, size), of which
    the window reads levels first..first + steps - 1, else the window's
    one level (size,).  Every window of either driver passes here, so here
    the inputs are checked: `start` must be laid out for the pieces'
    shapes, `interfaces` have their trace sizes, the times their step, and
    a guess or a reference one entry of that shape per interface; else a
    `ValueError` names the window (`where`)."""
    steps, lay = len(times) - 1, start.layout
    shapes = tuple(p.u0.shape for p in pieces)
    if lay.shapes != shapes:
        raise ValueError(f"the start level is laid out for piece shapes {lay.shapes}, "
                         f"the pieces {where} have {shapes}")
    sizes = [j - i for i, j in pairwise(lay.traces.tolist())]  # np.diff costs more per window
    if [itf.size for itf in interfaces] != sizes:
        raise ValueError(f"the interface table {where} is not the pieces': trace sizes "
                         f"{[itf.size for itf in interfaces]}, the pieces' {sizes}")
    dt = (times[-1] - times[0]) / steps
    if not all(math.isclose(dt, p.ws.dt, rel_tol=1e-9) for p in pieces):
        raise ValueError(f"the step {dt:g} {where} is not the pieces' step {pieces[0].ws.dt:g}")
    flat = {}  # the window's levels of the guess and the reference, in one vector each
    for name, rows in (("guess", guess), ("reference", reference)):
        if rows is None:
            continue
        if len(rows) != len(sizes):
            raise ValueError(f"the {name} {where} has {len(rows)} interface entries, "
                             f"the pieces {len(sizes)} interfaces")
        rows = [np.asarray(r, dtype=float) for r in rows]
        for i, (r, size) in enumerate(zip(rows, sizes)):
            shape = (size,) if levels is None else (levels, size)
            if r.shape != shape:
                raise ValueError(f"the {name} {where} has an entry of shape {r.shape} for "
                                 f"interface {i}, the run takes {shape}")
        flat[name] = _flat(r.ravel() if levels is None else r[first:first + steps].ravel()
                           for r in rows)
    sweep, finish, now = _window_sweep(pieces, start, times, config.scheme, predict)
    log, last, latest = _sweep_loop(sweep, flat.get("guess", now), lay.traces * steps, config,
                                    flat.get("reference"), where)
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
    start: Optional[Level] = None,
) -> tuple[list[np.ndarray], IterationLog]:
    """Waveform relaxation over [0, horizon], optionally in time windows.

    The run loop `_march` in windows of `window_steps` steps (without it,
    one window), from the level `start` of the pieces' initial states at
    t = 0 (by default `Level.of` them).  No solve writes into `start`, so
    runs from one state, such as a rate study's seeds, can share one,
    `Level.of(pieces, [p.u0 for p in pieces], 0.0)`, and its layout.  Each
    window runs the one window engine (`_window_sweep`): it forms the
    trace-independent forcing of its own levels and the start part A,
    then iterates interface-reduced sweeps, the layout's matrix sweep
    (`_sweep_plan`, one product per geometry group) in one-step windows and
    1d ones, and the mode-space recursion from A in 2d windows of two or
    more steps; none assembles forcing or runs a DST.  Its `finish` marches
    the window's levels from A, flat over every piece, in level blocks, and
    hands its successor its last level in sine-mode space.

    Returns per-piece trajectories (steps + 1, *shape) and an
    IterationLog; with windows, the log aggregates one child log per
    window.  With `final_only` the trajectories hold level 0 and the last
    level alone, shape (2, *shape), which the last window writes.
    Level-0 traces are always pinned to the initial state, and
    init_guess/reference (shape (steps + 1, size) per interface) are
    sliced accordingly: a window from step s over n steps reads their
    levels s + 1..s + n.
    """
    def solve(level: Level, s: int, n: int, window) -> tuple[IterationLog, Level]:
        return _solve_window(pieces, interfaces, level, window,
                             [timegrid.t(s + m) for m in range(n + 1)], config,
                             init_guess, reference, where=f"in the window from t={timegrid.t(s):g}",
                             levels=timegrid.steps + 1, first=s + 1)

    trajs, logs = _march(pieces, timegrid, config.window_steps or timegrid.steps, final_only,
                         solve, start)
    if len(logs) == 1:
        return trajs, logs[0]
    return trajs, IterationLog(
        updates=np.concatenate([lg.updates for lg in logs]),
        errors=None if reference is None else np.concatenate([lg.errors for lg in logs]),
        converged=all(lg.converged for lg in logs),
        iterations=sum(lg.iterations for lg in logs),
        windows=tuple(logs),
    )
