"""Problem data, grids, overlapping decompositions, and forcing assembly.

Problems, grids, layouts and pieces are described per axis, 1d being the
one-axis case.  A problem lives on the box origin[k] <= x_k <= origin[k] +
lengths[k], and its data take one coordinate per axis.  A grid has n_k
interior nodes along axis k, numbered 1..n_k, with nodes 0 and n_k + 1
carrying physical Dirichlet data, boundary(*x, t) at their coordinates.
An overlapping layout splits every axis independently and takes the
tensor product of the splits.  Along one axis, p pieces start from break
indices b_i = i (n + 1) / p and each internal break widens into an
overlap strip: piece i owns interior nodes lo_i..hi_i with

    lo_1 = 1,            lo_i = b_{i-1} + 1 - c_left   (i > 1),
    hi_p = n,            hi_i = b_i - 1 + c_right      (i < p),

so adjacent pieces share 2c - 1 nodes when both sides widen by c cells.
Each piece reads one row of nodes per internal edge from the neighbor
across it: the nodes just outside its own box, which must be interior and
owned by that neighbor; that is exactly the feasibility bound on c checked
at construction.  Before that, every piece needs a node of its own between
its two breaks, so an axis of n nodes holds at most (n + 1) // 2 pieces,
and adjacent pieces must overlap.
Edges are keyed by (axis, side), side 0 being the low end of the axis and
side 1 the high end, and are always enumerated as axis 0 low, axis 0 high,
axis 1 low, axis 1 high.

Forcing assembly folds the Dirichlet boundary closure into the source
term: F = f(x, t) plus (nu / h_k^2) times the bordering values (physical
data or a neighbor's trace) on the first and last node row along every
axis k.  Corners receive contributions from both adjacent edges, as the
five-point stencil requires.  With a tensor-product layout every edge is
either entirely physical or entirely interior.  Forcing and boundary data
are taken at one time or over a time axis: a 1-D array of times enters the
data callables as a column (levels, 1, ...) against the node coordinates,
and one call returns the stack of every level, each level bitwise the
single-time result.

A problem may declare its data separable (`Problem.terms`): source and
boundary data are sums of time factors times functions of space.  Each
term's spatial forcing is then assembled on a box once (`term_forcing`,
the same closure without t) and its factors taken at any times
(`term_factors`), so that a solver forms the forcing at a time from
them, with no call of the data callables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Problem",
    "Grid",
    "Box",
    "Interface",
    "Decomposition",
    "BoxForcing",
    "make_grid_1d",
    "make_grid_2d",
    "decompose",
    "decompose_1d",
    "decompose_2d",
    "box_forcing",
    "boundary_data",
    "assemble_forcing",
    "term_forcing",
    "term_factors",
]


def _check_consistency(pairs, what: str, against: str = "the exact solution") -> None:
    """Raise a ValueError naming `what` at the first pair that differs by
    more than round-off; two NaNs agree."""
    for got, want, where in pairs:
        tol = 1e-12 * (1.0 + abs(want))
        if not (abs(got - want) <= tol or math.isnan(got) and math.isnan(want)):
            raise ValueError(
                f"{what} disagrees with {against} at {where}: "
                f"{got!r} vs {want!r}"
            )


@dataclass(frozen=True)
class Problem:
    """Diffusion problem u_t = nu (sum_k u_{x_k x_k}) + f on the box
    origin[k] <= x_k <= origin[k] + lengths[k], one axis per entry.

    source(*x, t), boundary(*x, t), initial(*x) and exact(*x, t) take one
    coordinate per axis and must broadcast over numpy arrays; boundary is
    evaluated only on the box's faces.  The time may be an array too, with
    a leading axis of its own (shape (levels, 1, ...) against the
    coordinates), and source, boundary and exact must then broadcast to
    (levels, *coordinate shape); data that ignore t broadcast as they are.
    When an exact solution is
    supplied, the boundary data is checked against it on every face at
    five times and the initial data at seven interior points.

    terms optionally declares the data separable: a tuple of (factor(t),
    source(*x), boundary(*x)) triples with source = sum of factor *
    source_k and boundary = sum of factor * boundary_k, () for zero data,
    None (the default) for undeclared data.  A factor takes one time or a
    1-D array of times.  The drivers then transform each term's spatial
    forcing once per run and assemble no forcing per level.  A declaration
    is checked against source at seven interior points and against
    boundary on every face, at five times.
    """

    nu: float
    lengths: tuple[float, ...]
    horizon: float
    source: Callable
    boundary: Callable
    initial: Callable
    exact: Optional[Callable] = None
    origin: tuple[float, ...] = ()
    terms: Optional[tuple] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", tuple(self.origin) or (0.0,) * len(self.lengths))
        if len(self.origin) != len(self.lengths):
            raise ValueError(f"origin {self.origin} and lengths {self.lengths} differ in axes")
        if self.nu <= 0 or min(self.lengths) <= 0 or self.horizon <= 0:
            raise ValueError("nu, lengths and horizon must be positive")
        d = len(self.lengths)
        at = lambda fractions: tuple(o + f * l for o, f, l in zip(self.origin, fractions, self.lengths))
        faces = [(axis, side, at(_with((0.3 + 0.4 * side,) * d, axis, side)))
                 for axis, side in itertools.product(range(d), (0, 1))]
        points = [at((f,) * d) for f in np.linspace(0.1, 0.9, 7).tolist()]
        times = np.linspace(0.0, self.horizon, 5)
        if self.terms is not None:
            object.__setattr__(self, "terms", tuple(self.terms))
            declared = lambda part, x, t: sum(float(term[0](t)) * float(term[part](*x))
                                              for term in self.terms)
            against = "its declared terms"
            _check_consistency([(declared(1, x, t), float(self.source(*x, t)), f"{x}, t={t}")
                                for x in points for t in times], "source", against)
            for axis, side, face in faces:
                _check_consistency(
                    [(declared(2, face, t), float(self.boundary(*face, t)), f"{face}, t={t}")
                     for t in times], f"boundary data on face (axis {axis}, side {side})", against)
        if self.exact is None:
            return
        for axis, side, face in faces:
            _check_consistency(
                [(float(self.boundary(*face, t)), float(self.exact(*face, t)), f"{face}, t={t}")
                 for t in times],
                f"boundary data on face (axis {axis}, side {side})",
            )
        _check_consistency(
            [(float(self.initial(*x)), float(self.exact(*x, 0.0)), f"{x}") for x in points],
            "initial data",
        )

    @property
    def length(self) -> float:
        """Length of a one-axis problem."""
        (length,) = self.lengths
        return length


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid: shape[k] interior nodes along axis k, spacing
    h_k = lengths[k] / (shape[k] + 1), node j at origin[k] + j h_k."""

    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self) -> None:
        if min(self.shape) < 3:
            raise ValueError(f"need n >= 3 interior nodes per axis, got {self.shape}")
        if min(self.lengths) <= 0:
            raise ValueError("length must be positive")

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / (n + 1) for n, length in zip(self.shape, self.lengths))

    @property
    def h(self) -> float:
        """Spacing of a one-axis grid."""
        (h,) = self.spacings
        return h

    def axis(self, k: int) -> "Grid":
        """The one-axis grid along axis k."""
        return Grid((self.shape[k],), (self.lengths[k],), (self.origin[k],))

    @property
    def x(self) -> "Grid":
        """The one-axis grid along x (axis 0)."""
        return self.axis(0)

    @property
    def y(self) -> "Grid":
        """The one-axis grid along y (axis 1)."""
        return self.axis(1)

    def coords(self, j, axis: int = 0) -> np.ndarray:
        """Coordinates of node index/indices j (1-based) along an axis."""
        return self.origin[axis] + np.asarray(j) * self.spacings[axis]

    def mesh(self, box: "Box") -> tuple[np.ndarray, ...]:
        """Node coordinates of a box, one array per axis, shaped to
        broadcast against each other (x[:, None], y[None, :] in 2d)."""
        nd = len(self.shape)
        return tuple(
            self.coords(np.arange(lo, hi + 1), k).reshape([-1 if a == k else 1 for a in range(nd)])
            for k, (lo, hi) in enumerate(zip(box.lo, box.hi))
        )


def make_grid_1d(n: int, length: float, origin=0.0) -> Grid:
    """One-axis grid; origin is a number or a one-axis tuple (`Problem.origin`)."""
    (x0,) = np.ravel(origin)
    return Grid((n,), (length,), (float(x0),))


def make_grid_2d(nx: int, ny: int, lengths: tuple[float, float], origin=(0.0, 0.0)) -> Grid:
    return Grid((nx, ny), tuple(lengths), tuple(origin))


@dataclass(frozen=True)
class Box:
    """Interior nodes lo[k]..hi[k] (1-based, inclusive) along each axis."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in zip(self.lo, self.hi))


def _with(values: tuple, k: int, value) -> tuple:
    return values[:k] + (value,) + values[k + 1 :]


@dataclass(frozen=True)
class Interface:
    """One directed trace dependency: `reader` needs `owner`'s values.

    The reader's edge (axis, side) borders the owner's nodes `read`, a box
    one node thick along `axis`; their values, flattened in C order, are
    the trace.
    """

    index: int
    owner: int
    reader: int
    axis: int
    side: int  # 0: low end of the reader along `axis`, 1: high end
    read: Box

    @cached_property  # drivers ask it at every level
    def size(self) -> int:
        return math.prod(self.read.shape)


@dataclass(frozen=True)
class Decomposition:
    """Overlapping tensor-product layout: pieces (axis 0 slowest) plus
    the directed interface table, ordered by reader, then by edge.

    For two pieces on one axis the classical overlap fractions are
    alpha = N_alpha / (n + 1), beta = N_beta / (n + 1) where N_alpha is
    piece 2's left read node and N_beta piece 1's right read node.
    """

    shape: tuple[int, ...]
    counts: tuple[int, ...]  # pieces per axis
    pieces: tuple[Box, ...]
    interfaces: tuple[Interface, ...]

    def overlap_fractions(self) -> tuple[float, float]:
        if self.counts != (2,):
            raise ValueError("overlap fractions are defined for two pieces")
        n_alpha = self.pieces[1].lo[0] - 1
        n_beta = self.pieces[0].hi[0] + 1
        return n_alpha / (self.shape[0] + 1), n_beta / (self.shape[0] + 1)


def _axis_pieces(n: int, p: int, widen_left: int, widen_right: int) -> list[tuple[int, int]]:
    """Split 1..n at break indices b_i = i(n+1)/p, widening internal breaks.

    The piece left of a break extends widen_right cells past it; the piece
    right of the break starts widen_left cells before it.  Break indices
    are rounded when (n + 1) is not divisible by p.
    """
    if p < 1:
        raise ValueError(f"piece count must be >= 1, got {p}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    breaks = [round(i * (n + 1) / p) for i in range(p + 1)]
    if any(b - a < 2 for a, b in zip(breaks, breaks[1:])):
        raise ValueError(
            f"{p} pieces do not fit a grid with n={n} interior nodes "
            f"(at most {(n + 1) // 2} pieces)"
        )
    pieces = []
    for i in range(1, p + 1):
        lo = 1 if i == 1 else breaks[i - 1] + 1 - widen_left
        hi = n if i == p else breaks[i] - 1 + widen_right
        pieces.append((lo, hi))
    # Feasibility: neighbors must overlap, and every read node must be
    # interior and owned by exactly the adjacent neighbor, which also keeps
    # overlaps from swallowing a whole piece.  Without an overlap the read
    # nodes miss the neighbors too, so that fault is named first.
    if any(left[1] + 1 <= right[0] - 1 for left, right in zip(pieces, pieces[1:])):
        raise ValueError("pieces do not overlap; widen the overlap strip")
    for i, (lo, hi) in enumerate(pieces):
        for node, nb, name in ((lo - 1, i - 1, "left"), (hi + 1, i + 1, "right")):
            if 0 <= nb < p and not (1 <= node <= n and pieces[nb][0] <= node <= pieces[nb][1]):
                raise ValueError(
                    f"overlap too wide: piece {i + 1} reads node {node}, "
                    f"not owned by its {name} neighbor {pieces[nb][0]}..{pieces[nb][1]}"
                )
    return pieces


def decompose(shape: Sequence[int], counts: Sequence[int], widen: tuple[int, int]) -> Decomposition:
    """Overlapping tensor-product layout with counts[k] pieces along axis k.

    Every internal break is widened by widen = (c_left, c_right) cells
    (see `_axis_pieces`).  All counts 1 yield the single-box layout with
    no interfaces.
    """
    shape, counts = tuple(shape), tuple(counts)
    if max(counts) >= 2 and min(widen) < 0:
        raise ValueError("overlap must be nonnegative")
    spans = [_axis_pieces(n, p, *widen) for n, p in zip(shape, counts)]
    cells = list(itertools.product(*(range(p) for p in counts)))  # axis 0 slowest
    position = {cell: i for i, cell in enumerate(cells)}
    pieces = tuple(
        Box(tuple(spans[k][c][0] for k, c in enumerate(cell)),
            tuple(spans[k][c][1] for k, c in enumerate(cell)))
        for cell in cells
    )
    interfaces: list[Interface] = []
    for reader, (cell, box) in enumerate(zip(cells, pieces)):
        for axis in range(len(shape)):
            for side, step, node in ((0, -1, box.lo[axis] - 1), (1, 1, box.hi[axis] + 1)):
                if 0 <= cell[axis] + step < counts[axis]:
                    interfaces.append(Interface(
                        index=len(interfaces),
                        owner=position[_with(cell, axis, cell[axis] + step)],
                        reader=reader, axis=axis, side=side,
                        read=Box(_with(box.lo, axis, node), _with(box.hi, axis, node)),
                    ))
    return Decomposition(shape=shape, counts=counts, pieces=pieces, interfaces=tuple(interfaces))


def decompose_1d(grid: Grid, p: int, delta_cells: int) -> Decomposition:
    """p pieces, each internal break widened by delta_cells on both sides
    (overlap width 2 * delta_cells * h)."""
    return decompose(grid.shape, (p,), (delta_cells, delta_cells))


def decompose_2d(nx: int, ny: int, px: int, py: int, overlap_cells: int,
                 convention: str = "full") -> Decomposition:
    """px-by-py subrectangles.  convention "half": each side of an internal
    break widens by overlap_cells (strip width 2 * overlap_cells cells);
    "full": the strip is overlap_cells wide in total, split as evenly as
    the parity allows."""
    if convention not in ("half", "full"):
        raise ValueError(f"unknown overlap convention {convention!r}")
    half = overlap_cells // 2
    widen = (overlap_cells, overlap_cells) if convention == "half" else (half, overlap_cells - half)
    return decompose((nx, ny), (px, py), widen)


@dataclass(frozen=True)
class Edge:
    """One edge of a box: the bordering node row f[index] (of shape
    `shape`, the box shape without the edge's axis) of a field or of a
    stack of fields over leading axes, its stencil weight
    nu / h_axis^2, and the coordinates `face` of the nodes beyond it that
    carry the bordering values, shaped like the row."""

    index: tuple
    shape: tuple[int, ...]
    weight: float
    face: tuple


@dataclass(frozen=True)
class BoxForcing:
    """Everything forcing assembly needs of one box that does not depend
    on t, prepared once: node coordinates and the edges in (axis, side)
    order."""

    problem: Problem
    shape: tuple[int, ...]
    mesh: tuple[np.ndarray, ...]
    edges: tuple[Edge, ...]

    def initial_state(self) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.problem.initial(*self.mesh), dtype=float), self.shape
        ).copy()


def box_forcing(problem: Problem, grid: Grid, box: Box) -> BoxForcing:
    """Prepare forcing assembly on one box of a grid."""
    mesh = grid.mesh(box)
    edges = []
    for axis, (n, h) in enumerate(zip(box.shape, grid.spacings)):
        for node, row in ((box.lo[axis] - 1, 0), (box.hi[axis] + 1, n - 1)):
            edges.append(Edge(
                index=(Ellipsis,) + _with((slice(None),) * len(box.shape), axis, row),
                shape=box.shape[:axis] + box.shape[axis + 1 :],
                weight=problem.nu / h**2,
                face=tuple(grid.coords(node, axis) if a == axis else np.squeeze(x, axis)
                           for a, x in enumerate(mesh)),
            ))
    return BoxForcing(problem=problem, shape=box.shape, mesh=mesh, edges=tuple(edges))


def _levels(t) -> tuple[int, ...]:
    """Leading shape of data at t: () at one time, (levels,) over a 1-D
    array of times."""
    lead = np.shape(t)
    if len(lead) > 1:
        raise ValueError(f"t must be one time or a 1-D array of times, got shape {lead}")
    return lead


def _sample(fn: Callable, name: str, coords: tuple, t, shape: tuple[int, ...]) -> np.ndarray:
    """fn(*coords, t) as a float array of shape (levels, *shape), or `shape`
    at one time; an array of times enters as a column against the coords.
    Data of another shape come back as a read-only broadcast view, and a
    ValueError names `name` when they do not broadcast or, over an array
    of times, raise a TypeError (scalar-only data such as math.sin(t))."""
    lead = _levels(t)
    if lead:
        t = np.asarray(t, dtype=float).reshape(lead + (1,) * len(shape))
    try:
        values = np.asarray(fn(*coords, t), dtype=float)
    except TypeError as exc:
        if not lead:
            raise
        raise ValueError(f"{name} does not take an array of times: {exc}") from exc
    if values.shape == lead + shape:
        return values
    try:
        return np.broadcast_to(values, lead + shape)
    except ValueError:
        raise ValueError(f"{name} returned shape {values.shape}, which does not broadcast "
                         f"to {lead + shape}") from None


def boundary_data(forcing: BoxForcing, edge: int, t) -> np.ndarray:
    """Physical Dirichlet data beyond one edge of a box, shaped like the
    edge's node row at one time t, or stacked to (levels, *row shape) over
    a 1-D array of times."""
    e = forcing.edges[edge]
    return _sample(forcing.problem.boundary, "boundary", e.face, t, e.shape)


def assemble_forcing(forcing: BoxForcing, t, edge_values: Sequence[np.ndarray]) -> np.ndarray:
    """Source samples f(x, t) on a box with the Dirichlet closure
    (nu / h_k^2) * bordering values folded into the edge node rows.

    t is one time, giving the box's field, or a 1-D array of times,
    giving the stack (levels, *box shape) of the fields at those times in
    one call.  edge_values: one array per edge in (axis, side) order, with
    one value per node of the edge row (flattened or in the row's shape),
    per level over an array of times; None leaves that edge's row without
    a closure term.
    """
    lead = _levels(t)
    f = np.array(_sample(forcing.problem.source, "source", forcing.mesh, t, forcing.shape))
    for e, values in zip(forcing.edges, edge_values):
        if values is not None:
            f[e.index] += e.weight * values.reshape(lead + e.shape)
    return f


def term_forcing(forcing: BoxForcing, physical: Sequence[bool]) -> np.ndarray:
    """The spatial forcing (K, *box shape) of the problem's K declared data
    terms (`Problem.terms`): per term its source part, with the closure
    (nu / h_k^2) times its boundary part folded into the rows of the edges
    flagged `physical` (one flag per edge, in (axis, side) order)."""
    terms = forcing.problem.terms
    out = np.empty((len(terms),) + forcing.shape)
    for f, (_, source, boundary) in zip(out, terms):
        f[...] = source(*forcing.mesh)
        for e, flag in zip(forcing.edges, physical):
            if flag:
                f[e.index] += e.weight * np.broadcast_to(boundary(*e.face), e.shape)
    return out


def term_factors(problem: Problem, t: np.ndarray) -> np.ndarray:
    """The time factors (K, levels) of the problem's K declared data terms
    at a 1-D array of times t; a factor that does not broadcast to t
    raises a ValueError naming its term."""
    out = np.empty((len(problem.terms), len(t)))
    for k, (factor, _, _) in enumerate(problem.terms):
        out[k] = _sample(factor, f"the factor of term {k}", (), t, ())
    return out
