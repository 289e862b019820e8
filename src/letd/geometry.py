"""Problem data, grids, overlapping decompositions, and the forcing of
separable data.

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

A problem states its data as separable terms (`Problem.terms`): source
and boundary data are sums of time factors times functions of space.
Each term's spatial forcing is assembled on a box once (`term_forcing`):
its source part plus (nu / h_k^2) times its boundary part on the first
and last node row along every axis k whose edge is physical.  Corners
receive contributions from both adjacent edges, as the five-point stencil
requires.  With a tensor-product layout every edge is either entirely
physical or entirely interior; an interior edge's values, a neighbor's
trace, enter in sine-mode space (`letd.schwarz`).  The factors are taken
at an array of times (`term_factors`), so that a solver forms the forcing
at a time from them, with no call of a data function per level.
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
    "term_forcing",
    "term_factors",
]


def _check_consistency(pairs, what: str) -> None:
    """Raise a ValueError naming `what` at the first pair that differs from
    the exact solution by more than round-off; two NaNs agree."""
    for got, want, where in pairs:
        tol = 1e-12 * (1.0 + abs(want))
        if not (abs(got - want) <= tol or math.isnan(got) and math.isnan(want)):
            raise ValueError(
                f"{what} disagrees with the exact solution at {where}: "
                f"{got!r} vs {want!r}"
            )


@dataclass(frozen=True)
class Problem:
    """Diffusion problem u_t = nu (sum_k u_{x_k x_k}) + f on the box
    origin[k] <= x_k <= origin[k] + lengths[k], one axis per entry.

    terms states the source and boundary data: a tuple of (factor(t),
    source(*x), boundary(*x)) triples, () for zero data, with source =
    sum of factor * source_k and boundary = sum of factor * boundary_k.  A
    factor takes one time or a 1-D array of times; the parts, initial(*x)
    and exact(*x, t) take one coordinate per axis and must broadcast over
    numpy arrays.  Data that are not separable must be written as such a
    sum.  The drivers transform each term's spatial forcing once per run
    and assemble no forcing per level.  When an exact solution is
    supplied, the boundary data is checked against it on every face at
    five times and the initial data at seven interior points.
    """

    nu: float
    lengths: tuple[float, ...]
    horizon: float
    initial: Callable
    terms: tuple
    exact: Optional[Callable] = None
    origin: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", tuple(self.origin) or (0.0,) * len(self.lengths))
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.origin) != len(self.lengths):
            raise ValueError(f"origin {self.origin} and lengths {self.lengths} differ in axes")
        if self.nu <= 0 or min(self.lengths) <= 0 or self.horizon <= 0:
            raise ValueError("nu, lengths and horizon must be positive")
        if self.exact is None:
            return
        d = len(self.lengths)
        at = lambda fractions: tuple(o + f * l for o, f, l in zip(self.origin, fractions, self.lengths))
        times = np.linspace(0.0, self.horizon, 5)
        for axis, side in itertools.product(range(d), (0, 1)):
            face = at(_with((0.3 + 0.4 * side,) * d, axis, side))
            _check_consistency(
                [(float(self.boundary(*face, t)), float(self.exact(*face, t)), f"{face}, t={t}")
                 for t in times],
                f"boundary data on face (axis {axis}, side {side})",
            )
        _check_consistency(
            [(float(self.initial(*x)), float(self.exact(*x, 0.0)), f"{x}")
             for x in (at((f,) * d) for f in np.linspace(0.1, 0.9, 7).tolist())],
            "initial data",
        )

    def source(self, *xt):
        """The source f(*x, t): the sum over the terms of factor(t) times
        their source part at x."""
        *x, t = xt
        return sum((factor(t) * part(*x) for factor, part, _ in self.terms), 0.0)

    def boundary(self, *xt):
        """The boundary data at (*x, t), x on a face: the sum over the terms
        of factor(t) times their boundary part at x."""
        *x, t = xt
        return sum((factor(t) * part(*x) for factor, _, part in self.terms), 0.0)

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
    the directed interface table, ordered by reader, then by edge."""

    shape: tuple[int, ...]
    counts: tuple[int, ...]  # pieces per axis
    pieces: tuple[Box, ...]
    interfaces: tuple[Interface, ...]


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


def term_forcing(forcing: BoxForcing, physical: Sequence[bool]) -> np.ndarray:
    """The spatial forcing (K, *box shape) of the problem's K data terms
    (`Problem.terms`): per term its source part, with the closure
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
    """The time factors (K, levels) of the problem's K data terms at a 1-D
    array of times t; a factor that does not map t to one value per time,
    or to one value, raises a ValueError naming its term."""
    out = np.empty((len(problem.terms), len(t)))
    for k, (factor, _, _) in enumerate(problem.terms):
        try:
            out[k] = factor(t)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"the factor of term {k} does not take an array of times: {exc}") from exc
    return out
