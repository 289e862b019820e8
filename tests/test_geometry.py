"""Grids, overlapping layouts, interface bookkeeping, problem data and the
forcing of its terms."""
import dataclasses
import math

import numpy as np
import pytest

from letd.geometry import (
    Box,
    Grid,
    Problem,
    box_forcing,
    decompose_1d,
    decompose_2d,
    make_grid_1d,
    make_grid_2d,
    term_factors,
    term_forcing,
)
from oracles import (
    assemble_forcing,
    boundary_data,
    interior_nodes,
    overlap_fractions,
    theoretical_rate,
)


def zeros1(x, t=None):
    return np.zeros_like(np.asarray(x, dtype=float))


def make_problem_1d(**kw):
    base = dict(nu=1.0, lengths=(2.0,), horizon=1.0, initial=zeros1, terms=())
    base.update(kw)
    return Problem(**base)


def test_grid_spacing_and_coordinates():
    g = make_grid_1d(255, 2.0)
    assert g.h == pytest.approx(2.0 / 256)
    assert g.coords(0) == 0.0
    assert g.coords(256) == pytest.approx(2.0)
    assert np.allclose(interior_nodes(g), np.arange(1, 256) * 2.0 / 256)
    shifted = make_grid_1d(3, 2.0, origin=-1.0)
    assert shifted.coords(0) == -1.0
    assert shifted.coords(2) == pytest.approx(0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid_1d(2, 1.0)
    with pytest.raises(ValueError):
        make_grid_1d(8, -1.0)


def test_two_piece_layout_on_256_cell_grid():
    # 255 interior nodes, split at node 128, widened by 8 cells per side
    g = make_grid_1d(255, 2.0)
    lay = decompose_1d(g, 2, 8)
    assert (lay.pieces[0].lo[0], lay.pieces[0].hi[0]) == (1, 135)
    assert (lay.pieces[1].lo[0], lay.pieces[1].hi[0]) == (121, 255)
    reads = {i.reader: i.read.lo[0] for i in lay.interfaces}
    assert reads[0] == 136 and reads[1] == 120
    alpha, beta = overlap_fractions(lay)
    assert alpha == pytest.approx(120 / 256)
    assert beta == pytest.approx(136 / 256)


def test_interfaces_are_directed_and_sized():
    g = make_grid_1d(255, 2.0)
    lay = decompose_1d(g, 4, 4)
    assert len(lay.interfaces) == 6  # two per internal break
    for itf in lay.interfaces:
        node = itf.read.lo[0]
        owner = lay.pieces[itf.owner]
        assert owner.lo[0] <= node <= owner.hi[0]
        assert itf.size == 1
        assert itf.owner != itf.reader


def test_rounded_break_indices_when_not_divisible():
    g = make_grid_1d(100, 1.0)  # 101 cells across 2 pieces -> break at 50 or 51
    lay = decompose_1d(g, 2, 3)
    assert lay.pieces[0].hi[0] - lay.pieces[1].lo[0] == 2 * 3 - 2  # overlap interior width
    union = set()
    for p in lay.pieces:
        union.update(range(p.lo[0], p.hi[0] + 1))
    assert union == set(range(1, 101))


def test_single_piece_layout_is_trivial():
    g = make_grid_1d(31, 1.0)
    lay = decompose_1d(g, 1, 0)
    assert len(lay.interfaces) == 0
    assert (lay.pieces[0].lo[0], lay.pieces[0].hi[0]) == (1, 31)


def test_layout_feasibility_errors():
    g = make_grid_1d(31, 1.0)
    with pytest.raises(ValueError):
        decompose_1d(g, 2, 0)       # pieces would not overlap
    with pytest.raises(ValueError):
        decompose_1d(g, 2, 16)      # read node leaves the neighbor
    with pytest.raises(ValueError):
        decompose_1d(g, 40, 1)      # more pieces than cells


@pytest.mark.parametrize("n,p", [(3, 4), (3, 3), (31, 17), (31, 40)])
def test_too_many_pieces_are_rejected_by_count_not_by_overlap(n, p):
    # a piece needs a node of its own between two breaks, so n interior
    # nodes hold at most (n + 1) // 2 pieces, whatever the overlap
    g = make_grid_1d(n, 1.0)
    for delta in (1, 8):
        with pytest.raises(ValueError, match=rf"^{p} pieces do not fit a grid with n={n} "):
            decompose_1d(g, p, delta)
    assert len(decompose_1d(g, (n + 1) // 2, 1).pieces) == (n + 1) // 2


def test_too_wide_overlap_is_reported_for_pieces_that_fit():
    g = make_grid_1d(31, 1.0)
    with pytest.raises(ValueError, match=r"^overlap too wide: piece 1 reads node 32, "):
        decompose_1d(g, 2, 16)


LAYOUTS_BY_OVERLAP = {
    "1d": lambda cells: decompose_1d(make_grid_1d(31, 1.0), 2, cells),
    "2d-full": lambda cells: decompose_2d(15, 12, 2, 2, cells, "full"),
    "2d-half": lambda cells: decompose_2d(15, 12, 2, 2, cells, "half"),
}


@pytest.mark.parametrize("kind", LAYOUTS_BY_OVERLAP)
def test_layout_errors_name_a_missing_and_a_too_wide_overlap(kind):
    # without an overlap the read nodes also miss the neighbors; the
    # missing overlap is the fault to name
    layout = LAYOUTS_BY_OVERLAP[kind]
    with pytest.raises(ValueError, match=r"^pieces do not overlap; widen the overlap strip$"):
        layout(0)
    with pytest.raises(ValueError, match=r"^overlap too wide: piece 1 reads node \d+, "):
        layout(40)
    assert len(layout(1).interfaces) >= 2


def test_contraction_factor_formula():
    assert theoretical_rate(0.25, 0.75) == pytest.approx((0.25 * 0.25) / (0.75 * 0.75))
    g = make_grid_1d(255, 2.0)
    alpha, beta = overlap_fractions(decompose_1d(g, 2, 8))
    kappa = theoretical_rate(alpha, beta)
    assert kappa == pytest.approx(alpha * (1 - beta) / (beta * (1 - alpha)))
    with pytest.raises(ValueError):
        theoretical_rate(0.5, 0.5)
    with pytest.raises(ValueError):
        theoretical_rate(-0.1, 0.5)


def test_2d_full_convention_strip_width():
    lay = decompose_2d(127, 127, 2, 2, 9, convention="full")
    xp = [r for r in lay.pieces if r.lo[1] == 1]  # the pieces of the first y row
    # cells between the two subdomain boundary faces equal the overlap size:
    # left piece ends at node hi (face hi+1), right piece starts at lo (face lo-1)
    left, right = xp[0], xp[1]
    assert left.hi[0] - right.lo[0] + 2 == 9
    lay_h = decompose_2d(127, 127, 2, 2, 9, convention="half")
    xp_h = [r for r in lay_h.pieces if r.lo[1] == 1]
    assert xp_h[0].hi[0] - xp_h[1].lo[0] + 2 == 18


def test_2d_interfaces_read_inside_owner():
    lay = decompose_2d(64, 48, 3, 2, 4, convention="full")
    assert len(lay.pieces) == 6
    for itf in lay.interfaces:
        xr, yr = zip(itf.read.lo, itf.read.hi)
        owner = lay.pieces[itf.owner]
        assert owner.lo[0] <= xr[0] <= xr[1] <= owner.hi[0]
        assert owner.lo[1] <= yr[0] <= yr[1] <= owner.hi[1]
        reader = lay.pieces[itf.reader]
        if itf.axis == 0:
            assert itf.size == reader.shape[1]
        else:
            assert itf.size == reader.shape[0]


def test_2d_single_rect_has_no_interfaces():
    lay = decompose_2d(16, 16, 1, 1, 0)
    assert len(lay.pieces) == 1 and len(lay.interfaces) == 0


def test_2d_unknown_convention_rejected():
    with pytest.raises(ValueError):
        decompose_2d(16, 16, 2, 2, 3, convention="wide")


def test_forcing_assembly_adds_scaled_boundary_values():
    # source x + t: the terms 1 times x and t times 1
    prob = make_problem_1d(terms=((lambda t: 1.0, lambda x: np.asarray(x, dtype=float), zeros1),
                                  (lambda t: t, lambda x: np.ones_like(x), zeros1)))
    g = make_grid_1d(7, 2.0)
    w = prob.nu / g.h**2
    f = assemble_forcing(box_forcing(prob, g, Box((2,), (5,))), 0.5,
                         [np.array([3.0]), np.array([-2.0])])
    xs = g.coords(np.arange(2, 6))
    want = xs + 0.5
    want = want.copy()
    want[0] += w * 3.0
    want[-1] += w * (-2.0)
    assert np.allclose(f, want)


def test_forcing_assembly_2d_edges_and_corners():
    prob = Problem(nu=2.0, lengths=(1.0, 1.0), horizon=1.0,
                   initial=lambda x, y: np.zeros(np.broadcast(x, y).shape), terms=())
    g = make_grid_2d(4, 3, (1.0, 1.0))
    lay = decompose_2d(4, 3, 1, 1, 0)
    rect = lay.pieces[0]
    wx = prob.nu / g.x.h**2
    wy = prob.nu / g.y.h**2
    left = np.full(3, 1.0)
    right = np.full(3, 2.0)
    bottom = np.full(4, 5.0)
    top = np.full(4, 7.0)
    f = assemble_forcing(box_forcing(prob, g, rect), 0.0, [left, right, bottom, top])
    assert f[1, 1] == 0.0
    assert f[0, 1] == pytest.approx(wx * 1.0)
    assert f[-1, 1] == pytest.approx(wx * 2.0)
    assert f[1, 0] == pytest.approx(wy * 5.0)
    assert f[1, -1] == pytest.approx(wy * 7.0)
    assert f[0, 0] == pytest.approx(wx * 1.0 + wy * 5.0)  # corner gets both
    assert f[-1, -1] == pytest.approx(wx * 2.0 + wy * 7.0)


def test_problem_validation_rejects_bad_scalars():
    with pytest.raises(ValueError):
        make_problem_1d(nu=0.0)
    with pytest.raises(ValueError):
        make_problem_1d(lengths=(-1.0,))
    with pytest.raises(ValueError):
        make_problem_1d(horizon=0.0)


def test_problem_checks_exact_against_data():
    # claimed exact solution must agree with initial and boundary samples
    with pytest.raises(ValueError):
        make_problem_1d(exact=lambda x, t: np.ones_like(np.asarray(x, dtype=float)))
    ok = make_problem_1d(exact=lambda x, t: zeros1(x))
    assert ok.exact is not None


def declared(dim, **kw):
    """u = e^-t sin(x + 0.3) (times cos(y - 0.1) in 2d) on a shifted box,
    with its data as one separable term, e^-t times a source part and a
    boundary part `mode`, and u its exact solution; returns the problem
    and `mode`."""
    if dim == 1:
        mode = lambda x: np.sin(x + 0.3)
        source = lambda x: -0.5 * mode(x)
        base = dict(nu=0.5, lengths=(2.0,), horizon=0.7, origin=(-1.0,))
    else:
        mode = lambda x, y: np.sin(x + 0.3) * np.cos(y - 0.1)
        source = lambda x, y: 0.0 * mode(x, y)
        base = dict(nu=0.5, lengths=(1.5, 2.0), horizon=0.7, origin=(0.5, -0.25))
    base.update(initial=mode, exact=lambda *xt: np.exp(-xt[-1]) * mode(*xt[:-1]),
                terms=((lambda t: np.exp(-t), source, mode),))
    base.update(kw)
    return Problem(**base), mode


def manufactured(dim, **kw):
    """The problem of `declared`."""
    return declared(dim, **kw)[0]


FACES = [(1, 0, 0), (1, 0, 1), (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)]


@pytest.mark.parametrize("dim,axis,side", FACES, ids=[f"{d}d-axis{a}-side{s}" for d, a, s in FACES])
def test_problem_check_catches_boundary_data_off_on_one_face(dim, axis, side):
    prob, mode = declared(dim)  # the unaltered problem passes the check
    (factor, source, _), = prob.terms
    edge = prob.origin[axis] + side * prob.lengths[axis]
    off = lambda *x: mode(*x) + 1e-6 * np.isclose(x[axis], edge)
    with pytest.raises(ValueError, match="boundary data"):
        manufactured(dim, terms=((factor, source, off),))


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_problem_check_catches_initial_data_off_by_1e_6(dim):
    prob = manufactured(dim)
    with pytest.raises(ValueError, match="initial data"):
        manufactured(dim, initial=lambda *x: prob.initial(*x) + 1e-6)


TIMES = np.array([0.0, 0.1, 0.35, 0.7])
# per edge in (axis, side) order: physical data, or a trace edge
PHYSICAL = (True, False, False, True)


def _forcing_box(dim, **kw):
    prob = manufactured(dim, **kw)
    if dim == 1:
        grid, box = Grid((9,), prob.lengths, prob.origin), Box((2,), (6,))
    else:
        grid, box = Grid((7, 6), prob.lengths, prob.origin), Box((2, 1), (5, 4))
    return box_forcing(prob, grid, box)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_term_forcing_times_its_factors_is_the_assembled_forcing(dim):
    # per term the source part with the boundary part folded into the
    # physical edges' rows, as the oracle's assemble_forcing folds
    # `Problem.source` and `boundary` at each time: within 1e-15 of the max
    # (measured at most 3.0e-16)
    prob, _ = declared(dim)
    fc = _forcing_box(dim, terms=prob.terms)
    physical = PHYSICAL[: 2 * dim]
    terms = term_forcing(fc, physical)
    factors = term_factors(fc.problem, TIMES)
    assert terms.shape == (1,) + fc.shape and factors.shape == (1, len(TIMES))
    want = np.stack([assemble_forcing(fc, t, [boundary_data(fc, k, t) if flag else None
                                              for k, flag in enumerate(physical)])
                     for t in TIMES.tolist()])
    got = np.tensordot(factors, terms, axes=(0, 0))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("dim,axis,side", FACES, ids=[f"{d}d-axis{a}-side{s}" for d, a, s in FACES])
def test_term_forcing_folds_the_boundary_part_into_one_face_alone(dim, axis, side):
    # with one physical edge, only that edge's rows take the closure times
    # the boundary part, and the result is the oracle's fold of
    # `Problem.boundary` there: within 1e-15 of the max
    fc = _forcing_box(dim)
    k = 2 * axis + side
    physical = [j == k for j in range(2 * dim)]
    folded = term_forcing(fc, physical)
    bare = term_forcing(fc, [False] * (2 * dim))
    rows = np.zeros(fc.shape, dtype=bool)
    rows[fc.edges[k].index] = True
    assert np.array_equal(folded[:, ~rows], bare[:, ~rows])
    assert np.all(folded[:, rows] != bare[:, rows])
    want = np.stack([assemble_forcing(fc, t, [boundary_data(fc, k, t) if flag else None
                                              for k, flag in enumerate(physical)])
                     for t in TIMES.tolist()])
    got = np.tensordot(term_factors(fc.problem, TIMES), folded, axes=(0, 0))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("factor", ["reads_t", "ignores_t"])
def test_forcing_over_an_array_of_times_is_the_stack_of_per_time_calls(dim, factor):
    # with a second term whose factor reads t or ignores it, the factors
    # over an array of times are, bit for bit, those of one time at a time
    prob, mode = declared(dim)
    second = {"reads_t": lambda t: 1.0 + t, "ignores_t": lambda t: 2.0}[factor]
    two = dataclasses.replace(prob, exact=None, terms=prob.terms + ((second, mode, mode),))
    factors = term_factors(two, TIMES)
    assert factors.shape == (2, len(TIMES))
    per_time = [term_factors(two, np.array([t])) for t in TIMES.tolist()]
    assert np.array_equal(factors, np.concatenate(per_time, axis=1))
    assert np.array_equal(factors[1], [second(t) for t in TIMES.tolist()])
    assert factors[0] == pytest.approx(np.exp(-TIMES), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_problem_check_catches_a_factor_off_by_1e_6(dim):
    # the boundary data the check reads are the sums of the terms, so a
    # factor off the exact solution's shows on the faces for t > 0
    prob, mode = declared(dim)
    (_, source, _), = prob.terms
    with pytest.raises(ValueError, match=r"^boundary data on face \(axis 0, side 0\)"):
        manufactured(dim, terms=((lambda t: np.exp(-t) + 1e-6 * t, source, mode),))


def test_a_factor_that_does_not_take_an_array_of_times_is_named():
    # math.exp serves the check, which samples one time at a time
    prob, _ = declared(1)
    (_, source, mode), = prob.terms
    scalar = dataclasses.replace(prob, terms=((lambda t: math.exp(-t), source, mode),))
    with pytest.raises(ValueError, match="the factor of term 0 does not take an array of times"):
        term_factors(scalar, TIMES)


def test_a_constant_factor_broadcasts_and_a_misshapen_one_is_named():
    # a factor may ignore t; one that returns neither one value per time
    # nor one value is named, as one that does not take an array is
    prob, mode = declared(1)
    (_, source, _), = prob.terms
    constant = dataclasses.replace(prob, exact=None, terms=((lambda t: 1.0, source, mode),))
    assert np.array_equal(term_factors(constant, TIMES), np.ones((1, len(TIMES))))
    misshapen = dataclasses.replace(constant, terms=((lambda t: np.ones(3), source, mode),))
    with pytest.raises(ValueError, match="the factor of term 0 does not take an array of times"):
        term_factors(misshapen, TIMES)


def test_problem_data_are_the_sums_of_their_terms():
    # source and boundary add factor times part over the terms, in term
    # order; without terms the data are zero
    prob = make_problem_1d(terms=((lambda t: 2.0 + t, np.sin, np.cos), (np.exp, np.cos, np.sin)))
    x = np.linspace(0.0, 2.0, 5)
    assert np.array_equal(prob.source(x, 0.5), 2.5 * np.sin(x) + np.exp(0.5) * np.cos(x))
    assert np.array_equal(prob.boundary(x, 0.5), 2.5 * np.cos(x) + np.exp(0.5) * np.sin(x))
    assert make_problem_1d().source(x, 0.5) == 0.0 and make_problem_1d().boundary(x, 0.5) == 0.0
