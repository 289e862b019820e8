"""Time grids, single ETD steps, directly coupled steps, monodomain runs."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from letd.geometry import (
    Box,
    Problem,
    box_forcing,
    decompose_1d,
    make_grid_1d,
    make_grid_2d,
)
from letd.harness import builtin_problem
from letd.schwarz import build_local_pieces
from letd.matfunc import (
    DirichletLaplacian,
    build_laplacian_1d,
    build_laplacian_2d,
    spectral_factorization,
)
from letd.steppers import TimeGrid, make_workspace
from oracles import (
    assemble_forcing,
    boundary_data,
    dense_laplacian,
    direct_step,
    etd1_step,
    etd2_step,
    interior_nodes,
    local_index,
    one_piece_march,
)

PI2 = math.pi ** 2


def analytic_problem():
    """u = e^(pi^2 t) sin(pi (x - 0.25)) on [-1, 1], the built-in analytic_1d."""
    return builtin_problem("analytic_1d")


def local_step(ws, scheme, u_m, fc, t_now, t_next, bc_now, bc_next):
    """One step of a single box with explicit bordering values per edge."""
    f_next = assemble_forcing(fc, t_next, [np.array([v]) for v in bc_next])
    if scheme == "etd1":
        return etd1_step(ws, u_m, f_next)
    return etd2_step(ws, u_m, assemble_forcing(fc, t_now, [np.array([v]) for v in bc_now]), f_next)


def test_timegrid_basics():
    tg = TimeGrid(1.0, 4)
    assert tg.dt == 0.25
    assert tg.t(0) == 0.0 and tg.t(4) == 1.0
    assert np.allclose(tg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)


def _exact_flow(A, dt, u0, F, t0, rtol=1e-12):
    """Near-exact solution of u' = A u + F(t) over [t0, t0+dt] by quadrature
    of the variation-of-constants integral with a dense exponential."""
    lam, V = np.linalg.eigh(A)

    def integrand(s):
        phase = np.exp((dt - s) * lam)
        return V @ (phase * (V.T @ F(t0 + s)))

    integral, _ = scipy.integrate.quad_vec(integrand, 0.0, dt, epsabs=1e-14, epsrel=rtol)
    return V @ (np.exp(dt * lam) * (V.T @ u0)) + integral


def test_etd1_exact_for_constant_forcing():
    n, dt = 20, 0.37
    op = build_laplacian_1d(n, 0.8, 1.0 / (n + 1))
    ws = make_workspace(spectral_factorization(op), dt)
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(n)
    fbar = rng.standard_normal(n)
    got = etd1_step(ws, u0, fbar)
    want = _exact_flow(dense_laplacian(op), dt, u0, lambda t: fbar, 0.0)
    assert np.abs(got - want).max() < 1e-11


def test_etd2_exact_for_linear_forcing():
    n, dt = 16, 0.21
    op = build_laplacian_1d(n, 1.0, 1.0 / (n + 1))
    ws = make_workspace(spectral_factorization(op), dt)
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    F = lambda t: a + b * t
    got = etd2_step(ws, u0, F(0.0), F(dt))
    want = _exact_flow(dense_laplacian(op), dt, u0, F, 0.0)
    assert np.abs(got - want).max() < 1e-11


@pytest.mark.parametrize("scheme,order", [("etd1", 2), ("etd2", 3)])
def test_single_step_defect_order(scheme, order):
    # local truncation error shrinks by ~2^order when dt halves; the probe
    # keeps dt * ||A|| below one so the asymptotic orders are visible
    n = 12
    op = build_laplacian_1d(n, 0.01, 1.0 / (n + 1))
    fact = spectral_factorization(op)
    rng = np.random.default_rng(7)
    u0 = rng.standard_normal(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    F = lambda t: a * np.cos(3.0 * t) + b * np.sin(2.0 * t)
    defects = []
    for dt in (0.1, 0.05, 0.025):
        ws = make_workspace(fact, dt)
        if scheme == "etd1":
            got = etd1_step(ws, u0, F(dt))
        else:
            got = etd2_step(ws, u0, F(0.0), F(dt))
        want = _exact_flow(dense_laplacian(op), dt, u0, F, 0.0)
        defects.append(np.abs(got - want).max())
    rates = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert all(abs(r - order) < 0.35 for r in rates), (defects, rates)


def test_local_step_on_whole_domain_matches_monodomain_step():
    prob = analytic_problem()
    n = 63
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    dt = 0.01
    ws = make_workspace(spectral_factorization(build_laplacian_1d(n, prob.nu, grid.h)), dt)
    lay = decompose_1d(grid, 1, 0)
    u0 = prob.initial(interior_nodes(grid))
    bc = lambda t: (float(prob.boundary(-1.0, t)), float(prob.boundary(1.0, t)))
    fc = box_forcing(prob, grid, lay.pieces[0])
    one = local_step(ws, "etd2", u0, fc, 0.0, dt, bc(0.0), bc(dt))
    traj = one_piece_march(prob, grid, TimeGrid(dt, 1), "etd2")
    assert np.abs(one - traj[1]).max() < 1e-12


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_coupled_step_is_a_fixed_point_of_local_steps(scheme):
    prob = analytic_problem()
    n = 127
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 6)
    p1, p2 = lay.pieces
    dt = 0.01
    ws1 = make_workspace(spectral_factorization(build_laplacian_1d(p1.shape[0], prob.nu, grid.h)), dt)
    ws2 = make_workspace(spectral_factorization(build_laplacian_1d(p2.shape[0], prob.nu, grid.h)), dt)
    xs = interior_nodes(grid)
    u1 = prob.initial(xs[p1.lo[0] - 1:p1.hi[0]])
    u2 = prob.initial(xs[p2.lo[0] - 1:p2.hi[0]])
    v1, v2 = direct_step(build_local_pieces(prob, grid, lay, dt), lay.interfaces, [u1, u2],
                         0.0, dt, scheme)
    # re-run each local step feeding the solved interface values back in
    s_b = v2[local_index(p2, (p1.hi[0] + 1,))]
    s_a = v1[local_index(p1, (p2.lo[0] - 1,))]
    bl, br = float(prob.boundary(-1.0, dt)), float(prob.boundary(1.0, dt))
    bc1_now = (float(prob.boundary(-1.0, 0.0)), float(u2[local_index(p2, (p1.hi[0] + 1,))]))
    bc2_now = (float(u1[local_index(p1, (p2.lo[0] - 1,))]), float(prob.boundary(1.0, 0.0)))
    r1 = local_step(ws1, scheme, u1, box_forcing(prob, grid, p1), 0.0, dt, bc1_now, (bl, s_b))
    r2 = local_step(ws2, scheme, u2, box_forcing(prob, grid, p2), 0.0, dt, bc2_now, (s_a, br))
    scale = max(np.abs(v1).max(), np.abs(v2).max())
    assert np.abs(r1 - v1).max() < 1e-13 * scale
    assert np.abs(r2 - v2).max() < 1e-13 * scale


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_steady_linear_profile_is_a_fixed_point(scheme):
    # constant boundary data, zero source: the linear interpolant profile
    # solves A u + F = 0 and must be preserved by either scheme
    n = 41
    psi1, psi2 = 2.5, -1.0
    line = lambda x: psi1 + (psi2 - psi1) * np.asarray(x, dtype=float)
    prob = Problem(
        nu=1.3, lengths=(1.0,), horizon=1.0, initial=line,
        terms=((lambda t: 1.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)), line),),
    )
    grid = make_grid_1d(n, 1.0)
    ws = make_workspace(spectral_factorization(build_laplacian_1d(n, prob.nu, grid.h)), 0.05)
    j = np.arange(1, n + 1)
    profile = ((n + 1 - j) * psi1 + j * psi2) / (n + 1)
    lay = decompose_1d(grid, 1, 0)
    out = local_step(ws, scheme, profile, box_forcing(prob, grid, lay.pieces[0]),
                     0.0, 0.05, (psi1, psi2), (psi1, psi2))
    assert np.abs(out - profile).max() < 1e-12


def test_boundary_driven_solution_obeys_interpolant_bound():
    # zero source and zero start: |u_m(j)| stays below the linear interpolant
    # of the boundary-data sup-norms
    n, steps = 31, 40
    rng = np.random.default_rng(9)
    c1, c2 = rng.uniform(0.5, 2.0, 2)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    prob = Problem(
        nu=1.0, lengths=(1.0,), horizon=2.0, initial=zero,
        terms=((lambda t: c1 * np.sin(3.0 * t) ** 2, zero, lambda x: 1.0 - x),
               (lambda t: c2 * (1.0 - np.cos(2.0 * t)) / 2.0, zero, lambda x: x)),
    )
    grid = make_grid_1d(n, 1.0)
    tg = TimeGrid(2.0, steps)
    sup1 = max(abs(prob.boundary(0.0, t)) for t in tg.times())
    sup2 = max(abs(prob.boundary(1.0, t)) for t in tg.times())
    j = np.arange(1, n + 1)
    bound = ((n + 1 - j) * sup1 + j * sup2) / (n + 1)
    for scheme in ("etd1", "etd2"):
        traj = one_piece_march(prob, grid, tg, scheme)
        assert (np.abs(traj) <= bound[None, :] + 1e-12).all()


def test_propagator_nonnegative_and_substochastic_small():
    for n in (5, 16, 33):
        op = build_laplacian_1d(n, 1.0, 1.0 / (n + 1))
        for t in (1e-3, 0.05, 1.0):
            E = scipy.linalg.expm(t * dense_laplacian(op))
            assert E.min() >= -1e-14
            assert E.sum(axis=1).max() <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None, database=None)
@given(shape=st.lists(st.integers(1, 24), min_size=1, max_size=2).map(tuple),
       length=st.floats(0.5, 4.0), nu=st.floats(0.01, 10.0), dt=st.floats(1e-4, 1.0))
def test_step_kernels_are_nonnegative_in_physical_space(shape, length, nu, dt):
    # maximum principle: the solver's own exp, dt phi1 and dt phi2 kernels,
    # applied through the sine transforms to every unit vector, give
    # nonnegative matrices up to transform round-off
    fact = spectral_factorization(
        DirichletLaplacian(shape, nu, tuple(length / (n + 1) for n in shape)))
    ws = make_workspace(fact, dt)
    units = np.eye(math.prod(shape)).reshape((-1,) + shape)
    for kernel in (ws.exp_kernel, ws.phi1_kernel, ws.phi2_kernel):
        columns = fact.from_modes(kernel * fact.to_modes(units))
        assert columns.min() >= -1e-13 * np.abs(columns).max()


@pytest.mark.parametrize("scheme,target", [("etd1", 1.0), ("etd2", 2.0)])
def test_monodomain_observed_temporal_order(scheme, target):
    # the grid is fine enough that the spatial defect stays below the
    # temporal error across the sweep
    prob = analytic_problem()
    n = 511
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    xs = interior_nodes(grid)
    errs = []
    for steps in (10, 20, 40):
        tg = TimeGrid(prob.horizon, steps)
        traj = one_piece_march(prob, grid, tg, scheme)
        exact = prob.exact(xs[None, :], tg.times()[:, None])
        errs.append(np.abs(traj - exact).max() / np.abs(exact).max())
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(r - target) < 0.25 for r in rates), (errs, rates)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("dim", [1, 2])
def test_monodomain_final_only_keeps_the_end_levels_bitwise(dim, scheme):
    if dim == 1:
        prob = analytic_problem()
        grid = make_grid_1d(63, prob.length, origin=prob.origin)
    else:
        prob = builtin_problem("analytic_2d")
        grid = make_grid_2d(15, 12, prob.lengths)
    tg = TimeGrid(prob.horizon, 9)
    full = one_piece_march(prob, grid, tg, scheme)
    kept = one_piece_march(prob, grid, tg, scheme, final_only=True)
    assert kept.shape == (2,) + grid.shape
    assert np.array_equal(kept, [full[0], full[-1]])


def test_monodomain_2d_single_step_matches_dense_exponential():
    prob = builtin_problem("analytic_2d")
    nx, ny = 7, 6
    grid = make_grid_2d(nx, ny, prob.lengths)
    dt = 0.02
    op = build_laplacian_2d(nx, ny, prob.nu, grid.x.h, grid.y.h)
    traj = one_piece_march(prob, grid, TimeGrid(dt, 1), "etd1")

    full = box_forcing(prob, grid, Box((1, 1), (nx, ny)))
    F = assemble_forcing(full, dt, [boundary_data(full, k, dt) for k in range(4)])
    A = dense_laplacian(op)
    lam, V = np.linalg.eigh(A)
    u0 = traj[0].ravel()
    Eu = V @ (np.exp(dt * lam) * (V.T @ u0))
    phi1 = V @ (dt * np.where(np.abs(dt * lam) > 1e-8,
                              np.expm1(dt * lam) / np.where(lam == 0, 1, dt * lam),
                              1.0) * (V.T @ F.ravel()))
    want = (Eu + phi1).reshape(nx, ny)
    assert np.abs(traj[1] - want).max() < 1e-11


def _eigh_etd2_final(prob, grid, tg):
    """ETD2 monodomain march without sine transforms: dense eigh of the two
    1d Laplacians, forcing with the five-point boundary closure built here,
    and the tensorized recursion in the eigenbasis.  Returns the final field."""
    xs, ys = interior_nodes(grid, 0), interior_nodes(grid, 1)
    (nx, ny), (hx, hy) = grid.shape, grid.spacings
    lx, vx = np.linalg.eigh(dense_laplacian(build_laplacian_1d(nx, prob.nu, hx)))
    ly, vy = np.linalg.eigh(dense_laplacian(build_laplacian_1d(ny, prob.nu, hy)))
    # |z| >= 7e-3 on the grids used here, so the expm1 forms lose < 1e-13
    z = tg.dt * (lx[:, None] + ly[None, :])
    em1 = np.expm1(z)
    phi1 = tg.dt * em1 / z
    phi2 = tg.dt * (em1 - z) / (z * z)
    wx, wy = prob.nu / hx**2, prob.nu / hy**2
    x0, x1 = grid.coords(0, 0), grid.coords(nx + 1, 0)
    y0, y1 = grid.coords(0, 1), grid.coords(ny + 1, 1)

    def forcing_modes(t):
        f = prob.source(xs[:, None], ys[None, :], t).copy()
        f[0, :] += wx * prob.boundary(x0, ys, t)
        f[-1, :] += wx * prob.boundary(x1, ys, t)
        f[:, 0] += wy * prob.boundary(xs, y0, t)
        f[:, -1] += wy * prob.boundary(xs, y1, t)
        return vx.T @ f @ vy

    u = vx.T @ prob.initial(xs[:, None], ys[None, :]) @ vy
    f_now = forcing_modes(0.0)
    for m in range(tg.steps):
        f_next = forcing_modes(tg.t(m + 1))
        u = (em1 + 1.0) * u + phi1 * f_now + phi2 * (f_next - f_now)
        f_now = f_next
    return vx @ u @ vy.T


def test_monodomain_2d_etd2_fine_grid_matches_eigh_route_and_is_second_order():
    # the analytic_2d recipe of the n = 127 CLI example: its 4.99e-5 floor is
    # spatial, so the final-time error falls 4x per halving of h = pi/(n+1)
    prob = builtin_problem("analytic_2d")
    tg = TimeGrid(0.5, 128)
    errs = []
    for n in (31, 63, 127):
        grid = make_grid_2d(n, n, prob.lengths)
        u = one_piece_march(prob, grid, tg, "etd2")[-1]
        exact = prob.exact(interior_nodes(grid, 0)[:, None], interior_nodes(grid, 1)[None, :], 0.5)
        errs.append(np.abs(u - exact).max())
    want = _eigh_etd2_final(prob, grid, tg)
    assert np.abs(u - want).max() < 1e-12 * np.abs(u).max()
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(3.8 <= r <= 4.2 for r in ratios), (errs, ratios)
