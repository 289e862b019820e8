"""Iterative drivers: per-step interface iteration and waveform relaxation."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dstn

from letd import schwarz
from letd.geometry import Problem, decompose_1d, decompose_2d, make_grid_1d, make_grid_2d
from letd.harness import ExperimentConfig, builtin_problem, run_experiment
from letd.matfunc import (
    DirichletLaplacian,
    SpectralFactorization,
    build_laplacian_1d,
    spectral_factorization,
)
from letd.schwarz import (
    Level,
    SolverConfig,
    build_local_pieces,
    initial_traces,
    method1_advance,
    method1_march,
    method2_solve,
    random_trace_guess,
    superlinear_bound,
    theoretical_rate,
)
from letd.steppers import TimeGrid, make_workspace, run_monodomain
from oracles import direct_step, direct_window_traces, expm_dense, field_window_sweep

PI2 = math.pi ** 2


def zero_problem(horizon=1.0):
    z = lambda x, t=None: np.zeros_like(np.asarray(x, dtype=float))
    return Problem(
        nu=1.0, lengths=(2.0,), horizon=horizon,
        source=lambda x, t: z(x),
        boundary=lambda x, t: z(x),
        initial=z, exact=lambda x, t: z(x),
    )


def analytic_problem():
    u = lambda x, t: np.exp(PI2 * t) * np.sin(np.pi * (x - 0.25))
    return Problem(
        nu=1.0, lengths=(2.0,), horizon=0.25,
        source=lambda x, t: 2.0 * PI2 * u(x, t),
        boundary=u,
        initial=lambda x: u(x, 0.0),
        exact=u, origin=(-1.0,),
    )


def zero_reference(interfaces, steps=None):
    if steps is None:
        return [np.zeros(i.size) for i in interfaces]
    return [np.zeros((steps + 1, i.size)) for i in interfaces]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(scheme="rk4")
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=math.nan)  # no update is ever below it
    with pytest.raises(ValueError):
        SolverConfig(fixed_iterations=0)  # a fixed budget needs a sweep
    with pytest.raises(ValueError):
        SolverConfig(window_steps=0)
    cfg = SolverConfig(fixed_iterations=7)
    assert cfg.budget == 7


def test_random_trace_guess_properties():
    g = make_grid_1d(63, 2.0)
    lay = decompose_1d(g, 2, 2)
    a = random_trace_guess(lay.interfaces, seed=3)
    b = random_trace_guess(lay.interfaces, seed=3)
    c = random_trace_guess(lay.interfaces, seed=4)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    for x in a:
        assert ((x > 0) & (x < 1)).all()
    t = random_trace_guess(lay.interfaces, seed=0, steps=10)
    assert all(x.shape == (11, 1) for x in t)


def test_zero_guess_on_zero_problem_converges_immediately():
    prob = zero_problem()
    grid = make_grid_1d(127, prob.length)
    lay = decompose_1d(grid, 2, 4)
    pieces = build_local_pieces(prob, grid, lay, 0.01)
    cfg = SolverConfig(scheme="etd1", tolerance=1e-8)
    states = [p.u0 for p in pieces]
    new_states, log = method1_advance(pieces, lay.interfaces, states, 0.0, 0.01, cfg)
    assert log.converged and log.iterations == 1
    for s in new_states:
        assert np.abs(s).max() == 0.0


def test_fixed_mode_runs_exactly_the_budget():
    prob = zero_problem()
    grid = make_grid_1d(127, prob.length)
    lay = decompose_1d(grid, 2, 4)
    pieces = build_local_pieces(prob, grid, lay, 0.01)
    cfg = SolverConfig(scheme="etd1", fixed_iterations=9)
    guess = random_trace_guess(lay.interfaces, seed=1)
    _, log = method1_advance(pieces, lay.interfaces, [p.u0 for p in pieces],
                             0.0, 0.01, cfg, init_guess=guess)
    assert log.iterations == 9 and log.updates.shape[0] == 9 and log.converged


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_per_step_iteration_matches_direct_coupled_solve(scheme):
    prob = analytic_problem()
    grid = make_grid_1d(255, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 8)
    dt = 0.0125
    pieces = build_local_pieces(prob, grid, lay, dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-14, max_iterations=500)
    states = [p.u0 for p in pieces]
    new_states, log = method1_advance(pieces, lay.interfaces, states, 0.0, dt, cfg)
    assert log.converged

    v1, v2 = direct_step(pieces, lay.interfaces, states, 0.0, dt, scheme)
    scale = max(np.abs(v1).max(), np.abs(v2).max())
    assert np.abs(new_states[0] - v1).max() < 1e-12 * scale
    assert np.abs(new_states[1] - v2).max() < 1e-12 * scale


def test_single_piece_march_matches_monodomain():
    prob = analytic_problem()
    n = 255
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    tg = TimeGrid(prob.horizon, 20)
    lay = decompose_1d(grid, 1, 0)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", tolerance=1e-10)
    trajs, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    ws = make_workspace(spectral_factorization(build_laplacian_1d(n, prob.nu, grid.h)), tg.dt)
    mono = run_monodomain(prob, grid, tg, "etd2", ws)
    assert np.abs(trajs[0] - mono).max() < 1e-11 * np.abs(mono).max()


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_waveform_and_per_step_drivers_agree_when_converged(scheme):
    prob = analytic_problem()
    grid = make_grid_1d(255, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 8)
    tg = TimeGrid(prob.horizon, 25)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-12, max_iterations=5000)
    t1, logs1 = method1_march(pieces, lay.interfaces, tg, cfg)
    t2, log2 = method2_solve(pieces, lay.interfaces, tg, cfg)
    assert all(log.converged for log in logs1) and log2.converged
    scale = max(np.abs(t).max() for t in t1)
    for a, b in zip(t1, t2):
        assert np.abs(a - b).max() < 1e-10 * scale


@settings(max_examples=10, deadline=None, database=None)
@given(n=st.integers(24, 64), p=st.integers(2, 4), delta=st.integers(1, 3),
       scheme=st.sampled_from(["etd1", "etd2"]), steps=st.integers(4, 10))
def test_converged_drivers_give_the_same_fields(n, p, delta, scheme, steps):
    prob = analytic_problem()
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, p, delta)
    tg = TimeGrid(prob.horizon, steps)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-13, max_iterations=1000)
    t1, logs1 = method1_march(pieces, lay.interfaces, tg, cfg)
    t2, log2 = method2_solve(pieces, lay.interfaces, tg, cfg)
    scale = max(np.abs(t).max() for t in t1)
    # 1e-13 is the relative stop rule's round-off floor on some layouts (an
    # interface whose start value is small against its later values): there
    # a driver runs its budget with updates of a few ulps of the solution
    for log in (*logs1, log2):
        assert log.converged or log.updates[-1].max() <= 1e-13 * scale
    for a, b in zip(t1, t2):
        assert np.abs(a - b).max() <= 1e-10 * scale, np.abs(a - b).max() / scale


def test_time_windows_reproduce_the_unwindowed_solution():
    prob = analytic_problem()
    grid = make_grid_1d(255, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 4)
    tg = TimeGrid(prob.horizon, 24)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    full = SolverConfig(scheme="etd2", tolerance=1e-12, max_iterations=5000)
    wined = SolverConfig(scheme="etd2", tolerance=1e-12, max_iterations=5000, window_steps=6)
    ta, la = method2_solve(pieces, lay.interfaces, tg, full)
    tb, lb = method2_solve(pieces, lay.interfaces, tg, wined)
    assert la.converged and lb.converged
    assert len(lb.windows) == 4 and all(w.converged for w in lb.windows)
    assert lb.iterations == sum(w.iterations for w in lb.windows)
    scale = max(np.abs(t).max() for t in ta)
    for a, b in zip(ta, tb):
        assert np.abs(a - b).max() < 1e-10 * scale


def test_ragged_final_window_is_handled():
    prob = analytic_problem()
    grid = make_grid_1d(63, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 2)
    tg = TimeGrid(prob.horizon, 10)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    full = SolverConfig(scheme="etd1", tolerance=1e-12, max_iterations=5000)
    wined = SolverConfig(scheme="etd1", tolerance=1e-12, max_iterations=5000, window_steps=4)
    ta, _ = method2_solve(pieces, lay.interfaces, tg, full)
    tb, lb = method2_solve(pieces, lay.interfaces, tg, wined)
    assert len(lb.windows) == 3  # 4 + 4 + 2 steps
    scale = max(np.abs(t).max() for t in ta)
    for a, b in zip(ta, tb):
        assert np.abs(a - b).max() < 1e-10 * scale


def test_windowed_error_solve_logs_the_errors_of_every_window():
    # with a reference the aggregate log carries each window's error rows,
    # guess row included, in window order, and its curve is made of them
    grid = make_grid_1d(63, 2.0)
    lay = decompose_1d(grid, 3, 2)
    tg = TimeGrid(1.0, 12)
    pieces = build_local_pieces(zero_problem(), grid, lay, tg.dt)
    guess = random_trace_guess(lay.interfaces, seed=5, steps=tg.steps)
    cfg = SolverConfig(scheme="etd1", fixed_iterations=6, window_steps=5)
    _, log = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess,
                           reference=zero_reference(lay.interfaces, tg.steps))
    assert len(log.windows) == 3  # 5 + 5 + 2 steps
    assert log.errors is not None and log.errors.shape == (3 * (1 + 6), len(lay.interfaces))
    assert np.array_equal(log.errors, np.concatenate([w.errors for w in log.windows]))
    for w, (s, n) in zip(log.windows, [(0, 5), (5, 5), (10, 2)]):
        # the guess row: its levels past the window's pinned start, against zero
        assert np.array_equal(w.errors[0], [np.abs(g[s + 1: s + n + 1]).max() for g in guess])
    assert np.array_equal(log.curve(), log.errors.max(axis=1))


@pytest.mark.parametrize("solver", ["method1", "method2"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_interface_errors_contract_at_least_at_the_two_piece_rate(solver, scheme):
    # on the homogeneous problem the iterates are the errors; every two
    # sweeps they must shrink by at least the overlap contraction factor
    prob = zero_problem()
    grid = make_grid_1d(127, prob.length)
    lay = decompose_1d(grid, 2, 4)
    kappa = theoretical_rate(*lay.overlap_fractions())
    steps = 50
    tg = TimeGrid(prob.horizon, steps)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    budget = 24
    for seed in (0, 1, 2):
        curve = error_curve(pieces, lay, tg, solver, scheme, seed, budget)
        for k in range(budget // 2 + 1):
            assert curve[2 * k] <= kappa**k * curve[0] + 1e-10, (
                solver, scheme, seed, k, curve[2 * k], kappa**k * curve[0])


def error_curve(pieces, lay, tg, solver, scheme, seed, budget):
    """Interface error curve of `budget` sweeps of one driver on the
    homogeneous problem from a seeded guess: method 1 over the first step,
    method 2 over the whole time grid."""
    cfg = SolverConfig(scheme=scheme, fixed_iterations=budget)
    if solver == "method1":
        guess = random_trace_guess(lay.interfaces, seed)
        _, log = method1_advance(pieces, lay.interfaces, [p.u0 for p in pieces],
                                 0.0, tg.dt, cfg, init_guess=guess,
                                 reference=zero_reference(lay.interfaces))
    else:
        guess = random_trace_guess(lay.interfaces, seed, steps=tg.steps)
        _, log = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess,
                               reference=zero_reference(lay.interfaces, tg.steps))
    return log.curve()


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(8, 160), data=st.data(), steps=st.integers(1, 12),
       horizon=st.sampled_from([0.01, 0.1, 0.5, 1.0, 4.0]),
       scheme=st.sampled_from(["etd1", "etd2"]), seed=st.integers(0, 2**16))
def test_two_piece_error_contraction_respects_the_theoretical_rate(n, data, steps, horizon,
                                                                   scheme, seed):
    # random two-piece layouts of the homogeneous problem: every two sweeps
    # of either driver shrink the interface error by at least kappa
    delta = data.draw(st.integers(1, n // 6), label="overlap cells")
    prob = zero_problem(horizon)
    grid = make_grid_1d(n, prob.length)
    lay = decompose_1d(grid, 2, delta)
    kappa = theoretical_rate(*lay.overlap_fractions())
    tg = TimeGrid(horizon, steps)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    for solver in ("method1", "method2"):
        curve = error_curve(pieces, lay, tg, solver, scheme, seed, 20)
        for k in range(11):
            assert curve[2 * k] <= kappa**k * curve[0] + 1e-10, (
                solver, k, curve[2 * k], kappa**k * curve[0])


def test_waveform_contraction_improves_with_overlap():
    prob = zero_problem()
    grid = make_grid_1d(255, prob.length)
    tg = TimeGrid(1.0, 50)
    rates = []
    for delta in (1, 4, 16):
        lay = decompose_1d(grid, 2, delta)
        pieces = build_local_pieces(prob, grid, lay, tg.dt)
        cfg = SolverConfig(scheme="etd1", fixed_iterations=40)
        guess = random_trace_guess(lay.interfaces, seed=0, steps=50)
        _, log = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess,
                               reference=zero_reference(lay.interfaces, 50))
        from letd.analysis import estimate_contraction
        rates.append(math.sqrt(estimate_contraction(log.curve())))
    assert rates[0] > rates[1] > rates[2], rates


def test_per_step_contraction_improves_as_the_step_shrinks():
    prob = zero_problem()
    grid = make_grid_1d(255, prob.length)
    lay = decompose_1d(grid, 2, 8)
    from letd.analysis import estimate_contraction
    rates = []
    for dt in (0.2, 0.025):
        pieces = build_local_pieces(prob, grid, lay, dt)
        cfg = SolverConfig(scheme="etd1", fixed_iterations=30)
        guess = random_trace_guess(lay.interfaces, seed=0)
        _, log = method1_advance(pieces, lay.interfaces, [p.u0 for p in pieces],
                                 0.0, dt, cfg, init_guess=guess,
                                 reference=zero_reference(lay.interfaces))
        rates.append(math.sqrt(estimate_contraction(log.curve())))
    assert rates[0] > rates[1], rates


def test_superlinear_bound_formula_and_monotonicity():
    val = superlinear_bound(3, 0.46875, 0.53125, length=2.0, nu=1.0, horizon=1.0)
    want = math.erfc(3 * (0.53125 - 0.46875) * 2.0 / (2.0 * math.sqrt(1.0 * 1.0)))
    assert val == pytest.approx(want, rel=1e-14)
    vals = [superlinear_bound(k, 0.4, 0.6, 2.0, 1.0, 0.25) for k in range(1, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_normalized_decay_curve_starts_at_one():
    prob = zero_problem()
    grid = make_grid_1d(127, prob.length)
    lay = decompose_1d(grid, 2, 4)
    pieces = build_local_pieces(prob, grid, lay, 0.02)
    cfg = SolverConfig(scheme="etd2", fixed_iterations=10)
    guess = random_trace_guess(lay.interfaces, seed=5)
    _, log = method1_advance(pieces, lay.interfaces, [p.u0 for p in pieces],
                             0.0, 0.02, cfg, init_guess=guess,
                             reference=zero_reference(lay.interfaces))
    norm = log.normalized()
    assert norm[0] == pytest.approx(1.0)
    assert (np.diff(np.log(norm[: 6])) < 0).all()


def nan_after(t_bad):
    """The analytic problem with a source that turns NaN after t_bad."""
    base = analytic_problem()
    src = lambda x, t: base.source(x, t) if t <= t_bad else np.full_like(x, np.nan)
    return Problem(nu=base.nu, lengths=base.lengths, horizon=base.horizon, source=src,
                   boundary=base.boundary, initial=base.initial, origin=base.origin)


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
def test_per_step_driver_raises_on_a_non_finite_update(mode):
    prob = nan_after(0.05)
    grid = make_grid_1d(63, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 4)
    tg = TimeGrid(prob.horizon, 20)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", max_iterations=50,
                       fixed_iterations=50 if mode == "fixed" else None)
    with pytest.raises(FloatingPointError, match=r"at t=0\.0625: sweep 1, interface 0"):
        method1_march(pieces, lay.interfaces, tg, cfg)


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
def test_waveform_driver_raises_on_a_non_finite_update(mode):
    prob = nan_after(0.05)
    grid = make_grid_1d(63, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 4)
    tg = TimeGrid(prob.horizon, 20)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd1", max_iterations=50,
                       fixed_iterations=50 if mode == "fixed" else None)
    with pytest.raises(FloatingPointError, match=r"window from t=0: sweep 1, interface 0"):
        method2_solve(pieces, lay.interfaces, tg, cfg)


# ---------------------------------------------------------------------------
# trace edges: one dense sine basis over the edge's other axes
# ---------------------------------------------------------------------------


def test_pieces_build_one_factorization_each_and_none_per_edge(monkeypatch):
    build, shapes = schwarz.spectral_factorization, []
    monkeypatch.setattr(schwarz, "spectral_factorization",
                        lambda op: shapes.append(op.shape) or build(op))
    prob, lay, grid, tg = _oracle_2d(3, 3, 2, "full")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    assert shapes == [box.shape for box in lay.pieces]
    assert sum(len(p.inflow) + len(p.outflow) for p in pieces) == 2 * len(lay.interfaces) == 48


def test_2d_edges_spread_and_read_like_a_dst_of_the_border_row():
    # spread: the weighted history on the border row, transformed over both
    # axes; read: the node row of the transformed trajectory
    prob, lay, grid, tg = _oracle_2d(3, 3, 2, "full")
    piece = build_local_pieces(prob, grid, lay, tg.dt)[4]
    rng = np.random.default_rng(6)
    axes = (1, 2)
    for edge in piece.inflow + piece.outflow:
        row = [slice(None)] * 3
        row[1 + edge.axis] = edge.node
        history = rng.standard_normal((5, edge.size))
        field = np.zeros((5,) + piece.u0.shape)
        field[tuple(row)] = edge.weight * history
        want = dstn(field, type=1, norm="ortho", axes=axes)
        got = edge.spread(history)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        u_hat = rng.standard_normal((5,) + piece.u0.shape)
        want = dstn(u_hat, type=1, norm="ortho", axes=axes)[tuple(row)]
        got = edge.read(u_hat)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the reduced waveform sweep against its field-marching oracle
# ---------------------------------------------------------------------------


def run_both_waveform_routes(monkeypatch, pieces, interfaces, tg, cfg, guess):
    """method2_solve through the library's sweep, and its windows chained
    on the field oracle, each from the fields the one before rebuilt; per
    route: trajectories, per-window logs and the traces of every sweep."""
    window_sweep, seen = schwarz._window_sweep, []

    def recording(*args, **kwargs):
        sweep, finish, start = window_sweep(*args, **kwargs)
        return record(sweep, seen), finish, start

    monkeypatch.setattr(schwarz, "_window_sweep", recording)
    trajs, log = method2_solve(pieces, interfaces, tg, cfg, init_guess=guess)
    library = (trajs, log.windows or (log,), seen)

    trajs = [np.empty((tg.steps + 1,) + p.u0.shape) for p in pieces]
    for traj, p in zip(trajs, pieces):
        traj[0] = p.u0
    win, logs, seen = cfg.window_steps or tg.steps, [], []
    for s in range(0, tg.steps, win):
        part = [traj[s: s + win + 1] for traj in trajs]
        sweep, fields, _ = field_window_sweep(pieces, [w[0] for w in part],
                                              tg.times()[s: s + win + 1], cfg.scheme)
        logs.append(schwarz._sweep_loop(record(sweep, seen), [g[s: s + win + 1] for g in guess],
                                        cfg, None, where=""))
        fields(part)
    return library, (trajs, tuple(logs), seen)


def record(sweep, seen):
    """The sweep, appending a copy of the traces of every call to `seen`."""
    def recorded(traces):
        out = sweep(traces)
        seen.append([tr.copy() for tr in out])
        return out

    return recorded


def _oracle_1d(p):
    prob = analytic_problem()
    grid = make_grid_1d(63, prob.length, origin=prob.origin)
    return prob, decompose_1d(grid, p, 2 if p > 1 else 0), grid, TimeGrid(prob.horizon, 12)


def _oracle_2d(px, py, overlap, convention):
    prob = builtin_problem("analytic_2d")
    grid = make_grid_2d(15, 12, prob.lengths)
    return prob, decompose_2d(15, 12, px, py, overlap, convention), grid, TimeGrid(prob.horizon, 8)


ORACLE_CASES = [
    *[pytest.param(_oracle_1d, (p,), scheme, window,
                   id=f"1d-P{p}-{scheme}-w{window}")
      for p in (2, 3) for scheme in ("etd1", "etd2") for window in (None, 5)],
    # middle pieces with 2x2 (outflow, inflow) pairs, and one-step windows
    *[pytest.param(_oracle_1d, (4,), scheme, window, id=f"1d-P4-{scheme}-w{window}")
      for scheme in ("etd1", "etd2") for window in (None, 1)],
    pytest.param(_oracle_2d, (2, 2, 2, "half"), "etd2", None, id="2d-2x2-half"),
    pytest.param(_oracle_2d, (3, 2, 3, "full"), "etd1", 3, id="2d-3x2-full"),
    pytest.param(_oracle_1d, (1,), "etd2", None, id="1d-P1"),
]


@pytest.mark.parametrize("setup,args,scheme,window", ORACLE_CASES)
def test_reduced_waveform_sweeps_match_the_field_route(monkeypatch, setup, args, scheme, window):
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-10, max_iterations=400,
                       window_steps=window)
    guess = random_trace_guess(lay.interfaces, seed=2, steps=tg.steps)
    (t_red, logs_red, seen_red), (t_fld, logs_fld, seen_fld) = run_both_waveform_routes(
        monkeypatch, pieces, lay.interfaces, tg, cfg, guess)

    assert len(logs_red) == len(logs_fld)
    for a, b in zip(logs_red, logs_fld):
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert a.converged
    assert len(seen_red) == len(seen_fld) >= 1
    scale = max([np.abs(tr).max() for sweep in seen_fld for tr in sweep], default=0.0)
    for k, (a, b) in enumerate(zip(seen_red, seen_fld)):
        for i, (x, y) in enumerate(zip(a, b)):
            assert np.abs(x - y).max() <= 1e-12 * scale, (k, i, np.abs(x - y).max() / scale)
    u_max = max(np.abs(t).max() for t in t_fld)
    for a, b in zip(t_red, t_fld):
        assert np.abs(a - b).max() <= 1e-12 * u_max, np.abs(a - b).max() / u_max


@pytest.mark.parametrize("setup,args", [(_oracle_1d, (4,)), (_oracle_2d, (2, 2, 2, "half"))],
                         ids=["1d-P4", "2d-2x2"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_waveform_sweep_is_causal(setup, args, scheme):
    # a change of one incoming history from level j on leaves every owned
    # trace below level j bitwise unchanged
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    sweep = schwarz._window_sweep(pieces, Level([p.u0 for p in pieces]), tg.times(),
                                  scheme)[0]
    interfaces = lay.interfaces
    guess = random_trace_guess(interfaces, seed=4, steps=tg.steps)
    before = sweep(guess)
    for j in (1, tg.steps // 2, tg.steps):
        for i in range(len(interfaces)):
            changed = [g.copy() for g in guess]
            changed[i][j:] += 1.0 + np.arange(tg.steps + 1 - j)[:, None]
            after = sweep(changed)
            for a, b in zip(before, after):
                assert np.array_equal(a[:j], b[:j]), (j, i)
            assert any(not np.array_equal(a[j:], b[j:]) for a, b in zip(before, after))


@pytest.mark.parametrize("window", [None, 4])
def test_1d_sweeps_march_once_per_window_whatever_the_sweep_count(monkeypatch, window):
    # the unit-trace responses are held on the pieces, so each count starts
    # from a fresh piece set; a second solve on the same pieces reuses them
    # and marches only for the base read-out and the fields of each window
    prob, lay, grid, tg = _oracle_1d(4)
    march = schwarz._march_modes
    calls = []
    monkeypatch.setattr(schwarz, "_march_modes", lambda *a: calls.append(1) or march(*a))
    counts = []
    for sweeps in (2, 9):
        pieces = build_local_pieces(prob, grid, lay, tg.dt)
        cfg = SolverConfig(scheme="etd2", fixed_iterations=sweeps, window_steps=window)
        for _ in range(2):
            calls.clear()
            method2_solve(pieces, lay.interfaces, tg, cfg)
            counts.append(len(calls))
    windows = -(-tg.steps // (window or tg.steps))
    assert counts[0] == counts[2] and counts[1] == counts[3], counts
    assert counts[1] == 2 * len(pieces) * windows < counts[0], counts


# ---------------------------------------------------------------------------
# method 1 on fields: the one-step window of the field-marching sweep
# ---------------------------------------------------------------------------


def field_step_sweep(pieces, interfaces, states, t_now, t_next, config,
                     init_guess=None, reference=None):
    """One level of method 1 on fields, with the arguments and results of
    `schwarz.method1_advance`: the one-step window of the field-marching
    waveform sweep, which assembles each piece's forcing against the
    given traces and transforms it in every sweep, iterated by the
    library's sweep loop; ETD2 starts from the predictor of the field
    route unless a guess is given."""
    scheme = config.scheme
    sweep, fields, traces = field_window_sweep(
        pieces, states, (t_now, t_next), scheme,
        predict=init_guess is None and scheme == "etd2")
    if init_guess is not None:
        traces = [np.stack([tr[0], np.ravel(g)]) for tr, g in zip(traces, init_guess)]
    if reference is not None:
        reference = [np.stack([r, r]) for r in reference]
    log = schwarz._sweep_loop(sweep, traces, config, reference, where=f"at t={t_next:g}")
    out = [np.empty((2,) + np.shape(u)) for u in states]
    fields(out)
    return [o[1] for o in out], log


STEP_LAYOUTS = [
    pytest.param(_oracle_1d, (2,), id="1d-P2"),
    pytest.param(_oracle_1d, (4,), id="1d-P4"),
    pytest.param(_oracle_2d, (2, 2, 2, "full"), id="2d-2x2-full"),
    pytest.param(_oracle_2d, (3, 2, 2, "half"), id="2d-3x2-half"),
    pytest.param(_oracle_1d, (1,), id="1d-P1"),
]


@pytest.mark.parametrize("start", ["default", "guess", "reference"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", STEP_LAYOUTS)
def test_gain_sweeps_match_the_field_route(setup, args, scheme, start):
    # per level: the same iteration count and flag, update and error logs
    # and new states within 1e-12 of the solution scale
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    itfs = lay.interfaces
    cfg = SolverConfig(scheme=scheme, tolerance=1e-10, max_iterations=400)
    states = [p.u0 for p in pieces]
    kw = {}
    if start == "guess":
        kw["init_guess"] = random_trace_guess(itfs, seed=3)
    elif start == "reference":
        tight = SolverConfig(scheme=scheme, tolerance=1e-14, max_iterations=2000)
        converged, _ = field_step_sweep(pieces, itfs, states, 0.0, tg.dt, tight)
        kw["reference"] = initial_traces(pieces, converged, len(itfs))
    scale = max([np.abs(s).max() for s in states]
                + [np.abs(tr).max() for tr in kw.get("init_guess", [])])
    for m in range(3 if start == "default" else 1):
        got, log = method1_advance(pieces, itfs, states, tg.t(m), tg.t(m + 1), cfg, **kw)
        want, oracle = field_step_sweep(pieces, itfs, states, tg.t(m), tg.t(m + 1), cfg, **kw)
        assert (log.iterations, log.converged) == (oracle.iterations, oracle.converged)
        assert log.converged and (log.errors is None) == (oracle.errors is None) == (
            start != "reference" or not itfs)
        scale = max(scale, max(np.abs(s).max() for s in want))
        for a, b in ((log.updates, oracle.updates), (log.errors, oracle.errors)):
            if b is not None and b.size:
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-12 * scale, np.abs(a - b).max() / scale
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * scale, np.abs(a - b).max() / scale
        states = want


@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (2, 2, 2, "half"))],
                         ids=["1d-P3", "2d-2x2"])
def test_etd1_per_step_iteration_is_the_one_step_waveform_window(setup, args):
    # method 1 iterates the one-step windows of method 2, from the same
    # ETD1 guess (the previous level's traces): the same fields bit for bit
    # and the same iteration count at every level
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd1", tolerance=1e-10, max_iterations=400, window_steps=1)
    per_step, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    windowed, log = method2_solve(pieces, lay.interfaces, tg, cfg)
    assert len(log.windows) == len(logs) == tg.steps
    assert [lg.iterations for lg in logs] == [w.iterations for w in log.windows]
    assert all(lg.converged for lg in logs)
    for a, b in zip(per_step, windowed):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_per_step_march_reports_every_level_through_method1_advance(monkeypatch, scheme):
    # span tracers count levels and sweeps by wrapping the module attribute
    # method1_advance: one call per level, the pieces first, a log back
    prob, lay, grid, tg = _oracle_2d(2, 2, 2, "half")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    advance, calls = schwarz.method1_advance, []

    def counted(*args, **kwargs):
        out = advance(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(schwarz, "method1_advance", counted)
    _, logs = method1_march(pieces, lay.interfaces, tg,
                            SolverConfig(scheme=scheme, fixed_iterations=3))
    assert len(calls) == len(logs) == tg.steps
    assert all(args[0] is pieces for args, _ in calls)
    assert all(isinstance(out[1], schwarz.IterationLog) for _, out in calls)
    assert all(out[1] is log for (_, out), log in zip(calls, logs))
    assert sum(out[1].iterations for _, out in calls) == 3 * tg.steps


@pytest.mark.parametrize("budget", [dict(fixed_iterations=2),
                                    dict(tolerance=1e-10, max_iterations=2000)],
                         ids=["fixed2", "tol1e-10"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (2, 2, 2, "half"))],
                         ids=["1d-P3", "2d-2x2"])
def test_mode_space_march_matches_the_level_by_level_field_route(setup, args, scheme, budget):
    # method1_march hands every level on in sine-mode space, its pinned
    # traces the owned traces of the last sweep; the field route restarts
    # each level from its own fields.  Unconverged levels (two sweeps) show
    # an ETD2 hand-on of any other traces at once.  The tolerance stays
    # above the stop rule's round-off floor: at 1e-12 the updates of the
    # 1d ETD1 levels sit at ~1e-12, and round-off alone decides whether a
    # level stops after 58 or 59 sweeps
    prob, lay, grid, tg = setup(*args)
    tg = TimeGrid(prob.horizon, 8)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, **budget)
    trajs, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    states = [p.u0 for p in pieces]
    u_max = max(np.abs(u).max() for u in states)
    for m, log in enumerate(logs):
        states, oracle = field_step_sweep(pieces, lay.interfaces, states, tg.t(m), tg.t(m + 1),
                                          cfg)
        assert (log.iterations, log.converged) == (oracle.iterations, oracle.converged), m
        u_max = max([u_max] + [np.abs(u).max() for u in states])
        assert np.abs(log.updates - oracle.updates).max() <= 1e-12 * u_max, m
        for traj, u in zip(trajs, states):
            assert np.abs(traj[m + 1] - u).max() <= 1e-12 * u_max, (m, np.abs(traj[m + 1] - u).max())


def assert_same_log(a, b):
    """Two iteration logs agree bitwise, window by window."""
    assert (a.converged, a.iterations, len(a.windows)) == (b.converged, b.iterations,
                                                          len(b.windows))
    assert np.array_equal(a.updates, b.updates)
    assert (a.errors is None) == (b.errors is None)
    assert a.errors is None or np.array_equal(a.errors, b.errors)
    for x, y in zip(a.windows, b.windows):
        assert_same_log(x, y)


@pytest.mark.parametrize("driver", ["method1", "method2", "method2-w3"])
@pytest.mark.parametrize("budget", [dict(fixed_iterations=2),
                                    dict(tolerance=1e-10, max_iterations=2000)],
                         ids=["fixed2", "tol1e-10"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (2, 2, 2, "half"))],
                         ids=["1d-P3", "2d-2x2"])
def test_final_only_keeps_the_end_levels_bitwise(setup, args, scheme, budget, driver):
    # 3 does not divide the 8 steps: the last 3-step window is ragged, and
    # every window writes into the same two levels
    prob, lay, grid, _ = setup(*args)
    tg = TimeGrid(prob.horizon, 8)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, window_steps=3 if driver == "method2-w3" else None,
                       **budget)
    solve = method1_march if driver == "method1" else method2_solve
    full, logs = solve(pieces, lay.interfaces, tg, cfg)
    kept, kept_logs = solve(pieces, lay.interfaces, tg, cfg, final_only=True)
    assert len(kept) == len(full)
    for f, k in zip(full, kept):
        assert k.shape == (2,) + f.shape[1:]
        assert np.array_equal(k, [f[0], f[-1]])
    if driver == "method1":
        assert len(kept_logs) == len(logs) == tg.steps
    else:
        assert len(logs.windows) == (3 if driver == "method2-w3" else 0)
        logs, kept_logs = [logs], [kept_logs]
    for a, b in zip(logs, kept_logs):
        assert_same_log(a, b)


def _traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("driver", ["method1", "method2", "mono"])
def test_final_only_runs_never_hold_every_level(driver):
    # a 31^2 grid in 2x2 pieces over 64 steps: a full trajectory set is
    # (steps + 1) levels of every piece node; a run that keeps the end
    # levels alone peaks below half of that.  The waveform run is windowed:
    # a whole-horizon window holds its forcing modes at every level
    prob = builtin_problem("analytic_2d")
    grid = make_grid_2d(31, 31, prob.lengths)
    lay = decompose_2d(31, 31, 2, 2, 2, "half")
    tg = TimeGrid(prob.horizon, 64)
    if driver == "mono":
        ws = make_workspace(spectral_factorization(
            DirichletLaplacian(grid.shape, prob.nu, grid.spacings)), tg.dt)
        nodes = math.prod(grid.shape)
        run = lambda **kw: run_monodomain(prob, grid, tg, "etd2", ws, **kw)
    else:
        pieces = build_local_pieces(prob, grid, lay, tg.dt)
        nodes = sum(p.u0.size for p in pieces)
        solve = method1_march if driver == "method1" else method2_solve
        cfg = SolverConfig(scheme="etd2", fixed_iterations=2,
                           window_steps=4 if driver == "method2" else None)
        run = lambda **kw: solve(pieces, lay.interfaces, tg, cfg, **kw)
    run(final_only=True)  # builds the pieces' response tables outside the trace
    every_level = (tg.steps + 1) * nodes * 8
    kept = _traced_peak(lambda: run(final_only=True))
    full = _traced_peak(run)
    assert kept < every_level / 2, (kept, every_level)
    assert full > every_level, (full, every_level)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_per_step_march_transforms_one_field_and_assembles_one_forcing_per_level(monkeypatch,
                                                                                 scheme):
    prob, lay, grid, tg = _oracle_2d(2, 2, 2, "half")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    to_modes, shapes = SpectralFactorization.to_modes, []
    monkeypatch.setattr(SpectralFactorization, "to_modes",
                        lambda fact, v: shapes.append(v.shape) or to_modes(fact, v))
    assemble, assembled = schwarz.assemble_forcing, []
    monkeypatch.setattr(schwarz, "assemble_forcing",
                        lambda *a: assembled.append(1) or assemble(*a))
    method1_march(pieces, lay.interfaces, tg, SolverConfig(scheme=scheme, fixed_iterations=3))
    p, steps = len(pieces), tg.steps
    head = 2 if scheme == "etd2" else 1  # forcing rows of the first level's start
    first, later, rebuild = shapes[:p], shapes[p:-p], shapes[-p:]
    # the first level starts from fields: one batch per piece of its state,
    # its level-0 forcing (ETD2) and the level-1 forcing
    assert first == [(1 + head,) + q.u0.shape for q in pieces]
    # every later piece-level transforms one field
    assert later == [(1,) + q.u0.shape for _ in range(steps - 1) for q in pieces]
    # and the trajectories are rebuilt by one inverse transform per piece,
    # each level a block of its own
    assert rebuild == [(steps, 1) + q.u0.shape for q in pieces]
    assert sum(map(math.prod, shapes)) == sum(
        (1 + head + steps - 1 + steps) * q.u0.size for q in pieces)
    assert len(assembled) == p * head + p * (steps - 1)


def _augmented_phi(a, k):
    """phi_k(a) for k = 1, 2 from the exponential of a block matrix."""
    n = len(a)
    big = np.zeros(((k + 1) * n,) * 2)
    big[:n, :n] = a
    for j in range(k):
        big[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = np.eye(n)
    return expm_dense(big)[:n, k * n:]


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_step_gains_of_a_middle_piece_match_the_dense_phi_functions(scheme):
    prob, lay, grid, tg = _oracle_2d(3, 3, 2, "full")
    middle = 4
    box = lay.pieces[middle]
    piece = build_local_pieces(prob, grid, lay, tg.dt)[middle]
    dt = tg.dt
    a = DirichletLaplacian(box.shape, prob.nu, grid.spacings).dense()
    kernel = dt * _augmented_phi(dt * a, 1 if scheme == "etd1" else 2)
    inflow = [itf for itf in lay.interfaces if itf.reader == middle]
    outflow = [itf for itf in lay.interfaces if itf.owner == middle]
    assert len(inflow) == len(outflow) == 4

    def border(itf):
        # weighted unit vectors on the reader's border row, one per edge node
        idx = np.zeros(box.shape, dtype=int)
        row = [slice(None)] * 2
        row[itf.axis] = 0 if itf.side == 0 else box.shape[itf.axis] - 1
        idx[tuple(row)] = 1 + np.arange(itf.size).reshape(idx[tuple(row)].shape)
        units = np.zeros((itf.size, idx.size))
        for k in range(itf.size):
            units[k, np.flatnonzero(idx.ravel() == k + 1)] = prob.nu / grid.spacings[itf.axis] ** 2
        return units

    def read(itf, field):
        lo = [r - b for r, b in zip(itf.read.lo, box.lo)]
        hi = [r - b + 1 for r, b in zip(itf.read.hi, box.lo)]
        return field.reshape(box.shape)[lo[0]:hi[0], lo[1]:hi[1]].ravel()

    table = schwarz._window_responses(piece, scheme, 1)
    # one lag in a one-step window; a column block per outflow edge
    assert table.shape == (1, sum(i.size for i in inflow), sum(o.size for o in outflow))
    ends = np.cumsum([o.size for o in outflow])
    for o, end in zip(outflow, ends):
        stacked = table[0][:, end - o.size: end]
        want = np.concatenate([[read(o, kernel @ e) for e in border(i)] for i in inflow])
        assert stacked.shape == want.shape == (sum(i.size for i in inflow), o.size)
        assert np.abs(stacked - want).max() <= 1e-12 * np.abs(want).max()


def _counting(monkeypatch, name):
    """Replace schwarz.<name> by a wrapper that records the piece of each call."""
    build, calls = getattr(schwarz, name), []

    def counted(piece, *args):
        calls.append(id(piece))
        return build(piece, *args)

    monkeypatch.setattr(schwarz, name, counted)
    return calls


def test_step_gains_are_built_once_per_piece_and_scheme(monkeypatch):
    # the gains are the one-step window responses
    calls = _counting(monkeypatch, "_window_responses")
    prob, lay, grid, tg = _oracle_2d(2, 2, 2, "full")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    method1_march(pieces, lay.interfaces, tg, SolverConfig(scheme="etd2", fixed_iterations=3))
    assert sorted(calls) == sorted(id(p) for p in pieces)
    # a five-seed rate study builds them once per piece of each overlap's set
    calls.clear()
    cfg = ExperimentConfig(problem="error_equation", solver="method1", scheme="etd1",
                           n=31, dts=(0.25,), horizon=1.0, px=2, overlaps=(2, 4),
                           fixed_iterations=6, seeds=5)
    run_experiment(cfg)
    assert len(calls) == len(set(calls)) == 2 * 2


def test_step_gains_of_one_scheme_are_not_served_to_the_other(monkeypatch):
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    fresh = build_local_pieces(prob, grid, lay, tg.dt)
    guess = random_trace_guess(lay.interfaces, seed=1)
    calls = _counting(monkeypatch, "_window_responses")
    etd2 = SolverConfig(scheme="etd2", fixed_iterations=6)
    method1_advance(pieces, lay.interfaces, [p.u0 for p in pieces], 0.0, tg.dt,
                    SolverConfig(scheme="etd1", fixed_iterations=6), init_guess=guess)
    got, log = method1_advance(pieces, lay.interfaces, [p.u0 for p in pieces], 0.0, tg.dt,
                               etd2, init_guess=guess)
    want, ref = method1_advance(fresh, lay.interfaces, [p.u0 for p in fresh], 0.0, tg.dt,
                                etd2, init_guess=guess)
    assert len(calls) == 3 * len(pieces)
    assert np.array_equal(log.updates, ref.updates)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# the iteration-free route: a window's affine interface map, solved densely
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_converged_waveform_iteration_matches_the_direct_interface_solve(p, scheme):
    prob, lay, grid, tg = _oracle_1d(p)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    pinned = initial_traces(pieces, [q.u0 for q in pieces], len(lay.interfaces))
    sweep = schwarz._window_sweep(pieces, Level([q.u0 for q in pieces]), tg.times(),
                                  scheme)[0]
    direct = direct_window_traces(sweep, pinned, tg.steps)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-13, max_iterations=2000)
    trajs, log = method2_solve(pieces, lay.interfaces, tg, cfg)
    assert log.converged
    got = initial_traces(pieces, trajs, len(lay.interfaces))
    scale = max(np.abs(tr).max() for tr in direct)
    for a, b in zip(got, direct):
        assert np.abs(a - b).max() <= 1e-10 * scale, np.abs(a - b).max() / scale


@pytest.mark.parametrize("window", [1, 5])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_windowed_waveform_runs_match_per_window_direct_solves(window, scheme):
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    n_if = len(lay.interfaces)
    # chain direct window solves: each window starts from the fields of the
    # direct solution of the one before
    direct = [np.empty((tg.steps + 1,) + q.u0.shape) for q in pieces]
    for traj, q in zip(direct, pieces):
        traj[0] = q.u0
    for s in range(0, tg.steps, window):
        n = min(window, tg.steps - s)
        part = [traj[s: s + n + 1] for traj in direct]
        starts = [w[0] for w in part]
        sweep, finish, _ = schwarz._window_sweep(pieces, Level(starts),
                                                 tg.times()[s: s + n + 1], scheme)
        sweep(direct_window_traces(sweep, initial_traces(pieces, starts, n_if), n))
        finish(part)  # the window's levels in sine-mode space, then as fields
        for q, w in zip(pieces, part):
            w[1:] = q.ws.fact.from_modes(w[1:])
    cfg = SolverConfig(scheme=scheme, tolerance=1e-13, max_iterations=2000,
                       window_steps=window)
    trajs, log = method2_solve(pieces, lay.interfaces, tg, cfg)
    assert log.converged and len(log.windows) == -(-tg.steps // window)
    want = initial_traces(pieces, direct, n_if)
    scale = max(np.abs(tr).max() for tr in want)
    for a, b in zip(initial_traces(pieces, trajs, n_if), want):
        assert np.abs(a - b).max() <= 1e-10 * scale, np.abs(a - b).max() / scale
    u_max = max(np.abs(t).max() for t in direct)
    for a, b in zip(trajs, direct):
        assert np.abs(a - b).max() <= 1e-10 * u_max, np.abs(a - b).max() / u_max


@pytest.mark.parametrize("args", [(2, 2, 2, "half"), (3, 2, 3, "full")],
                         ids=["2x2-half", "3x2-full"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_2d_per_step_iteration_matches_chained_direct_steps(args, scheme):
    prob, lay, grid, tg = _oracle_2d(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-13, max_iterations=2000)
    got = want = [p.u0 for p in pieces]
    for m in range(3):
        got, log = method1_advance(pieces, lay.interfaces, got, tg.t(m), tg.t(m + 1), cfg)
        want = direct_step(pieces, lay.interfaces, want, tg.t(m), tg.dt, scheme)
        assert log.converged
        u_max = max(np.abs(u).max() for u in want)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-10 * u_max, np.abs(a - b).max() / u_max
