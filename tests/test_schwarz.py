"""Iterative drivers: per-step interface iteration and waveform relaxation."""
import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.fft import dstn

from letd import harness, matfunc, schwarz
from letd.geometry import (
    Problem,
    decompose,
    decompose_1d,
    decompose_2d,
    make_grid_1d,
    make_grid_2d,
)
from letd.harness import ExperimentConfig, builtin_problem, run_experiment
from letd.matfunc import DirichletLaplacian, SpectralFactorization
from letd.schwarz import (
    Level,
    SolverConfig,
    build_local_pieces,
    initial_traces,
    method1_advance,
    method1_march,
    method2_solve,
    random_trace_guess,
)
from letd.steppers import TimeGrid
from oracles import (
    advance_fields,
    convolution_window_sweep,
    dense_laplacian,
    direct_step,
    direct_window_traces,
    edge_columns,
    edge_read,
    edge_spread,
    expm_dense,
    field_window_sweep,
    flat_sweep,
    flat_traces,
    forcing_modes,
    history_sweep,
    march_modes,
    marched_responses,
    normalized_curve,
    one_piece_march,
    overlap_fractions,
    run_monodomain,
    step_sweep,
    superlinear_bound,
    sweep_loop,
    theoretical_rate,
    trace_histories,
    trace_offsets,
    window_start,
)

PI2 = math.pi ** 2

# The 1d window-matrix sweep against the convolution sweep, relative to the
# largest owned trace: at most 2.2e-16 over 150 random layouts (P 2-5,
# 2-296 levels, both schemes), and 1.1e-16 on 2,000 and 4,000 levels
WINDOW_MATRIX_RTOL = 2e-15
# tracemalloc peak of the set-up and one sweep of a 2,000-level window at
# P = 3 (`test_a_long_1d_window_holds_lag_blocks_not_a_dense_matrix`):
# 13.3 MB (ETD1) and 13.5 MB (ETD2) measured, 26.9 MB at 4,000 levels
LONG_WINDOW_PEAK = 24 * 2**20
# tracemalloc peak of a 16-sweep fixed-budget loop over 2**17 trace values
# (`test_a_wide_fixed_budget_loop_holds_one_sweep_per_block`): 2.0 MB
# measured, two rows of 1 MB, plus half a row of margin; a third row fails
WIDE_LOOP_PEAK = 2.5 * 2**20


def zero_problem(horizon=1.0):
    z = lambda x, t=None: np.zeros_like(np.asarray(x, dtype=float))
    return Problem(nu=1.0, lengths=(2.0,), horizon=horizon, initial=z,
                   exact=lambda x, t: z(x), terms=())


def analytic_problem():
    """u = e^(pi^2 t) sin(pi (x - 0.25)) on [-1, 1], the built-in analytic_1d."""
    return builtin_problem("analytic_1d")


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


@pytest.mark.parametrize("settings,message", [
    (dict(tolerance=math.inf), "tolerance must be positive and finite, got inf"),
    (dict(tolerance=-math.inf), "tolerance must be positive and finite, got -inf"),
    (dict(max_iterations=2.5), "max_iterations must be a positive integer, got 2.5"),
    (dict(max_iterations=None), "max_iterations must be a positive integer, got None"),
    (dict(max_iterations=True), "max_iterations must be a positive integer, got True"),
    (dict(max_iterations=0), "max_iterations must be a positive integer, got 0"),
    (dict(fixed_iterations=3.0), "fixed_iterations must be a positive integer, got 3.0"),
    (dict(fixed_iterations=True), "fixed_iterations must be a positive integer, got True"),
    (dict(window_steps=2.0), "window_steps must be a positive integer, got 2.0"),
    (dict(window_steps=False), "window_steps must be a positive integer, got False"),
], ids=["tol-inf", "tol-minus-inf", "max-float", "max-none", "max-bool", "max-zero",
        "fixed-float", "fixed-bool", "window-float", "window-bool"])
def test_solver_config_refuses_an_infinite_tolerance_and_fractional_counts(settings, message):
    # with tolerance inf a solve stopped after one sweep and logged itself
    # converged; a fractional budget got through to the sweep loop, where
    # allocating its log rows raised a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverConfig(**settings)
    assert SolverConfig(max_iterations=np.int64(3), fixed_iterations=np.int32(2),
                        window_steps=np.int16(4)).budget == 2


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
    new_states, log = advance_fields(pieces, lay.interfaces, states, 0.0, 0.01, cfg)
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
    _, log = advance_fields(pieces, lay.interfaces, [p.u0 for p in pieces],
                            0.0, 0.01, cfg, init_guess=guess)
    assert log.iterations == 9 and log.updates.shape[0] == 9 and log.converged


def affine_sweep(rng, width, rho, inject=None, at_sweep=1, node=0):
    """A sweep new = M now + b with M of spectral radius rho, as the
    library's sweeps write into `new`; `inject` goes into the nodes from
    `node` on of the output of sweep `at_sweep`."""
    m = rng.standard_normal((width, width))
    if width:
        m *= rho / np.abs(np.linalg.eigvals(m)).max()
    b, calls = rng.standard_normal(width), [0]

    def sweep(now, new):
        np.add(m @ now, b, out=new)
        calls[0] += 1
        if inject is not None and calls[0] == at_sweep and width:
            new[node % width:] = inject
        return new

    return sweep


# per interface of the guess: a draw, or values of one magnitude: zero, below
# the stop rule's floor, at it, just above it
GUESS_SCALES = {"zero": 0.0, "sub-floor": 1e-15, "floor": schwarz._DENOM_FLOOR,
                "above-floor": 2e-14}


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 3), max_size=5),
       rho=st.sampled_from([0.05, 0.5, 0.9, 0.97, 1.1]), fixed=st.booleans(),
       budget=st.integers(1, 200), tol=st.sampled_from([1e-3, 1e-6, 1e-10]),
       with_reference=st.booleans(),
       guess=st.lists(st.sampled_from(["draw", *GUESS_SCALES]), min_size=5, max_size=5),
       inject=st.sampled_from([None, np.nan, np.inf, -np.inf, 1e300, 1.5e308]),
       at_sweep=st.integers(1, 80), node=st.integers(0, 14),
       block=st.sampled_from([schwarz._BLOCK_VALUES, 1, 7, 20, 45]), quiet=st.booleans())
@example(seed=1, sizes=[1, 1], rho=0.97, fixed=False, budget=200, tol=1e-10,
         with_reference=True, guess=["draw"] * 5, inject=None, at_sweep=1, node=0,
         block=schwarz._BLOCK_VALUES, quiet=True)
@example(seed=2, sizes=[2, 3, 1], rho=0.9, fixed=True, budget=150, tol=1e-6,
         with_reference=True, guess=["zero", "sub-floor", "draw", "draw", "draw"],
         inject=np.nan, at_sweep=70, node=4, block=schwarz._BLOCK_VALUES, quiet=True)
@example(seed=3, sizes=[1, 2], rho=0.9, fixed=False, budget=200, tol=1e-6,
         with_reference=False, guess=["above-floor", "zero", "draw", "draw", "draw"],
         inject=1e300, at_sweep=2, node=0, block=schwarz._BLOCK_VALUES, quiet=True)
# injections in the middle of a later block: of the fourth block of 7 sweeps
# of 6 values, whose next sweep meets an invalid value (+-inf) or an
# overflow, which both loops raise from it (1.5e308), and of the fifth of 10
# sweeps of 2 values, which a NaN reaches the end of quietly
@example(seed=4, sizes=[2, 3, 1], rho=0.9, fixed=True, budget=60, tol=1e-6,
         with_reference=True, guess=["draw"] * 5, inject=np.inf, at_sweep=24, node=1,
         block=45, quiet=False)
@example(seed=5, sizes=[2, 3, 1], rho=0.9, fixed=True, budget=60, tol=1e-6,
         with_reference=False, guess=["draw"] * 5, inject=-np.inf, at_sweep=24, node=3,
         block=45, quiet=False)
@example(seed=6, sizes=[2, 3, 1], rho=1.1, fixed=True, budget=60, tol=1e-6,
         with_reference=True, guess=["draw"] * 5, inject=1.5e308, at_sweep=24, node=0,
         block=45, quiet=False)
@example(seed=7, sizes=[1, 1], rho=0.5, fixed=True, budget=100, tol=1e-6,
         with_reference=True, guess=["draw"] * 5, inject=np.nan, at_sweep=44, node=1,
         block=20, quiet=False)
def test_sweep_loop_keeps_the_bits_of_the_retired_loop(seed, sizes, rho, fixed, budget, tol,
                                                        with_reference, guess, inject, at_sweep,
                                                        node, block, quiet):
    # random affine sweeps: the same logs, counts, traces and error as the
    # loop that appended its rows and rebuilt the stop rule every sweep, with
    # fixed budgets in blocks of `block` // width sweeps.  Quiet runs ignore
    # overflow and invalid values; the others meet them as the suite's
    # error::RuntimeWarning filter raises them, and the first must come from
    # the sweep, or the log row, that the retired loop met it in.  Its stop
    # rule divided by guess norms below the floor, so under a tolerance the
    # runs are quiet
    quiet = quiet or not fixed
    rng = np.random.default_rng(seed)
    at = np.cumsum([0] + sizes)
    width = int(at[-1])
    now = rng.standard_normal(width)
    for i, (lo, hi) in enumerate(zip(at, at[1:])):
        if guess[i] != "draw":  # a guess norm of exactly that scale
            now[lo:hi] = np.copysign(GUESS_SCALES[guess[i]], now[lo:hi])
    reference = rng.standard_normal(width) if with_reference else None
    cfg = SolverConfig(tolerance=tol, max_iterations=budget,
                       fixed_iterations=budget if fixed else None)
    runs = []
    with mock.patch.object(schwarz, "_BLOCK_VALUES", block):
        for loop in (sweep_loop, schwarz._sweep_loop):
            sweep = affine_sweep(np.random.default_rng(seed), width, rho, inject, at_sweep, node)
            try:
                with np.errstate(**(dict(over="ignore", invalid="ignore") if quiet else {})):
                    runs.append(loop(sweep, now.copy(), at, cfg, reference, "in the test"))
            except (FloatingPointError, RuntimeWarning) as exc:
                runs.append(f"{type(exc).__name__}: {exc}")
    want, got = runs
    assert isinstance(got, str) == isinstance(want, str), runs
    if isinstance(want, str):
        assert got == want
        return
    bits = lambda a: None if a is None else (a.shape, a.tobytes())
    (log, last, latest), (new_log, new_last, new_latest) = want, got
    assert bits(new_log.updates) == bits(log.updates)
    assert bits(new_log.errors) == bits(log.errors)
    assert (new_log.converged, new_log.iterations) == (log.converged, log.iterations)
    assert bits(new_last) == bits(last) and bits(new_latest) == bits(latest)


def test_a_converging_tolerance_run_does_not_allocate_its_budget():
    # two interfaces and a budget of 10**6 sweeps: 16 MB of log rows if
    # they were allocated at once
    at = np.array([0, 1, 2])
    sweep = affine_sweep(np.random.default_rng(0), 2, 0.1)
    cfg = SolverConfig(tolerance=1e-6, max_iterations=10**6)
    tracemalloc.start()
    try:
        log, _, _ = schwarz._sweep_loop(sweep, np.ones(2), at, cfg, np.zeros(2), "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.converged and 2 <= log.iterations < 20
    assert log.updates.shape == (log.iterations, 2)
    assert log.errors.shape == (log.iterations + 1, 2)
    assert peak < 64 * 1024, peak


def test_a_wide_fixed_budget_loop_holds_one_sweep_per_block():
    # 2**17 trace values, past `_BLOCK_VALUES`: each block is one sweep,
    # which takes turns with the guess, so the loop holds one output and a
    # difference, not the budget's iterates (16 MB more if it held them) nor
    # a copy of the guess
    width = 2**17
    at = np.array([0, width // 2, width])
    sweep = lambda now, new: np.multiply(now, 0.5, out=new)
    cfg = SolverConfig(fixed_iterations=16)
    now, reference = np.ones(width), np.zeros(width)
    tracemalloc.start()
    try:
        log, _, latest = schwarz._sweep_loop(sweep, now, at, cfg, reference, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.iterations == 16 and np.all(latest == 0.5**16)
    assert np.array_equal(log.errors[:, 0], 0.5 ** np.arange(17))
    assert peak < WIDE_LOOP_PEAK, peak


def _injecting(make, window, at_sweep, value):
    """`make` (`schwarz._window_sweep`) whose sweep, in the
    `window`-th window made, writes `value` into its output at its
    `at_sweep`-th call, with alternating signs, so that a piece that reads
    two of them meets an invalid value.  A call that raises counts for
    nothing, so a sweep the loop runs again is the same sweep."""
    made = [0]

    def wrapped(*args):
        sweep, finish, initial = make(*args)
        made[0] += 1
        calls, mine = [0], made[0] == window

        def injecting(now, new):
            sweep(now, new)
            calls[0] += 1
            if mine and calls[0] == at_sweep:
                new[::2], new[1::2] = value, -value
            return new

        return injecting, finish, initial

    return wrapped


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("driver", ["method1", "method2"])
def test_a_value_injected_mid_block_raises_as_the_retired_loop_does(monkeypatch, driver, value):
    # a fixed budget of 20 sweeps is one block; the sweep after the infs
    # meets an invalid value, which the suite's error::RuntimeWarning filter
    # would raise before the block's logs named them.  Both loops name sweep 7
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", fixed_iterations=20)
    window = 3 if driver == "method1" else 1
    make, errors = schwarz._window_sweep, []
    for loop in (schwarz._sweep_loop, sweep_loop):
        monkeypatch.setattr(schwarz, "_sweep_loop", loop)
        monkeypatch.setattr(schwarz, "_window_sweep", _injecting(make, window, 7, value))
        with pytest.raises(FloatingPointError, match=r"(at t=0\.0625|in the window from t=0): "
                                                     r"sweep 7, interface 0$") as exc:
            if driver == "method1":
                method1_march(pieces, lay.interfaces, tg, cfg)
            else:
                method2_solve(pieces, lay.interfaces, tg, cfg)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_per_step_iteration_matches_direct_coupled_solve(scheme):
    prob = analytic_problem()
    grid = make_grid_1d(255, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 8)
    dt = 0.0125
    pieces = build_local_pieces(prob, grid, lay, dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-14, max_iterations=500)
    states = [p.u0 for p in pieces]
    new_states, log = advance_fields(pieces, lay.interfaces, states, 0.0, dt, cfg)
    assert log.converged

    v1, v2 = direct_step(pieces, lay.interfaces, states, 0.0, dt, scheme)
    scale = max(np.abs(v1).max(), np.abs(v2).max())
    assert np.abs(new_states[0] - v1).max() < 1e-12 * scale
    assert np.abs(new_states[1] - v2).max() < 1e-12 * scale


# (dimension, nodes per axis, steps), each bitwise against the oracle, on
# the FFT route (1d n = 511 and 255) and on the dense one (1d axes of at
# most 127 nodes and the 2d C06 steps on 127^2, 63^2 and 31^2): the march
# transforms each level block of each piece alone, as the oracle does
MONO_CASES = {
    **{f"1d-n511-s{steps}": (1, 511, steps) for steps in (10, 20, 40, 80)},
    "1d-n255-s20": (1, 255, 20),
    **{f"2d-n{n}": (2, n, 128) for n in (127, 63, 31)},
    **{f"1d-n{n}-s40": (1, n, 40) for n in (63, 100, 126, 127)},
}


@pytest.mark.parametrize("final_only", [False, True], ids=["every-level", "final-only"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("case", list(MONO_CASES))
def test_monodomain_is_the_one_piece_method1_march(monkeypatch, case, scheme, final_only):
    # on the per-level forcing route (the oracle's `forcing_modes`) the
    # march has the oracle's bits
    monkeypatch.setattr(schwarz, "_forcing_modes", forcing_modes)
    dim, n, steps = MONO_CASES[case]
    prob = builtin_problem("analytic_1d" if dim == 1 else "analytic_2d")
    grid = (make_grid_1d(n, prob.length, origin=prob.origin) if dim == 1
            else make_grid_2d(n, n, prob.lengths))
    tg = TimeGrid(prob.horizon, steps)
    got = one_piece_march(prob, grid, tg, scheme, final_only=final_only)
    want = run_monodomain(prob, grid, tg, scheme, final_only=final_only)
    assert got.shape == want.shape == ((2 if final_only else steps + 1),) + grid.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("case", list(MONO_CASES))
def test_declared_monodomain_matches_the_oracle_within_round_off(case, scheme):
    # declared data (`Problem.terms`) give the forcing modes as factor times
    # DST(term), the oracle DST(factor times term): every level agrees within
    # 5e-15 of its max (measured at most 1.8e-15 over these cases)
    dim, n, steps = MONO_CASES[case]
    prob = builtin_problem("analytic_1d" if dim == 1 else "analytic_2d")
    assert prob.terms is not None
    grid = (make_grid_1d(n, prob.length, origin=prob.origin) if dim == 1
            else make_grid_2d(n, n, prob.lengths))
    tg = TimeGrid(prob.horizon, steps)
    got = one_piece_march(prob, grid, tg, scheme).reshape(steps + 1, -1)
    want = run_monodomain(prob, grid, tg, scheme).reshape(steps + 1, -1)
    err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    assert err.max() <= 5e-15, err.max()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("budget", ["tolerance", "fixed"])
def test_a_lone_piece_logs_no_sweep(dim, budget):
    # without interfaces the one sweep of a level or window is the
    # solution, not a Schwarz iteration: every log holds 0 iterations, is
    # converged and gives no decay rows
    if dim == 1:
        prob = analytic_problem()
        grid = make_grid_1d(63, prob.length, origin=prob.origin)
    else:
        prob = builtin_problem("analytic_2d")
        grid = make_grid_2d(15, 12, prob.lengths)
    lay = decompose(grid.shape, (1,) * dim, (0, 0))
    tg = TimeGrid(prob.horizon, 8)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", tolerance=1e-10,
                       fixed_iterations=3 if budget == "fixed" else None)
    start = [p.u0 for p in pieces]
    logs = [advance_fields(pieces, lay.interfaces, start, 0.0, tg.dt, cfg)[1],
            method1_advance(pieces, lay.interfaces, Level.of(pieces, start, 0.0), 0.0,
                            tg.dt, cfg)[1],
            *method1_march(pieces, lay.interfaces, tg, cfg)[1],
            method2_solve(pieces, lay.interfaces, tg, cfg)[1]]
    windowed = method2_solve(pieces, lay.interfaces, tg, dataclasses.replace(cfg, window_steps=3))[1]
    assert len(windowed.windows) == 3
    logs += [windowed, *windowed.windows]
    assert len(logs) == 2 + tg.steps + 1 + 4
    for log in logs:
        assert log.iterations == 0 and log.converged
        rows = []
        harness._decay_from_log(rows, "run", log, time_level=0)
        assert rows == []


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_lone_piece_steps_once_per_level(monkeypatch, dim, scheme):
    # no trace is read out of the one-piece layout, so a level marches no
    # base: its one march is the new state's, in `finish`; and no trace is
    # read in, so neither the first level (`Level.of`) nor a finish calls a
    # spread
    prob = analytic_problem() if dim == 1 else builtin_problem("analytic_2d")
    grid = (make_grid_1d(63, prob.length, origin=prob.origin) if dim == 1
            else make_grid_2d(15, 12, prob.lengths))
    lay = decompose(grid.shape, (1,) * dim, (0, 0))
    tg = TimeGrid(prob.horizon, 8)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    march, calls = schwarz._march_modes, []
    monkeypatch.setattr(schwarz, "_march_modes", lambda *args: calls.append(1) or march(*args))
    spread, spreads = schwarz.EdgeStack.spread, []
    monkeypatch.setattr(schwarz.EdgeStack, "spread",
                        lambda *args: spreads.append(1) or spread(*args))
    method1_march(pieces, lay.interfaces, tg, SolverConfig(scheme=scheme))
    assert len(calls) == tg.steps
    assert spreads == []


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
    kappa = theoretical_rate(*overlap_fractions(lay))
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
        _, log = advance_fields(pieces, lay.interfaces, [p.u0 for p in pieces],
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
    kappa = theoretical_rate(*overlap_fractions(lay))
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
        _, log = advance_fields(pieces, lay.interfaces, [p.u0 for p in pieces],
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
    _, log = advance_fields(pieces, lay.interfaces, [p.u0 for p in pieces],
                            0.0, 0.02, cfg, init_guess=guess,
                            reference=zero_reference(lay.interfaces))
    norm = normalized_curve(log)
    assert norm[0] == pytest.approx(1.0)
    assert (np.diff(np.log(norm[: 6])) < 0).all()


def nan_after(t_bad):
    """The analytic problem with a source that turns NaN after t_bad: its
    source part goes in a term of its own, whose factor turns NaN."""
    base = analytic_problem()
    (factor, source, boundary), = base.terms
    nan = lambda t: np.where(np.asarray(t) <= t_bad, factor(t), np.nan)
    zero = lambda x: 0.0 * x
    return dataclasses.replace(base, exact=None,
                               terms=((nan, source, zero), (factor, zero, boundary)))


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


def nan_factor_after(t_bad):
    """The analytic problem with a time factor that turns NaN after t_bad,
    in its source and its boundary data alike."""
    factor = lambda t: np.where(np.asarray(t) <= t_bad, np.exp(PI2 * t), np.nan)
    mode = lambda x: np.sin(np.pi * (x - 0.25))
    return Problem(nu=1.0, lengths=(2.0,), horizon=0.25, origin=(-1.0,), initial=mode,
                   terms=((factor, lambda x: 2.0 * PI2 * mode(x), mode),))


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
def test_a_declared_factor_that_turns_nan_raises_as_the_callables_do(mode):
    # the same error as `nan_after`, whose source alone turns NaN
    prob = nan_factor_after(0.05)
    grid = make_grid_1d(63, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 2, 4)
    tg = TimeGrid(prob.horizon, 20)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    assert schwarz._Layout.of(pieces).terms is not None
    cfg = SolverConfig(scheme="etd2", max_iterations=50,
                       fixed_iterations=50 if mode == "fixed" else None)
    with pytest.raises(FloatingPointError, match=r"at t=0\.0625: sweep 1, interface 0"):
        method1_march(pieces, lay.interfaces, tg, cfg)
    with pytest.raises(FloatingPointError, match=r"window from t=0: sweep 1, interface 0"):
        method2_solve(pieces, lay.interfaces, tg, dataclasses.replace(cfg, scheme="etd1"))


# ---------------------------------------------------------------------------
# inputs every window checks against its pieces
# ---------------------------------------------------------------------------


def _run_driver(driver, pieces, interfaces, tg, cfg, **kw):
    """Run `driver` on the given inputs: "method1" and "method2" over the
    time grid, "advance" one method1_advance call over its first step."""
    if driver == "method1":
        return method1_march(pieces, interfaces, tg, cfg)
    if driver == "method2":
        return method2_solve(pieces, interfaces, tg, cfg, **kw)
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    return method1_advance(pieces, interfaces, level, 0.0, tg.dt, cfg, **kw)


@pytest.mark.parametrize("driver", ["method1", "method2", "advance"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_drivers_refuse_a_step_that_is_not_the_pieces(dim, driver):
    # pieces built for dt 0.01 on a grid of 0.05 steps would step by 0.01
    # and label the levels with the grid's times
    prob, lay, grid, _ = _oracle_1d(3) if dim == 1 else _oracle_2d(2, 2, 2, "half")
    pieces = build_local_pieces(prob, grid, lay, 0.01)
    with pytest.raises(ValueError, match=r"step 0\.05 (at|in the window from) t=.* "
                                         r"the pieces' step 0\.01"):
        _run_driver(driver, pieces, lay.interfaces, TimeGrid(0.25, 5),
                    SolverConfig(fixed_iterations=2))


@pytest.mark.parametrize("driver", ["method1", "method2", "advance"])
def test_drivers_refuse_an_interface_table_that_is_not_the_pieces(driver):
    # the P = 2 table on P = 3 pieces would log 2 update columns of 4 and
    # stop on them alone
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    other = decompose_1d(grid, 2, 2).interfaces
    with pytest.raises(ValueError, match=r"interface table .* trace sizes \[1, 1\], "
                                         r"the pieces' \[1, 1, 1, 1\]"):
        _run_driver(driver, pieces, other, tg, SolverConfig(fixed_iterations=2))


@pytest.mark.parametrize("extra", [1, -1], ids=["one-more", "one-fewer"])
@pytest.mark.parametrize("name", ["init_guess", "reference"])
@pytest.mark.parametrize("driver", ["method2", "advance"])
def test_drivers_refuse_a_guess_or_reference_of_other_interfaces(driver, name, extra):
    # an entry too many would go unread, one too few would fail in the
    # indexing, without naming the window
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    rows = random_trace_guess(lay.interfaces, seed=0,
                              steps=tg.steps if driver == "method2" else None)
    rows = rows + rows[:1] if extra > 0 else rows[:-1]
    with pytest.raises(ValueError, match=fr"the {name.removeprefix('init_')} .* has {len(rows)} "
                                         r"interface entries, the pieces 4 interfaces"):
        _run_driver(driver, pieces, lay.interfaces, tg, SolverConfig(fixed_iterations=2),
                    **{name: rows})


@pytest.mark.parametrize("entry", ["long", "short", "wrong-size"])
@pytest.mark.parametrize("name", ["init_guess", "reference"])
@pytest.mark.parametrize("driver", ["method2", "advance"])
def test_drivers_refuse_a_misshapen_guess_or_reference_entry(driver, name, entry):
    # a method-2 entry of a level too many was cut to the run's levels, and
    # one too short, or one of another trace size, failed in numpy's reshape
    # without naming the window; so did a method-1 entry of any other shape
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    rows = random_trace_guess(lay.interfaces, seed=0,
                              steps=tg.steps if driver == "method2" else None)
    want = rows[1].shape  # (13, 1) for method 2, (1,) for one level
    levels = want[0] if driver == "method2" else 1
    bad = {"long": (levels + 1, 1), "short": (levels - 1, 1), "wrong-size": want[:-1] + (2,)}[entry]
    rows[1] = np.ones(bad)
    label = name.removeprefix("init_")
    with pytest.raises(ValueError, match=fr"the {label} (at|in the window from) t=\S+ has an entry "
                                         + re.escape(f"of shape {bad} for interface 1, the run "
                                                     f"takes {want}")):
        _run_driver(driver, pieces, lay.interfaces, tg, SolverConfig(fixed_iterations=2),
                    **{name: rows})


def test_method2_refuses_a_start_laid_out_for_other_pieces():
    # a P = 2 start on P = 3 pieces would place their modes at other offsets
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    other = build_local_pieces(prob, grid, decompose_1d(grid, 2, 2), tg.dt)
    start = Level.of(other, [p.u0 for p in other], 0.0)
    with pytest.raises(ValueError, match=r"start level is laid out for piece shapes "
                                         r"\(\(33,\), \(33,\)\)"):
        method2_solve(pieces, lay.interfaces, tg, SolverConfig(fixed_iterations=2), start=start)


def test_method1_advance_refuses_a_start_laid_out_for_other_pieces():
    # a delta = 4 start on delta = 2 pieces has as many interfaces of the
    # same sizes, and would solve the start's pieces instead
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    other = build_local_pieces(prob, grid, decompose_1d(grid, 3, 4), tg.dt)
    start = Level.of(other, [p.u0 for p in other], 0.0)
    with pytest.raises(ValueError, match=r"start level is laid out for piece shapes "
                                         r"\(\(24,\), \(29,\), \(24,\)\), the pieces at "
                                         r"t=\S+ have \(\(22,\), \(25,\), \(22,\)\)"):
        method1_advance(pieces, lay.interfaces, start, 0.0, tg.dt,
                        SolverConfig(fixed_iterations=2))


@pytest.mark.parametrize("window", [3, 1], ids=["w3", "w1"])
@pytest.mark.parametrize("dim,args,scheme", [(1, (3,), "etd2"), (1, (4,), "etd1"),
                                             (2, (2, 2, 2, "half"), "etd2")],
                         ids=["1d-P3-etd2", "1d-P4-etd1", "2d-2x2-etd2"])
def test_method2_from_a_given_start_logs_what_it_logs_from_its_own(dim, args, scheme, window):
    # a given start gives 3-step windows (`_window_sweep`) and one-step
    # windows (`_step_sweep`) the bits of the run's own start, and no
    # window writes into its modes, pinned traces or forcing
    prob, lay, grid, tg = (_oracle_1d if dim == 1 else _oracle_2d)(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, tolerance=1e-10, max_iterations=100, window_steps=window)
    guess = random_trace_guess(lay.interfaces, seed=2, steps=tg.steps)
    want_trajs, want = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess)
    start = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    kept = [np.copy(a) for a in start[1:]]
    for _ in range(2):
        trajs, log = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess,
                                   start=start)
        assert log.iterations == want.iterations
        assert len(log.windows) == len(want.windows) == -(-tg.steps // window)
        assert np.array_equal(log.updates, want.updates)
        assert all(np.array_equal(a, b) for a, b in zip(trajs, want_trajs))
        assert all(np.array_equal(a, b) for a, b in zip(start[1:], kept))


# ---------------------------------------------------------------------------
# trace edges: one dense sine basis over the edge's other axes
# ---------------------------------------------------------------------------


def test_piece_edges_name_the_interface_they_read_or_none_for_physical_data():
    # on 3x3 pieces a corner has two physical edges, a side piece one and the
    # middle none; the other edges read the interfaces of the piece's inflow
    prob, lay, grid, tg = _oracle_2d(3, 3, 2, "full")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    assert [p.edges.count(None) for p in pieces] == [2, 1, 2, 1, 0, 1, 2, 1, 2]
    for d, p in enumerate(pieces):
        reads = [i.index for i in lay.interfaces if i.reader == d]
        assert [i for i in p.edges if i is not None] == reads == [e.interface for e in p.inflow]


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
    # axes; read: the node row of the transformed trajectory; each edge
    # through its stack, the other edges' traces zero
    prob, lay, grid, tg = _oracle_2d(3, 3, 2, "full")
    piece = build_local_pieces(prob, grid, lay, tg.dt)[4]
    rng = np.random.default_rng(6)
    axes = (1, 2)
    for edges, stack in ((piece.inflow, piece.inflow_stack),
                         (piece.outflow, piece.outflow_stack)):
        for edge, cols in zip(edges, edge_columns(edges)):
            row = [slice(None)] * 3
            row[1 + edge.axis] = edge.node
            history = rng.standard_normal((5, edge.size))
            field = np.zeros((5,) + piece.u0.shape)
            field[tuple(row)] = edge.weight * history
            want = dstn(field, type=1, norm="ortho", axes=axes)
            traces = np.zeros((5, stack.size))
            traces[:, cols] = history
            got = np.zeros_like(want)
            stack.spread(traces, got)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            u_hat = rng.standard_normal((5,) + piece.u0.shape)
            want = dstn(u_hat, type=1, norm="ortho", axes=axes)[tuple(row)]
            got = stack.read(u_hat)[:, cols]
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the reduced waveform sweep against its field-marching oracle
# ---------------------------------------------------------------------------


def run_both_waveform_routes(monkeypatch, pieces, interfaces, tg, cfg, guess):
    """method2_solve through the library's sweeps (one-step windows on the
    one-step engine), and its windows chained on the field oracle, each
    from the fields the one before rebuilt; per route: trajectories,
    per-window logs and the trace histories of every sweep."""
    seen = []

    def recording(make):
        def made(pieces, start, times, scheme, *rest):
            sweep, finish, initial = make(pieces, start, times, scheme, *rest)
            pinned = np.split(start.pinned, start.layout.traces[1:-1])
            steps = len(times) - 1
            return (record(sweep, seen, lambda v: trace_histories(v, pinned, steps)),
                    finish, initial)
        return made

    monkeypatch.setattr(schwarz, "_window_sweep", recording(schwarz._window_sweep))
    trajs, log = method2_solve(pieces, interfaces, tg, cfg, init_guess=guess)
    library = (trajs, log.windows or (log,), seen)

    trajs = [np.empty((tg.steps + 1,) + p.u0.shape) for p in pieces]
    for traj, p in zip(trajs, pieces):
        traj[0] = p.u0
    win, logs, seen = cfg.window_steps or tg.steps, [], []
    for s in range(0, tg.steps, win):
        part = [traj[s: s + win + 1] for traj in trajs]
        sweep, fields, start = field_window_sweep(pieces, [w[0] for w in part],
                                                  tg.times()[s: s + win + 1], cfg.scheme)
        pinned, steps = [tr[0] for tr in start], len(part[0]) - 1
        logs.append(schwarz._sweep_loop(flat_sweep(record(sweep, seen), pinned, steps),
                                        flat_traces([g[s: s + win + 1] for g in guess]),
                                        trace_offsets(pinned, steps), cfg, None, where="")[0])
        fields(part)
    return library, (trajs, tuple(logs), seen)


def record(sweep, seen, view=lambda out: out):
    """The sweep, appending a copy of the traces of every call, as `view`
    gives them per interface, to `seen`."""
    def recorded(*args):
        out = sweep(*args)
        seen.append([tr.copy() for tr in view(out)])
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


def _long_1d(p):
    """`_oracle_1d` over a window of more than two lag blocks of levels."""
    prob, lay, grid, _ = _oracle_1d(p)
    return prob, lay, grid, TimeGrid(prob.horizon, 2 * schwarz._LAG_LEVELS + 5)


@pytest.mark.parametrize("setup,args", [(_oracle_1d, (4,)), (_long_1d, (3,)),
                                        (_oracle_2d, (2, 2, 2, "half"))],
                         ids=["1d-P4", "1d-P3-long", "2d-2x2"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_waveform_sweep_is_causal(setup, args, scheme):
    # a change of one incoming history from level j on leaves every owned
    # trace below level j bitwise unchanged; a long 1d window also from the
    # first level past a lag block of levels
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    interfaces = lay.interfaces
    pinned = initial_traces(pieces, [p.u0 for p in pieces], len(interfaces))
    start = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    sweep = history_sweep(schwarz._window_sweep(pieces, start, tg.times(), scheme)[0],
                          pinned, tg.steps)
    guess = random_trace_guess(interfaces, seed=4, steps=tg.steps)
    before = sweep(guess)
    for j in sorted({1, tg.steps // 2, tg.steps, min(tg.steps, schwarz._LAG_LEVELS + 1)}):
        for i in range(len(interfaces)):
            changed = [g.copy() for g in guess]
            changed[i][j:] += 1.0 + np.arange(tg.steps + 1 - j)[:, None]
            after = sweep(changed)
            for a, b in zip(before, after):
                assert np.array_equal(a[:j], b[:j]), (j, i)
            assert any(not np.array_equal(a[j:], b[j:]) for a, b in zip(before, after))


def _dense_window_matrix(blocks):
    """The product of a 1d window's lag blocks (`schwarz._lag_blocks`) as
    one dense matrix over every level block, x @ M: level block (b, a) is
    blocks[a - b] for a >= b, else 0."""
    lags, k, m = blocks.shape
    full = np.zeros((lags * k, lags * m))
    for b in range(lags):
        for a in range(b, lags):
            full[b * k:(b + 1) * k, a * m:(a + 1) * m] = blocks[a - b]
    return full


@settings(max_examples=40, deadline=None, database=None)
@given(p=st.integers(2, 5), n=st.sampled_from([31, 47, 63]), overlap=st.integers(1, 3),
       steps=st.integers(2, 2 * schwarz._LAG_LEVELS + 40), scheme=st.sampled_from(["etd1", "etd2"]),
       seed=st.integers(0, 2**32 - 1))
@example(p=4, n=63, overlap=2, steps=schwarz._LAG_LEVELS, scheme="etd2", seed=0)
@example(p=3, n=47, overlap=1, steps=schwarz._LAG_LEVELS + 1, scheme="etd1", seed=1)
def test_window_matrix_sweeps_match_the_convolution_oracle(p, n, overlap, steps, scheme, seed):
    # a random 1d layout: the window-matrix sweep is the convolution sweep
    # within round-off, and each piece's product, assembled densely from its
    # lag blocks, is the block Toeplitz matrix of its response table: 0
    # above the level diagonal, the one-step gains on it, bit for bit
    prob = analytic_problem()
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, p, overlap)
    tg = TimeGrid(prob.horizon, steps)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    start = Level.of(pieces, [q.u0 for q in pieces], 0.0)
    v = flat_traces(random_trace_guess(lay.interfaces, seed=seed, steps=steps))
    got = schwarz._window_sweep(pieces, start, tg.times(), scheme)[0](v, np.empty(len(v)))
    want = convolution_window_sweep(pieces, start, tg.times(), scheme)[0](v, np.empty(len(v)))
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= WINDOW_MATRIX_RTOL * scale, np.abs(got - want).max() / scale

    lags = -(-steps // schwarz._LAG_LEVELS)
    levels = -(-steps // lags)
    for q in pieces:
        r = q.maps[(scheme, steps)]  # the table the sweep built its blocks from
        _, n_in, n_out = r.shape
        m = _dense_window_matrix(schwarz._lag_blocks(r, levels))
        m = m.reshape(lags * levels, n_in, lags * levels, n_out)[:steps, :, :steps]
        gains = schwarz._window_responses(q, scheme, 1)[0]
        for s in range(steps):
            assert not m[s + 1:, :, s].any()  # no input level above its output level
            assert np.array_equal(m[s, :, s], gains)
            assert np.array_equal(m[:s + 1, :, s], r[s::-1])


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_a_long_1d_window_holds_lag_blocks_not_a_dense_matrix(scheme):
    # a whole-horizon window of 2,000 levels at P = 3 over 4 traces: one
    # dense window matrix would be (2,000 * 4)^2 * 8 B = 512 MB, the middle
    # piece's (two inflow and two outflow nodes) 128 MB; its lag blocks are
    # 16 of 250 x 250 (8 MB), and no benchmark workload runs them
    prob = analytic_problem()
    grid = make_grid_1d(31, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, 3, 2)
    tg = TimeGrid(prob.horizon, 2000)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    start = Level.of(pieces, [q.u0 for q in pieces], 0.0)
    v = flat_traces(random_trace_guess(lay.interfaces, seed=3, steps=tg.steps))
    tracemalloc.start()
    try:
        sweep = schwarz._window_sweep(pieces, start, tg.times(), scheme)[0]
        got = sweep(v, np.empty(len(v)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LONG_WINDOW_PEAK, peak
    want = convolution_window_sweep(pieces, start, tg.times(), scheme)[0](v, np.empty(len(v)))
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= WINDOW_MATRIX_RTOL * scale, np.abs(got - want).max() / scale


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("steps", [12, 2 * schwarz._LAG_LEVELS + 5])
def test_a_late_nan_in_an_incoming_history_raises_as_the_convolution_sweep_does(
        monkeypatch, mode, steps):
    # a NaN at the last level of one incoming history reaches every level of
    # the product (0 * NaN), where the convolution kept the earlier levels
    # finite; the loop names the same sweep and interface on either sweep
    prob, lay, grid, _ = _oracle_1d(3)
    tg = TimeGrid(prob.horizon, steps)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", max_iterations=20,
                       fixed_iterations=20 if mode == "fixed" else None)
    library = schwarz._window_sweep
    for i in range(len(lay.interfaces)):
        guess = random_trace_guess(lay.interfaces, seed=i, steps=tg.steps)
        guess[i][-1] = np.nan
        errors = []
        for make in (library, convolution_window_sweep):
            monkeypatch.setattr(schwarz, "_window_sweep", make)
            with pytest.raises(FloatingPointError, match="window from t=0: sweep 1, ") as exc:
                method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess)
            errors.append(str(exc.value))
        assert errors[0] == errors[1], (i, errors)


# flat marches per 12-step run on the P = 4 layout of 72 mode values
# (`_oracle_1d(4)`), by window length and `_BLOCK_VALUES`: per window one
# for its base and one per level block of its finish (6 levels a block at
# 432 values, 3 at 216)
FLAT_MARCHES = {(None, None): 2, (None, 432): 3, (None, 216): 5,
                (4, None): 6, (4, 432): 6, (4, 216): 9}


@pytest.mark.parametrize("window,block", list(FLAT_MARCHES))
def test_1d_sweeps_march_once_per_window_whatever_the_sweep_count(monkeypatch, window, block):
    # the unit-trace responses are built without a march, so a fresh piece
    # set and one that holds them from a solve before march alike: each
    # window once, flat over every piece, for its base read-out, and once
    # per level block of its finish, for its fields
    prob, lay, grid, tg = _oracle_1d(4)
    if block is not None:
        monkeypatch.setattr(schwarz, "_BLOCK_VALUES", block)
    march = schwarz._march_modes
    calls = []
    monkeypatch.setattr(schwarz, "_march_modes", lambda *a: calls.append(1) or march(*a))
    counts = []
    for sweeps in (2, 9):
        pieces = build_local_pieces(prob, grid, lay, tg.dt)
        assert sum(p.u0.size for p in pieces) == 72
        cfg = SolverConfig(scheme="etd2", fixed_iterations=sweeps, window_steps=window)
        for _ in range(2):
            calls.clear()
            method2_solve(pieces, lay.interfaces, tg, cfg)
            counts.append(len(calls))
    assert counts == [FLAT_MARCHES[window, block]] * 4, counts


class _Moving(np.ndarray):
    """State modes that never read as at rest, whatever their values."""

    def any(self, *args, **kwargs):
        return True


@pytest.mark.parametrize("case", ["rest", "data", "start"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("p", [2, 3])
def test_a_1d_window_at_rest_marches_only_in_finish(monkeypatch, p, scheme, case):
    # a whole-horizon error-equation window from t = 0 (zero data, zero
    # start) marches once, flat over every piece, in finish; with data or
    # from a non-zero start it marches its base too.  A march of zeros reads
    # out +0.0, the base of a window at rest, so the route that marches that
    # base anyway (modes that never read as at rest) logs and returns the
    # same bits
    prob = analytic_problem() if case == "data" else builtin_problem("error_equation", 0.5)
    grid = make_grid_1d(63, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, p, 2)
    tg = TimeGrid(prob.horizon, 20)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    fields = [q.u0 + (case == "start") * np.sin(np.arange(q.u0.size)) for q in pieces]
    start = Level.of(pieces, fields, 0.0)
    cfg = SolverConfig(scheme=scheme, fixed_iterations=12)
    guess = random_trace_guess(lay.interfaces, 1, steps=tg.steps)
    run = lambda: method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess,
                                reference=zero_reference(lay.interfaces, tg.steps), start=start)
    run()  # builds the response tables, held on the pieces
    march, calls = schwarz._march_modes, []
    monkeypatch.setattr(schwarz, "_march_modes", lambda *a: calls.append(1) or march(*a))
    trajs, log = run()
    assert len(calls) == (1 if case == "rest" else 2)
    start = start._replace(modes=start.modes.view(_Moving))
    calls.clear()
    moving_trajs, moving_log = run()
    assert len(calls) == 2
    bits = lambda a: (a.shape, a.tobytes())
    assert bits(log.updates) == bits(moving_log.updates)
    assert bits(log.errors) == bits(moving_log.errors)
    assert all(bits(a) == bits(b) for a, b in zip(trajs, moving_trajs))
    if case == "rest":
        for piece, u in zip(pieces, start.states):
            base = piece.outflow_stack.read(march_modes(piece.ws, scheme, u,
                                                        np.zeros((21,) + u.shape)))
            assert not (base.any() or np.signbit(base).any())


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
    pinned = [tr[0] for tr in traces]
    if init_guess is not None:
        traces = [np.stack([tr[0], np.ravel(g)]) for tr, g in zip(traces, init_guess)]
    if reference is not None:
        reference = flat_traces([np.stack([r, r]) for r in reference])
    log = schwarz._sweep_loop(flat_sweep(sweep, pinned, 1), flat_traces(traces),
                              trace_offsets(pinned, 1), config, reference,
                              where=f"at t={t_next:g}")[0]
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
        got, log = advance_fields(pieces, itfs, states, tg.t(m), tg.t(m + 1), cfg, **kw)
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
def test_a_carried_level_gets_no_two_level_window(monkeypatch, setup, args):
    # a level, built by Level.of or handed on by a call, goes on in
    # sine-mode space: no two-level window per piece is allocated
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", fixed_iterations=2)
    empty, shapes = np.empty, []
    monkeypatch.setattr(schwarz.np, "empty", lambda shape, *a, **kw: shapes.append(
        tuple(np.atleast_1d(shape).tolist())) or empty(shape, *a, **kw))
    windows = {(2,) + p.u0.shape for p in pieces}
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    for m in range(2):
        level, _ = method1_advance(pieces, lay.interfaces, level, tg.t(m), tg.t(m + 1), cfg)
    assert shapes and not windows & set(shapes)


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


def _ten_steps_1d(n, p, overlap):
    prob = builtin_problem("analytic_1d")
    grid = make_grid_1d(n, prob.length, origin=prob.origin)
    return prob, decompose_1d(grid, p, overlap), grid, TimeGrid(prob.horizon, 10)


def _ten_steps_2d():
    prob = builtin_problem("analytic_2d")
    grid = make_grid_2d(31, 23, prob.lengths)
    return prob, decompose_2d(31, 23, 3, 2, 2, "half"), grid, TimeGrid(prob.horizon, 10)


BUDGETS = [pytest.param(dict(fixed_iterations=3), id="fixed3"),
           pytest.param(dict(tolerance=1e-10, max_iterations=2000), id="tol1e-10")]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [
    pytest.param(_ten_steps_1d, (63, 3, 2), id="1d-dense-n63-P3"),
    pytest.param(_ten_steps_1d, (511, 2, 8), id="1d-fft-n511-P2"),
    pytest.param(_ten_steps_2d, (), id="2d-3x2-half"),
])
def test_per_step_march_is_the_chain_of_level_by_level_advances_bitwise(monkeypatch, setup,
                                                                        args, scheme, budget):
    # method1_march is the chain of carried method1_advance calls: each
    # level forms its own forcing, with no assembly, in one factor product
    # of one level
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, **budget)
    trajs, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    times = _factor_products(monkeypatch)
    chain = [np.empty_like(t) for t in trajs]
    for traj, p in zip(chain, pieces):
        traj[0] = p.u0
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    for m, log in enumerate(logs):
        level, got = method1_advance(pieces, lay.interfaces, level, tg.t(m), tg.t(m + 1), cfg)
        assert_same_log(got, log)
        for traj, u_hat in zip(chain, level.states):
            traj[m + 1] = u_hat
    schwarz._rebuild(pieces, chain)
    assert set(times) == {1}
    for a, b in zip(trajs, chain):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("setup,args,budget", [
    *[pytest.param(setup, args, b.values[0], id=f"{name}-{b.id}")
      for setup, args, name in ((_ten_steps_1d, (63, 3, 2), "1d-n63-P3"),
                                (_ten_steps_2d, (), "2d-31x23-3x2")) for b in BUDGETS],
    *[pytest.param(setup, args, dict(tolerance=1e-10, max_iterations=400), id=f"{name}-tol1e-10")
      for setup, args, name in ((_oracle_1d, (3,), "1d-P3"),
                                (_oracle_2d, (2, 2, 2, "half"), "2d-2x2"))],
])
def test_etd1_per_step_march_and_one_step_waveform_windows_agree_bitwise(setup, args, budget):
    # both drivers run one-step levels on the one engine: with the same ETD1
    # starting guess (the previous level's traces) they give the same fields
    # and the same per-level updates, bit for bit, and every level converges
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd1", window_steps=1, **budget)
    per_step, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    windowed, log = method2_solve(pieces, lay.interfaces, tg, cfg)
    assert len(log.windows) == len(logs) == tg.steps
    assert all(lg.converged for lg in logs)
    for a, b in zip(logs, log.windows):
        assert_same_log(a, b)
    for a, b in zip(per_step, windowed):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (3, 2, 2, "half"))],
                         ids=["1d-P3", "2d-3x2"])
def test_one_step_finish_has_the_bits_of_a_two_level_march(setup, args, scheme):
    # a one-step window marches from the start part A = E u (+ phi1 f0):
    # one step with the operations of the march from u (the oracle's
    # `march_modes`) in their order, so the new state is that march's bit
    # for bit; from a run's first level (Level.of), then from levels
    # handed on
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    for m in range(3):
        times = (tg.t(m), tg.t(m + 1))
        layout, _, *flat = window_start(pieces, level, times)
        at = layout.traces
        sweep, finish, latest = schwarz._window_sweep(pieces, level, times, scheme)
        for _ in range(3):
            last, latest = latest, sweep(latest, np.empty(len(latest)))
        out = [np.empty((2,) + p.u0.shape) for p in pieces]
        level = finish(out, last, latest)
        parts = zip(*map(layout.views, flat))
        for p, (u, f0, forcing), o, got in zip(pieces, parts, out, level.states):
            f_hat = np.stack([f0, forcing[0]])
            ins = np.concatenate([np.arange(at[e.interface], at[e.interface + 1])
                                  for e in p.inflow])
            # the new level's pinned traces are spread in the same call
            traces = np.stack([last, latest])[:, ins]
            f1 = np.repeat(f_hat[1:], len(traces), axis=0)
            p.inflow_stack.spread(traces, f1)
            f_hat[1] = f1[0]
            want = march_modes(p.ws, scheme, u, f_hat)[1]
            assert np.array_equal(got, want) and np.array_equal(o[1], want), m


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("window", [1, 3], ids=["w1", "w3"])
@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (2, 2, 2, "half"))],
                         ids=["1d-P3", "2d-2x2"])
def test_a_handed_on_level_has_the_forcing_level_of_forms(setup, args, window, scheme):
    # the level a window hands on carries as f0 its forcing at the window's
    # last time with its pinned traces spread in, the arithmetic of
    # `Level.of`: a one-step window's and a longer one's, window after
    # window
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, fixed_iterations=3)
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    for s in range(0, 2 * window, window):
        times = [tg.t(s + m) for m in range(window + 1)]
        _, level = schwarz._solve_window(pieces, lay.interfaces, level, None, times, cfg,
                                         None, None, where="")
        want = np.empty((1, level.layout.size))
        schwarz._forcing_modes(pieces, level.layout, times[-1:], want)
        schwarz._spread_all(level.layout, level.pinned[level.layout.ins][None], want)
        if setup is _oracle_2d and window == 1:
            # a 2d one-step finish spreads the traces of both its levels in
            # one call, whose round-off may depend on the row count
            np.testing.assert_allclose(level.f0, want[0], rtol=0,
                                       atol=1e-14 * np.abs(want).max(), err_msg=str(s))
        else:
            assert np.array_equal(level.f0, want[0]), s


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
    if driver == "mono":  # method 1 on the one-piece layout
        lay = decompose(grid.shape, (1, 1), (0, 0))
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    nodes = sum(p.u0.size for p in pieces)
    solve = method2_solve if driver == "method2" else method1_march
    cfg = SolverConfig(scheme="etd2", fixed_iterations=2,
                       window_steps=4 if driver == "method2" else None)
    run = lambda **kw: solve(pieces, lay.interfaces, tg, cfg, **kw)
    run(final_only=True)  # builds the pieces' response tables outside the trace
    every_level = (tg.steps + 1) * nodes * 8
    kept = _traced_peak(lambda: run(final_only=True))
    full = _traced_peak(run)
    assert kept < every_level / 2, (kept, every_level)
    assert full > every_level, (full, every_level)


def test_a_whole_horizon_2d_finish_holds_little_beyond_its_forcing():
    # a final-only whole-horizon 2d method-2 window holds its forcing modes
    # at every level (steps x layout size x 8 B); its finish marches them in
    # place, in level blocks, so the run peaks below 3.5 times them
    # (measured 3.10)
    prob = builtin_problem("analytic_2d")
    grid = make_grid_2d(31, 31, prob.lengths)
    lay = decompose_2d(31, 31, 2, 2, 2, "half")
    tg = TimeGrid(prob.horizon, 64)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme="etd2", fixed_iterations=2)
    run = lambda: method2_solve(pieces, lay.interfaces, tg, cfg, final_only=True)
    run()  # builds the pieces' response tables outside the trace
    forcing = tg.steps * sum(p.u0.size for p in pieces) * 8
    peak = _traced_peak(run)
    assert peak < 3.5 * forcing, peak / forcing


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args,window", [(_oracle_1d, (3,), None), (_oracle_1d, (3,), 5),
                                               (_oracle_2d, (2, 2, 2, "half"), None),
                                               (_oracle_2d, (3, 2, 3, "full"), 3)],
                         ids=["1d-P3", "1d-P3-w5", "2d-2x2", "2d-3x2-w3"])
def test_a_finish_in_level_blocks_has_the_bits_of_one_block(monkeypatch, setup, args, window,
                                                            scheme, levels):
    # a finish marches blocks of at most `_BLOCK_VALUES` mode values, each
    # from the last level of the one before, and spreads each block's rows,
    # C-ordered, each with the bits of a spread of its own: blocks of 1 or
    # 3 levels give every level and log of one block, bit for bit
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, fixed_iterations=3, window_steps=window)
    guess = random_trace_guess(lay.interfaces, seed=2, steps=tg.steps)
    want_trajs, want = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess)
    monkeypatch.setattr(schwarz, "_BLOCK_VALUES", levels * sum(p.u0.size for p in pieces))
    trajs, log = method2_solve(pieces, lay.interfaces, tg, cfg, init_guess=guess)
    assert_same_log(log, want)
    assert all(np.array_equal(a, b) for a, b in zip(trajs, want_trajs))


@pytest.mark.parametrize("setup,args,steps,planned", [
    (_oracle_1d, (3,), 1, True), (_oracle_2d, (3, 2, 2, "half"), 1, True),
    (_oracle_1d, (3,), 3, True), (_oracle_1d, (3,), 12, True),
    (_oracle_2d, (3, 2, 2, "half"), 3, False)], ids=["1d-1", "2d-1", "1d-3", "1d-12", "2d-3"])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_a_window_chooses_its_sweep_from_its_input(monkeypatch, setup, args, steps, planned,
                                                   scheme):
    # every window runs the one engine; its sweep alone follows the input:
    # one-step windows (1d and 2d) and 1d windows build the layout's plan
    # and march nothing inside a sweep, and a 3-step 2d window builds no
    # plan and marches each piece in every sweep
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    plans, marches = _counting(monkeypatch, "_sweep_plan"), _counting(monkeypatch, "_march_modes")
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    sweep, finish, now = schwarz._window_sweep(pieces, level, tg.times()[:steps + 1], scheme)
    assert len(plans) == planned
    marches.clear()
    for _ in range(3):
        now = sweep(now, np.empty(len(now)))
    assert len(marches) == (0 if planned else 3 * len(pieces))
    plans.clear()
    method2_solve(pieces, lay.interfaces, tg, SolverConfig(scheme=scheme, fixed_iterations=2,
                                                          window_steps=steps))
    assert len(plans) == planned  # the 2-step last window of a 2d run builds none either


def _factor_products(monkeypatch):
    """The number of times of every `term_factors` call the drivers make from
    now on, one entry per call: each is one factor product of those levels."""
    factors, times = schwarz.term_factors, []
    monkeypatch.setattr(schwarz, "term_factors",
                        lambda prob, t: times.append(np.size(t)) or factors(prob, t))
    return times


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("dim,window", [(1, 1), (1, 3), (2, 1)],
                         ids=["1d-n63-P3-w1", "1d-n63-P3-w3", "2d-2x2-w1"])
def test_short_waveform_windows_form_the_forcing_of_the_per_step_march(monkeypatch, dim,
                                                                      window, scheme):
    # both drivers run on one loop, and every window forms the forcing of
    # its own levels in one factor product, after the run's first level
    # (`Level.of`) forms level 0: the per-step march one level a product,
    # method 2 in one-step windows the same products, in 3-step windows 3
    # levels a product on 12 steps
    prob, lay, grid, tg = _oracle_1d(3) if dim == 1 else _oracle_2d(2, 2, 2, "half")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, fixed_iterations=2, window_steps=window)
    levels = _factor_products(monkeypatch)
    method1_march(pieces, lay.interfaces, tg, cfg)
    per_step = levels.copy()
    levels.clear()
    method2_solve(pieces, lay.interfaces, tg, cfg)
    assert per_step == [1] * (1 + tg.steps)
    assert levels == [1] + [window] * (tg.steps // window)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_whole_horizon_window_forms_its_forcing_in_one_factor_product(monkeypatch, dim, scheme):
    prob, lay, grid, tg = _oracle_1d(3) if dim == 1 else _oracle_2d(2, 2, 2, "half")
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    times = _factor_products(monkeypatch)
    method2_solve(pieces, lay.interfaces, tg, SolverConfig(scheme=scheme, fixed_iterations=2))
    # level 0 as the run's first level (`Level.of`), then levels 1..steps
    # in one product, as the window starts
    assert times == [1, tg.steps]


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_declared_data_assemble_no_forcing_and_transform_each_term_once(monkeypatch, scheme):
    # each piece's term forcing is transformed when the layout is built, one
    # call per geometry group as (K, k, 1, *shape); the first level
    # transforms its state alone, and no level assembles or transforms
    # forcing: it is one factor product per window
    to_modes, shapes = SpectralFactorization.to_modes, []
    monkeypatch.setattr(SpectralFactorization, "to_modes",
                        lambda fact, v: shapes.append(v.shape) or to_modes(fact, v))
    products = _factor_products(monkeypatch)
    prob = builtin_problem("analytic_2d")
    k_terms = len(prob.terms)
    tg = TimeGrid(prob.horizon, 8)
    # 2x2: four corners, one piece per geometry group; 4x4 of equal pieces:
    # nine groups of 1, 2 and 4 pieces
    for args, sizes in (((15, 12, 2, 2, 2, "half"), [1] * 4),
                        ((31, 35, 4, 4, 2, "full"), [1, 2, 1, 2, 4, 2, 1, 2, 1])):
        lay = decompose_2d(*args)
        pieces = build_local_pieces(prob, make_grid_2d(*args[:2], prob.lengths), lay, tg.dt)
        groups = schwarz._Layout.of(pieces).blocks
        assert [len(b.members) for b in groups] == sizes
        shapes.clear()
        products.clear()
        method1_march(pieces, lay.interfaces, tg, SolverConfig(scheme=scheme, fixed_iterations=3))
        p, g, steps = len(pieces), len(groups), tg.steps
        assert shapes[:g] == [(k_terms, len(b.members), 1) + b.piece.u0.shape for b in groups]
        assert shapes[g:2 * g] == [(1, len(b.members), 1) + b.piece.u0.shape for b in groups]
        assert shapes[2 * g:] == [(steps, 1) + q.u0.shape for q in pieces]
        assert sum(map(math.prod, shapes)) == sum((k_terms + 1 + steps) * q.u0.size
                                                  for q in pieces)
        assert products == [1] * (1 + steps)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [
    pytest.param(_ten_steps_1d, (63, 3, 2), id="1d-dense-n63-P3"),
    pytest.param(_ten_steps_1d, (511, 2, 8), id="1d-fft-n511-P2"),
    pytest.param(_ten_steps_2d, (), id="2d-3x2-half"),
])
def test_declared_per_step_march_is_the_chain_of_level_by_level_advances_bitwise(
        monkeypatch, setup, args, scheme):
    # a level's forcing modes are an elementwise sum of the term modes, so
    # blocks of any length give one level the same bits; every window of
    # either driver forms its forcing in one factor product
    prob, lay, grid, tg = setup(*args)
    assert prob.terms is not None
    products = _factor_products(monkeypatch)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, fixed_iterations=3)
    trajs, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    chain = [np.empty_like(t) for t in trajs]
    for traj, p in zip(chain, pieces):
        traj[0] = p.u0
    level = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    for m, log in enumerate(logs):
        level, got = method1_advance(pieces, lay.interfaces, level, tg.t(m), tg.t(m + 1), cfg)
        assert_same_log(got, log)
        for traj, u_hat in zip(chain, level.states):
            traj[m + 1] = u_hat
    schwarz._rebuild(pieces, chain)
    for a, b in zip(trajs, chain):
        assert np.array_equal(a, b)
    for window in (1, 3, None):
        products.clear()
        method2_solve(pieces, lay.interfaces, tg, dataclasses.replace(cfg, window_steps=window))
        assert len(products) == 1 + -(-tg.steps // (window or tg.steps))


def two_term_problem(dim):
    """Data of two separable terms on a shifted box, e^(-2t) prod sin(x_k +
    0.3) with boundary part prod cos(x_k), and (1 + t) sum cos(x_k) with
    boundary part 0.5 + sum x_k."""
    terms = ((lambda t: np.exp(-2.0 * t), lambda *x: math.prod(np.sin(c + 0.3) for c in x),
              lambda *x: math.prod(np.cos(c) for c in x)),
             (lambda t: 1.0 + t, lambda *x: sum(np.cos(c) for c in x), lambda *x: 0.5 + sum(x)))
    return Problem(nu=0.7, lengths=(2.0,) * dim, horizon=0.5, origin=(-0.5,) * dim,
                   initial=lambda *x: 0.0 * sum(x), terms=terms)


def zero_data_problem(dim):
    return Problem(nu=1.0, lengths=(2.0,) * dim, horizon=1.0, initial=lambda *x: 0.0 * sum(x),
                   terms=())


@settings(max_examples=60, deadline=None, database=None)
@given(dim=st.sampled_from([1, 2]), data=st.sampled_from(["builtin", "two-term", "zero"]),
       counts=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       widths=st.tuples(st.integers(6, 12), st.integers(6, 9)),
       jitter=st.sampled_from([0, 0, 1, 3]), overlap=st.integers(1, 3),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
@example(dim=2, data="two-term", counts=(4, 3), widths=(6, 7), jitter=1, overlap=2,
         fractions=[0.0, 0.5, 1.0])
def test_declared_forcing_modes_match_the_callable_route(dim, data, counts, widths, jitter,
                                                         overlap, fractions):
    # on random layouts the term route (`_Layout.terms`) gives the forcing
    # modes of the oracle, which assembles `Problem.source` and `boundary`
    # at each time and transforms them: every row within 2e-15 of its max (measured at most
    # 8.2e-16 over 400 random cases); zero data give exact zeros
    prob = {"builtin": lambda: builtin_problem("analytic_1d" if dim == 1 else "analytic_2d"),
            "two-term": lambda: two_term_problem(dim),
            "zero": lambda: zero_data_problem(dim)}[data]()
    shape = tuple(p * w - 1 + jitter for p, w in zip(counts[:dim], widths))
    lay = decompose(shape, counts[:dim], (overlap, overlap))
    grid = make_grid_1d(shape[0], prob.length, origin=prob.origin) if dim == 1 \
        else make_grid_2d(*shape, prob.lengths, prob.origin)
    pieces = build_local_pieces(prob, grid, lay, 0.01)
    layout = schwarz._Layout.of(pieces)
    assert layout.terms.shape == (len(prob.terms), layout.size)
    times = np.array(sorted(fractions)) * prob.horizon
    got, want = np.empty((2, len(times), layout.size))
    schwarz._forcing_modes(pieces, layout, times, got)
    forcing_modes(pieces, layout, times, want)
    if data == "zero":
        assert np.array_equal(got, np.zeros_like(got))
        return
    err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    assert err.max() <= 2e-15, err.max()


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_piece_forcing_over_an_array_of_times_is_the_stack_of_per_time_calls(dim):
    # the forcing modes of a window's levels in one factor product are, bit
    # for bit, those of one level at a time, for one term and for two
    shape, counts = ((47,), (3,)) if dim == 1 else ((15, 12), (2, 2))
    for prob in (builtin_problem("analytic_1d" if dim == 1 else "analytic_2d"),
                 two_term_problem(dim)):
        grid = make_grid_1d(shape[0], prob.length, origin=prob.origin) if dim == 1 \
            else make_grid_2d(*shape, prob.lengths, prob.origin)
        pieces = build_local_pieces(prob, grid, decompose(shape, counts, (2, 2)), 0.01)
        layout = schwarz._Layout.of(pieces)
        times = np.linspace(0.0, prob.horizon, 9)
        stacked, alone = np.empty((len(times), layout.size)), np.empty((1, layout.size))
        schwarz._forcing_modes(pieces, layout, times, stacked)
        for row, t in zip(stacked, times.tolist()):
            schwarz._forcing_modes(pieces, layout, [t], alone)
            assert np.array_equal(row, alone[0]), t


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_a_window_start_has_the_modes_of_each_level_transformed_alone(monkeypatch, scheme):
    # 1d pieces of at most _DENSE_AXIS_MAX nodes transform by one matrix
    # product, whose round-off per row BLAS may make depend on the row
    # count; a whole-horizon window's state and forcing modes are those of
    # each piece-level transformed alone, bit for bit
    prob, lay, grid, tg = _ten_steps_1d(63, 3, 2)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    assert max(q.u0.size for q in pieces) <= matfunc._DENSE_AXIS_MAX
    window, starts = schwarz._window_sweep, []
    monkeypatch.setattr(schwarz, "_window_sweep", lambda *a: starts.append(a[1]) or window(*a))
    forcing_modes, seen = schwarz._forcing_modes, []
    monkeypatch.setattr(schwarz, "_forcing_modes",
                        lambda *a: forcing_modes(*a) or seen.append(a[3].copy()))
    method2_solve(pieces, lay.interfaces, tg, SolverConfig(scheme=scheme, fixed_iterations=1))
    ((layout, u, _, _),), (_, forcing) = starts, seen  # the first level's forcing, the window's
    assert forcing.shape == (tg.steps, layout.size)
    for m, t in enumerate(tg.times()[1:].tolist()):
        alone = np.empty((1, layout.size))
        schwarz._forcing_modes(pieces, layout, [t], alone)
        assert np.array_equal(forcing[m], alone[0]), m
    for q, got in zip(pieces, layout.views(u)):
        assert np.array_equal(got, q.ws.fact.to_modes(q.u0[None])[0])


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
    a = dense_laplacian(DirichletLaplacian(box.shape, prob.nu, grid.spacings))
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


@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (3, 3, 2, "full")),
                                        (_oracle_2d, (3, 2, 2, "half"))],
                         ids=["1d-P3", "2d-3x3-full", "2d-3x2-half"])
def test_edge_stacks_are_the_sums_of_the_per_edge_forms(setup, args):
    # a stack spreads and reads out all its edges at once: in 1d bit for bit
    # the per-edge products summed in edge order, in 2d, where the edges of
    # an axis share their products, within round-off
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    assert {len(p.inflow) for p in pieces} == ({1, 2} if setup is _oracle_1d else
                                               {2, 3, 4} if args[1] == 3 else {2, 3})
    rng = np.random.default_rng(8)
    for piece in pieces:
        shape = piece.u0.shape
        for edges, stack in ((piece.inflow, piece.inflow_stack),
                             (piece.outflow, piece.outflow_stack)):
            traces = rng.standard_normal((4, stack.size))
            want = np.zeros((4,) + shape)
            for edge, cols in zip(edges, edge_columns(edges)):
                want += edge_spread(shape, edge, traces[:, cols])
            got = np.zeros_like(want)
            stack.spread(traces, got)
            u_hat = rng.standard_normal((4,) + shape)
            read = np.concatenate([edge_read(shape, e, u_hat) for e in edges], axis=1)
            for a, b in ((got, want), (stack.read(u_hat), read)):
                if setup is _oracle_1d:
                    assert np.array_equal(a, b)
                else:
                    assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [(_oracle_1d, (3,)), (_oracle_2d, (3, 3, 2, "full")),
                                        (_oracle_2d, (3, 2, 2, "half"))],
                         ids=["1d-P3", "2d-3x3-full", "2d-3x2-half"])
def test_step_gains_are_the_one_step_window_responses(setup, args, scheme):
    # the one-step table, the gains, comes without a march: in 1d with the
    # bits of the marched table, in 2d, where the units go as one block per
    # edge and the marched table's as blocks of at most 8, within round-off
    # of it
    prob, lay, grid, tg = setup(*args)
    for piece in build_local_pieces(prob, grid, lay, tg.dt):
        got = schwarz._window_responses(piece, scheme, 1)[0]
        want = marched_responses(piece, scheme, 1)[0]
        assert got.shape == want.shape == (piece.inflow_stack.size, piece.outflow_stack.size)
        if setup is _oracle_1d:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args", [(_oracle_1d, (4,)), (_oracle_2d, (3, 2, 2, "half"))],
                         ids=["1d-P4", "2d-3x2-half"])
def test_window_responses_are_the_tables_marched_over_every_level(setup, args, scheme):
    # past level 2 the table is a cumulative product by E, with the march's
    # bits; its level 1, read out alone, has the bits of the one-step table
    # (the gains) in 1d (the marched table's one read-out of every level may
    # round them differently), and the marched table's in 2d
    prob, lay, grid, tg = setup(*args)
    for piece in build_local_pieces(prob, grid, lay, tg.dt):
        for steps in (1, 2, 3, 12):
            got = schwarz._window_responses(piece, scheme, steps)
            want = marched_responses(piece, scheme, steps)
            assert got.shape == want.shape and np.array_equal(got[1:], want[1:]), steps
            if setup is _oracle_1d:
                assert np.array_equal(got[0], schwarz._window_responses(piece, scheme, 1)[0]), steps
            else:
                assert np.array_equal(got[0], want[0]), steps


def _per_piece_march(pieces, interfaces, tg, cfg):
    """method1_march on the retired per-piece engine (oracles.step_sweep),
    with everything else the library's."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(schwarz, "_window_sweep", step_sweep)
        return method1_march(pieces, interfaces, tg, cfg)


@settings(max_examples=40, deadline=None, database=None)
@given(counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       widths=st.tuples(st.integers(6, 9), st.integers(6, 9)),
       jitter=st.tuples(st.sampled_from([0, 0, 1, 3]), st.sampled_from([0, 0, 2])),
       overlap=st.integers(1, 3), convention=st.sampled_from(["half", "full"]),
       scheme=st.sampled_from(["etd1", "etd2"]), sweeps=st.integers(1, 4))
@example(counts=(5, 4), widths=(6, 7), jitter=(0, 0), overlap=2, convention="full",
         scheme="etd2", sweeps=3)
def test_grouped_2d_march_matches_the_per_piece_engine(counts, widths, jitter, overlap,
                                                       convention, scheme, sweeps):
    # pieces of one geometry run their read-outs, gains products and
    # spreads together; in 2d a product over several pieces
    # rounds differently, so the march agrees with the per-piece engine
    # within round-off, with the same sweep counts
    nx, ny = (p * w - 1 + j for p, w, j in zip(counts, widths, jitter))
    assume(nx != ny)
    prob = builtin_problem("analytic_2d")
    grid, lay = make_grid_2d(nx, ny, prob.lengths), decompose_2d(nx, ny, *counts, overlap,
                                                                 convention)
    tg = TimeGrid(prob.horizon, 5)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, fixed_iterations=sweeps)
    got, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    want, want_logs = _per_piece_march(pieces, lay.interfaces, tg, cfg)
    u_max = max(np.abs(w).max() for w in want)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-13 * u_max, np.abs(a - b).max() / u_max
    assert [lg.iterations for lg in logs] == [lg.iterations for lg in want_logs]


@settings(max_examples=40, deadline=None, database=None)
@given(p=st.integers(1, 6), width=st.integers(8, 14), jitter=st.sampled_from([0, 0, 1, 3]),
       overlap=st.integers(1, 3), scheme=st.sampled_from(["etd1", "etd2"]),
       budget=st.sampled_from([dict(fixed_iterations=3), dict(tolerance=1e-10)]))
@example(p=6, width=10, jitter=0, overlap=2, scheme="etd2", budget=dict(tolerance=1e-10))
def test_grouped_1d_march_keeps_the_bits_of_the_per_piece_engine(p, width, jitter, overlap,
                                                                  scheme, budget):
    # interior 1d pieces share a geometry; their products stay one per
    # piece, so the grouped march has the per-piece engine's bits
    prob = analytic_problem()
    grid = make_grid_1d(p * width - 1 + jitter, prob.length, origin=prob.origin)
    lay = decompose_1d(grid, p, overlap if p > 1 else 0)
    tg = TimeGrid(prob.horizon, 6)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    cfg = SolverConfig(scheme=scheme, **budget)
    got, logs = method1_march(pieces, lay.interfaces, tg, cfg)
    want, want_logs = _per_piece_march(pieces, lay.interfaces, tg, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for a, b in zip(logs, want_logs):
        assert_same_log(a, b)


def test_a_method1_level_runs_once_per_geometry_group(monkeypatch):
    # 64 equal pieces on an 8x8 layout have 9 geometries (corners, sides,
    # interior); a level reads out, sweeps and spreads once per geometry
    prob = builtin_problem("analytic_2d")
    grid, lay = make_grid_2d(47, 47, prob.lengths), decompose_2d(47, 47, 8, 8, 2, "full")
    tg = TimeGrid(prob.horizon, 8)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    assert len(pieces) == 64 and len({id(p.inflow_stack) for p in pieces}) == 9
    cfg = SolverConfig(scheme="etd2", fixed_iterations=1)
    calls = []

    class Gains(np.ndarray):
        """Lag blocks of a gains table that record each product they take
        part in: a matmul (a ufunc) or an `np.dot`."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append("gains")
            return getattr(ufunc, method)(*map(_plain, inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            calls.append("gains")
            return func(*map(_plain, args), **kwargs)

    _plain = lambda x: x.view(np.ndarray) if isinstance(x, Gains) else x
    lag_blocks = schwarz._lag_blocks
    monkeypatch.setattr(schwarz, "_lag_blocks", lambda *a: lag_blocks(*a).view(Gains))
    # the first level builds the gains and the layout's one-step plan, and
    # hands on a level in mode space
    level, _ = method1_advance(pieces, lay.interfaces,
                               Level.of(pieces, [p.u0 for p in pieces], 0.0), 0.0,
                               tg.dt, cfg)
    calls.clear()
    for name in ("spread", "read"):
        method = getattr(schwarz.EdgeStack, name)
        monkeypatch.setattr(schwarz.EdgeStack, name,
                            lambda self, *a, _name=name, _method=method:
                            calls.append(_name) or _method(self, *a))
    method1_advance(pieces, lay.interfaces, level, tg.dt, 2 * tg.dt, cfg)
    assert [calls.count(k) for k in ("read", "gains", "spread")] == [9, 9, 9], calls


def _counting(monkeypatch, name):
    """Replace schwarz.<name> by a wrapper that records the piece of each call."""
    build, calls = getattr(schwarz, name), []

    def counted(piece, *args):
        calls.append(id(piece))
        return build(piece, *args)

    monkeypatch.setattr(schwarz, name, counted)
    return calls


def test_step_gains_are_built_once_per_piece_and_scheme(monkeypatch):
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
    advance_fields(pieces, lay.interfaces, [p.u0 for p in pieces], 0.0, tg.dt,
                   SolverConfig(scheme="etd1", fixed_iterations=6), init_guess=guess)
    got, log = advance_fields(pieces, lay.interfaces, [p.u0 for p in pieces], 0.0, tg.dt,
                              etd2, init_guess=guess)
    want, ref = advance_fields(fresh, lay.interfaces, [p.u0 for p in fresh], 0.0, tg.dt,
                               etd2, init_guess=guess)
    assert len(calls) == 3 * len(pieces)
    assert np.array_equal(log.updates, ref.updates)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("setup,args,steps", [
    (_oracle_1d, (4,), 1), (_oracle_1d, (4,), 2), (_oracle_1d, (4,), schwarz._LAG_LEVELS + 1),
    (_oracle_2d, (3, 3, 2, "full"), 1)], ids=["1d-1", "1d-2", "1d-129", "2d-1"])
def test_response_tables_are_built_without_a_march(monkeypatch, setup, args, steps, scheme):
    prob, lay, grid, tg = setup(*args)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    march, calls = schwarz._march_modes, []
    monkeypatch.setattr(schwarz, "_march_modes", lambda *a: calls.append(1) or march(*a))
    for piece in pieces:
        table = schwarz._window_responses(piece, scheme, steps)
        assert table.shape == (steps, piece.inflow_stack.size, piece.outflow_stack.size)
    assert not calls


def test_a_layout_builds_one_sweep_plan_per_scheme_and_window_length(monkeypatch):
    # a plan is built on the first window of its (scheme, length) on a
    # layout and serves every later one; the plans of two schemes on one
    # layout are two, and an ETD2 run on a layout that holds the ETD1 plan
    # has the bits of one on a fresh layout
    prob, lay, grid, tg = _oracle_1d(3)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    build, keys = schwarz._sweep_plan, []
    monkeypatch.setattr(schwarz, "_sweep_plan",
                        lambda p, layout, scheme, steps: keys.append((scheme, steps))
                        or build(p, layout, scheme, steps))
    etd1, etd2 = (SolverConfig(scheme=s, fixed_iterations=4) for s in ("etd1", "etd2"))
    method1_march(pieces, lay.interfaces, tg, etd1)
    assert keys == [("etd1", 1)]
    keys.clear()
    method2_solve(pieces, lay.interfaces, tg, dataclasses.replace(etd1, window_steps=5))
    assert keys == [("etd1", 5), ("etd1", 2)]  # windows of 5, 5 and 2 steps
    keys.clear()
    fresh = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    start = Level.of(pieces, [p.u0 for p in pieces], 0.0)
    runs = [method2_solve(pieces, lay.interfaces, tg, cfg, start=level)
            for cfg, level in ((etd1, start), (etd2, start), (etd2, fresh))]
    assert keys == [("etd1", tg.steps), ("etd2", tg.steps), ("etd2", tg.steps)]
    plans = start.layout.plans
    assert list(plans) == keys[:2] and plans[keys[0]] is not plans[keys[1]]
    (trajs, log), (want_trajs, want_log) = runs[1:]
    assert_same_log(log, want_log)
    assert all(np.array_equal(a, b) for a, b in zip(trajs, want_trajs))


@pytest.mark.parametrize("steps", [1, 3, schwarz._LAG_LEVELS + 2])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_sweeps_of_two_levels_on_one_plan_keep_their_bits_interleaved(scheme, steps):
    # windows from two levels of one layout share its plan and its scratch;
    # their sweeps, called in turn, give the bits of each window's sweep on
    # a layout of its own, whose plan serves no other window
    prob, lay, grid, _ = _oracle_1d(4)
    tg = TimeGrid(prob.horizon, 2 * steps)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    make = schwarz._window_sweep
    fields = [[p.u0 for p in pieces], [p.u0 + np.sin(np.arange(p.u0.size)) for p in pieces]]
    times = [tg.times()[:steps + 1], tg.times()[steps:]]
    levels = [Level.of(pieces, f, t[0]) for f, t in zip(fields, times)]
    shared = [make(pieces, level._replace(layout=levels[0].layout), t, scheme)[0]
              for level, t in zip(levels, times)]
    alone = [make(pieces, Level.of(pieces, f, t[0]), t, scheme)[0] for f, t in zip(fields, times)]
    assert shared[0].func is shared[1].func and alone[0].func is not alone[1].func
    rng = np.random.default_rng(5)
    size = len(lay.interfaces) * steps
    inputs = [rng.standard_normal(size) for _ in range(4)]
    got = [shared[j % 2](v, np.empty(size)) for j, v in enumerate(inputs)]
    for j, v in enumerate(inputs):
        want = alone[j % 2](v, np.empty(size))
        assert np.array_equal(got[j], want), j


# ---------------------------------------------------------------------------
# the iteration-free route: a window's affine interface map, solved densely
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
def test_converged_waveform_iteration_matches_the_direct_interface_solve(p, scheme):
    prob, lay, grid, tg = _oracle_1d(p)
    pieces = build_local_pieces(prob, grid, lay, tg.dt)
    pinned = initial_traces(pieces, [q.u0 for q in pieces], len(lay.interfaces))
    start = Level.of(pieces, [q.u0 for q in pieces], 0.0)
    sweep = schwarz._window_sweep(pieces, start, tg.times(), scheme)[0]
    direct = direct_window_traces(history_sweep(sweep, pinned, tg.steps), pinned, tg.steps)
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
        pinned = initial_traces(pieces, starts, n_if)
        times = tg.times()[s: s + n + 1]
        sweep, finish, _ = schwarz._window_sweep(pieces, Level.of(pieces, starts, times[0]), times,
                                                 scheme)
        x = flat_traces(direct_window_traces(history_sweep(sweep, pinned, n), pinned, n))
        finish(part, x, sweep(x, np.empty(len(x))))  # the window's levels in sine-mode space, then as fields
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
        got, log = advance_fields(pieces, lay.interfaces, got, tg.t(m), tg.t(m + 1), cfg)
        want = direct_step(pieces, lay.interfaces, want, tg.t(m), tg.dt, scheme)
        assert log.converged
        u_max = max(np.abs(u).max() for u in want)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-10 * u_max, np.abs(a - b).max() / u_max
