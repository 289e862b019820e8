"""The benchmark's set-up probe builds its workloads through the public
letd names; renaming or re-signing one of them must fail here first."""
import json
import sys
from pathlib import Path

import pytest

import letd.harness as harness

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
#: pieces built per experiment, in workload order
PIECE_COUNTS = {"table_1d": [40, 4], "rate_1d": [8, 8, 8, 8], "grid2d_step": [1, 16]}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_setup_builds_every_workload(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    counts = [workloads.build_setup(exp.experiment_config(harness, 0, str(tmp_path)))
              for exp in workload.experiments]
    assert counts == PIECE_COUNTS[name]


def test_tracer_sees_every_method1_level_and_sweep(monkeypatch):
    # perfbench/tracer.py counts schwarz.sweeps and schwarz.levels from the
    # module attribute schwarz.method1_advance: the pieces in args[0], the
    # level's log in the result.  A march that steps past it hides levels
    # and sweeps from the gated counts.  Tolerance mode, so that the counts
    # come from the stop rule.
    from letd import schwarz
    from letd.geometry import decompose_2d, make_grid_2d
    from letd.steppers import TimeGrid

    prob = harness.builtin_problem("analytic_2d")
    grid = make_grid_2d(31, 23, prob.lengths)
    lay = decompose_2d(31, 23, 3, 2, 2, "half")
    tg = TimeGrid(prob.horizon, 9)
    pieces = schwarz.build_local_pieces(prob, grid, lay, tg.dt)
    advance, calls = schwarz.method1_advance, []

    def counted(*args, **kwargs):
        out = advance(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(schwarz, "method1_advance", counted)
    _, logs = schwarz.method1_march(pieces, lay.interfaces, tg,
                                    schwarz.SolverConfig(scheme="etd2", tolerance=1e-10))
    assert len(calls) == len(logs) == tg.steps
    assert all(args[0] is pieces for args, _ in calls)
    assert sum(out[1].iterations for _, out in calls) == sum(log.iterations for log in logs)


def test_tracer_sees_no_sweep_in_a_monodomain_run(monkeypatch):
    # the monodomain run is method 1 on the one-piece layout, so the tracer
    # counts its levels through schwarz.method1_advance too.  A lone piece
    # runs no Schwarz sweep, so mono runs add nothing to the gated
    # schwarz.sweeps and schwarz.levels counts.
    from letd import schwarz

    advance, calls = schwarz.method1_advance, []

    def counted(*args, **kwargs):
        out = advance(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(schwarz, "method1_advance", counted)
    harness.run_experiment(harness.ExperimentConfig(
        problem="analytic_1d", solver="mono", scheme="etd2", n=63, dts=(0.025, 0.0125),
        horizon=0.25))
    harness.run_experiment(harness.ExperimentConfig(
        problem="analytic_2d", solver="mono", scheme="etd1", n=15, ny=12, dts=(0.05,),
        horizon=0.5))
    assert len(calls) == 10 + 20 + 10  # one call per level
    assert all(len(args[0]) == 1 for args, _ in calls)
    assert sum(out[1].iterations for _, out in calls) == 0


@pytest.mark.parametrize("solver", ["method1", "method2"])
def test_tracer_sees_one_driver_call_per_rate_study_seed(monkeypatch, solver):
    # perfbench/tracer.py adds each driver call's log.iterations to
    # schwarz.sweeps (and, times the levels, to schwarz.levels): a rate study
    # makes one method1_advance or method2_solve call per seed, and its log
    # holds exactly the sweep budget, one sweep per row.  A study that ran
    # its seeds in one call, or split a seed over more, would move the gated
    # counts
    from letd import schwarz

    name = "method1_advance" if solver == "method1" else "method2_solve"
    driver, logs = getattr(schwarz, name), []

    def counted(*args, **kwargs):
        out = driver(*args, **kwargs)
        logs.append(out[1])
        return out

    for module in (schwarz, harness):  # wherever callers look it up, as the tracer patches
        monkeypatch.setattr(module, name, counted)
    harness.run_experiment(harness.ExperimentConfig(
        problem="error_equation", solver=solver, scheme="etd2", n=63, dts=(0.05,),
        horizon=0.5, px=2, overlaps=(1, 2, 4), seeds=3, fixed_iterations=9))
    assert len(logs) == 3 * 3  # overlaps x seeds
    assert all(log.iterations == 9 and log.updates.shape == (9, 2) and log.converged
               for log in logs)
