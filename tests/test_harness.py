"""Unit tests for the experiment harness: problems, studies, CSVs, CLI."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from letd import harness
from letd.geometry import decompose_1d, make_grid_1d
from letd.harness import (
    DECAY_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    build_parser,
    builtin_problem,
    config_from_args,
    main,
    run_experiment,
)
from letd.schwarz import IterationLog, Level
from letd.steppers import TimeGrid


# ---------------------------------------------------------------------------
# built-in problems: verify the data actually solves u_t = nu*Lap(u) + f
# ---------------------------------------------------------------------------


def _residual_1d(prob, x, t, eps_t=1e-5, eps_x=1e-4):
    u = prob.exact
    ut = (u(x, t + eps_t) - u(x, t - eps_t)) / (2.0 * eps_t)
    uxx = (u(x + eps_x, t) - 2.0 * u(x, t) + u(x - eps_x, t)) / eps_x**2
    return ut - prob.nu * uxx - prob.source(x, t)


def _residual_2d(prob, x, y, t, eps_t=1e-5, eps_s=1e-4):
    u = prob.exact
    ut = (u(x, y, t + eps_t) - u(x, y, t - eps_t)) / (2.0 * eps_t)
    uxx = (u(x + eps_s, y, t) - 2.0 * u(x, y, t) + u(x - eps_s, y, t)) / eps_s**2
    uyy = (u(x, y + eps_s, t) - 2.0 * u(x, y, t) + u(x, y - eps_s, t)) / eps_s**2
    return ut - prob.nu * (uxx + uyy) - prob.source(x, y, t)


def test_analytic_1d_satisfies_its_pde_and_side_data():
    prob = builtin_problem("analytic_1d")
    assert prob.horizon == 0.25 and prob.origin == (-1.0,) and prob.length == 2.0
    for x in (-0.7, -0.1, 0.3, 0.9):
        for t in (0.01, 0.1, 0.25):
            assert abs(_residual_1d(prob, x, t)) < 2e-5
    for t in (0.0, 0.05, 0.25):
        assert abs(prob.boundary(-1.0, t) - prob.exact(-1.0, t)) < 1e-13
        assert abs(prob.boundary(1.0, t) - prob.exact(1.0, t)) < 1e-13
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.abs(prob.initial(xs) - prob.exact(xs, 0.0)).max() < 1e-14


def test_analytic_2d_satisfies_its_pde_and_side_data():
    prob = builtin_problem("analytic_2d")
    assert prob.horizon == 0.5
    assert prob.lengths == (np.pi, np.pi)
    for x, y in ((0.5, 0.7), (1.2, 2.9), (2.8, 0.3)):
        for t in (0.02, 0.25, 0.5):
            assert abs(_residual_2d(prob, x, y, t)) < 1e-6
    xs = np.linspace(0.0, np.pi, 7)
    assert np.abs(prob.initial(xs[:, None], xs[None, :])
                  - prob.exact(xs[:, None], xs[None, :], 0.0)).max() < 1e-14
    for t in (0.0, 0.3):
        assert np.abs(prob.boundary(0.0, xs, t) - prob.exact(0.0, xs, t)).max() < 1e-14


def test_error_equation_is_identically_zero():
    prob = builtin_problem("error_equation")
    assert prob.horizon == 1.0
    xs = np.linspace(0.0, 2.0, 9)
    assert np.abs(prob.initial(xs)).max() == 0.0
    assert np.abs(prob.source(xs, 0.3)).max() == 0.0
    assert np.abs(prob.exact(xs, 0.7)).max() == 0.0
    assert prob.boundary(0.0, 0.2) == 0.0 and prob.boundary(2.0, 0.2) == 0.0
    assert builtin_problem("error_equation", horizon=2.5).horizon == 2.5


def test_unknown_problem_name_rejected():
    with pytest.raises(ValueError):
        builtin_problem("heat_death")


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problem="error_equation", solver="mono")
    with pytest.raises(ValueError):
        ExperimentConfig(dts=(0.3,), horizon=1.0)  # 0.3 does not divide 1.0
    with pytest.raises(ValueError):
        ExperimentConfig(solver="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="etd3")
    with pytest.raises(ValueError):
        ExperimentConfig(problem="wave_equation")
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dts=())
    # settings a run would ignore: 2d runs take one dt and one overlap,
    # and only the waveform solver has windows
    two_d = dict(problem="analytic_2d", solver="mono", n=15, horizon=0.5)
    with pytest.raises(ValueError, match="one time step and one overlap"):
        ExperimentConfig(dts=(0.05, 0.025), **two_d)
    with pytest.raises(ValueError, match="one time step and one overlap"):
        ExperimentConfig(overlaps=(2, 4), **{**two_d, "solver": "method1"})
    for solver in ("mono", "method1"):
        with pytest.raises(ValueError, match="window_steps"):
            ExperimentConfig(problem="analytic_1d", solver=solver, horizon=0.25,
                             window_steps=4)


def test_default_tolerances_track_the_scheme():
    assert ExperimentConfig(scheme="etd1").effective_tolerance() == 1e-4
    assert ExperimentConfig(scheme="etd2").effective_tolerance() == 1e-6
    assert ExperimentConfig(scheme="etd2", tolerance=1e-9).effective_tolerance() == 1e-9


def test_solver_config_modes():
    cfg = ExperimentConfig(scheme="etd2", max_iterations=77)
    sc = cfg.solver_config()
    assert sc.fixed_iterations is None and sc.tolerance == 1e-6 and sc.max_iterations == 77
    fixed = ExperimentConfig(scheme="etd1", fixed_iterations=9).solver_config()
    assert fixed.fixed_iterations == 9 and fixed.budget == 9
    override = cfg.solver_config(budget=5)
    assert override.fixed_iterations == 5 and override.budget == 5


# ---------------------------------------------------------------------------
# study behavior
# ---------------------------------------------------------------------------


def test_single_subdomain_run_matches_monodomain():
    base = dict(problem="analytic_1d", scheme="etd2", n=63,
                dts=(0.025,), horizon=0.25)
    mono = run_experiment(ExperimentConfig(solver="mono", **base))
    loc = run_experiment(ExperimentConfig(solver="method1", px=1,
                                          overlaps=(4,), **base))
    # the monodomain run is method 1 on the one-piece layout: the same bits
    assert mono.summary_rows[0][8] == loc.summary_rows[0][8]
    assert mono.summary_rows[0][4] == 1  # P column
    # a lone piece runs no Schwarz sweep: no decay rows, and the monodomain
    # run reports no iteration count
    assert (mono.summary_rows[0][10], loc.summary_rows[0][10]) == ("", 0)
    assert mono.decay_rows == loc.decay_rows == []


def test_rate_study_reports_contraction_per_overlap():
    cfg = ExperimentConfig(problem="error_equation", solver="method2",
                           scheme="etd1", n=63, dts=(0.1,), horizon=1.0,
                           px=2, overlaps=(2, 8), fixed_iterations=12, seeds=2)
    res = run_experiment(cfg)
    assert len(res.summary_rows) == 2
    rates = {row[1]: row[7] for row in res.summary_rows}
    assert 0.0 < rates[8] < rates[2] < 1.0  # more overlap contracts faster
    assert all(row[10] == 12 for row in res.summary_rows)
    # decay rows exist and the initial-guess rows are normalized to one
    first = [r for r in res.decay_rows if r[1] == 0]
    assert first and all(r[5] == 1.0 for r in first)


@pytest.mark.parametrize("scheme", ["etd1", "etd2"])
@pytest.mark.parametrize("solver", ["method1", "method2"])
def test_rate_rows_share_one_start_level_with_the_bits_of_one_per_seed(
        monkeypatch, solver, scheme):
    # every seed of an (overlap, dt) row solves from one start level; a
    # start built per seed gives the same logs and CSV bodies, and the
    # shared start is unchanged after all of its seeds' solves
    cfg = dict(problem="error_equation", solver=solver, scheme=scheme, n=63,
               dts=(0.1, 0.05), horizon=0.5, px=3, overlaps=(2, 4),
               fixed_iterations=6, seeds=3)
    name = "method1_advance" if solver == "method1" else "method2_solve"
    solve = getattr(harness, name)
    logs, starts = {"shared": [], "own": []}, {}

    def shared(*args, **kwargs):
        start = args[2] if solver == "method1" else kwargs["start"]
        starts.setdefault(id(start), (start, [np.copy(a) for a in start[1:]]))
        out = solve(*args, **kwargs)
        logs["shared"].append(out[1])
        return out

    def own(*args, **kwargs):
        if solver == "method1":
            pieces, dt = args[0], args[4]
            args = args[:2] + (Level.of(pieces, [p.u0 for p in pieces], 0.0),) + args[3:]
        else:
            del kwargs["start"]
        out = solve(*args, **kwargs)
        logs["own"].append(out[1])
        return out

    bodies = []
    for spy in (shared, own):
        monkeypatch.setattr(harness, name, spy)
        bodies.append(_bodies(run_experiment(ExperimentConfig(**cfg))))
    assert bodies[0] == bodies[1]
    assert len(logs["shared"]) == len(logs["own"]) == 12 and len(starts) == 4
    for a, b in zip(logs["shared"], logs["own"]):
        assert np.array_equal(a.updates, b.updates) and np.array_equal(a.errors, b.errors)
    for start, kept in starts.values():  # its modes, pinned traces and forcing
        assert all(np.array_equal(a, b) for a, b in zip(start[1:], kept)), "a solve wrote it"


def test_accuracy_study_reports_observed_order():
    cfg = ExperimentConfig(problem="analytic_1d", solver="mono", scheme="etd1",
                           n=511, dts=(0.025, 0.0125), horizon=0.25)
    res = run_experiment(cfg)
    assert len(res.summary_rows) == 2
    assert res.summary_rows[0][9] == ""  # no order for the first step size
    order = res.summary_rows[1][9]
    assert 0.8 < order < 1.2
    assert res.notes["error_normalization"] == "space-time max of the exact solution"


def test_2d_study_runs_monodomain_and_localized():
    base = dict(problem="analytic_2d", scheme="etd1", n=15, ny=15,
                dts=(0.05,), horizon=0.5)
    mono = run_experiment(ExperimentConfig(solver="mono", **base))
    err = mono.summary_rows[0][8]
    assert 0.0 < err < 0.02
    # a single subdomain is the whole domain: identical to monodomain
    one = run_experiment(ExperimentConfig(solver="method1", px=1, py=1,
                                          overlaps=(2,), **base))
    assert one.summary_rows[0][8] == err
    # real decomposition: converged error includes the interface splitting
    # term, which shrinks first order in dt for this scheme
    errs = []
    for dt in (0.05, 0.025):
        loc = run_experiment(ExperimentConfig(
            solver="method2", px=2, py=1, overlaps=(2,), tolerance=1e-10,
            max_iterations=4000, **{**base, "dts": (dt,)}))
        assert loc.summary_rows[0][10] >= 1
        assert loc.decay_rows  # waveform decay curve recorded
        errs.append(loc.summary_rows[0][8])
    assert 0.0 < errs[1] < errs[0] < 0.05
    assert errs[0] / errs[1] > 1.7


@pytest.mark.parametrize("kw,count", [
    (dict(problem="analytic_1d", solver="method2", scheme="etd2", n=63, px=2,
          overlaps=(2, 4), dts=(0.025,), horizon=0.25), 2),
    (dict(problem="analytic_2d", solver="method1", scheme="etd2", n=15, ny=12, px=2, py=2,
          overlaps=(2,), dts=(0.05,), horizon=0.5), 1),
])
def test_unconverged_runs_are_reported_in_the_header_and_on_stderr(kw, count, capsys):
    short = run_experiment(ExperimentConfig(max_iterations=2, **kw))
    assert f"# unconverged_runs: {count}" in short.summary_csv().splitlines()
    assert f"# unconverged_runs: {count}" in short.decay_csv().splitlines()
    assert f"letd: warning: {count} run(s) used all 2 iterations" in capsys.readouterr().err
    done = run_experiment(ExperimentConfig(**kw))
    header = done.summary_csv().splitlines()
    assert not any(line.startswith("# unconverged_runs") for line in header)
    assert capsys.readouterr().err == ""


def test_piece_errors_reject_a_trajectory_holding_a_nan():
    # the studies measure every piece through analysis.linf_norms, which
    # raises on a NaN instead of letting it through to the CSV
    problem = builtin_problem("analytic_1d")
    grid = make_grid_1d(15, problem.length, origin=problem.origin)
    layout = decompose_1d(grid, 2, 2)
    times = TimeGrid(problem.horizon, 4).times()
    trajs = [problem.exact(*grid.mesh(box), times[:, None]) for box in layout.pieces]
    errors = harness._piece_errors(problem, grid, layout.pieces, trajs, times)
    assert [e.linf_spacetime for e in errors] == [0.0, 0.0]
    trajs[1][2, 3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        harness._piece_errors(problem, grid, layout.pieces, trajs, times)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _bodies(result):
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if not line.startswith("#"))
    return strip(result.decay_csv()), strip(result.summary_csv())


def test_csv_schemas_and_headers():
    cfg = ExperimentConfig(problem="error_equation", solver="method1",
                           scheme="etd1", n=31, dts=(0.25,), horizon=1.0,
                           overlaps=(2,), fixed_iterations=8, seeds=1)
    res = run_experiment(cfg)
    decay, summary = res.decay_csv(), res.summary_csv()
    for text, columns in ((decay, DECAY_COLUMNS), (summary, SUMMARY_COLUMNS)):
        lines = text.splitlines()
        header = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == columns
        assert len(body) > 1
        assert any(l.startswith("# wall_time_s:") for l in header)
        # the config default is "full", but a 1d layout widens both sides
        assert "# overlap_convention: half" in header
        width = len(columns.split(","))
        assert all(len(l.split(",")) == width for l in body[1:])


def test_letd_runs_on_numpy_alone():
    # a fresh interpreter, so no other test's import of scipy counts
    src = str(Path(harness.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, letd.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_csv_bodies_are_deterministic_for_a_seed():
    kw = dict(problem="error_equation", solver="method2", scheme="etd1",
              n=63, dts=(0.1,), horizon=1.0, px=2, overlaps=(4,),
              fixed_iterations=10, seeds=2, seed=3)
    a = _bodies(run_experiment(ExperimentConfig(**kw)))
    b = _bodies(run_experiment(ExperimentConfig(**kw)))
    assert a == b
    kw["seed"] = 4
    c = _bodies(run_experiment(ExperimentConfig(**kw)))
    assert c[0] != a[0]  # different guesses, different decay curves


def _cell_by_cell_rows(run_id, log, time_level):
    """Decay rows built one cell at a time, as the harness once built them."""
    curves, start = (log.updates, 1) if log.errors is None else (log.errors, 0)
    base = curves[0].copy()
    base[base == 0.0] = 1.0
    return [(run_id, start + k, time_level, j, curves[k, j], curves[k, j] / base[j])
            for k in range(curves.shape[0]) for j in range(curves.shape[1])]


@pytest.mark.parametrize("errors", [True, False], ids=["errors", "updates"])
def test_decay_csv_is_byte_identical_to_cell_by_cell_formatting(errors):
    # a first row with a zero (normalized by 1), inf, nan, a subnormal and
    # 1e300; later rows with digits that need all 17 significant places
    first = [0.0, np.inf, np.nan, 5e-324, 1e300, 0.3]
    later = [[1 / 3, 2.5e-310, 1e300, 7.0, np.inf, 0.1], [2.0, 0.0, 1e-300, 1.5, np.nan, 1 / 7]]
    curves = np.array([first] + later)
    logs = [IterationLog(updates=curves[1:] if errors else curves,
                         errors=curves if errors else None, converged=True, iterations=2),
            IterationLog(updates=np.flip(curves, axis=1), errors=None, converged=False,
                         iterations=3)]
    result = ExperimentResult(ExperimentConfig())
    want = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for level, log in enumerate(logs):
            harness._decay_from_log(result.decay_rows, f"run-{level}", log, time_level=level)
            want += [harness._join(r) for r in _cell_by_cell_rows(f"run-{level}", log, level)]
    assert all(type(cell) in (str, int, float) for row in result.decay_rows for cell in row)
    body = [l for l in result.decay_csv().splitlines() if not l.startswith("#")]
    assert body == [DECAY_COLUMNS] + want


def test_write_creates_both_files(tmp_path):
    cfg = ExperimentConfig(problem="error_equation", solver="method1",
                           scheme="etd1", n=31, dts=(0.25,), horizon=1.0,
                           overlaps=(2,), fixed_iterations=8, seeds=1,
                           out=str(tmp_path / "runs"))
    run_experiment(cfg)
    assert (tmp_path / "runs" / "decay.csv").exists()
    assert (tmp_path / "runs" / "summary.csv").exists()
    text = (tmp_path / "runs" / "summary.csv").read_text()
    assert text.splitlines()[0].startswith("# problem: error_equation")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse(argv):
    return config_from_args(build_parser().parse_args(argv))


def test_cli_flags_map_to_config():
    cfg = _parse(["--problem", "error_equation", "--solver", "method1",
                  "--scheme", "etd2", "--dt", "0.02,0.01", "--T", "1.0",
                  "--subdomains", "4", "--overlap-cells", "1,8",
                  "--fixed-iters", "12", "--seeds", "3", "--seed", "9"])
    assert cfg.problem == "error_equation" and cfg.solver == "method1"
    assert cfg.scheme == "etd2" and cfg.dts == (0.02, 0.01)
    assert cfg.px == 4 and cfg.py == 1 and cfg.overlaps == (1, 8)
    assert cfg.fixed_iterations == 12 and cfg.seeds == 3 and cfg.seed == 9


def test_cli_parses_2d_subdomain_grid():
    cfg = _parse(["--problem", "analytic_2d", "--subdomains", "4x2",
                  "--n", "31", "--ny", "15", "--dt", "0.05", "--T", "0.5"])
    assert cfg.px == 4 and cfg.py == 2 and cfg.ny == 15


def test_cli_config_file_with_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "problem = analytic_1d\nsolver = mono\nscheme = etd2\n"
        "n = 63\ndt = 0.025\nT = 0.25\n# a comment\n")
    cfg = _parse(["--config", str(cfgfile)])
    assert cfg.problem == "analytic_1d" and cfg.solver == "mono"
    assert cfg.scheme == "etd2" and cfg.n == 63
    assert cfg.dts == (0.025,) and cfg.horizon == 0.25
    over = _parse(["--config", str(cfgfile), "--n", "31", "--scheme", "etd1"])
    assert over.n == 31 and over.scheme == "etd1"


def test_cli_rejects_bad_config_file(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("bogus = 1\n")
    assert main(["--config", str(bad_key)]) == 2
    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("no equals sign here\n")
    assert main(["--config", str(bad_line)]) == 2
    err = capsys.readouterr().err
    assert "letd:" in err
    # values are checked exactly like flags: types and choices
    for i, line in enumerate(("n = abc", "overlap_convention = diagonal")):
        bad_value = tmp_path / f"bad_value{i}.cfg"
        bad_value.write_text(line + "\n")
        assert main(["--config", str(bad_value)]) == 2
        assert "letd:" in capsys.readouterr().err


def test_config_file_and_flags_give_the_same_config(tmp_path):
    # a 2d waveform run reads every setting
    flags = ["--problem", "analytic_2d", "--solver", "method2", "--scheme", "etd2",
             "--n", "63", "--ny", "12", "--dt", "0.025", "--T", "0.25",
             "--subdomains", "3x2", "--overlap-cells", "2",
             "--overlap-convention", "half", "--tol", "1e-7", "--max-iters", "99",
             "--fixed-iters", "5", "--seed", "3", "--seeds", "2",
             "--window-steps", "4", "--out", str(tmp_path / "runs")]
    names = [flag[2:] for flag in flags[0::2]]
    # the keys alternate between the "-" and "_" spellings
    lines = [f"{name.replace('-', '_') if i % 2 else name} = {value}"
             for i, (name, value) in enumerate(zip(names, flags[1::2]))]
    assert "overlap-cells = 2" in lines and "overlap_convention = half" in lines
    cfgfile = tmp_path / "every.cfg"
    cfgfile.write_text("\n".join(lines) + "\n")
    from_file = _parse(["--config", str(cfgfile)])
    from_flags = _parse(flags)
    assert from_file == from_flags
    assert from_flags.dts == (0.025,) and from_flags.overlaps == (2,)
    assert (from_flags.px, from_flags.py) == (3, 2)
    # comma-separated sweeps (1d) read the same from a file
    sweep = ["--problem", "analytic_1d", "--dt", "0.025,0.0125", "--overlap-cells", "2,4"]
    sweepfile = tmp_path / "sweep.cfg"
    sweepfile.write_text("problem = analytic_1d\ndt = 0.025,0.0125\noverlap-cells = 2,4\n")
    from_flags = _parse(sweep)
    assert _parse(["--config", str(sweepfile)]) == from_flags
    assert from_flags.dts == (0.025, 0.0125) and from_flags.overlaps == (2, 4)
    # the parser is the table of settings: each dest is a config field,
    # and the file above names every one of them
    dests = {a.dest for a in build_parser()._actions} - {"help", "config"}
    assert dests - {"subdomains"} <= {f.name for f in fields(ExperimentConfig)}
    assert len(names) == len(dests)


@pytest.mark.parametrize("argv,message", [
    (["--problem", "analytic_1d", "--ny", "31"],
     "--ny: problem analytic_1d has no y axis"),
    (["--problem", "error_equation", "--ny", "31"],
     "--ny: problem error_equation has no y axis"),
    (["--problem", "analytic_1d", "--solver", "mono", "--subdomains", "4"],
     "--subdomains: solver mono runs one piece"),
    (["--problem", "analytic_2d", "--solver", "mono", "--overlap-cells", "2"],
     "--overlap-cells: solver mono runs one piece"),
    (["--problem", "analytic_1d", "--solver", "method2", "--seed", "3"],
     "--seed: problem analytic_1d with solver method2 draws no random guess"),
    (["--problem", "analytic_2d", "--solver", "method1", "--seeds", "2"],
     "--seeds: problem analytic_2d with solver method1 draws no random guess"),
    (["--problem", "analytic_1d", "--solver", "method2", "--overlap-convention", "half"],
     "--overlap-convention: problem analytic_1d widens both sides of a break by --overlap-cells"),
    (["--problem", "error_equation", "--overlap-convention", "full"],
     "--overlap-convention: problem error_equation widens both sides of a break by "
     "--overlap-cells"),
    (["--problem", "analytic_2d", "--solver", "mono", "--overlap-convention", "half"],
     "--overlap-convention: solver mono runs one piece"),
    (["--problem", "analytic_1d", "--solver", "mono", "--tol", "1e-8"],
     "--tol: solver mono does not iterate"),
    (["--problem", "analytic_2d", "--solver", "mono", "--max-iters", "50"],
     "--max-iters: solver mono does not iterate"),
    (["--problem", "analytic_1d", "--solver", "mono", "--fixed-iters", "4"],
     "--fixed-iters: solver mono does not iterate"),
    (["--problem", "error_equation", "--solver", "method1", "--tol", "1e-8"],
     "--tol: a rate study runs a fixed sweep budget"),
    (["--problem", "error_equation", "--solver", "method2", "--max-iters", "50"],
     "--max-iters: a rate study runs a fixed sweep budget"),
], ids=["ny-1d", "ny-rate", "subdomains-mono", "overlap-cells-mono", "seed-1d", "seeds-2d-method1",
        "overlap-convention-1d", "overlap-convention-rate", "overlap-convention-mono",
        "tol-mono", "max-iters-mono", "fixed-iters-mono", "tol-rate", "max-iters-rate"])
def test_cli_rejects_settings_the_run_does_not_use(argv, message, tmp_path, capsys):
    assert main(argv + ["--n", "15", "--dt", "0.125", "--T", "0.25"]) == 2
    assert message in capsys.readouterr().err
    # the same key from a config file is rejected too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(f"{k[2:]} = {v}" for k, v in zip(argv[0::2], argv[1::2])) + "\n")
    assert main(["--config", str(cfg), "--n", "15", "--dt", "0.125", "--T", "0.25"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,extra,notes", [
    (["--problem", "analytic_1d", "--solver", "method1", "--subdomains", "2",
      "--overlap-cells", "2", "--fixed-iters", "3"], ["--tol", "1e-3", "--max-iters", "7"],
     ["letd: note: --max-iters ignored: --fixed-iters runs a fixed sweep budget",
      "letd: note: --tol ignored: --fixed-iters runs a fixed sweep budget"]),
    (["--problem", "analytic_2d", "--solver", "method2", "--ny", "12", "--subdomains", "2x2",
      "--overlap-cells", "2", "--fixed-iters", "2"], ["--seeds", "3"],
     ["letd: note: --seeds ignored: a 2d method2 run draws one guess, from --seed"]),
], ids=["tol-max-iters-fixed", "seeds-2d-method2"])
def test_cli_notes_settings_that_another_one_overrides(argv, extra, notes, capsys):
    # the run goes on as without them: exit status 0, the same CSV body
    run = argv + ["--n", "15", "--dt", "0.125", "--T", "0.25"]
    body = lambda out: [line for line in out.splitlines() if not line.startswith("#")]
    assert main(run) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(run + extra) == 0
    noted = capsys.readouterr()
    assert noted.err.splitlines() == notes
    assert body(noted.out) == body(plain.out)


def test_cli_rejects_inconsistent_choices(capsys):
    rc = main(["--problem", "error_equation", "--solver", "mono"])
    assert rc == 2
    assert "letd:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--T", "inf", "horizon must be positive and finite, got inf"),
    ("--dt", "nan", "time step must be positive and finite, got nan"),
    ("--tol", "nan", "tolerance must be positive and finite, got nan"),
])
def test_cli_rejects_non_finite_settings(flag, value, message, capsys):
    rc = main(["--problem", "analytic_1d", "--solver", "method2", "--n", "31",
               "--dt", "0.125", "--T", "0.25", flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"letd: {message}\n"


def test_cli_rejects_a_rate_study_on_a_single_piece(capsys):
    rc = main(["--problem", "error_equation", "--solver", "method1", "--n", "15",
               "--dt", "0.125", "--T", "0.25", "--subdomains", "1", "--fixed-iters", "3",
               "--seeds", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "letd: a rate study needs at least 2 subdomains, got subdomains 1: "
        "a single piece has no interface\n")


@pytest.mark.parametrize("solver", ["method1", "method2"])
@pytest.mark.parametrize("budget", ["3", "4"])
def test_cli_rejects_a_rate_study_too_short_to_estimate(solver, budget, capsys):
    rc = main(["--problem", "error_equation", "--solver", solver, "--n", "15",
               "--dt", "0.125", "--T", "0.25", "--overlap-cells", "2",
               "--fixed-iters", budget, "--seeds", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"letd: a rate study needs fixed_iters >= 5, got {budget}: "
        "the contraction estimate uses the guess and at least 5 sweeps\n")
    # the shortest budget it accepts gives a rate
    assert main(["--problem", "error_equation", "--solver", solver, "--n", "15",
                 "--dt", "0.125", "--T", "0.25", "--overlap-cells", "2",
                 "--fixed-iters", "5", "--seeds", "1"]) == 0


def test_cli_rejects_windows_on_a_rate_study(capsys):
    # every window restarts the error curve from its guess, so the
    # contraction would be estimated across the restarts
    rc = main(["--problem", "error_equation", "--solver", "method2", "--scheme", "etd1",
               "--n", "63", "--dt", "0.05", "--T", "1", "--subdomains", "2",
               "--overlap-cells", "2", "--seeds", "2", "--window-steps", "5"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "letd: a rate study (problem error_equation) takes no window_steps, got 5: "
        "every window restarts the error curve from its guess, so no one curve gives the "
        "contraction\n")


@pytest.mark.parametrize("scheme,order", [("etd1", 1.0), ("etd2", 2.0)])
def test_observed_order_of_a_sweep_that_does_not_halve(scheme, order, capsys):
    # dt falls by 2.5 and then by 2: the order divides by log2 of the ratio
    rc = main(["--problem", "analytic_1d", "--solver", "mono", "--scheme", scheme,
               "--n", "511", "--dt", "0.025,0.01,0.005", "--T", "0.25"])
    assert rc == 0
    body = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in body[1:]]
    assert len(rows) == 3 and rows[0][9] == ""
    assert all(abs(float(row[9]) - order) < 0.1 for row in rows[1:]), rows


def test_cli_rejects_a_sweep_that_repeats_a_step(capsys):
    rc = main(["--problem", "analytic_1d", "--solver", "mono", "--n", "31",
               "--dt", "0.025,0.0125,0.025", "--T", "0.25"])
    assert rc == 2
    assert capsys.readouterr().err == "letd: the time step sweep 0.025,0.0125,0.025 repeats a step\n"


def test_cli_prints_summary_to_stdout(capsys):
    rc = main(["--problem", "error_equation", "--solver", "method1",
               "--scheme", "etd1", "--n", "31", "--dt", "0.25", "--T", "1.0",
               "--overlap-cells", "2", "--fixed-iters", "8", "--seeds", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert SUMMARY_COLUMNS in out
    data = [l for l in out.splitlines() if l and not l.startswith("#")][1]
    fields = data.split(",")
    assert fields[10] == "8"            # iterations used = fixed budget
    assert 0.0 < float(fields[7]) < 1.0  # contraction estimate


def test_cli_writes_files_when_out_given(tmp_path, capsys):
    rc = main(["--problem", "error_equation", "--solver", "method1",
               "--scheme", "etd1", "--n", "31", "--dt", "0.25", "--T", "1.0",
               "--overlap-cells", "2", "--fixed-iters", "8", "--seeds", "1",
               "--out", str(tmp_path / "cli_out")])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "cli_out" / "summary.csv").exists()
    assert (tmp_path / "cli_out" / "decay.csv").exists()


# ---------------------------------------------------------------------------
# pinned output: small runs of every problem x solver, recorded rows
# ---------------------------------------------------------------------------

# (config, summary rows, decay row count, last decay row), recorded from the
# released code; refactors must reproduce them
PINNED_RUNS = [
    (dict(problem='error_equation', solver='method1', scheme='etd2', n=31, dts=(0.25,),
          horizon=1.0, px=3, overlaps=(1, 2), fixed_iterations=10, seeds=2, seed=7),
     [('error_equation-method1-etd2-d1-dt0.25-T1-P3', 1, 0.25, 1.0, 3, 'etd2', 'method1', 0.7784047259271369, '', '', 10),
      ('error_equation-method1-etd2-d2-dt0.25-T1-P3', 2, 0.25, 1.0, 3, 'etd2', 'method1', 0.6037625464647074, '', '', 10)],
     176, ('error_equation-method1-etd2-d2-dt0.25-T1-P3-s8', 10, 1, 3, 0.00427342162513156, 0.005419348668180671)),
    (dict(problem='error_equation', solver='method2', scheme='etd1', n=31, dts=(0.1,),
          horizon=1.0, px=2, overlaps=(2, 4), fixed_iterations=10, seeds=2, seed=1),
     [('error_equation-method2-etd1-d2-dt0.1-T1-P2', 2, 0.1, 1.0, 2, 'etd1', 'method2', 0.7411944163223377, '', '', 10),
      ('error_equation-method2-etd1-d4-dt0.1-T1-P2', 4, 0.1, 1.0, 2, 'etd1', 'method2', 0.5392466364535391, '', '', 10)],
     88, ('error_equation-method2-etd1-d4-dt0.1-T1-P2-s2', 10, 0, 1, 0.00124499586962423, 0.0012869026279363621)),
    (dict(problem='analytic_1d', solver='mono', scheme='etd2', n=63, dts=(0.025, 0.0125),
          horizon=0.25),
     [('analytic_1d-mono-etd2-dt0.025-T0.25', 0, 0.025, 0.25, 1, 'etd2', 'mono', '', 0.005434070632640392, '', ''),
      ('analytic_1d-mono-etd2-dt0.0125-T0.25', 0, 0.0125, 0.25, 1, 'etd2', 'mono', '', 0.001670706273240724, 1.7015752024155235, '')],
     0, None),
    (dict(problem='analytic_1d', solver='method1', scheme='etd2', n=63, px=3,
          overlaps=(2,), dts=(0.025, 0.0125), horizon=0.25),
     [('analytic_1d-method1-etd2-d2-dt0.025-T0.25', 2, 0.025, 0.25, 3, 'etd2', 'method1', '', 0.014637301080213824, '', 140),
      ('analytic_1d-method1-etd2-d2-dt0.0125-T0.25', 2, 0.0125, 0.25, 3, 'etd2', 'method1', '', 0.004356875974461602, 1.748283614449149, 200)],
     1360, ('analytic_1d-method1-etd2-d2-dt0.0125-T0.25', 10, 20, 3, 1.646402758570531e-07, 1.2470316182192926e-06)),
    (dict(problem='analytic_1d', solver='method2', scheme='etd1', n=63, px=2,
          overlaps=(2, 4), dts=(0.025, 0.0125), horizon=0.25, window_steps=4),
     [('analytic_1d-method2-etd1-d2-dt0.025-T0.25', 2, 0.025, 0.25, 2, 'etd1', 'method2', '', 0.26129832443266615, '', 65),
      ('analytic_1d-method2-etd1-d2-dt0.0125-T0.25', 2, 0.0125, 0.25, 2, 'etd1', 'method2', '', 0.14303669602059016, 0.8693125559902809, 75),
      ('analytic_1d-method2-etd1-d4-dt0.025-T0.25', 4, 0.025, 0.25, 2, 'etd1', 'method2', '', 0.20076787682708255, '', 31),
      ('analytic_1d-method2-etd1-d4-dt0.0125-T0.25', 4, 0.0125, 0.25, 2, 'etd1', 'method2', '', 0.10543505775929171, 0.9291738032090665, 35)],
     412, ('analytic_1d-method2-etd1-d4-dt0.0125-T0.25', 35, 0, 1, 0.0003585786194744145, 0.0006088925983843786)),
    (dict(problem='analytic_2d', solver='mono', scheme='etd2', n=15, ny=12, dts=(0.05,),
          horizon=0.5),
     [('analytic_2d-mono-etd2-dt0.05-T0.5-P2x1', '', 0.05, 0.5, 1, 'etd2', 'mono', '', 0.0047741016038086725, '', '')],
     0, None),
    (dict(problem='analytic_2d', solver='method1', scheme='etd2', n=15, ny=12, px=2, py=2,
          overlaps=(2,), overlap_convention='half', dts=(0.05,), horizon=0.5),
     [('analytic_2d-method1-etd2-dt0.05-T0.5-P2x2', 2, 0.05, 0.5, 2, 'etd2', 'method1', '', 0.005232598475528982, '', 4)],
     128, ('analytic_2d-method1-etd2-dt0.05-T0.5-P2x2', 4, 4, 7, 2.4623910632737278e-08, 9.173539319760068e-07)),
    (dict(problem='analytic_2d', solver='method2', scheme='etd2', n=15, ny=12, px=2, py=2,
          overlaps=(3,), dts=(0.05,), horizon=0.5, seed=4),
     [('analytic_2d-method2-etd2-dt0.05-T0.5-P2x2', 3, 0.05, 0.5, 2, 'etd2', 'method2', '', 0.0053832065658504236, '', 13)],
     104, ('analytic_2d-method2-etd2-dt0.05-T0.5-P2x2', 13, 0, 7, 1.6914431102965644e-07, 2.531939543860838e-07)),
]


def _same_field(got, want):
    # floats to 1e-12 relative; text and integer fields exactly
    if isinstance(want, float) and not isinstance(got, str):
        return abs(got - want) <= 1e-12 * abs(want)
    return isinstance(got, str) == isinstance(want, str) and got == want


def _same_row(got, want):
    return len(got) == len(want) and all(_same_field(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("kw,summary,n_decay,last_decay", PINNED_RUNS,
                         ids=[f"{kw['problem']}-{kw['solver']}" for kw, *_ in PINNED_RUNS])
def test_pinned_summary_rows_of_every_problem_and_solver(kw, summary, n_decay, last_decay):
    res = run_experiment(ExperimentConfig(**kw))
    assert len(res.summary_rows) == len(summary)
    for got, want in zip(res.summary_rows, summary):
        assert _same_row(tuple(got), want), (got, want)
    assert len(res.decay_rows) == n_decay
    if last_decay is not None:
        # the last row's raw_update and normalized_error are small late
        # iterates; compare them against the run's first update (pinned
        # raw / pinned normalized), not relative to themselves
        got = tuple(res.decay_rows[-1])
        assert _same_row(got[:4], last_decay[:4]), got
        raw, norm = last_decay[4:]
        assert abs(got[5] - norm) <= 1e-12, got
        assert abs(got[4] - raw) <= 1e-12 * raw / norm, got
